"""Outside-in tracing of one benchmark pass.

`install` wraps public moebiuskit functions from the outside, without
changing the library: a module-level function is replaced at every module
that binds it (its defining module, the modules that imported it by name
and the package namespace), and a method is replaced once on its class.
Per-morphism hot paths such as `GroupoidFunctor.__call__` stay unwrapped;
`principal_edge`, called once per simplex and letter, only counts calls.

A span records its name, start, end and parent.  Spans stay in memory and
are written out by `write` when the pass ends.  `layer_metrics` turns them
into per-layer self times (span time minus the time of its child spans)
and counts read from return values.

The lazy builders `level`, `cell`, `iso_classes` and `word_groupoid`
return a memoized object after their first call; only the first call
that returns a given object is a build and keeps its span.
"""

from __future__ import annotations

import functools
import gzip
from array import array
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("examples", "simplicial", "groupoid", "incidence", "catposet",
          "bicomodule", "cli")


class Tracer:
    def __init__(self):
        # span i: name_ids[i], starts[i], ends[i], parents[i] (-1 at a root)
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts = Counter()
        self._stack = []
        self._paused = False
        self._undo = []
        self._seen = {}            # id -> memoized object already returned once
        self.example_spaces = {}   # id -> space built by moebiuskit.examples
        self.nerve_spaces = {}     # id -> space built by catposet.nerve
        self.example_levels = {}   # id -> groupoid of an examples level

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name, measure=None, first_only=False):
        """Record a span per call of fn.  `name` is a string or a function
        of the call's arguments; `measure(result, *args)` runs untraced
        after the call and updates counters.  With `first_only`, a call
        returning an object seen before leaves no span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.ends[idx] = time.perf_counter()
            if first_only:
                if id(result) in tracer._seen:
                    if idx == len(tracer.starts) - 1:
                        tracer._drop_last()
                    return result
                tracer._seen[id(result)] = result
            if measure is not None:
                tracer._paused = True
                try:
                    measure(result, *args, **kwargs)
                finally:
                    tracer._paused = False
            return result

        return traced

    def _open(self, name) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _drop_last(self) -> None:
        for column in (self.name_ids, self.starts, self.ends, self.parents):
            column.pop()

    def __len__(self):
        return len(self.starts)

    def count_calls(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def replace_function(self, module, attr, wrapped_fn):
        """Rebind module.attr everywhere in moebiuskit that binds the same
        function object."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "moebiuskit" and not mod_name.startswith("moebiuskit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped_fn)
                    self._undo.append((mod, key, original))

    def replace_method(self, cls, attr, wrapped_fn):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped_fn)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """{span name: (self seconds, span count)} and the summed duration
        of the root spans."""
        child = [0.0] * len(self)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: [0.0, 0])
        roots = 0.0
        for i, parent in enumerate(self.parents):
            duration = self.ends[i] - self.starts[i]
            entry = out[self.names[self.name_ids[i]]]
            entry[0] += duration - child[i]
            entry[1] += 1
            if parent < 0:
                roots += duration
        return {k: tuple(v) for k, v in out.items()}, roots

    def inclusive_times(self) -> dict:
        """{layer: seconds inside any span of that layer}, counting the
        work it calls in other layers and each nested stretch once."""
        layer_of = [name.split(".")[0] for name in self.names]
        out = defaultdict(float)
        for i in range(len(self)):
            layer = layer_of[self.name_ids[i]]
            parent = self.parents[i]
            while parent >= 0 and layer_of[self.name_ids[parent]] != layer:
                parent = self.parents[parent]
            if parent < 0:
                out[layer] += self.ends[i] - self.starts[i]
        return out

    def nesting_errors(self) -> int:
        """Spans that end before they start or stick out of their parent."""
        bad = 0
        for i, parent in enumerate(self.parents):
            start, end = self.starts[i], self.ends[i]
            if end < start or (parent >= 0 and (start < self.starts[parent]
                                                or end > self.ends[parent])):
                bad += 1
        return bad

    def write(self, path):
        """All spans as JSON lines [name, start, end, parent], gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name_ids[i]], self.starts[i],
                                     self.ends[i], self.parents[i]]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer."""
    from moebiuskit import bicomodule as bc
    from moebiuskit import catposet as cp
    from moebiuskit import cli
    from moebiuskit import examples as ex
    from moebiuskit import groupoid as gp
    from moebiuskit import incidence as inc
    from moebiuskit import simplicial as sp

    c = tracer.counts

    def remember(registry):
        def measure(space, *args, **kwargs):
            registry[id(space)] = space
        return measure

    def level_name(space, n):
        if id(space) in tracer.example_spaces:
            return "examples.level_build"
        if id(space) in tracer.nerve_spaces:
            return "catposet.nerve_level"
        return "simplicial.level_build"

    def level_measure(G, space, *args):
        if id(space) in tracer.example_spaces:
            c["examples.level_build.objects"] += len(G.objects)
            tracer.example_levels[id(G)] = G
        elif id(space) in tracer.nerve_spaces:
            c["catposet.nerve_level.objects"] += len(G.objects)

    def cell_name(B, i, j):
        return ("examples.level_build" if id(B) in tracer.example_spaces
                else "bicomodule.cell_build")

    def cell_measure(G, B, *args):
        if id(B) in tracer.example_spaces:
            c["examples.level_build.objects"] += len(G.objects)
            tracer.example_levels[id(G)] = G

    def iso_measure(table, G):
        c["groupoid.iso_classes.objects"] += len(G.objects)
        c["groupoid.iso_classes.classes"] += len(table.reps)
        if id(G) in tracer.example_levels:
            c["examples.labelled_per_class.objects"] += len(G.objects)
            c["examples.labelled_per_class.classes"] += len(table.reps)

    def word_measure(result, X, word):
        c["simplicial.word_groupoid.kept"] += len(result.groupoid.objects)
        c["simplicial.word_groupoid.scanned"] += len(X.level(len(word)).objects)

    def pullback_measure(result, *args, **kwargs):
        c["groupoid.homotopy_pullback.objects"] += len(result[0].objects)

    def square_measure(result, *args, **kwargs):
        c["groupoid.is_pullback_square.failed"] += not result.passed

    functions = [
        (ex, "layered_sets", "examples.space", remember(tracer.example_spaces)),
        (ex, "layered_posets", "examples.space", remember(tracer.example_spaces)),
        (ex, "sets_posets_bicomodule", "examples.space", remember(tracer.example_spaces)),
        (ex, "canonical_form", "examples.canonical_form", None),
        (ex, "aut_perms", "examples.aut_perms", None),
        (ex, "enumerate_posets", "examples.enumerate_posets", None),
        (ex, "mu_posets", "examples.mu_posets", None),
        (sp, "check_axioms", "simplicial.check_axioms", None),
        (gp, "homotopy_pullback", "groupoid.homotopy_pullback", pullback_measure),
        (gp, "functors_equal", "groupoid.functors_equal", None),
        (gp, "is_equivalence", "groupoid.is_equivalence", None),
        (gp, "is_pullback_square", "groupoid.is_pullback_square", square_measure),
        (gp, "fiber_cardinality", "groupoid.fiber_cardinality", None),
        (gp, "weighted_fiber", "groupoid.weighted_fiber", None),
        (gp, "is_monomorphism", "groupoid.is_monomorphism", None),
        (inc, "phi_n", "incidence.phi_n", None),
        (inc, "comultiply", "incidence.comultiply", None),
        (inc, "mobius", "incidence.mobius", None),
        (inc, "verify_inversion", "incidence.verify_inversion", None),
        (cp, "nerve", "catposet.nerve", remember(tracer.nerve_spaces)),
        (cp, "classical_mobius", "catposet.classical_mobius", None),
        (cp, "is_mobius_category", "catposet.is_mobius_category", None),
        (bc, "coact", "bicomodule.coact", None),
        (bc, "convolve_action", "bicomodule.convolve_action", None),
        (bc, "rota_evaluate", "bicomodule.rota_evaluate", None),
        (cli, "main", "cli.main", None),
        (cli, "emit_rows", "cli.emit_rows", None),
    ]
    for module, attr, name, measure in functions:
        tracer.replace_function(module, attr,
                                tracer.wrap(getattr(module, attr), name, measure))

    tracer.replace_function(sp, "word_groupoid", tracer.wrap(
        sp.word_groupoid, "simplicial.word_groupoid", word_measure, first_only=True))
    methods = [
        (gp.FiniteGroupoid, "iso_classes", "groupoid.iso_classes", iso_measure),
        (sp.TruncatedSimplicialGroupoid, "level", level_name, level_measure),
        (bc.AugmentedBisimplicialGroupoid, "cell", cell_name, cell_measure),
    ]
    for cls, attr, name, measure in methods:
        tracer.replace_method(cls, attr, tracer.wrap(cls.__dict__[attr], name, measure,
                                                     first_only=True))
    tracer.replace_method(sp.TruncatedSimplicialGroupoid, "principal_edge",
                          tracer.count_calls(sp.TruncatedSimplicialGroupoid.principal_edge,
                                             "simplicial.principal_edge.calls"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_ratio: float,
                  cache_entries: int) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    selfs, roots = tracer.self_times()
    c = tracer.counts

    def self_s(name):
        return selfs.get(name, (0.0, 0))[0]

    def calls(name):
        return selfs.get(name, (0.0, 0))[1]

    out = {}
    for name in ("examples.level_build", "examples.canonical_form", "examples.aut_perms",
                 "examples.enumerate_posets", "simplicial.word_groupoid",
                 "simplicial.check_axioms", "groupoid.iso_classes",
                 "groupoid.homotopy_pullback", "groupoid.functors_equal",
                 "groupoid.is_equivalence", "groupoid.is_pullback_square",
                 "groupoid.fiber_cardinality", "groupoid.weighted_fiber",
                 "groupoid.is_monomorphism", "incidence.phi_n", "incidence.comultiply",
                 "incidence.mobius", "incidence.verify_inversion", "catposet.nerve_level",
                 "catposet.classical_mobius", "bicomodule.coact",
                 "bicomodule.convolve_action", "bicomodule.rota_evaluate", "cli.main",
                 "cli.emit_rows"):
        out[name + ".self_s"] = (self_s(name), "s")
    for name in ("examples.canonical_form", "groupoid.functors_equal",
                 "groupoid.is_pullback_square", "groupoid.fiber_cardinality",
                 "incidence.phi_n", "incidence.comultiply", "incidence.mobius",
                 "catposet.is_mobius_category", "bicomodule.coact"):
        out[name + ".calls"] = (calls(name), "count")
    out["groupoid.iso_classes.builds"] = (calls("groupoid.iso_classes"), "count")
    out["examples.level_build.objects"] = (c["examples.level_build.objects"], "count")
    out["examples.labelled_per_class"] = (
        _ratio(c["examples.labelled_per_class.objects"],
               c["examples.labelled_per_class.classes"]), "ratio")
    out["examples.labelled_per_class.objects"] = (
        c["examples.labelled_per_class.objects"], "count")
    out["examples.labelled_per_class.classes"] = (
        c["examples.labelled_per_class.classes"], "count")
    out["examples.cache_entries"] = (cache_entries, "count")
    out["simplicial.word_groupoid.kept_ratio"] = (
        _ratio(c["simplicial.word_groupoid.kept"], c["simplicial.word_groupoid.scanned"]),
        "ratio")
    out["simplicial.principal_edge.calls"] = (c["simplicial.principal_edge.calls"], "count")
    out["groupoid.iso_classes.objects_per_class"] = (
        _ratio(c["groupoid.iso_classes.objects"], c["groupoid.iso_classes.classes"]), "ratio")
    out["groupoid.homotopy_pullback.objects"] = (
        c["groupoid.homotopy_pullback.objects"], "count")
    out["groupoid.is_pullback_square.failed"] = (
        c["groupoid.is_pullback_square.failed"], "count")
    out["catposet.nerve_level.objects"] = (c["catposet.nerve_level.objects"], "count")
    inclusive = tracer.inclusive_times()
    for layer in LAYERS:
        total = sum(v[0] for k, v in selfs.items() if k.split(".")[0] == layer)
        out[layer + ".share"] = (_ratio(total, traced_wall), "ratio")
        out[layer + ".inclusive_share"] = (_ratio(inclusive[layer], traced_wall), "ratio")
    remainder = traced_wall - roots
    out["trace.untraced_share"] = (_ratio(remainder, traced_wall), "ratio")
    # 1 exactly when the spans nest: self times then sum to the root spans
    out["trace.accounted_ratio"] = (
        _ratio(sum(v[0] for v in selfs.values()) + remainder, traced_wall)
        if tracer.nesting_errors() == 0 else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
