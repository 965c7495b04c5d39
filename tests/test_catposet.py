import collections
import itertools
import os
import re
import subprocess
import sys
import weakref

import pytest

import moebiuskit
from moebiuskit import catposet
from moebiuskit.bicomodule import validate_configuration
from moebiuskit.catposet import (
    Adjunction,
    CorrespondenceCat,
    FinCategory,
    FinPoset,
    chain_poset,
    check_adjunction,
    classical_mobius,
    FinFunctor,
    correspondence_bisimplicial,
    divisor_poset,
    fibration_report,
    is_mobius_category,
    mapping_cylinder,
    nerve,
    poset_functor,
    rota_direct,
)
from moebiuskit.examples import enumerate_posets
from moebiuskit.groupoid import DomainError, StructureError
from moebiuskit.incidence import verify_inversion
from moebiuskit.simplicial import InsufficientLevelsError, check_axioms

from conftest import poset_mobius_oracle, random_poset, random_quiver_category, seeded


def boolean_lattice_2():
    return FinPoset(["bot", "a", "b", "top"],
                    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])


def chain_adjunction():
    F = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    G = poset_functor(chain_poset(2), chain_poset(3), {0: 1, 1: 2})
    return F, G


def involution_category():
    """One object with a non-identity involution g, g.g = id."""
    mors = {"id": ("*", "*"), "g": ("*", "*")}
    compose = {("id", "id"): "id", ("id", "g"): "g",
               ("g", "id"): "g", ("g", "g"): "id"}
    return FinCategory(["*"], mors, compose, {"*": "id"}, name="BZ2")


def cyclic_group_category(n):
    """One object whose arrows g0..g{n-1} compose as Z_n."""
    mors = {f"g{i}": ("*", "*") for i in range(n)}
    compose = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return FinCategory(["*"], mors, compose, {"*": "g0"}, name=f"BZ{n}")


def idempotent_category():
    """One object with a non-identity idempotent e, e.e = e."""
    mors = {"id": ("*", "*"), "e": ("*", "*")}
    compose = {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "e"}
    return FinCategory(["*"], mors, compose, {"*": "id"}, name="idempotent")


def iso_pair_with_tail():
    """Objects a, b with inverse isomorphisms u: a -> b, v: b -> a, and an
    arrow t: b -> c leaving the pair (with t.u: a -> c)."""
    ends = {"ia": ("a", "a"), "ib": ("b", "b"), "ic": ("c", "c"), "u": ("a", "b"),
            "v": ("b", "a"), "t": ("b", "c"), "tu": ("a", "c")}
    compose = {("u", "v"): "ia", ("v", "u"): "ib", ("u", "t"): "tu", ("v", "tu"): "t"}
    for m, (a, b) in ends.items():
        compose["i" + a, m] = compose[m, "i" + b] = m
    return FinCategory(["a", "b", "c"], ends, compose,
                       {"a": "ia", "b": "ib", "c": "ic"}, name="iso pair with tail")


def test_poset_closure_and_cycle_rejection():
    P = FinPoset([0, 1, 2], [(0, 1), (1, 2)])
    assert P.leq(0, 2)          # transitivity computed
    assert P.leq(1, 1)          # reflexivity
    with pytest.raises(StructureError):
        FinPoset([0, 1], [(0, 1), (1, 0)])


def test_category_validation():
    C = FinCategory.from_poset(chain_poset(3))
    C.validate()
    Q = FinCategory.free_on_quiver([0, 1, 2], [("a", 0, 1), ("b", 1, 2)])
    Q.validate()
    assert len(Q.hom(0, 2)) == 1
    with pytest.raises(StructureError):
        FinCategory.free_on_quiver([0], [("loop", 0, 0)])


def _edited_z3(f, g, gf):
    """Z_3 on one object with the composite of g after f changed to gf or,
    when gf is None, missing from the table."""
    C = cyclic_group_category(3)
    table = dict(C._compose)
    del table[f, g]
    if gf is not None:
        table[f, g] = gf
    return FinCategory(C.objects, C.morphisms, table, C.identities)


def _with_units(arrows, composites):
    """The arrows, then an identity i<n> on each of their ends, and the
    given composites with every unit composite added."""
    ends = sorted({x for ab in arrows.values() for x in ab})
    idents = {x: f"i{x}" for x in ends}
    mors = arrows | {f"i{x}": (x, x) for x in ends}
    table = dict(composites)
    for m, (a, b) in mors.items():
        table[idents[a], m] = table[m, idents[b]] = m
    return FinCategory(ends, mors, table, idents)


@pytest.mark.parametrize("category, message", [
    (lambda: FinCategory([0, 1], {"i0": (0, 0), "i1": (1, 1)},
                         {("i0", "i0"): "i0", ("i1", "i1"): "i1"}, {0: "i0", 1: "i0"}),
     "identity of 1 has wrong endpoints"),
    (lambda: _edited_z3("g0", "g1", "g2"), "right unit fails at 'g1'"),
    (lambda: _edited_z3("g1", "g0", "g2"), "left unit fails at 'g1'"),
    (lambda: _with_units({"f": (0, 1), "g": (1, 2), "gf": (0, 2)}, {("f", "g"): "g"}),
     "composite 'g' has wrong endpoints"),
    (lambda: _edited_z3("g1", "g1", "g0"), "associativity fails"),
    (lambda: _edited_z3("g2", "g2", None), "composition table misses ('g2', 'g2')"),
    # a triple (i0, f, g) meets the faulty composite g . f = g before the
    # pairs out of f reach it; the endpoints of every pair are checked
    # before any triple, so the composite is named, not the stray entry
    # for g after i0
    (lambda: _with_units({"i0": (0, 0), "f": (0, 1), "g": (1, 2), "gf": (0, 2)},
                         {("f", "g"): "g", ("i0", "g"): "g"}),
     "composite 'g' has wrong endpoints"),
], ids=["identity", "right-unit", "left-unit", "composite", "associativity", "missing",
        "triple-first"])
def test_category_validation_names_each_failure(category, message):
    C = category()
    error = DomainError if message.startswith("not composable") else StructureError
    with pytest.raises(error) as info:
        C.validate()
    assert str(info.value) == message


def test_nerve_of_trivial_category_single_simplices():
    N = nerve(FinPoset(["*"]), max_level=4)
    for n in range(5):
        assert len(N.level(n).objects) == 1
    assert check_axioms(N, "complete", 1).passed


def test_spaces_of_unnamed_categories_drop_the_empty_name():
    N = nerve(chain_poset(3), max_level=6)
    assert N.name == "N"
    with pytest.raises(InsufficientLevelsError, match=r"truncated at 6 \(for N\)$"):
        N.level(7)
    F = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    B = correspondence_bisimplicial(mapping_cylinder(F), 2, 2)
    assert (B.name, B.x_space().name, B.y_space().name) == ("N/D1(M)", "N(M_0)", "N(M_1)")


def test_is_mobius_category():
    report = is_mobius_category(FinCategory.from_poset(chain_poset(3)))
    assert report and report.max_chain_length == 2
    bad = is_mobius_category(involution_category())
    assert not bad and "cycle" in bad.witness
    quiver = FinCategory.free_on_quiver([0, 1, 2, 3],
                                        [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)])
    report = is_mobius_category(quiver)
    assert report and report.max_chain_length == 3


def identity_free_runs(C, max_len):
    """Every composable run of 1..max_len non-identity arrows, by brute force."""
    arrows = [m for m in C.morphisms if not C.is_identity(m)]
    runs = out = [(m,) for m in arrows]
    for _ in range(max_len - 1):
        runs = [r + (m,) for r in runs for m in arrows if C.src(m) == C.tgt(r[-1])]
        out = out + runs
    return out


def oracle_categories(seed):
    rng = seeded(seed)
    cats = [FinCategory.from_poset(random_poset(rng)) for _ in range(10)]
    cats += [random_quiver_category(rng) for _ in range(10)]
    cats += [cyclic_group_category(n) for n in (2, 3, 4)]
    return cats + [idempotent_category(), iso_pair_with_tail()]


def test_is_mobius_category_matches_brute_force_runs():
    # Mobius exactly when no run of at most N + 1 non-identity arrows repeats
    # an arrow (N non-identity arrows); the length is the longest run, and a
    # cycle witness starts a run that returns to its source
    cyclic = 0
    for C in oracle_categories(11):
        C.validate()
        n = sum(not C.is_identity(m) for m in C.morphisms)
        runs = identity_free_runs(C, n + 1)
        report = is_mobius_category(C)
        assert report.is_mobius == all(len(set(r)) == len(r) for r in runs)
        if report:
            assert report.max_chain_length == max(map(len, runs), default=0)
            continue
        cyclic += 1
        (f,) = [m for m in C.morphisms if report.witness == f"composable cycle through {m!r}"]
        assert any(r[0] == f and C.tgt(r[-1]) == C.src(f) for r in runs)
    assert cyclic == 5


def test_a_one_object_group_is_refused_at_its_first_layer(monkeypatch):
    # a chain of |Ob| non-identity arrows repeats an object, so on Z_200 the
    # first layer shows the cycle: only the arrows out of the identity are
    # composed, not the 200 layers of N + 1 arrows
    C = cyclic_group_category(200)
    compose, calls = C.compose, []
    monkeypatch.setattr(C, "compose", lambda g, f: calls.append((g, f)) or compose(g, f))
    report = is_mobius_category(C)
    assert not report and report.max_chain_length is None
    (f,) = [m for m in C.morphisms if report.witness == f"composable cycle through {m!r}"]
    assert not C.is_identity(f) and C.src(f) == C.tgt(f)    # a cycle of one arrow
    assert len(calls) < len(C.morphisms)
    with pytest.raises(DomainError, match="not a Mobius category"):
        classical_mobius(C, f)


def test_nerve_levels_are_the_composable_chains_in_morphism_order():
    for C in oracle_categories(12):
        N = nerve(C, max_level=4)
        assert N.level(0).objects == C.objects
        for n in range(1, 5):
            chains = tuple(c for c in itertools.product(C.morphisms, repeat=n)
                           if all(C.tgt(f) == C.src(g) for f, g in zip(c, c[1:])))
            assert N.level(n).objects == chains


def test_classical_mobius_chain_values():
    C = FinCategory.from_poset(chain_poset(3))
    assert classical_mobius(C, ("le", 0, 0)) == 1
    assert classical_mobius(C, ("le", 0, 1)) == -1
    assert classical_mobius(C, ("le", 0, 2)) == 0
    B = boolean_lattice_2()
    assert classical_mobius(FinCategory.from_poset(B), ("le", "bot", "top")) == 1


def test_classical_mobius_not_mobius_category_rejected():
    with pytest.raises(DomainError):
        classical_mobius(involution_category(), "g")


def test_classical_mobius_matches_recursion_oracle_catalog():
    # every interval of every poset with up to 6 elements in the catalog
    for n in range(7):
        for P, _aut in enumerate_posets(n):
            C = FinCategory.from_poset(P)
            oracle = poset_mobius_oracle(P)
            for a, b in P.intervals():
                assert classical_mobius(C, ("le", a, b)) == oracle(a, b)


def test_check_adjunction_chain_example():
    F, G = chain_adjunction()
    result = check_adjunction(F, G)
    assert result.ok
    result.adjunction.validate()
    # identity adjunction
    idf = poset_functor(chain_poset(2), chain_poset(2), {0: 0, 1: 1})
    assert check_adjunction(idf, idf).ok


def test_check_adjunction_wrong_right_adjoint():
    F = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    G_bad = poset_functor(chain_poset(2), chain_poset(3), {0: 0, 1: 2})
    result = check_adjunction(F, G_bad)
    assert not result.ok
    assert result.witness == (1, 0)


def test_check_adjunction_refuses_categories_with_other_morphisms():
    # G's categories have the objects of F's, but the antichain {0, 1}
    # lacks the arrow 0 <= 1 of the chain F lands in
    F = catposet.FinFunctor(FinCategory.from_poset(FinPoset([0])),
                            FinCategory.from_poset(chain_poset(2)), {0: 0})
    G = catposet.FinFunctor(FinCategory.from_poset(FinPoset([0, 1])),
                            FinCategory.from_poset(FinPoset([0])), {0: 0, 1: 0})
    assert G.source.objects == F.target.objects and G.target.objects == F.source.objects
    with pytest.raises(DomainError, match="^G must go back from the target of F$"):
        check_adjunction(F, G)
    # categories built apart from one poset have one table, and meet
    G = poset_functor(chain_poset(2), FinPoset([0]), {0: 0, 1: 0})
    assert G.source is not F.target and check_adjunction(F, G).ok


def test_rota_direct_chain_adjunction_values():
    F, G = chain_adjunction()
    adj = check_adjunction(F, G).adjunction
    assert rota_direct(adj, 1, 0) == (1, 1)
    assert rota_direct(adj, 0, 0) == (0, 0)
    assert rota_direct(adj, 0, 1) == (0, 0)
    for x in F.source.objects:
        for y in F.target.objects:
            lhs, rhs = rota_direct(adj, x, y)
            assert lhs == rhs


def test_rota_direct_battery():
    batteries = []
    F, G = chain_adjunction()
    batteries.append((F, G))
    F2 = poset_functor(chain_poset(2), chain_poset(3), {0: 0, 1: 2})
    G2 = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    batteries.append((F2, G2))
    B = boolean_lattice_2()
    F3 = poset_functor(B, chain_poset(2),
                       {"bot": 0, "a": 1, "b": 1, "top": 1})
    G3 = poset_functor(chain_poset(2), B, {0: "bot", 1: "top"})
    batteries.append((F3, G3))
    for F, G in batteries:
        adj = check_adjunction(F, G).adjunction
        for x in F.source.objects:
            for y in F.target.objects:
                lhs, rhs = rota_direct(adj, x, y)
                assert lhs == rhs


def test_mapping_cylinder_identity_bicartesian():
    P = chain_poset(2)
    idf = poset_functor(P, P, {0: 0, 1: 1})
    corr = mapping_cylinder(idf)
    corr.category.validate()
    report = fibration_report(corr)
    assert None not in report.cocartesian.values() and None not in report.cartesian.values()
    # mixed homs realize the order relation
    M = corr.category
    assert len(M.hom(("x", 0), ("y", 1))) == 1
    assert len(M.hom(("x", 1), ("y", 0))) == 0


def test_mapping_cylinder_lift_search_matches_adjunction():
    # battery of ten monotone maps: the lift search grants a cartesian
    # structure exactly when exhaustive search finds a right adjoint
    from itertools import product as iproduct

    disc2 = FinPoset(["a", "b"])
    vee = FinPoset(["x", "y", "z"], [("x", "y"), ("x", "z")])
    b2 = boolean_lattice_2()
    battery = [
        (chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1}),
        (chain_poset(2), chain_poset(3), {0: 0, 1: 2}),
        (b2, chain_poset(2), {"bot": 0, "a": 1, "b": 1, "top": 1}),
        (chain_poset(2), b2, {0: "bot", 1: "top"}),
        (disc2, chain_poset(2), {"a": 0, "b": 1}),
        (vee, chain_poset(2), {"x": 0, "y": 1, "z": 1}),
        (chain_poset(2), vee, {0: "x", 1: "y"}),
        (chain_poset(3), chain_poset(3), {0: 0, 1: 0, 2: 0}),
        (chain_poset(2), chain_poset(2), {0: 1, 1: 1}),
        (vee, disc2, {"x": "a", "y": "a", "z": "a"}),
    ]
    assert len(battery) == 10
    for P, Q, fmap in battery:
        F = poset_functor(P, Q, fmap)
        report = fibration_report(mapping_cylinder(F))
        assert None not in report.cocartesian.values()
        yobs, xobs = list(Q.elements), list(P.elements)
        found = False
        for images in iproduct(xobs, repeat=len(yobs)):
            gmap = dict(zip(yobs, images))
            try:
                G = poset_functor(Q, P, gmap)
            except StructureError:
                continue  # not monotone
            if check_adjunction(F, G).ok:
                found = True
                break
        assert (None not in report.cartesian.values()) == found


def test_mapping_cylinder_without_right_adjoint():
    # two discrete points into a chain: no cartesian lift over the top
    disc = FinPoset(["a", "b"])
    F = poset_functor(disc, chain_poset(2), {"a": 0, "b": 1})
    report = fibration_report(mapping_cylinder(F))
    assert None not in report.cocartesian.values()
    assert None in report.cartesian.values()
    assert report.cartesian[("y", 1)] is None


@pytest.mark.parametrize("P, Q, fmap, side, at, lift", [
    # {x} -> a < b, with b listed first: the first arrow out of x, to b,
    # is not cocartesian (nothing from b factors x -> a)
    (FinPoset(["x"]), FinPoset(["b", "a"], [("a", "b")]), {"x": "a"},
     "cocartesian", ("x", "x"), ("mix", "x", ("le", "a", "a"))),
    # q < p -> {y}: the first arrow into y, from q, is not cartesian
    # (nothing p -> y factors through q)
    (FinPoset(["q", "p"], [("q", "p")]), FinPoset(["y"]), {"q": "y", "p": "y"},
     "cartesian", ("y", "y"), ("mix", "p", ("le", "y", "y"))),
], ids=["cocartesian", "cartesian"])
def test_lift_search_passes_over_a_first_candidate_that_is_not_universal(
        P, Q, fmap, side, at, lift):
    corr = mapping_cylinder(poset_functor(P, Q, fmap))
    report = fibration_report(corr)
    assert getattr(report, side)[at] == lift
    assert None not in report.cocartesian.values() and None not in report.cartesian.values()
    pointings = validate_configuration(correspondence_bisimplicial(corr, 2, 2),
                                       1).sections["pointings"]
    assert pointings.passed and len(pointings.checks) == 6


def test_correspondence_labeling_invariant():
    P = chain_poset(2)
    idf = poset_functor(P, P, {0: 0, 1: 1})
    corr = mapping_cylinder(idf)
    bad_label = dict(corr.label)
    bad_label[("x", 0)] = 1  # creates a 1 -> 0 morphism
    with pytest.raises(StructureError):
        CorrespondenceCat(corr.category, bad_label)


@pytest.mark.parametrize("extra, message", [
    ({("y", 1): 2}, r"object \('y', 1\) has label 2, not 0 or 1"),
    ({("x", 0): "0"}, r"object \('x', 0\) has label '0', not 0 or 1"),
    ({("z", 0): 0}, r"label 0 given to \('z', 0\), which is not an object"),
], ids=["label 2", "string label", "label off the objects"])
def test_correspondence_labels_are_0_or_1_on_objects(extra, message):
    corr = mapping_cylinder(poset_functor(chain_poset(2), chain_poset(2), {0: 0, 1: 1}))
    with pytest.raises(StructureError, match=message):
        CorrespondenceCat(corr.category, {**corr.label, **extra})


def test_correspondence_bisimplicial_cells():
    F, G = chain_adjunction()
    corr = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 2, 2)
    # B_{0,0}: mixed arrows Fx <= y: 5 of them
    assert len(B.cell(0, 0).objects) == 5
    # borders are the pure chains
    assert len(B.cell(0, -1).objects) == 3
    assert len(B.cell(-1, 0).objects) == 2
    # pointings are sections
    s = B.section("right", 0)
    for x in B.cell(0, -1).objects:
        back = B.aug_u(0).ob(s.ob(x))
        assert back == x
    t = B.section("left", 0)
    for y in B.cell(-1, 0).objects:
        assert B.aug_v(0).ob(t.ob(y)) == y


def test_relative_nerve_cells_are_label_pattern_chains_of_the_nerve():
    F, _G = chain_adjunction()
    corr = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 2, 2)
    M = corr.category
    N = nerve(M, max_level=5)

    def pattern(c):
        return tuple(corr.label[M.src(a)] for a in c) + (corr.label[M.tgt(c[-1])],)

    for i in range(3):
        for j in range(3):
            expected = tuple(c for c in N.level(i + 1 + j).objects
                             if pattern(c) == (0,) * (i + 1) + (1,) * (j + 1))
            assert expected and B.cell(i, j).objects == expected


def test_relative_nerve_borders_are_nerves_of_the_fibers():
    F, _G = chain_adjunction()
    corr = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 2, 2)
    M = corr.category
    for bit, border in ((0, B.x_space()), (1, B.y_space())):
        sub = corr.over(bit)
        sub.validate()
        # the full subcategory, with the arrow names of M
        assert sub.objects == tuple(corr.objects_over(bit))
        assert sub.morphisms == {m: (a, b) for m, (a, b) in M.morphisms.items()
                                 if corr.label[a] == corr.label[b] == bit}
        ref = nerve(sub, max_level=2)
        for n in range(3):
            assert border.level(n).objects == ref.level(n).objects


def test_classical_mobius_rejects_unknown_morphism():
    C = FinCategory.from_poset(chain_poset(3))
    for f in [("le", 2, 0), ("le", 0, 9)]:
        with pytest.raises(DomainError, match="not a morphism"):
            classical_mobius(C, f)
    assert classical_mobius(C, ("le", 0, 1)) == -1


def test_mobius_category_search_runs_once_per_category(monkeypatch):
    calls = []
    counts = catposet._chain_counts
    monkeypatch.setattr(catposet, "_chain_counts",
                        lambda C: calls.append(C) or counts(C))
    C = FinCategory.from_poset(divisor_poset(12))
    table = {f: classical_mobius(C, f) for f in C.morphisms}
    assert len(calls) == 1
    assert table[("le", 1, 6)] == 1 and table[("le", 1, 12)] == 0


ORDER_SCRIPT = """
from moebiuskit.catposet import FinCategory, FinPoset, nerve
P = FinPoset(["bot", "a", "b", "top"],
             [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
print(list(FinCategory.from_poset(P).morphisms))
print(nerve(P, max_level=2).level(2).objects)
"""


def test_poset_category_order_does_not_depend_on_the_hash_seed():
    # string elements hash differently under each seed; the morphisms, and
    # so the nerve's object order, follow the element order instead
    src = os.path.dirname(os.path.dirname(moebiuskit.__file__))
    outputs = set()
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", ORDER_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


REFUSAL_SCRIPT = """
from moebiuskit.catposet import FinPoset, chain_poset, poset_functor
from moebiuskit.groupoid import StructureError
vee = FinPoset("xyzw", [("x", "y"), ("x", "z"), ("x", "w")])
for build in (lambda: FinPoset("abc", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]),
              lambda: poset_functor(vee, chain_poset(2), {"x": 1, "y": 0, "z": 0, "w": 0})):
    try:
        build()
    except StructureError as e:
        print(e)
"""


def test_poset_refusals_name_the_first_pair_in_element_order():
    # a cycle through a, b and c, and a map that fails monotonicity at
    # three pairs: each refusal names its first pair in element order,
    # whatever order the hash seed gives the pairs of a set
    src = os.path.dirname(os.path.dirname(moebiuskit.__file__))
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", REFUSAL_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        assert proc.stdout == ("cycle through 'a' and 'b': not a poset\n"
                               "map is not monotone at ('x','y')\n"), seed


def test_the_successor_index_is_the_composites_after_each_arrow():
    quiver = FinCategory.free_on_quiver(range(3), [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    for C in (FinCategory.from_poset(divisor_poset(12)), quiver, involution_category(),
              cyclic_group_category(4)):
        for m in C.morphisms:
            after = [e for e, (a, _b) in C.morphisms.items()
                     if a == C.tgt(m) and e != C.identities[a]]
            index = C.successors(m)
            assert list(index.items()) == [(e, C.compose(e, m)) for e in after]
            assert C.successors(m) is index


def test_nerve_operators_compute_each_image_once(monkeypatch):
    # the nerve counterpart of the layer-surgery pin in test_examples.py
    calls = collections.Counter()

    def counted(op):
        def run(C, n, i, c):
            calls[op.__name__, n, i, c] += 1
            return op(C, n, i, c)
        return run

    monkeypatch.setattr(catposet, "_nerve_face", counted(catposet._nerve_face))
    monkeypatch.setattr(catposet, "_nerve_degeneracy", counted(catposet._nerve_degeneracy))
    N = nerve(divisor_poset(12), max_level=6)
    for profile, n_max in (("segal", 3), ("decomposition", 3), ("complete", 1)):
        assert check_axioms(N, profile, n_max).passed
    assert verify_inversion(N, length_bound=4).passed
    assert {op for op, *_ in calls} == {"_nerve_face", "_nerve_degeneracy"}
    assert max(calls.values()) == 1


def test_a_dropped_nerve_is_freed_without_the_cycle_collector(no_cycle_collector):
    C = FinCategory.from_poset(divisor_poset(12))
    N = nerve(C, max_level=6)
    for profile, n_max in (("segal", 3), ("decomposition", 3), ("complete", 1)):
        assert check_axioms(N, profile, n_max).passed
    assert verify_inversion(N, length_bound=4).passed
    level_2, category = weakref.ref(N.level(2)), weakref.ref(C)
    del N, C
    assert level_2() is None
    assert category() is None


def _path(a, *edges):
    return ("path", a, edges)


def _parallel_pair_adjunction(**tables):
    """F: X -> Y and G: Y -> X between the free categories on
    a0 -w-> a =u,v=> b and c =u',v'=> d -z-> d1, F constant at c and G at b,
    with bijection tables Hom(c, y) -> Hom(x, b) for x in {a, a0} and y in
    {d, d1} that validate; `tables` replaces some of them."""
    X = FinCategory.free_on_quiver(["a0", "a", "b"],
                                   [("w", "a0", "a"), ("u", "a", "b"), ("v", "a", "b")])
    Y = FinCategory.free_on_quiver(["c", "d", "d1"],
                                   [("u'", "c", "d"), ("v'", "c", "d"), ("z", "d", "d1")])
    F = FinFunctor(X, Y, dict.fromkeys(X.objects, "c"))
    G = FinFunctor(Y, X, dict.fromkeys(Y.objects, "b"))
    bijections = {}
    for x, y in [("a", "d"), ("a", "d1"), ("a0", "d"), ("a0", "d1")]:
        after = ("z",) if y == "d1" else ()
        before = ("w",) if x == "a0" else ()
        bijections[x, y] = tables.get(x + y) or {
            _path("c", e + "'", *after): _path(x, *before, e) for e in "uv"}
    return Adjunction(F, G, {}, bijections)


@pytest.mark.parametrize("tables, message", [
    (dict(ad={_path("c", "u'"): _path("a", "u"), _path("c", "v'"): _path("a", "u")}),
     "bijection at ('a','d') not injective"),
    (dict(ad={_path("c", "u'"): _path("a", "u"), _path("c", "u'", "z"): _path("a", "v")}),
     "bijection at ('a','d') has wrong domain"),
    (dict(ad={_path("c", "u'"): _path("a", "u"), _path("c", "v'"): _path("a0", "w", "v")}),
     "bijection at ('a','d') not surjective"),
    (dict(ad1={_path("c", "u'", "z"): _path("a", "v"), _path("c", "v'", "z"): _path("a", "u")}),
     "bijection not natural in y"),
    (dict(a0d={_path("c", "u'"): _path("a0", "w", "v"), _path("c", "v'"): _path("a0", "w", "u")}),
     "bijection not natural in x"),
])
def test_adjunction_validate_refuses_each_broken_table(tables, message):
    _parallel_pair_adjunction().validate()
    with pytest.raises(StructureError, match="^" + re.escape(message) + "$"):
        _parallel_pair_adjunction(**tables).validate()
