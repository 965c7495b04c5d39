"""The benchmark workloads: inputs, one timed pass, and the answer gate.

A workload is built from a size (the `full` size is what the benchmark
measures; `tiny` keeps the self-test quick).  `run_pass` is the timed
region and goes through the public API only.  `expected` and `gate` run
outside it: `expected` comes from `oracles`, which never imports
moebiuskit, and `gate` counts one answer per value the oracle fixes.  An
answer fails if its call raised, if it disagrees with the oracle, if a
verdict or exit code is not the expected one, or if the output it came
from does not parse.

Library functions are always looked up through their module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

import inputs
import oracles


@dataclass
class Tally:
    """Answers attempted and failed, with the first few failures named."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


def _run_cli(argv):
    """One in-process `moebiuskit` call: (exit code, stdout, error)."""
    from moebiuskit import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:   # an answer that raises is a failed answer
        return None, out.getvalue(), repr(exc)
    return code, out.getvalue(), err.getvalue()


def _parse_poset_label(label: str):
    """'discrete3' -> (3, ()); 'poset3:1<0,2<0' -> (3, ((1, 0), (2, 0)))."""
    if label.startswith("discrete"):
        return int(label[len("discrete"):]), ()
    head, _, body = label.partition(":")
    if not head.startswith("poset") or not body:
        raise ValueError(f"not a poset label: {label!r}")
    rels = tuple(tuple(int(x) for x in rel.split("<")) for rel in body.split(","))
    if any(len(r) != 2 for r in rels):
        raise ValueError(f"not a poset label: {label!r}")
    return int(head[len("poset"):]), rels


def _json_rows(stdout: str):
    rows = json.loads(stdout)
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError("expected a JSON list of row objects")
    return rows


# -- mobius-routes ----------------------------------------------------------------


class MobiusRoutes:
    """The Mobius function of finite posets by the direct route (one CLI
    call per poset size), of finite sets by the binomial coalgebra, and of
    posets again by the generalized Rota formula on the sets/posets
    bicomodule."""

    name = "mobius-routes"

    def __init__(self, size: str = "full"):
        self.max_n, self.sets_n, self.grade = (4, 6, 4) if size == "full" else (2, 3, 2)

    def make_inputs(self, seed: int):
        calls = [("posets", n, ["mobius", "builtin:posets", "--n", str(n), "--format", "json"])
                 for n in range(self.max_n + 1)]
        calls.append(("sets", self.sets_n, ["mobius", "builtin:sets", "--n", str(self.sets_n),
                                            "--format", "json"]))
        calls.append(("rota", self.grade, ["rota", "builtin:sets-posets", "--grade",
                                           str(self.grade), "--format", "json"]))
        return calls

    def run_pass(self, calls):
        return [_run_cli(argv) for _kind, _n, argv in calls]

    def expected(self, calls):
        out = []
        for kind, n, _argv in calls:
            if kind == "posets":
                out.append({key: oracles.layered_poset_mobius(*key)
                            for key in oracles.poset_classes(n)})
            elif kind == "sets":
                out.append({f"set({n},)": oracles.binomial_mobius(n)})
            else:
                out.append({key: oracles.layered_poset_mobius(*key)
                            for m in range(n + 1) for key in oracles.poset_classes(m)})
        return out

    def gate(self, calls, expected, raw, tally: Tally) -> None:
        for (kind, n, argv), want, (code, stdout, err) in zip(calls, expected, raw):
            where = " ".join(argv[:4])
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}: {err.strip()[:200]}")
                got = self._rows(kind, n, _json_rows(stdout))
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                for key in want:
                    tally.record(False, f"{where}: {exc}")
                continue
            for key, value in want.items():
                found = got.pop(key, None)
                tally.record(found == value, f"{where} at {key}: {found} != {value}")
            for key in got:
                tally.record(False, f"{where}: unexpected row {key!r}")

    @staticmethod
    def _rows(kind, n, rows):
        """{class: value} from parsed rows; a repeated class or, for Rota,
        a row whose sides or verdict disagree maps to None."""
        got = {}
        for row in rows:
            if kind == "sets":
                key, value = row["class"], Fraction(row["mu"])
            else:
                label = row["class"] if kind == "posets" else row["at"]
                size, rels = _parse_poset_label(label)
                if kind == "posets" and size != n:
                    raise ValueError(f"class {label!r} has the wrong size")
                key = oracles.canonical_poset(size, tuple(sorted(rels)))
                if kind == "posets":
                    value = Fraction(row["mu"])
                else:
                    lhs, rhs = Fraction(row["lhs"]), Fraction(row["rhs"])
                    value = lhs if lhs == rhs and row["verdict"] == "ok" else None
            got[key] = None if key in got else value
        return got


# -- check-layered ----------------------------------------------------------------


class CheckLayered:
    """The decomposition profile of layered finite posets, which passes
    every square, and the Segal profile, whose single square fails with a
    witness (layered posets form a decomposition space, not a Segal
    space)."""

    name = "check-layered"

    def __init__(self, size: str = "full"):
        self.grade, self.level = (3, 2) if size == "full" else (2, 1)

    def make_inputs(self, seed: int):
        base = ["check", "builtin:layered-posets", "--grade", str(self.grade), "--format", "json"]
        return [base + ["--profile", "decomposition", "--max-level", str(self.level)],
                base + ["--profile", "segal", "--max-level", "1"]]

    def run_pass(self, calls):
        return [_run_cli(argv) for argv in calls]

    def expected(self, calls):
        # the CLI clamps n_max to the levels the space carries (grade + 2)
        n_max = min(self.level, self.grade - 1)
        squares = {}
        for n in range(n_max + 1):
            for k in range(n + 1):
                squares[f"s_{k + 1}/d_bot square n={n}"] = True
                squares[f"s_{k}/d_top square n={n}"] = True
                squares[f"d_{k + 2}/d_bot square n={n}"] = True
                squares[f"d_{k + 1}/d_top square n={n}"] = True
        return [(0, squares), (1, {"segal square n=1": False})]

    def gate(self, calls, expected, raw, tally: Tally) -> None:
        for argv, (want_code, want), (code, stdout, err) in zip(calls, expected, raw):
            where = " ".join(argv[6:8])
            try:
                if code != want_code:
                    raise ValueError(f"exit code {code}, expected {want_code}: "
                                     f"{err.strip()[:200]}")
                doc = json.loads(stdout)
                if doc["passed"] != all(want.values()):
                    raise ValueError(f"overall verdict {doc['passed']!r}")
                got = self._squares(doc["report"])
            except (ValueError, KeyError, TypeError) as exc:
                for name in want:
                    tally.record(False, f"{where}: {exc}")
                continue
            for name, verdict in want.items():
                tally.record(got.pop(name, None) == verdict,
                             f"{where}: square {name!r} verdict")
            for name in got:
                tally.record(False, f"{where}: unexpected square {name!r}")

    @staticmethod
    def _squares(lines):
        """{square name: passed}; a failed square counts as False only when
        a non-empty witness line follows it, a repeated name maps to None."""
        got = {}
        for i, line in enumerate(lines):
            text = line.strip()
            if text.startswith("[ok  ]"):
                name, verdict = text[6:].strip(), True
            elif text.startswith("[FAIL]"):
                nxt = lines[i + 1].strip() if i + 1 < len(lines) else ""
                witnessed = nxt.startswith("witness:") and nxt[len("witness:"):].strip()
                name, verdict = text[6:].strip(), False if witnessed else None
            else:
                continue
            got[name] = None if name in got else verdict
        return got


# -- nerves -----------------------------------------------------------------------


class Nerves:
    """Seeded posets and free categories of acyclic quivers: the nerve, its
    Segal, decomposition and completeness checks at a low truncation, the
    Mobius functional with the inversion check zeta * mu = delta = mu * zeta,
    and the classical Mobius function of every morphism."""

    name = "nerves"
    # profile -> n_max; the lowest truncations at which each check is not empty
    PROFILES = {"segal": 1, "decomposition": 0, "complete": 0}

    def __init__(self, size: str = "full"):
        self.gen = ({} if size == "full" else
                    dict(count=3, quiver_every=3, target_s=0.01, band=0.9,
                         size=(5, 7), height=4))

    def make_inputs(self, seed: int):
        return inputs.nerve_inputs(seed, **self.gen)

    def run_pass(self, specs):
        from moebiuskit import catposet as cp
        from moebiuskit import incidence as inc
        from moebiuskit import simplicial as sp

        out = []
        for kind, n, data in specs:
            try:
                if kind == "poset":
                    C = cp.FinCategory.from_poset(cp.FinPoset(range(n), data))
                else:
                    C = cp.FinCategory.free_on_quiver(range(n), data)
                bound = cp.is_mobius_category(C).max_chain_length
                N = cp.nerve(C, max_level=max(bound, 3))
                checks = {p: sp.check_axioms(N, p, n_max).passed
                          for p, n_max in self.PROFILES.items()}
                mu = inc.mobius_functional(N, bound)
                report = inc.verify_inversion(N, length_bound=bound, mu=mu)
                out.append({
                    "checks": checks,
                    "mu": {m: mu((m,)) for m in C.morphisms},
                    "inversion": {row.cls[0]: row.passed for row in report.rows},
                    "classical": {m: cp.classical_mobius(C, m) for m in C.morphisms},
                })
            except Exception as exc:   # an answer that raises is a failed answer
                out.append(repr(exc))
        return out

    def expected(self, specs):
        out = []
        for kind, n, data in specs:
            if kind == "poset":
                mu = {("le",) + xy: v for xy, v in oracles.poset_mobius_table(n, data).items()}
            else:
                mu = {("path", a, seq): oracles.free_category_mobius(seq)
                      for a, seq in oracles.quiver_paths(n, data)}
            out.append({"checks": dict.fromkeys(self.PROFILES, True), "mu": mu})
        return out

    def gate(self, specs, expected, raw, tally: Tally) -> None:
        for idx, (want, got) in enumerate(zip(expected, raw)):
            where = f"input {idx} ({specs[idx][0]})"
            if not isinstance(got, dict):
                for _ in list(want["checks"]) + list(want["mu"]):
                    tally.record(False, f"{where}: {got}")
                continue
            for prof, verdict in want["checks"].items():
                tally.record(got["checks"].get(prof) == verdict, f"{where}: {prof} verdict")
            for m, value in want["mu"].items():
                ok = (got["mu"].get(m) == value and got["classical"].get(m) == value
                      and got["inversion"].get(m) is True)
                tally.record(ok, f"{where}: mu at {m!r}")
            for m in set(got["mu"]) - set(want["mu"]):
                tally.record(False, f"{where}: unexpected morphism {m!r}")


WORKLOADS = {w.name: w for w in (MobiusRoutes, CheckLayered, Nerves)}
