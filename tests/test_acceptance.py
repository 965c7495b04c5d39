"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line with its timing (run with -s to see
them); the stated runtime budgets are asserted.  All expected values are
either independently derived in-line (recursion oracle, brute-force
enumeration) or fixed small constants checked against those oracles.
"""

import json
import time
from fractions import Fraction

from moebiuskit import cli
from moebiuskit.bicomodule import (
    check_associativity,
    comodule_mobius_check,
    decalage,
    right_comodule,
    rota_evaluate,
    total_decalage,
)
from moebiuskit.catposet import (
    FinPoset,
    chain_poset,
    check_adjunction,
    correspondence_bisimplicial,
    mapping_cylinder,
    nerve,
    poset_functor,
    rota_direct,
)
from moebiuskit.examples import (
    enumerate_posets,
    layered_posets,
    layered_sets,
    mu_posets,
    poset_key,
)
from moebiuskit.groupoid import cardinality, fiber_cardinality, full_subgroupoid
from moebiuskit.incidence import Functional, convolve, counit, mobius, mobius_functional, verify_inversion, zeta
from moebiuskit.simplicial import TruncatedSimplicialGroupoid, check_axioms, is_culf

from conftest import (
    poset_mobius_oracle,
    random_cluster_functor,
    random_cluster_groupoid,
    random_poset,
    random_quiver_category,
    seeded,
)
from reference import skeletalize


def _report(n, label, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {n} [{label}]: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_poset_mobius_both_routes():
    t0 = time.time()
    checked = 0
    for n in range(6):
        for P, _aut in enumerate_posets(n):
            discrete = not P.strict_pairs()
            want = Fraction(-1) ** n if discrete else Fraction(0)
            assert mu_posets(P, "direct") == want
            assert mu_posets(P, "rota") == want
            checked += 1
    assert checked == 88
    _report(1, "Mobius of finite posets, direct = closed form = Rota route", t0, 60)


def test_criterion_2_binomial_mobius():
    t0 = time.time()
    I = layered_sets(6, max_level=6)
    for n in range(7):
        key = (1, 0, (1,) * n, ())
        assert mobius(I, key) == Fraction(-1) ** n
    _report(2, "binomial Mobius function (-1)^n up to n = 6", t0, 5)


def _battery():
    F1 = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    G1 = poset_functor(chain_poset(2), chain_poset(3), {0: 1, 1: 2})
    F2 = poset_functor(chain_poset(2), chain_poset(3), {0: 0, 1: 2})
    G2 = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    B2 = FinPoset(["bot", "a", "b", "top"],
                  [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    F3 = poset_functor(B2, chain_poset(2), {"bot": 0, "a": 1, "b": 1, "top": 1})
    G3 = poset_functor(chain_poset(2), B2, {0: "bot", 1: "top"})
    return [(F1, G1), (F2, G2), (F3, G3)]


def test_criterion_3_classical_rota():
    t0 = time.time()
    for F, G in _battery():
        checked = check_adjunction(F, G)
        assert checked.ok
        adj = checked.adjunction
        for x in F.source.objects:
            for y in F.target.objects:
                lhs, rhs = rota_direct(adj, x, y)
                assert lhs == rhs
    # pointwise agreement with the bisimplicial route on the chain adjunction
    F, G = _battery()[0]
    corr = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 3, 3)
    adj = check_adjunction(F, G).adjunction
    for m in B.cell(0, 0).objects:
        ((_, x, (_, _, y)),) = m    # the mixed arrow ("mix", x, ("le", Fx, y))
        lhs, rhs = rota_evaluate(B, m, length_bound=3)
        assert lhs == rhs
        assert (lhs, rhs) == rota_direct(adj, x, y)
    _report(3, "classical Rota formula, direct and through the nerve", t0, 10)


def test_criterion_4_axiom_checkers():
    t0 = time.time()
    rng = seeded(42)
    instances = []
    for _ in range(14):
        instances.append(nerve(random_poset(rng, max_size=5), max_level=6))
    for _ in range(6):
        instances.append(nerve(random_quiver_category(rng), max_level=6))
    assert len(instances) == 20
    for N in instances:
        assert check_axioms(N, "segal", 3).passed
        assert check_axioms(N, "decomposition", 3).passed
        assert check_axioms(N, "complete", 1).passed
    C = layered_posets(3)
    assert check_axioms(C, "decomposition", 1).passed
    seg = check_axioms(C, "segal", 1)
    assert not seg.passed
    witness = seg.failures()[0]
    assert witness.name == "segal square n=1" and witness.witness
    dec = decalage(C, "bottom")
    assert check_axioms(dec.space, "segal", 2).passed
    assert is_culf(dec.base_map, 1).passed
    _report(4, "Segal/decomposition/complete checkers and decalage", t0, 120)


def test_criterion_5_mobius_inversion():
    t0 = time.time()
    C4 = layered_posets(4, max_level=4)
    inversion = verify_inversion(C4)
    assert inversion.passed and len(inversion.rows) == 25
    for n in range(6):
        for P, _aut in enumerate_posets(n):
            if not P.elements:
                continue
            N = nerve(P, max_level=max(2, len(P.elements)))
            oracle = poset_mobius_oracle(P)
            bound = len(P.elements)
            mu = mobius_functional(N, bound)
            z = zeta(N)
            zm = convolve(N, z, mu)
            mz = convolve(N, mu, z)
            for a, b in P.intervals():
                f = (("le", a, b),)
                assert mu(f) == oracle(a, b)
                assert zm(f) == counit(N, f) == mz(f)
    config = decalage(layered_posets(3, max_level=4), "bottom")
    assert comodule_mobius_check(config).passed
    F, G = _battery()[0]
    corr = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 3, 3)
    assert comodule_mobius_check(right_comodule(B), length_bound=3).passed
    _report(5, "Mobius inversion: algebra, recursion oracle, comodules", t0, 120)


def test_criterion_6_bicomodule_associativity():
    t0 = time.time()
    from moebiuskit.examples import sets_posets_bicomodule
    configs = [sets_posets_bicomodule(3, max_i=2, max_j=2)]
    F, _G = _battery()[0]
    corr = mapping_cylinder(F)
    configs.append(correspondence_bisimplicial(corr, 2, 2))
    configs.append(total_decalage(nerve(chain_poset(3), max_level=6), 2, 2))
    for B in configs:
        assert check_associativity(B).passed
    _report(6, "left/right convolution associativity, exact bimodule law", t0, 60)


def test_criterion_7_oracle_gates():
    t0 = time.time()
    for n, want in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 16), (5, 63)]:
        assert len(enumerate_posets(n)) == want
    rng = seeded(1234)
    for _ in range(100):
        G, _ = random_cluster_groupoid(rng)
        S, F = skeletalize(G)
        assert cardinality(G) == cardinality(S)
    for _ in range(100):
        F = random_cluster_functor(rng)
        table = F.target.iso_classes()
        total = sum((fiber_cardinality(F, c) / table.aut_orders[c]
                     for c in table.reps), Fraction(0))
        assert total == cardinality(F.source)
    _report(7, "poset counts, equivalence invariance, fiber-sum identity", t0, 120)


def test_criterion_8_negative_controls(tmp_path, capsys):
    t0 = time.time()
    # (a) dropped simplex: the Segal check fails with a localized witness
    base = nerve(chain_poset(3), max_level=2)
    dropped = (("le", 0, 1), ("le", 1, 2))

    def level_fn(space, n):
        lvl = base.level(n)
        if n == 2:
            return full_subgroupoid(lvl, [o for o in lvl.objects if o != dropped])
        return lvl

    def face_fn(space, n, i):
        F = base.face(n, i)
        from moebiuskit.groupoid import GroupoidFunctor
        return GroupoidFunctor(space.level(n), space.level(n - 1), F.ob, F)

    def degen_fn(space, n, i):
        F = base.degeneracy(n, i)
        from moebiuskit.groupoid import GroupoidFunctor
        return GroupoidFunctor(space.level(n), space.level(n + 1), F.ob, F)

    mutated = TruncatedSimplicialGroupoid(2, level_fn, face_fn, degen_fn)
    seg = check_axioms(mutated, "segal", 1)
    assert not seg.passed and seg.failures()[0].witness

    # (b) corrupted Mobius functional: inversion fails at the flipped class
    C = layered_posets(3)
    good = mobius_functional(C)
    table = {rep: good(rep) for rep in C.level(1).iso_classes().reps}
    pt = poset_key(FinPoset(["x"]))
    table[pt] = -table[pt]
    bad = Functional(C.level(1), lambda rep: table.get(rep, 0))
    rep = verify_inversion(C, mu=bad)
    assert not rep.passed and pt in [r.cls for r in rep.failures()]

    # (c) non-adjunction: witness pair and a nonzero CLI exit code
    F = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    G_bad = poset_functor(chain_poset(2), chain_poset(3), {0: 0, 1: 2})
    checked = check_adjunction(F, G_bad)
    assert not checked.ok and checked.witness == (1, 0)
    doc = {"kind": "adjunction",
           "left": {"kind": "poset", "elements": [0, 1, 2],
                    "relations": [[0, 1], [1, 2]]},
           "right": {"kind": "poset", "elements": [0, 1], "relations": [[0, 1]]},
           "f": [[0, 0], [1, 0], [2, 1]], "g": [[0, 0], [1, 2]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["rota", str(path)]) == 2

    # (d) a failing axiom check exits nonzero through the CLI
    assert cli.main(["check", "builtin:layered-posets", "--profile", "segal",
                     "--grade", "2", "--max-level", "1"]) == 1
    capsys.readouterr()
    _report(8, "negative controls: witnesses and nonzero exit codes", t0, 120)
