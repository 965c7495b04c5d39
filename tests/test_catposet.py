import collections
import os
import subprocess
import sys

import pytest

import moebiuskit
from moebiuskit import catposet
from moebiuskit.catposet import (
    CorrespondenceCat,
    FinCategory,
    FinPoset,
    chain_poset,
    check_adjunction,
    classical_mobius,
    correspondence_bisimplicial,
    divisor_poset,
    is_mobius_category,
    mapping_cylinder,
    nerve,
    poset_functor,
    poset_mobius,
    rota_direct,
)
from moebiuskit.examples import enumerate_posets
from moebiuskit.groupoid import DomainError, StructureError
from moebiuskit.incidence import verify_inversion
from moebiuskit.simplicial import check_axioms

from conftest import poset_mobius_oracle, seeded


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


def test_poset_closure_and_cycle_rejection():
    P = FinPoset([0, 1, 2], [(0, 1), (1, 2)])
    assert P.leq(0, 2)          # transitivity computed
    assert P.leq(1, 1)          # reflexivity
    with pytest.raises(StructureError):
        FinPoset([0, 1], [(0, 1), (1, 0)])


def test_interval_poset():
    P = divisor_poset(12)
    I = P.interval(2, 12)
    assert sorted(I.elements) == [2, 4, 6, 12]


def test_category_validation():
    C = FinCategory.from_poset(chain_poset(3))
    C.validate()
    Q = FinCategory.free_on_quiver([0, 1, 2], [("a", 0, 1), ("b", 1, 2)])
    Q.validate()
    assert len(Q.hom(0, 2)) == 1
    with pytest.raises(StructureError):
        FinCategory.free_on_quiver([0], [("loop", 0, 0)])


def test_nerve_of_trivial_category_single_simplices():
    N = nerve(FinPoset(["*"]), max_level=4)
    for n in range(5):
        assert len(N.level(n).objects) == 1
    assert check_axioms(N, "complete", 1).passed


def test_is_mobius_category():
    report = is_mobius_category(FinCategory.from_poset(chain_poset(3)))
    assert report and report.max_chain_length == 2
    bad = is_mobius_category(involution_category())
    assert not bad and "cycle" in bad.witness
    quiver = FinCategory.free_on_quiver([0, 1, 2, 3],
                                        [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)])
    report = is_mobius_category(quiver)
    assert report and report.max_chain_length == 3


def test_classical_mobius_chain_values():
    C = FinCategory.from_poset(chain_poset(3))
    assert classical_mobius(C, ("le", 0, 0)) == 1
    assert classical_mobius(C, ("le", 0, 1)) == -1
    assert classical_mobius(C, ("le", 0, 2)) == 0
    B = boolean_lattice_2()
    assert poset_mobius(B, "bot", "top") == 1


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
    corr, report = mapping_cylinder(idf)
    corr.category.validate()
    assert report.bicartesian
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
        poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1}),
        poset_functor(chain_poset(2), chain_poset(3), {0: 0, 1: 2}),
        poset_functor(b2, chain_poset(2), {"bot": 0, "a": 1, "b": 1, "top": 1}),
        poset_functor(chain_poset(2), b2, {0: "bot", 1: "top"}),
        poset_functor(disc2, chain_poset(2), {"a": 0, "b": 1}),
        poset_functor(vee, chain_poset(2), {"x": 0, "y": 1, "z": 1}),
        poset_functor(chain_poset(2), vee, {0: "x", 1: "y"}),
        poset_functor(chain_poset(3), chain_poset(3), {0: 0, 1: 0, 2: 0}),
        poset_functor(chain_poset(2), chain_poset(2), {0: 1, 1: 1}),
        poset_functor(vee, disc2, {"x": "a", "y": "a", "z": "a"}),
    ]
    assert len(battery) == 10
    for F in battery:
        _corr, report = mapping_cylinder(F)
        assert report.all_cocartesian
        X, Y = F.source, F.target
        yobs, xobs = list(Y.objects), list(X.objects)
        found = False
        for images in iproduct(xobs, repeat=len(yobs)):
            gmap = dict(zip(yobs, images))
            try:
                G = poset_functor(Y.as_poset(), X.as_poset(), gmap)
            except StructureError:
                continue  # not monotone
            if check_adjunction(F, G).ok:
                found = True
                break
        assert report.all_cartesian == found


def test_mapping_cylinder_without_right_adjoint():
    # two discrete points into a chain: no cartesian lift over the top
    disc = FinPoset(["a", "b"])
    F = poset_functor(disc, chain_poset(2), {"a": 0, "b": 1})
    _corr, report = mapping_cylinder(F)
    assert report.all_cocartesian
    assert not report.all_cartesian
    assert report.cartesian[("y", 1)] is None


def test_correspondence_labeling_invariant():
    P = chain_poset(2)
    idf = poset_functor(P, P, {0: 0, 1: 1})
    corr, _ = mapping_cylinder(idf)
    bad_label = dict(corr.label)
    bad_label[("x", 0)] = 1  # creates a 1 -> 0 morphism
    with pytest.raises(StructureError):
        CorrespondenceCat(corr.category, bad_label)


def test_correspondence_bisimplicial_cells():
    F, G = chain_adjunction()
    corr, report = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 2, 2, report)
    # B_{0,0}: mixed arrows Fx <= y: 5 of them
    assert len(B.cell(0, 0).objects) == 5
    # borders are the pure chains
    assert len(B.cell(0, -1).objects) == 3
    assert len(B.cell(-1, 0).objects) == 2
    # pointings are sections
    s = B.right_section(0, 0)
    for x in B.cell(0, -1).objects:
        back = B.aug_u(0).ob(s.ob(x))
        assert back == x
    t = B.left_section(0, 0)
    for y in B.cell(-1, 0).objects:
        assert B.aug_v(0).ob(t.ob(y)) == y


def test_relative_nerve_cells_are_label_pattern_chains_of_the_nerve():
    F, _G = chain_adjunction()
    corr, report = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 2, 2, report)
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
    corr, report = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, 2, 2, report)
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
    search = catposet._mobius_category_search
    monkeypatch.setattr(catposet, "_mobius_category_search",
                        lambda C, bound: calls.append(C) or search(C, bound))
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
