import collections
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moebiuskit.catposet import FinCategory, FinPoset, chain_poset, divisor_poset, nerve
from moebiuskit.examples import layered_posets, layered_sets, poset_key
from moebiuskit.groupoid import GroupoidFunctor, fiber_cardinality
from moebiuskit.incidence import (
    CarrierMismatchError,
    Functional,
    MobiusCertificateError,
    comultiply,
    convolve,
    counit,
    delta,
    mobius,
    mobius_functional,
    phi_n,
    verify_inversion,
    zeta,
)
from moebiuskit.simplicial import InsufficientLevelsError, nondegenerate_simplices

from conftest import criterion_4_nerves, poset_mobius_oracle


CHAIN3 = nerve(chain_poset(3), max_level=6)
C3 = layered_posets(3)
I4 = layered_sets(4, max_level=4)

EMPTY = poset_key(FinPoset([]))
PT = poset_key(FinPoset(["x"]))
DISC2 = poset_key(FinPoset(["a", "b"]))
CHAIN2 = poset_key(FinPoset(["a", "b"], [("a", "b")]))


def set_key(n):
    return (1, 0, (("s", 1),) * n, ())


def test_comultiply_nerve_three_factorizations():
    f = (("le", 0, 2),)
    terms = comultiply(CHAIN3, f)
    assert len(terms) == 3
    assert all(w == 1 for w, _l, _r in terms)
    lefts = sorted(repr(l) for _w, l, r in terms)
    assert len(set(lefts)) == 3


def test_comultiply_layered_posets_weight_two():
    terms = comultiply(C3, DISC2)
    by_pair = terms.as_dict()
    # empty (x) whole + whole (x) empty + twice point (x) point
    assert len(by_pair) == 3
    assert sorted(by_pair.values()) == [1, 1, 2]
    two = [pair for pair, w in by_pair.items() if w == 2][0]
    assert two[0] == PT and two[1] == PT


def test_comultiply_degenerate_term():
    s0 = C3.degeneracy(0, 0)
    f = s0.ob(C3.level(0).objects[0])
    by_pair = comultiply(C3, f).as_dict()
    assert by_pair.get((f, f), 0) >= 1


def test_counit_values():
    assert counit(CHAIN3, (("le", 1, 1),)) == 1
    assert counit(CHAIN3, (("le", 0, 2),)) == 0
    assert counit(C3, EMPTY) == 1
    assert counit(C3, PT) == 0


def test_zeta_convolution_counts_factorizations():
    z = zeta(CHAIN3)
    assert convolve(CHAIN3, z, z)((("le", 0, 2),)) == 3
    zc = zeta(C3)
    assert convolve(C3, zc, zc)(DISC2) == 4


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_counit_is_convolution_unit(values):
    table = dict(zip(CHAIN3.level(1).iso_classes().reps, values))
    alpha = Functional.from_table(CHAIN3.level(1), table)
    d = delta(CHAIN3)
    left = convolve(CHAIN3, d, alpha)
    right = convolve(CHAIN3, alpha, d)
    for rep in CHAIN3.level(1).iso_classes().reps:
        assert left(rep) == alpha(rep) == right(rep)


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        convolve(CHAIN3, zeta(CHAIN3), zeta(C3))


def _triple_list(X, f):
    """Iterated comultiplication, once through the left factor and once
    through the right; both must agree as weighted triple multisets."""
    left, right = {}, {}
    for w, l, r in comultiply(X, f):
        for w2, a, b in comultiply(X, l):
            key = (a, b, r)
            left[key] = left.get(key, Fraction(0)) + w * w2
        for w2, b, c in comultiply(X, r):
            key = (l, b, c)
            right[key] = right.get(key, Fraction(0)) + w * w2
    return left, right


def test_coassociativity_exact():
    for X, classes in [(CHAIN3, CHAIN3.level(1).iso_classes().reps),
                       (C3, C3.level(1).iso_classes().reps)]:
        for f in classes:
            left, right = _triple_list(X, f)
            assert left == right


def test_phi_examples():
    I3 = layered_sets(3, max_level=3)
    assert phi_n(I3, set_key(3), 2) == 6      # surjections of a 3-set onto 2 layers
    assert phi_n(C3, CHAIN2, 2) == 1          # the single monotone 2-layering
    assert phi_n(C3, CHAIN2, 1) == 1
    assert phi_n(C3, EMPTY, 0) == 1


def test_zeta_is_phi0_plus_phi1_at_level_one():
    for X in (CHAIN3, C3):
        for f in X.level(1).iso_classes().reps:
            assert phi_n(X, f, 0) + phi_n(X, f, 1) == 1


def test_grading_soundness():
    for f in C3.level(1).iso_classes().reps:
        g = C3.level(1).grade(f)
        assert phi_n(C3, f, g + 1) == 0


def test_mobius_values():
    assert mobius(C3, EMPTY) == 1
    assert mobius(C3, PT) == -1
    assert mobius(C3, DISC2) == 1
    assert mobius(C3, CHAIN2) == 0
    for n in range(5):
        assert mobius(I4, set_key(n)) == Fraction(-1) ** n
    # identity edge of a nerve
    assert mobius(CHAIN3, (("le", 1, 1),), length_bound=3) == 1


def test_mobius_refuses_without_certificate():
    with pytest.raises(MobiusCertificateError) as err:
        mobius(CHAIN3, (("le", 0, 2),))
    assert "locally finite length" in str(err.value)


def test_inversion_divisor_lattice():
    P = divisor_poset(12)
    N = nerve(P, max_level=5)
    report = verify_inversion(N, length_bound=4)
    assert report.passed
    oracle = poset_mobius_oracle(P)
    for a, b in P.intervals():
        assert mobius(N, (("le", a, b),), length_bound=4) == oracle(a, b)


def test_inversion_layered_posets():
    assert verify_inversion(C3).passed


def test_inversion_corrupted_mobius_fails_with_witness():
    good = mobius_functional(C3)
    table = {rep: good(rep) for rep in C3.level(1).iso_classes().reps}
    table[PT] = -table[PT]  # flip one sign
    bad = Functional.from_table(C3.level(1), table)
    report = verify_inversion(C3, mu=bad)
    assert not report.passed
    offenders = [r.cls for r in report.failures()]
    assert PT in offenders


def _long_edge(X, n):
    """d_1^{n-1} : X_n -> X_1."""
    F = GroupoidFunctor.identity(X.level(n))
    for m in range(n, 1, -1):
        F = GroupoidFunctor.compose(X.face(m, 1), F)
    return F


def _phi_whole_level(X, f, n):
    """Phi_n(f) from all of level n: the homotopy fiber of the long edge,
    restricted to X_{a...a}."""
    W = nondegenerate_simplices(X, n).groupoid
    return fiber_cardinality(_long_edge(X, n).restrict(W), f)


def _check_generated_fibers(X):
    """Each generated fiber of X: distinct simplices of level n, with every
    principal edge nondegenerate and long edge f, as many as the
    whole-level route counts; returns the number of (f, n) cases."""
    assert X.generates_fibers
    tab = X.level(1).iso_classes()
    degenerate = X.degenerate_edge_classes()
    cases = 0
    for f in tab.reps:
        for n in range(1, X.max_level + 1):
            simplices = list(X.fiber_simplices(n, f))
            assert len(set(simplices)) == len(simplices)
            long_edge = _long_edge(X, n)
            for sigma in simplices:
                assert X.level(n).has_object(sigma)
                assert all(tab.class_of(X.principal_edge(n, sigma, i)) not in degenerate
                           for i in range(1, n + 1))
                assert long_edge.ob(sigma) == f
            assert phi_n(X, f, n) == len(simplices) == _phi_whole_level(X, f, n)
            cases += 1
    return cases


def test_phi_generated_fiber_equals_whole_level_route():
    spaces = [build(g, max_level=max(2, g))
              for build in (layered_sets, layered_posets) for g in range(5)]
    assert sum(_check_generated_fibers(X) for X in spaces) == 185


def test_phi_refuses_levels_beyond_the_truncation():
    C = layered_posets(3, max_level=3)
    chain3 = poset_key(FinPoset("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    assert phi_n(C, chain3, 3) == 1
    N = nerve(chain_poset(3), max_level=3)
    f = (("le", 0, 2),)
    for X, edge in ((C, chain3), (N, f)):
        with pytest.raises(InsufficientLevelsError) as err:
            phi_n(X, edge, 4)
        assert (err.value.needed, err.value.available) == (4, 3)
        with pytest.raises(InsufficientLevelsError):
            mobius(X, edge, length_bound=4)


def test_nerve_generated_fiber_equals_whole_level_route():
    # a nerve's levels are discrete: a nondegenerate edge is a non-identity arrow
    assert sum(_check_generated_fibers(N) for N in criterion_4_nerves()) == 558


def test_nerve_fiber_counts_non_identity_chains_onto_an_identity():
    # one object with a non-identity involution s: s . s = 1, so the chain
    # (s, s) of non-identity arrows composes to the identity
    C = FinCategory(["*"], {"1": ("*", "*"), "s": ("*", "*")},
                    {("1", "1"): "1", ("1", "s"): "s", ("s", "1"): "s", ("s", "s"): "1"},
                    {"*": "1"})
    C.validate()
    N = nerve(C, max_level=4)
    assert list(N.fiber_simplices(2, ("1",))) == [("s", "s")]
    assert phi_n(N, ("1",), 2) == 1
    assert [phi_n(N, ("s",), n) for n in range(1, 5)] == [1, 0, 1, 0]
    assert _check_generated_fibers(N) == 8


def test_nerve_inversion_builds_no_level_beyond_two():
    N = nerve(divisor_poset(12), max_level=6)
    assert verify_inversion(N, length_bound=4).passed
    built = [key for key in N._memo if key[0] in ("level", "word")]
    assert built and all(key[0] == "level" and key[1] < 3 for key in built), built


def test_nerve_inversion_classifies_each_2_simplex_once(monkeypatch):
    # every comultiplication reads the fiber table of d_1 : X_2 -> X_1,
    # built once, instead of sending all of X_2 through d_1 again
    N = nerve(divisor_poset(12), max_level=6)
    d1 = N.face(2, 1)
    calls = collections.Counter()

    def counted(c):
        calls[c] += 1
        return GroupoidFunctor.ob(d1, c)

    monkeypatch.setattr(d1, "ob", counted)
    assert verify_inversion(N, length_bound=4).passed
    assert set(calls) == set(N.level(2).iso_classes().reps)
    assert max(calls.values()) == 1


@st.composite
def _posets(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FinPoset(range(n), [p for p, k in zip(pairs, keep) if k])


@st.composite
def _acyclic_quivers(draw, max_nodes=4, max_edges=4):
    n = draw(st.integers(1, max_nodes))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=max_edges)) if pairs else []
    return n, [(f"e{k}", a, b) for k, (a, b) in enumerate(ends)]


@settings(max_examples=40, deadline=None)
@given(_posets())
def test_mobius_of_random_poset_nerves_is_the_classical_recursion(P):
    bound = len(P.elements)
    N = nerve(P, max_level=max(2, bound))
    oracle = poset_mobius_oracle(P)
    for a, b in P.intervals():
        assert mobius(N, (("le", a, b),), length_bound=bound) == oracle(a, b)
    assert verify_inversion(N, length_bound=bound).passed


@settings(max_examples=40, deadline=None)
@given(_acyclic_quivers())
def test_mobius_of_free_category_nerves_is_the_closed_form(quiver):
    # mu is 1 on identities, -1 on edges and 0 on longer paths
    n, edges = quiver
    C = FinCategory.free_on_quiver(range(n), edges)
    N = nerve(C, max_level=n)
    for m in C.morphisms:
        _, _a, path = m
        want = {0: 1, 1: -1}.get(len(path), 0)
        assert mobius(N, (m,), length_bound=n) == want
