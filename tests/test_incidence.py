import collections
import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moebiuskit.bicomodule import coact, convolve_action, total_decalage
from moebiuskit.catposet import (
    FinCategory,
    FinPoset,
    _chain_walk,
    chain_poset,
    divisor_poset,
    nerve,
)
from moebiuskit.examples import layered_posets, layered_sets, poset_key
from moebiuskit import incidence
from moebiuskit.groupoid import (
    DomainError,
    GroupoidFunctor,
    fiber_cardinality,
    weighted_fiber,
)
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
from moebiuskit.simplicial import InsufficientLevelsError

from conftest import criterion_4_categories, poset_mobius_oracle, posets, random_poset, seeded
from reference import _layerings, nerve_fiber_walk, nondegenerate_simplices


CHAIN3 = nerve(chain_poset(3), max_level=6)
C3 = layered_posets(3)
I4 = layered_sets(4, max_level=4)

EMPTY = poset_key(FinPoset([]))
PT = poset_key(FinPoset(["x"]))
DISC2 = poset_key(FinPoset(["a", "b"]))
CHAIN2 = poset_key(FinPoset(["a", "b"], [("a", "b")]))


def set_key(n):
    return (1, 0, (1,) * n, ())


def test_comultiply_nerve_three_factorizations():
    f = (("le", 0, 2),)
    terms = comultiply(CHAIN3, f)
    assert len(terms) == 3
    assert all(w == 1 for w in terms.values())
    lefts = sorted(repr(l) for l, _r in terms)
    assert len(set(lefts)) == 3


def test_comultiply_layered_posets_weight_two():
    by_pair = comultiply(C3, DISC2)
    # empty (x) whole + whole (x) empty + twice point (x) point
    assert len(by_pair) == 3
    assert sorted(by_pair.values()) == [1, 1, 2]
    two = [pair for pair, w in by_pair.items() if w == 2][0]
    assert two[0] == PT and two[1] == PT


def test_comultiply_degenerate_term():
    s0 = C3.degeneracy(0, 0)
    f = s0.ob(C3.level(0).objects[0])
    by_pair = comultiply(C3, f)
    assert by_pair.get((f, f), 0) >= 1


def _fresh_delta(X, f):
    """Delta(f) from the fiber table of d_1, with no memo."""
    tab1 = X.level(1).iso_classes()
    d2, d0 = X.face(2, 2), X.face(2, 0)
    return weighted_fiber(X.face(2, 1), f,
                          lambda r: (tab1.class_of(d2.ob(r)), tab1.class_of(d0.ob(r))))


def test_comultiply_is_memoised_per_class_and_read_only():
    for X in (layered_posets(3), layered_sets(3), nerve(divisor_poset(12), max_level=4)):
        carrier = X.level(1)
        for f in carrier.iso_classes().reps:
            terms = comultiply(X, f)
            assert list(terms.items()) == list(_fresh_delta(X, f).items())
            assert all(type(w) is Fraction for w in terms.values())
            with pytest.raises(TypeError):
                terms[next(iter(terms))] = Fraction(0)
        for a in carrier.objects:
            assert comultiply(X, a) is comultiply(X, carrier.iso_classes().class_of(a))


@pytest.mark.parametrize("build, bound", [
    (lambda: nerve(divisor_poset(12), max_level=6), 4),
    (lambda: layered_posets(3), None),
], ids=["divisors of 12", "layered posets 3"])
def test_the_inversion_check_reads_one_delta_per_class(monkeypatch, build, bound):
    # zeta * mu and mu * zeta read one memoised Delta per class
    X = build()
    monkeypatch.setattr(X, "_memo", {k: v for k, v in X._memo.items()
                                     if k[0] != "comultiply"})
    d1 = X.face(2, 1)
    calls = collections.Counter()

    def counted(F, c, label_fn):
        if F is d1:
            calls[c] += 1
        return weighted_fiber(F, c, label_fn)

    monkeypatch.setattr(incidence, "weighted_fiber", counted)
    assert verify_inversion(X, length_bound=bound).passed
    assert set(calls) == set(X.level(1).iso_classes().reps)
    assert set(calls.values()) == {1}


def test_a_negative_length_bound_is_refused():
    N = nerve(chain_poset(3), max_level=3)
    f = (("le", 0, 0),)
    assert mobius(N, f, 0) == 1
    with pytest.raises(DomainError, match="length bound must be >= 0, got -1"):
        mobius(N, f, -1)
    with pytest.raises(DomainError, match="length bound must be >= 0, got -2"):
        verify_inversion(N, length_bound=-2)


def test_every_comultiply_weight_is_a_positive_fraction():
    # a weight is a sum of |Aut f|/|Aut sigma| over classes of 2-simplices
    for X in (CHAIN3, C3, I4):
        for f in X.level(1).iso_classes().reps:
            assert all(type(w) is Fraction and w > 0 for w in comultiply(X, f).values())


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
    alpha = Functional(CHAIN3.level(1), lambda rep: table.get(rep, 0))
    d = delta(CHAIN3)
    left = convolve(CHAIN3, d, alpha)
    right = convolve(CHAIN3, alpha, d)
    for rep in CHAIN3.level(1).iso_classes().reps:
        assert left(rep) == alpha(rep) == right(rep)


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        convolve(CHAIN3, zeta(CHAIN3), zeta(C3))


def test_an_object_outside_x1_and_a_negative_length_are_refused():
    with pytest.raises(DomainError, match="is not an object of the level-1 carrier"):
        comultiply(CHAIN3, ("no such arrow",))
    with pytest.raises(DomainError, match="phi_n needs n >= 0"):
        phi_n(CHAIN3, (("le", 0, 1),), -1)


def test_a_functional_reads_an_int_rule_as_a_fraction():
    value = Functional(CHAIN3.level(1), lambda rep: 2)((("le", 0, 1),))
    assert value == 2 and type(value) is Fraction


def _plain_sum(table, left, right):
    return sum((w * left(l) * right(r) for (l, r), w in table.items()), Fraction(0))


def _interleaves(table, left, right):
    """Whether the integral and non-integral terms of the sum alternate
    at least twice in table order."""
    kinds = [(w * left(l) * right(r)).denominator == 1 for (l, r), w in table.items()]
    return sum(a != b for a, b in zip(kinds, kinds[1:])) >= 2


def test_the_integer_path_of_the_convolution_sum_is_the_plain_sum():
    # mu/2 and a table of thirds on a nerve, whose Delta weights are
    # integers: the integral terms of a sum go through ints, the others
    # through Fractions, and every value is the plain Fraction sum
    N = nerve(divisor_poset(12), max_level=5)
    reps = N.level(1).iso_classes().reps
    mu = mobius_functional(N, 4)
    half = Functional(N.level(1), lambda rep: mu(rep) / 2)
    thirds = {rep: Fraction(i, 3) for i, rep in enumerate(reps)}
    third = Functional(N.level(1), thirds.__getitem__)
    z = zeta(N)
    interleaved = 0
    for alpha, beta in [(half, z), (z, half), (third, z), (z, third), (third, half), (mu, z)]:
        product = convolve(N, alpha, beta)
        for rep in reps:
            table = comultiply(N, rep)
            value = product(rep)
            assert value == _plain_sum(table, alpha, beta) and type(value) is Fraction
            interleaved += _interleaves(table, alpha, beta)
    assert interleaved
    for table in ({}, {("a", "b"): Fraction(2)}, {("a", "b"): 2, ("b", "a"): Fraction(1, 2)}):
        value = incidence._pair_sum(table, lambda l: Fraction(3), lambda r: Fraction(-1))
        assert value == _plain_sum(table, lambda l: 3, lambda r: -1)
        assert type(value) is Fraction


def test_the_integer_path_of_a_convolution_action_is_the_plain_sum():
    B = total_decalage(nerve(divisor_poset(12), max_level=5), 2, 2)
    reps = B.cell(0, 0).iso_classes().reps
    inner = Functional(B.cell(0, 0), {rep: Fraction(i, 3) for i, rep in enumerate(reps)}.get)
    interleaved = 0
    for side, carrier in (("right", B.cell(-1, 1)), ("left", B.cell(1, -1))):
        outer = Functional(carrier, lambda rep: Fraction(len(rep), 2))
        left, right = (inner, outer) if side == "right" else (outer, inner)
        for m in reps:
            value = convolve_action(B, side, outer, inner, m)
            table = coact(B, side, m)
            assert value == _plain_sum(table, left, right) and type(value) is Fraction
            interleaved += _interleaves(table, left, right)
    assert interleaved


def _triple_list(X, f, comult=comultiply):
    """Iterated comultiplication, once through the left factor and once
    through the right; both must agree as weighted triple multisets."""
    left, right = {}, {}
    for (l, r), w in comult(X, f).items():
        for (a, b), w2 in comult(X, l).items():
            key = (a, b, r)
            left[key] = left.get(key, Fraction(0)) + w * w2
        for (b, c), w2 in comult(X, r).items():
            key = (l, b, c)
            right[key] = right.get(key, Fraction(0)) + w * w2
    return left, right


def test_coassociativity_exact():
    for X, classes in [(CHAIN3, CHAIN3.level(1).iso_classes().reps),
                       (C3, C3.level(1).iso_classes().reps)]:
        for f in classes:
            left, right = _triple_list(X, f)
            assert left == right


def _coalgebra_law_failures(X, comult=comultiply):
    """The level-1 classes f of X where `comult` breaks a coalgebra law:
    coassociativity, or a counit law, (delta x id) Delta f = {f: 1} and
    (id x delta) Delta f = {f: 1}, with the zero terms dropped."""
    failures = []
    for f in X.level(1).iso_classes().reps:
        left, right = _triple_list(X, f, comult)
        units = [{}, {}]
        for (l, r), w in comult(X, f).items():
            for unit, kept, dropped in ((units[0], r, l), (units[1], l, r)):
                unit[kept] = unit.get(kept, Fraction(0)) + w * counit(X, dropped)
        units = [{g: w for g, w in unit.items() if w != 0} for unit in units]
        if left != right or units != [{f: 1}, {f: 1}]:
            failures.append(f)
    return failures


def test_coalgebra_laws_hold_on_every_level_1_class():
    spaces = [layered_posets(3), layered_posets(4), layered_sets(4), nerve(divisor_poset(12))]
    assert [len(X.level(1).iso_classes().reps) for X in spaces] == [9, 25, 5, 18]
    for X in spaces:
        assert _coalgebra_law_failures(X) == [], X.name
    # negative control: one perturbed weight breaks a law at its class
    N = spaces[-1]
    f0 = N.level(1).iso_classes().reps[-1]

    def perturbed(X, f):
        terms = dict(comultiply(X, f))
        if f == f0:
            first = next(iter(terms))
            terms[first] += 1
        return terms

    assert f0 in _coalgebra_law_failures(N, perturbed)


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
    bad = Functional(C3.level(1), lambda rep: table.get(rep, 0))
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


def _fiber_simplices(walk, n, f):
    """The nondegenerate n-simplices over f: the pairs with k = n of
    walk(n, f), a walk that lists the simplices Phi counts."""
    return [sigma for k, sigma in walk(n, f) if k == n]


def _check_generated_fibers(X, walk):
    """Each fiber of X that walk(n, f) lists: distinct simplices of level
    n, with every principal edge nondegenerate and long edge f, as many as
    X's Phi count and the whole-level route count; returns the number of
    (f, n) cases."""
    tab = X.level(1).iso_classes()
    degenerate = X.degenerate_edge_classes()
    cases = 0
    for f in tab.reps:
        for n in range(1, X.max_level + 1):
            simplices = _fiber_simplices(walk, n, f)
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


def _layering_walk(X, kind):
    """The reference walk of the layered space X ('s' sets, 'p' posets)."""
    return functools.partial(_layerings(kind), X)


def _nerve_walk(C):
    """The walk of the nerve of C, which its Phi count counts."""
    return functools.partial(_chain_walk, C)


def test_phi_generated_fiber_equals_whole_level_route():
    spaces = [(build(g, max_level=max(2, g)), kind)
              for build, kind in ((layered_sets, "s"), (layered_posets, "p")) for g in range(5)]
    assert sum(_check_generated_fibers(X, _layering_walk(X, kind)) for X, kind in spaces) == 185


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


def test_phi_refuses_a_space_without_a_fiber_generator():
    # a grid row has no Phi count: Phi_n for n >= 1 is refused, naming it
    row = total_decalage(nerve(chain_poset(3), max_level=6), 2, 2).row(0)
    assert row.name == "TotalDec(N).row(0)"
    for f in row.level(1).iso_classes().reps:
        for n in (1, 2, 3):
            with pytest.raises(DomainError, match=re.escape(f"{row.name} has no Phi count")):
                phi_n(row, f, n)
        # s_0 of Dec_bot is s_1 of the nerve: its image ends in an identity
        assert phi_n(row, f, 0) == counit(row, f) == (1 if f[1][1] == f[1][2] else 0)


def test_nerve_generated_fiber_equals_whole_level_route():
    # a nerve's levels are discrete: a nondegenerate edge is a non-identity arrow
    assert sum(_check_generated_fibers(nerve(C, max_level=6), _nerve_walk(C))
               for C in criterion_4_categories()) == 558


def _involution_category():
    """One object with a non-identity involution s: s . s = 1, so the chain
    (s, s) of non-identity arrows composes to the identity."""
    C = FinCategory(["*"], {"1": ("*", "*"), "s": ("*", "*")},
                    {("1", "1"): "1", ("1", "s"): "s", ("s", "1"): "s", ("s", "s"): "1"},
                    {"*": "1"})
    C.validate()
    return C


def _involution_nerve():
    """The nerve of `_involution_category`, truncated at 4."""
    return nerve(_involution_category(), max_level=4)


def test_the_indexed_fiber_walk_matches_the_per_arrow_walk():
    # the nerve's walk reads the successor index; the reference composes
    # every arrow it tries: the same (k, chain) pairs, in the same order
    rng = seeded(28)
    quiver = FinCategory.free_on_quiver(
        range(4), [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 1, 2), ("e", 0, 2),
                   ("f", 2, 3), ("g", 2, 3)])
    categories = [FinCategory.from_poset(divisor_poset(12)), quiver, _involution_category()]
    categories += [FinCategory.from_poset(random_poset(rng, max_size=6)) for _ in range(6)]
    lengths = collections.Counter()
    for C in categories:
        N = nerve(C, max_level=4)
        for m in C.morphisms:
            walk = list(_chain_walk(C, 4, (m,)))
            assert walk == list(nerve_fiber_walk(C, 4, (m,))), (C.name, m)
            counts = collections.Counter(k for k, _chain in walk)
            assert N._phi_fn(N, 4, (m,)) == [0] + [counts[k] for k in range(1, 5)]
            lengths.update(counts)
    assert all(lengths[k] > 0 for k in range(1, 5)), lengths


def test_nerve_fiber_counts_non_identity_chains_onto_an_identity():
    N = _involution_nerve()
    walk = _nerve_walk(_involution_category())
    assert _fiber_simplices(walk, 2, ("1",)) == [("s", "s")]
    assert phi_n(N, ("1",), 2) == 1
    assert [phi_n(N, ("s",), n) for n in range(1, 5)] == [1, 0, 1, 0]
    assert _check_generated_fibers(N, walk) == 8


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


@pytest.mark.parametrize("build, bound", [
    (lambda: nerve(divisor_poset(12), max_level=6), 3),
    (lambda: layered_posets(4), None),
], ids=["divisors of 12", "layered posets 4"])
def test_mobius_walks_each_class_fiber_once(monkeypatch, build, bound):
    # one Phi count gives Phi of every length, so mu and the inversion
    # check ask for it once per class whose bound is >= 1
    X = build()
    monkeypatch.setattr(X, "_memo", {k: v for k, v in X._memo.items() if k[0] != "phi"})
    count = X._phi_fn
    calls = collections.Counter()

    def counted(space, n, f):
        calls[f] += 1
        return count(space, n, f)

    monkeypatch.setattr(X, "_phi_fn", counted)
    mu = mobius_functional(X, bound)
    assert verify_inversion(X, length_bound=bound, mu=mu).passed
    carrier = X.level(1)
    walked = {rep for rep in carrier.iso_classes().reps
              if (carrier.grade(rep) if bound is None else bound) >= 1}
    assert set(calls) == walked and set(calls.values()) == {1}


def _cyclic_group(k):
    """The one-object category Z_k, whose non-identity chains compose
    without end, so a fiber walk runs to the length asked."""
    arrows = {f"r{i}": ("*", "*") for i in range(k)}
    composites = {(f"r{i}", f"r{j}"): f"r{(i + j) % k}" for i in range(k) for j in range(k)}
    return FinCategory(["*"], arrows, composites, {"*": "r0"})


def test_phi_walks_each_class_fiber_to_the_longest_length_asked(monkeypatch):
    # Phi_1 of Z_6 walks to length 1, not to the truncation 6; a longer
    # length walks again, once, and a shorter one reads that walk
    walk = _nerve_walk(_cyclic_group(6))
    want = {n: [len(_fiber_simplices(walk, n, (f"r{i}",))) for i in range(6)]
            for n in (1, 2, 3)}
    N = nerve(_cyclic_group(6), max_level=6)
    count = N._phi_fn
    lengths = []

    def counted(space, n, f):
        lengths.append(n)
        return count(space, n, f)

    monkeypatch.setattr(N, "_phi_fn", counted)
    arrows = [(f"r{i}",) for i in range(6)]
    assert [phi_n(N, f, 1) for f in arrows] == want[1] == [0, 1, 1, 1, 1, 1]
    assert lengths == [1] * 6
    lengths.clear()
    assert [phi_n(N, f, 3) for f in arrows] == want[3]
    assert [phi_n(N, f, n) for n in (1, 2) for f in arrows] == want[1] + want[2]
    assert lengths == [3] * 6


def test_one_fiber_walk_yields_each_simplex_of_every_length_once():
    divisors = FinCategory.from_poset(divisor_poset(12))
    for X, walk in ((layered_sets(3), _layering_walk(layered_sets(3), "s")),
                    (layered_posets(3), _layering_walk(layered_posets(3), "p")),
                    (nerve(divisors, max_level=6), _nerve_walk(divisors)),
                    (_involution_nerve(), _nerve_walk(_involution_category()))):
        top = X.max_level
        for f in X.level(1).iso_classes().reps:
            pairs = list(walk(top, f))
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == {(k, sigma) for k in range(1, top + 1)
                                  for sigma in _fiber_simplices(walk, k, f)}
            lengths = collections.Counter(k for k, _sigma in pairs)
            assert [phi_n(X, f, k) for k in range(1, top + 1)] == [
                lengths[k] for k in range(1, top + 1)]


def test_mobius_is_the_alternating_sum_of_phi_up_to_the_bound():
    # a bound below the longest chain cuts the sum: [1, 12] in the divisors
    # of 12 has 1, 4 and 3 chains of 1, 2 and 3 arrows
    N = nerve(divisor_poset(12), max_level=6)
    f = (("le", 1, 12),)
    partial = [sum((-1) ** n * phi_n(N, f, n) for n in range(bound + 1)) for bound in range(7)]
    assert partial == [0, -1, 3, 0, 0, 0, 0]
    assert [mobius(N, f, length_bound=bound) for bound in range(7)] == partial
    # bound 0 is the counit and needs no Phi count
    row = total_decalage(nerve(chain_poset(3), max_level=6), 2, 2).row(0)
    for e in row.level(1).iso_classes().reps:
        assert mobius(row, e, length_bound=0) == counit(row, e)
        with pytest.raises(DomainError, match="has no Phi count"):
            mobius(row, e, length_bound=1)
    # the involution's Phi histogram alternates up to the truncation, and a
    # bound beyond it is refused with the bound as the level it needs
    I = _involution_nerve()
    assert [phi_n(I, ("s",), n) for n in range(1, 5)] == [1, 0, 1, 0]
    assert [mobius(I, ("s",), length_bound=bound) for bound in range(5)] == [0, -1, -1, -2, -2]
    with pytest.raises(InsufficientLevelsError) as err:
        mobius(I, ("s",), length_bound=6)
    assert (err.value.needed, err.value.available) == (6, 4)


@st.composite
def _acyclic_quivers(draw, max_nodes=4, max_edges=4):
    n = draw(st.integers(1, max_nodes))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=max_edges)) if pairs else []
    return n, [(f"e{k}", a, b) for k, (a, b) in enumerate(ends)]


@settings(max_examples=40, deadline=None)
@given(posets())
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
