import collections
import functools
import inspect
import weakref
from fractions import Fraction

import pytest

from moebiuskit import bicomodule, examples, groupoid, simplicial
from moebiuskit.bicomodule import validate_configuration
from moebiuskit.examples import layered_posets, sets_posets_bicomodule
from moebiuskit.groupoid import (
    DomainError,
    FiniteGroupoid,
    GroupoidFunctor,
    Mor,
    StructureError,
    cardinality,
    discrete_functor,
    discrete_groupoid,
    fiber,
    fiber_cardinality,
    full_subgroupoid,
    functors_equal,
    homotopy_pullback,
    is_equivalence,
    is_monomorphism,
    is_pullback_square,
    skeletalize,
    weighted_fiber,
)
from moebiuskit.simplicial import TruncatedSimplicialGroupoid, check_axioms

from conftest import (
    cluster_groupoid,
    criterion_4_nerves,
    random_cluster_functor,
    random_cluster_groupoid,
    seeded,
)


def bc2():
    """One object with automorphism group of order 2."""
    return cluster_groupoid([("a", 1, 2)], name="BC2")


def two_element_sets_groupoid():
    """All 2-element subsets of {0,1,2} with bijections between them."""
    objects = [frozenset(s) for s in [(0, 1), (0, 2), (1, 2)]]

    def hom(a, b):
        xs, ys = sorted(a), sorted(b)
        return (Mor(a, b, ((xs[0], ys[0]), (xs[1], ys[1]))),
                Mor(a, b, ((xs[0], ys[1]), (xs[1], ys[0]))))

    def compose(g, f):
        fmap = dict(f.label)
        gmap = dict(g.label)
        return Mor(f.src, g.tgt, tuple(sorted((x, gmap[fmap[x]]) for x in fmap)))

    def identity(a):
        return Mor(a, a, tuple((x, x) for x in sorted(a)))

    return FiniteGroupoid(objects, hom, compose, identity, name="2sets")


def test_cardinality_discrete():
    assert cardinality(discrete_groupoid(["x", "y", "z"])) == 3


def test_cardinality_bc2():
    assert cardinality(bc2()) == Fraction(1, 2)


def test_cardinality_two_element_sets():
    G = two_element_sets_groupoid()
    # one iso class, automorphism group of order 2
    table = G.iso_classes()
    assert len(table.reps) == 1
    assert cardinality(G) == Fraction(1, 2)
    S, F = skeletalize(G)
    assert cardinality(S) == Fraction(1, 2)
    assert is_equivalence(F)


def test_from_tables_validate_and_malformed():
    G = FiniteGroupoid.from_tables(
        ["a"], {("a", "a"): ["id", "g"]},
        {(("a", "a", "id"), ("a", "a", "id")): "id",
         (("a", "a", "id"), ("a", "a", "g")): "g",
         (("a", "a", "g"), ("a", "a", "id")): "g",
         (("a", "a", "g"), ("a", "a", "g")): "id"},
        {"a": "id"})
    G.validate()
    bad = FiniteGroupoid.from_tables(
        ["a"], {("a", "a"): ["id", "g"]},
        {(("a", "a", "id"), ("a", "a", "id")): "id",
         (("a", "a", "id"), ("a", "a", "g")): "g",
         (("a", "a", "g"), ("a", "a", "id")): "g",
         (("a", "a", "g"), ("a", "a", "g")): "g"},   # g . g = g: no inverse
        {"a": "id"})
    with pytest.raises(StructureError):
        bad.validate()


@pytest.mark.parametrize("src, tgt", [("a", "b"), ("b", "a")])
def test_validate_rejects_one_way_morphism(src, tgt):
    # f: src -> tgt has no inverse, whichever end comes first in object
    # order; validate scans every pair instead of trusting the iso classes
    ident = {"a": "1a", "b": "1b"}
    G = FiniteGroupoid.from_tables(
        ["a", "b"], {("a", "a"): ["1a"], ("b", "b"): ["1b"], (src, tgt): ["f"]},
        {(("a", "a", "1a"), ("a", "a", "1a")): "1a",
         (("b", "b", "1b"), ("b", "b", "1b")): "1b",
         ((src, src, ident[src]), (src, tgt, "f")): "f",
         ((src, tgt, "f"), (tgt, tgt, ident[tgt])): "f"},
        ident)
    with pytest.raises(StructureError, match="no inverse"):
        G.validate()


def test_groupoid_takes_one_iso_class_rule():
    # an exact iso_key or the hom scan; no skeletal or component_key knobs
    assert list(inspect.signature(FiniteGroupoid).parameters) == [
        "objects", "hom", "compose", "identity", "grade", "iso_key", "name"]


def test_fiber_identity_contractible():
    G = bc2()
    F = GroupoidFunctor.identity(G)
    for c in G.objects:
        assert cardinality(fiber(F, c)) == 1
        assert fiber_cardinality(F, c) == 1


def test_fiber_point_over_bc2():
    pt = discrete_groupoid(["*"])
    target = bc2()
    c = target.objects[0]
    F = GroupoidFunctor(pt, target, lambda a: c,
                        lambda m: target.identity(c), name="pt")
    fib = fiber(F, c)
    assert len(fib.objects) == 2
    for x in fib.objects:
        assert fib.hom(x, x) == (fib.identity(x),)
    assert cardinality(fib) == 2
    assert fiber_cardinality(F, c) == 2


def test_fast_fiber_agrees_with_iso_comma():
    rng = seeded(7)
    for _ in range(25):
        F = random_cluster_functor(rng)
        for c in F.target.iso_classes().reps:
            fib = fiber(F, c)
            assert fiber_cardinality(F, c) == cardinality(fib)
            # the pullback along the point c: objects (a, c, phi: F(a) -> c)
            assert all(b == c and phi.tgt == c for _a, b, phi in fib.objects)


def test_pullback_of_discrete_inclusions_is_set_pullback():
    C = discrete_groupoid([1, 2, 3, 4])
    A = discrete_groupoid(["a1", "a2"])
    B = discrete_groupoid(["b2", "b3"])
    f = GroupoidFunctor(A, C, lambda a: int(a[1]), lambda m: C.identity(int(m.src[1])))
    g = GroupoidFunctor(B, C, lambda b: int(b[1]), lambda m: C.identity(int(m.src[1])))
    P, _, _ = homotopy_pullback(f, g)
    assert len(P.objects) == 1  # only the value 2 matches
    assert cardinality(P) == 1


def test_pullback_points_over_bc2():
    pt = discrete_groupoid(["*"])
    target = bc2()
    c = target.objects[0]
    F = GroupoidFunctor(pt, target, lambda a: c, lambda m: target.identity(c))
    P, _, _ = homotopy_pullback(F, F)
    assert cardinality(P) == 2
    assert len(P.iso_classes().reps) == 2


def test_pullback_along_identity_is_equivalent():
    G, _ = random_cluster_groupoid(seeded(3))
    idf = GroupoidFunctor.identity(G)
    P, p1, _ = homotopy_pullback(idf, idf)
    assert cardinality(P) == cardinality(G)
    assert is_equivalence(p1)


def test_is_pullback_square_identity_true():
    G = bc2()
    idf = GroupoidFunctor.identity(G)
    assert is_pullback_square(idf, idf, idf, idf).passed


def test_is_pullback_square_noncommuting_raises():
    A = discrete_groupoid([0, 1])
    swap = GroupoidFunctor(A, A, lambda a: 1 - a, lambda m: A.identity(1 - m.src))
    idf = GroupoidFunctor.identity(A)
    with pytest.raises(DomainError):
        is_pullback_square(idf, idf, idf, swap)


# -- strict commutation on generators ------------------------------------------


def _all_morphisms(G):
    """Every morphism of G: hom(a, b) over every pair of objects."""
    return [m for a in G.objects for b in G.objects for m in G.hom(a, b)]


def _equal_on_every_morphism(F, G):
    """The oracle of `functors_equal`: both maps compared everywhere."""
    return (all(F.ob(a) == G.ob(a) for a in F.source.objects)
            and all(F(m) == G(m) for m in _all_morphisms(F.source)))


def _conjugated(F, eta):
    """F conjugated by automorphisms eta[a] of F(a), the identity where eta
    has no entry: m: a -> b goes to eta[b] . F(m) . eta[a]^{-1}.  It is a
    functor and agrees with F on objects."""
    T = F.target
    inverse = {a: T.inverse(e) for a, e in eta.items()}

    def mor(m):
        image = F(m)
        if m.src in eta:
            image = T.compose(image, inverse[m.src])
        if m.tgt in eta:
            image = T.compose(eta[m.tgt], image)
        return image

    return GroupoidFunctor(F.source, T, F.ob, mor, name=f"{F.name}^eta")


def test_functors_equal_matches_every_morphism_under_conjugation():
    # cluster automorphism groups are abelian, so a conjugate differs from F
    # only off the diagonal: a check on Aut(rep) alone finds no difference
    rng = seeded(16)
    verdicts = collections.Counter()
    for _ in range(300):
        F = random_cluster_functor(rng)
        S, T = F.source, F.target
        shared = rng.random() < 0.5    # one automorphism label per source class
        labels, eta = {}, {}
        for a in S.objects:
            auts = T.hom(F.ob(a), F.ob(a))
            k = rng.randrange(len(auts))
            eta[a] = auts[labels.setdefault(a[0], k) if shared else k]
        G = _conjugated(F, eta)
        mors = _all_morphisms(S)
        assert all(G(S.identity(a)) == T.identity(G.ob(a)) for a in S.objects)
        assert all(G(S.compose(g, f)) == T.compose(G(g), G(f))
                   for f in mors for b in S.objects for g in S.hom(f.tgt, b))
        assert all(F(m) == G(m) for m in mors if m.src == m.tgt)
        verdict = functors_equal(F, G)
        assert verdict == _equal_on_every_morphism(F, G)
        verdicts[verdict] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 50, verdicts


def test_functors_equal_compares_the_automorphisms():
    G = bc2()
    identity = GroupoidFunctor.identity(G)
    trivial = GroupoidFunctor(G, G, lambda a: a, lambda m: G.identity(m.src), name="triv")
    assert not _equal_on_every_morphism(identity, trivial)
    assert not functors_equal(identity, trivial)


def test_functors_equal_compares_the_connectors():
    G = cluster_groupoid([("c", 2, 3)], name="C3x2")
    rep, other = G.iso_classes().reps[0], ("c", 1)
    assert rep == ("c", 0)
    identity = GroupoidFunctor.identity(G)
    twisted = _conjugated(identity, {other: Mor(other, other, 1)})
    assert all(twisted(m) == m for a in G.objects for m in G.hom(a, a))
    assert not _equal_on_every_morphism(identity, twisted)
    assert not functors_equal(identity, twisted)
    with pytest.raises(DomainError, match="does not commute strictly"):
        is_pullback_square(identity, twisted, identity, identity)


def test_strict_commutation_reads_one_hom_set_per_object(monkeypatch):
    # fresh levels and spaces, so that the count does not depend on which
    # tests ran before; an iso-class table built inside the check reads
    # one more hom-set per class
    for name in ("_layered_level", "_layered_space"):
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    isos, precheck = examples._isos, groupoid.functors_equal
    open_calls, calls = [], []

    def counted_isos(a, b):
        if open_calls:
            open_calls[-1] += 1
        return isos(a, b)

    def counted_precheck(F, G):
        open_calls.append(0)
        try:
            return precheck(F, G)
        finally:
            calls.append((open_calls.pop(), F.source))

    monkeypatch.setattr(examples, "_isos", counted_isos)
    monkeypatch.setattr(groupoid, "functors_equal", counted_precheck)
    X = examples.layered_posets(3)
    assert check_axioms(X, "decomposition", 2).passed
    assert not check_axioms(X, "segal", 1).passed
    assert len(calls) == 25
    for homs, W in calls:
        assert homs <= len(W.objects) + len(W.iso_classes().reps)
    assert sum(homs for homs, _ in calls) == 12931   # 66,923 listing every morphism


def test_a_conjugated_face_fails_the_identities_on_both_checks(monkeypatch):
    # d_1 : X_2 -> X_1 of layered posets, conjugated at a non-representative
    # object by a nontrivial automorphism of its image
    X = layered_posets(2)
    d1 = X.face(2, 1)
    table = d1.source.iso_classes()
    x0 = next(a for a in d1.source.objects
              if table.class_of(a) != a and len(d1.target.hom(d1.ob(a), d1.ob(a))) > 1)
    mutated = _conjugated(d1, {x0: d1.target.hom(d1.ob(x0), d1.ob(x0))[1]})
    near = [m for a in table.members[table.class_of(x0)] for m in d1.source.hom(a, x0)]
    assert all(mutated(d1.source.compose(g, f)) == d1.target.compose(mutated(g), mutated(f))
               for f in near for g in d1.source.hom(x0, x0))
    Y = TruncatedSimplicialGroupoid(
        X.max_level, lambda s, n: X.level(n),
        lambda s, n, i: mutated if (n, i) == (2, 1) else X.face(n, i),
        lambda s, n, i: X.degeneracy(n, i), grade_bound=X.grade_bound, name="mutated")
    verdicts = []

    def both(F, G):
        verdicts.append((functors_equal(F, G), _equal_on_every_morphism(F, G)))
        return verdicts[-1][0]

    monkeypatch.setattr(simplicial, "functors_equal", both)
    report = check_axioms(Y, "identities", Y.max_level)
    assert all(got == want for got, want in verdicts)
    assert len(verdicts) == 69
    assert [c.name for c in report.failures()] == [
        "d_0 d_2 level 3", "d_1 d_2 level 3", "d_1 d_3 level 3",
        "d_2 s_0 level 2", "d_1 s_2 level 2"]
    assert check_axioms(X, "identities", X.max_level).passed


def test_is_equivalence_examples():
    G = discrete_groupoid([0, 1])
    assert is_equivalence(GroupoidFunctor.identity(G))
    pt = discrete_groupoid(["*"])
    incl = GroupoidFunctor(pt, G, lambda a: 0, lambda m: G.identity(0))
    result = is_equivalence(incl)
    assert not result and "essentially surjective" in result.witness


def test_is_monomorphism_examples():
    G = discrete_groupoid([0, 1])
    assert is_monomorphism(GroupoidFunctor.identity(G))
    pt = discrete_groupoid(["*"])
    fold = GroupoidFunctor(G, pt, lambda a: "*", lambda m: pt.identity("*"))
    assert not is_monomorphism(fold)
    # a monomorphism embeds the source: |source| <= |target|
    incl = GroupoidFunctor(pt, G, lambda a: 0, lambda m: G.identity(0))
    assert is_monomorphism(incl)
    assert cardinality(pt) <= cardinality(G)


def test_automorphism_map_must_land_in_aut_of_the_image():
    # injective on Aut and of the right size, but F(alpha) is not a morphism
    # of the target: not a functor, so neither an equivalence nor a mono
    G = bc2()
    x = G.objects[0]
    shifted = GroupoidFunctor(G, G, lambda a: a, lambda m: Mor(x, x, m.label + 2))
    result = is_equivalence(shifted)
    assert not result
    assert result.witness == (f"automorphism map not bijective at class {x!r}: "
                              f"{Mor(x, x, 2)!r} is not in Aut(F rep)")
    assert not is_monomorphism(shifted)
    # the count witness names the target's automorphism group
    pt = discrete_groupoid(["*"])
    fold = GroupoidFunctor(G, pt, lambda a: "*", lambda m: pt.identity("*"))
    assert is_equivalence(fold).witness == (
        f"automorphism map not bijective at class {x!r}: |Aut|=2 vs |Aut(F rep)|=1")


def test_is_monomorphism_matches_fiber_definition_random():
    # the definition: every homotopy fiber over a target class is empty
    # or contractible (one class, trivial automorphisms)
    def by_fibers(F):
        for c in F.target.iso_classes().reps:
            tab = fiber(F, c).iso_classes()
            if tab.reps and (len(tab.reps) != 1 or tab.aut_orders[tab.reps[0]] != 1):
                return False
        return True

    rng = seeded(23)
    monos = 0
    for _ in range(300):
        F = random_cluster_functor(rng)
        assert is_monomorphism(F) == by_fibers(F)
        monos += by_fibers(F)
    assert monos == 17   # 133 others are injective on classes but not on automorphisms


def test_cardinality_equivalence_invariant_random():
    rng = seeded(11)
    for _ in range(30):
        G, _ = random_cluster_groupoid(rng)
        S, F = skeletalize(G)
        assert is_equivalence(F)
        assert cardinality(G) == cardinality(S)


def test_fiber_sum_identity_random():
    # sum over target classes of |fiber| / |Aut| equals |source|, exactly
    rng = seeded(13)
    for _ in range(30):
        F = random_cluster_functor(rng)
        table = F.target.iso_classes()
        total = sum((fiber_cardinality(F, c) / table.aut_orders[c]
                     for c in table.reps), Fraction(0))
        assert total == cardinality(F.source)


def test_pullback_pasting():
    # iterated pullback agrees with the pullback of the composite
    rng = seeded(17)
    for _ in range(10):
        u = random_cluster_functor(rng)           # A -> B
        B = u.target
        # build v: B -> C and w: W -> C over a shared codomain
        v = GroupoidFunctor(B, B, lambda a: a, lambda m: m)  # keep it simple: C = B
        w = random_cluster_functor(rng)
        if w.target.objects != B.objects:
            # redirect w into B by composing with a collapse onto one B-class
            target_obj = B.objects[0]
            w = GroupoidFunctor(w.source, B, lambda a: target_obj,
                                lambda m: B.identity(target_obj))
        P, pB, pW = homotopy_pullback(v, w)
        Q1, q1, _ = homotopy_pullback(u, pB)
        Q2, _, _ = homotopy_pullback(GroupoidFunctor.compose(v, u), w)

        def ob(x):
            a, p_obj, phi = x
            b, wobj, psi = p_obj
            return (a, wobj, B.compose(psi, v(phi)))

        def mor(m):
            alpha_label, inner = m.label
            beta_label, gamma_label = inner
            return Mor(ob(m.src), ob(m.tgt), (alpha_label, gamma_label))

        cmp_functor = GroupoidFunctor(Q1, Q2, ob, mor)
        assert is_equivalence(cmp_functor)


def test_full_subgroupoid_domain_check():
    G = discrete_groupoid([0, 1])
    with pytest.raises(DomainError):
        full_subgroupoid(G, [2])



def _partition(G):
    table = G.iso_classes()
    return {frozenset(table.members[rep]) for rep in table.reps}


def _union_find_partition(G):
    """The classes of G found by hom scans, without its iso key."""
    return _partition(FiniteGroupoid(G.objects, G._hom, G._compose, G._identity))


class _SameRepr:
    """An opaque label whose repr does not tell instances apart."""

    def __repr__(self):
        return "g"


def test_iso_keys_do_not_merge_labels_with_equal_repr():
    # Z/2 on one object, with labels e != g printing alike; a point maps in
    e, g = _SameRepr(), _SameRepr()
    mult = {(e, e): e, (e, g): g, (g, e): g, (g, g): e}
    T = FiniteGroupoid.from_tables(
        ["*"], {("*", "*"): [e, g]},
        {(("*", "*", x), ("*", "*", y)): mult[x, y] for x in (e, g) for y in (e, g)},
        {"*": e}, name="Z2")
    point = discrete_groupoid(["pt"])
    F = GroupoidFunctor(point, T, lambda a: "*", lambda m: T.identity("*"), name="pt")

    fib = fiber(F, "*")
    assert len(_partition(fib)) == 2
    assert _partition(fib) == _union_find_partition(fib)
    assert cardinality(fib) == fiber_cardinality(F, "*") == 2
    P, _, _ = homotopy_pullback(F, F)
    assert len(_partition(P)) == 2
    assert _partition(P) == _union_find_partition(P)
    assert cardinality(P) == 2


def test_iso_key_classes_match_union_find_random():
    # the orbit keys of fibers and pullbacks give exactly the hom-scan classes
    rng = seeded(17)
    for _ in range(30):
        F = random_cluster_functor(rng)
        for c in F.target.iso_classes().reps:
            fib = fiber(F, c)
            assert _partition(fib) == _union_find_partition(fib)
        P, _, _ = homotopy_pullback(F, F)
        assert _partition(P) == _union_find_partition(P)


# -- pullback squares against the whole iso-comma ------------------------------


def _whole_comparison(p, q, f, g, grade_bound=None):
    """is_equivalence of the untransported comparison w -> (p w, q w, id)
    into the whole iso-comma homotopy_pullback(f, g)."""
    P, _, _ = homotopy_pullback(f, g, grade_bound)
    C = f.target

    def ob(w):
        return (p.ob(w), q.ob(w), C.identity(f.ob(p.ob(w))))

    return is_equivalence(GroupoidFunctor(
        p.source, P, ob, lambda m: Mor(ob(m.src), ob(m.tgt), (p(m).label, q(m).label))))


def _strict_pullback(f, g):
    """The projections (p, q) of the strict pullback of (f, g): the pairs
    (a, b) with f(a) = g(b), and the pairs (alpha, beta) with
    f(alpha) = g(beta)."""
    A, B = f.source, g.source

    def hom(x, y):
        return tuple(Mor(x, y, (al.label, be.label))
                     for al in A.hom(x[0], y[0]) for be in B.hom(x[1], y[1])
                     if f(al) == g(be))

    def compose(n, m):
        al = A.compose(Mor(n.src[0], n.tgt[0], n.label[0]), Mor(m.src[0], m.tgt[0], m.label[0]))
        be = B.compose(Mor(n.src[1], n.tgt[1], n.label[1]), Mor(m.src[1], m.tgt[1], m.label[1]))
        return Mor(m.src, n.tgt, (al.label, be.label))

    def identity(x):
        return Mor(x, x, (A.identity(x[0]).label, B.identity(x[1]).label))

    W = FiniteGroupoid([(a, b) for a in A.objects for b in B.objects if f.ob(a) == g.ob(b)],
                       hom, compose, identity, name="strict")
    return (GroupoidFunctor(W, A, lambda x: x[0], lambda m: Mor(m.src[0], m.tgt[0], m.label[0])),
            GroupoidFunctor(W, B, lambda x: x[1], lambda m: Mor(m.src[1], m.tgt[1], m.label[1])))


def _squares_over(f, g, rng):
    """(p, q, f, g) squares over the cospan (f, g): the strict pullback of
    (f, g); the iso-comma homotopy_pullback(f, g) itself, as the strict
    pullback of f and the projection g~ : B~ -> C of
    B~ = homotopy_pullback(id_C, g); that iso-comma less one object; and
    its objects with identities only, which collide and miss automorphisms
    where a strict pullback or a full subgroupoid of the iso-comma cannot."""
    A, C = f.source, f.target
    squares = [(*_strict_pullback(f, g), f, g)]

    P, pa, _ = homotopy_pullback(f, g)
    _, tilde, _ = homotopy_pullback(GroupoidFunctor.identity(C), g)

    def q_ob(x):
        return (f.ob(x[0]), x[1], x[2])

    q = GroupoidFunctor(P, tilde.source, q_ob, lambda m: Mor(
        q_ob(m.src), q_ob(m.tgt), (f(pa(m)).label, m.label[1])))
    squares.append((pa, q, f, tilde))
    if P.objects:
        dropped = rng.choice(P.objects)
        W = full_subgroupoid(P, [x for x in P.objects if x != dropped])
        squares.append((pa.restrict(W), q.restrict(W), f, tilde))
    D = discrete_groupoid(P.objects)
    squares.append((discrete_functor(D, A, lambda x: x[0]),
                    discrete_functor(D, tilde.source, q_ob), f, tilde))
    return squares


def _random_squares(rng, count):
    """At least count squares over random cospans of cluster functors with
    a shared target."""
    squares = []
    while len(squares) < count:
        target = random_cluster_groupoid(rng, max_size=2, max_order=3, name="tgt")
        squares += _squares_over(random_cluster_functor(rng, target),
                                 random_cluster_functor(rng, target), rng)
    return squares


def _witness_kind(witness):
    if witness is None:
        return "pass"
    for kind, marker in [("collision", "not fully faithful"),
                         ("missed", "not essentially surjective"),
                         ("aut", "automorphism map not bijective")]:
        if witness.startswith(marker):
            return kind
    raise AssertionError(f"unknown witness {witness!r}")


def _check_comparison_morphisms(monkeypatch):
    """Make each comparison assert that it sends the automorphisms of W's
    class representatives into the iso-comma's automorphism groups: its
    verdict reads the morphism map only through their sizes."""
    def checked(F):
        for w in F.source.iso_classes().reps:
            x = F.ob(w)
            assert all(F(m) in F.target.hom(x, x) for m in F.source.hom(w, w))
        return is_equivalence(F)

    monkeypatch.setattr(groupoid, "is_equivalence", checked)


def test_pullback_square_matches_the_whole_iso_comma_random(monkeypatch):
    # the check on class representatives gives the verdict and the witness
    # of the untransported comparison into the whole iso-comma
    _check_comparison_morphisms(monkeypatch)
    kinds = collections.Counter()
    for p, q, f, g in _random_squares(seeded(29), 210):
        got = is_pullback_square(p, q, f, g)
        want = _whole_comparison(p, q, f, g)
        assert (got.passed, got.witness) == (want.passed, want.witness)
        kinds[_witness_kind(got.witness)] += 1
    assert set(kinds) == {"pass", "collision", "missed", "aut"}, kinds


def test_pullback_checks_of_the_spaces_match_the_whole_iso_comma(monkeypatch):
    kinds = collections.Counter()

    def checked(p, q, f, g, grade_bound=None, name=""):
        got = is_pullback_square(p, q, f, g, grade_bound, name)
        want = _whole_comparison(p, q, f, g, grade_bound)
        assert (got.passed, got.witness) == (want.passed, want.witness), name
        kinds[_witness_kind(got.witness)] += 1
        return got

    _check_comparison_morphisms(monkeypatch)
    monkeypatch.setattr(simplicial, "is_pullback_square", checked)
    monkeypatch.setattr(bicomodule, "is_pullback_square", checked)
    for g in (2, 3):
        for profile in ("decomposition", "segal"):
            check_axioms(layered_posets(g), profile, 1)
    report = validate_configuration(sets_posets_bicomodule(2, 2, 2), 1)
    assert not report.sections["columns segal"].passed
    assert set(kinds) == {"pass", "collision", "missed"}, kinds


# -- the fiber table against a scan of the source classes ------------------------


def _scan_weighted_fiber(F, c, label_fn):
    """weighted_fiber by a scan of every source class, the route before
    each functor kept a fiber table."""
    ttab, stab = F.target.iso_classes(), F.source.iso_classes()
    cls_c = ttab.class_of(c)
    out = {}
    for rep in stab.reps:
        if ttab.class_of(F.ob(rep)) == cls_c:
            key = label_fn(rep)
            out[key] = out.get(key, Fraction(0)) + Fraction(ttab.aut_orders[cls_c],
                                                            stab.aut_orders[rep])
    return out


def _scan_class_image(F):
    """The class image by a scan that stops at the first collision."""
    ttab = F.target.iso_classes()
    image = {}
    for rep in F.source.iso_classes().reps:
        tcls = ttab.class_of(F.ob(rep))
        if tcls in image:
            return image, ("not fully faithful: source classes "
                           f"{image[tcls]!r} and {rep!r} share target class {tcls!r}")
        image[tcls] = rep
    return image, None


def _check_fiber_table(F, targets):
    """weighted_fiber and fiber_cardinality over each target object equal
    the scan term for term, under a label per class and a constant label;
    returns the number of nonempty fibers."""
    nonempty = 0
    for c in targets:
        want = _scan_weighted_fiber(F, c, lambda rep: rep)
        assert list(weighted_fiber(F, c, lambda rep: rep).items()) == list(want.items())
        total = sum(want.values(), Fraction(0))
        assert weighted_fiber(F, c, lambda rep: None) == ({None: total} if want else {})
        assert fiber_cardinality(F, c) == total
        nonempty += bool(want)
    return nonempty


def _last_members(G):
    """The last member of each iso class: a non-representative wherever a
    class has more than one object."""
    table = G.iso_classes()
    return [table.members[rep][-1] for rep in table.reps]


def _operators(X):
    """Every face and degeneracy of a truncated space."""
    return ([X.face(n, i) for n in range(1, X.max_level + 1) for i in range(n + 1)]
            + [X.degeneracy(n, i) for n in range(X.max_level) for i in range(n + 1)])


def test_fiber_table_matches_the_source_scan_random():
    rng = seeded(31)
    nonempty = 0
    for _ in range(150):
        F = random_cluster_functor(rng)
        nonempty += _check_fiber_table(F, F.target.objects)
    assert nonempty > 150


def test_fiber_table_matches_the_source_scan_on_space_operators():
    spaces = criterion_4_nerves() + [layered_posets(g) for g in range(4)]
    operators = [F for X in spaces for F in _operators(X)]
    for F in operators:
        _check_fiber_table(F, _last_members(F.target))
    assert len(operators) == 20 * 48 + 8 + 15 + 24 + 35   # L(L+2) at truncation L


def test_fiber_table_is_kept_only_whole():
    # an image outside the target raises on every query, not only the first
    F = discrete_functor(discrete_groupoid(range(3)), discrete_groupoid("xy"), "xyz".__getitem__)
    for _ in range(2):
        with pytest.raises(DomainError):
            weighted_fiber(F, "x", lambda rep: rep)


def test_class_image_keeps_the_first_collision_in_source_order():
    rng = seeded(37)
    collisions = 0
    for _ in range(300):
        F = random_cluster_functor(rng)
        got, want = groupoid._class_image(F), _scan_class_image(F)
        assert got[1] == want[1]
        if want[1] is None:
            assert got[0] == want[0]
        collisions += want[1] is not None
    assert collisions > 50
    # class 3 goes where class 0 went, but 2 meets 1 first
    F = discrete_functor(discrete_groupoid(range(4)), discrete_groupoid("xy"), "xyyx".__getitem__)
    assert groupoid._class_image(F)[1] == _scan_class_image(F)[1] == (
        "not fully faithful: source classes 1 and 2 share target class 'y'")


def _check_fiber_cardinalities(p, f, g, grade_bound):
    """A homotopy pullback square induces equivalences of homotopy fibers,
    so |fiber of p over a| = |fiber of g over f(a)| for every class a of A.
    On graded levels the right side keeps only the classes b of B whose
    glued grade stays within grade_bound, as homotopy_pullback does."""
    A, B, C = f.source, g.source, f.target
    graded = grade_bound is not None and A.is_graded() and B.is_graded() and C.is_graded()
    for a in A.iso_classes().reps:
        fa = f.ob(a)
        if graded:
            by_grade = weighted_fiber(g, fa, B.grade)
            right = sum((w for grade, w in by_grade.items()
                         if A.grade(a) + grade - C.grade(fa) <= grade_bound), Fraction(0))
        else:
            right = fiber_cardinality(g, fa)
        assert fiber_cardinality(p, a) == right


def test_passed_squares_have_equal_fiber_cardinalities(monkeypatch):
    verdicts = collections.Counter()

    def checked(p, q, f, g, grade_bound=None, name=""):
        result = is_pullback_square(p, q, f, g, grade_bound, name)
        if result.passed:
            _check_fiber_cardinalities(p, f, g, grade_bound)
        verdicts[result.passed] += 1
        return result

    monkeypatch.setattr(simplicial, "is_pullback_square", checked)
    for N in criterion_4_nerves():
        for profile in ("segal", "decomposition"):
            assert check_axioms(N, profile, 3).passed
    for g in (1, 2, 3):
        for profile in ("decomposition", "segal"):
            check_axioms(layered_posets(g), profile, 1)
    # 43 squares per nerve; 8, 12 and 12 decomposition squares and one
    # segal square at g = 1, 2, 3, the segal squares at g = 2, 3 failing
    assert verdicts == {True: 20 * 43 + 35 - 2, False: 2}, verdicts


def test_a_dropped_iso_comma_is_freed_without_the_cycle_collector(no_cycle_collector):
    f = random_cluster_functor(seeded(3))
    P, pa, pb = homotopy_pullback(f, f)
    assert P.iso_classes().reps
    iso_comma = weakref.ref(P)
    del P, pa, pb
    assert iso_comma() is None
