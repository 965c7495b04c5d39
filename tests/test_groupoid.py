import collections
import functools
import inspect
import re
import weakref
from fractions import Fraction

import pytest

from moebiuskit import bicomodule, examples, groupoid, simplicial
from moebiuskit.bicomodule import validate_configuration
from moebiuskit.catposet import nerve
from moebiuskit.examples import layered_posets, layered_sets, sets_posets_bicomodule
from moebiuskit.groupoid import (
    DomainError,
    FiniteGroupoid,
    GroupoidFunctor,
    Mor,
    StructureError,
    cardinality,
    discrete_functor,
    discrete_groupoid,
    fiber_cardinality,
    full_subgroupoid,
    functors_equal,
    homotopy_pullback,
    is_equivalence,
    is_monomorphism,
    is_pullback_square,
    weighted_fiber,
)
from moebiuskit.simplicial import TruncatedSimplicialGroupoid, check_axioms

from conftest import (
    cluster_groupoid,
    criterion_4_nerves,
    random_cluster_functor,
    random_cluster_groupoid,
    random_poset,
    random_quiver_category,
    seeded,
)
from reference import fiber, skeletalize, skeleton
from test_cli_golden import COMMANDS, load_golden, run_command


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


def test_functors_equal_reads_no_object_past_the_first_difference():
    S, T = discrete_groupoid([0, 1, 2]), discrete_groupoid([0, 1, 2, 3])
    reads = []

    def ob(a):
        reads.append(a)
        if a == 2:
            raise DomainError("read past the first difference")
        return 3 if a == 1 else a

    F = GroupoidFunctor(S, T, lambda a: a, lambda m: m, name="F")
    G = GroupoidFunctor(S, T, ob, lambda m: m, name="G")
    assert functors_equal(F, G) is False
    assert reads == [0, 1]


def test_functors_equal_skips_only_on_the_aut_of_the_image():
    # S codiscrete on two objects with trivial Aut, T one object with Aut
    # Z_3: the connector of S goes into a hom-set of three elements, so a
    # trivial Aut of the source class decides nothing
    S = cluster_groupoid([("s", 2, 1)], name="S")
    T = cluster_groupoid([("t", 1, 3)], name="T")
    t = T.objects[0]
    F = GroupoidFunctor(S, T, lambda a: t, lambda m: T.identity(t), name="F")
    rep, other = S.iso_classes().reps[0], ("s", 1)
    assert rep == ("s", 0) and S.iso_classes().aut_orders[rep] == 1
    G = _conjugated(F, {other: Mor(t, t, 1)})
    assert F(S.identity(rep)) == G(S.identity(rep))
    assert not _equal_on_every_morphism(F, G)
    assert not functors_equal(F, G)
    identity = GroupoidFunctor.identity(T)
    with pytest.raises(DomainError, match="does not commute strictly"):
        is_pullback_square(F, G, identity, identity)


def _equal_on_every_morphism_of_a_class(F, G):
    """`_equal_on_every_morphism` listing hom(a, b) only for a and b in one
    class of the source's class table: the other hom-sets are empty."""
    table = F.source.iso_classes()
    return (all(F.ob(a) == G.ob(a) for a in F.source.objects)
            and all(F(m) == G(m) for rep in table.reps for a in table.members[rep]
                    for b in table.members[rep] for m in F.source.hom(a, b)))


def _generators_to_compare(F):
    """The generators of F.source that `functors_equal` maps, in its order:
    per class of a representative r whose image F r has a nontrivial Aut,
    Aut(r) when it is nontrivial and the connector a -> r of each other
    member a, each read off the class table and the hom-sets; and the
    number of classes skipped."""
    S, T = F.source, F.target
    table = S.iso_classes()
    gens, skipped = [], 0
    for rep in table.reps:
        if len(T.hom(F.ob(rep), F.ob(rep))) == 1:
            skipped += 1
            continue
        for a in table.members[rep]:
            if a != rep:
                gens.append(S.hom(a, rep)[0])
            elif len(S.hom(rep, rep)) > 1:
                gens.extend(S.hom(rep, rep))
    return gens, skipped


def test_strict_commutation_maps_only_what_a_one_element_hom_set_leaves_open(monkeypatch):
    precheck = groupoid.functors_equal
    verdicts, totals = collections.Counter(), collections.Counter()

    def recorded(F, G):
        assert F.target is G.target
        mapped = {F: [], G: []}
        saved = F._mor, G._mor
        for H in (F, G):
            H._mor = lambda m, H=H, mor=H._mor: (mapped[H].append(m), mor(m))[1]
        try:
            verdict = precheck(F, G)
        finally:
            F._mor, G._mor = saved
        assert verdict == _equal_on_every_morphism_of_a_class(F, G)
        gens, skipped = _generators_to_compare(F)
        assert mapped[F] == mapped[G]
        if verdict:
            assert mapped[F] == gens
        else:
            assert mapped[F] == gens[:len(mapped[F])]
        verdicts[verdict] += 1
        totals["mapped"] += len(mapped[F])
        totals["skipped classes"] += skipped
        return verdict

    for module in (groupoid, simplicial, bicomodule):
        monkeypatch.setattr(module, "functors_equal", recorded)
    X = layered_posets(3)
    for profile in ("identities", "decomposition", "segal"):
        check_axioms(X, profile, 2)
    validate_configuration(sets_posets_bicomodule(2), 1)
    assert verdicts[True] > 0 and totals["mapped"] > 0 and totals["skipped classes"] > 0, (
        verdicts, totals)


def test_strict_commutation_reads_one_hom_set_per_object(monkeypatch):
    # fresh levels and spaces, so that the count does not depend on which
    # tests ran before.  A layered level's orbit-built class table reads no
    # hom-set.  Aut(a) and the connector of a are read from hom-sets into
    # the groupoid's memo, so the levels that the 25 squares share are read
    # once, not once per check
    for name in ("_layered_level", "_layered_space"):
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    hom, precheck = groupoid.FiniteGroupoid.hom, groupoid.functors_equal
    open_calls, calls = [], []

    def counted_hom(G, a, b):
        if open_calls:
            open_calls[-1] += 1
        return hom(G, a, b)

    def counted_precheck(F, G):
        open_calls.append(0)
        try:
            return precheck(F, G)
        finally:
            calls.append((open_calls.pop(), F.source))

    monkeypatch.setattr(groupoid.FiniteGroupoid, "hom", counted_hom)
    monkeypatch.setattr(groupoid, "functors_equal", counted_precheck)
    X = examples.layered_posets(3)
    assert check_axioms(X, "decomposition", 2).passed
    assert not check_axioms(X, "segal", 1).passed
    assert len(calls) == 25
    for homs, W in calls:
        assert homs <= len(W.objects) + len(W.iso_classes().reps)
    # 147 automorphism groups, of class images in the shared target and of
    # representatives with a nontrivial Aut, and 700 connectors, one per
    # other member of a class the check does not skip (302 when each table
    # recorded the Aut and the connectors of its classes with a trivial Aut
    # as it was built; 996 when each table read one Aut per class and every
    # connector was read; 12,931 reading each level once per check, 66,923
    # listing every morphism, 2,010 comparing the classes whose image has a
    # trivial Aut)
    assert sum(homs for homs, _ in calls) == 847


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


def test_aut_witness_is_the_first_automorphism_image_outside():
    # on Z_3, alpha |-> alpha + 8 sends every automorphism outside Aut(F rep);
    # the witness is the image of the first one in hom order, label 0 -> 8
    G = cluster_groupoid([("c", 1, 3)])
    x = G.objects[0]
    shifted = GroupoidFunctor(G, G, lambda a: a, lambda m: Mor(m.src, m.tgt, m.label + 8))
    assert is_equivalence(shifted).witness == (
        f"automorphism map not bijective at class {x!r}: "
        f"{Mor(x, x, 8)!r} is not in Aut(F rep)")


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
    # iterated pullback agrees with the pullback of the composite; u and w
    # are drawn into one groupoid B, and v: B -> C is its identity
    rng = seeded(17)
    for _ in range(10):
        target = random_cluster_groupoid(rng, name="B")
        B = target[0]
        u = random_cluster_functor(rng, target=target)   # A -> B
        w = random_cluster_functor(rng, target=target)   # W -> B
        v = GroupoidFunctor.identity(B)
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


def test_a_tabulated_rule_runs_once_per_object_and_outside_the_source():
    calls = collections.Counter()

    def rule(a):
        calls[a] += 1
        if a == "bad":
            raise DomainError("no image of 'bad'")
        return 2 * a

    G, T = discrete_groupoid([0, 1, 2]), discrete_groupoid([0, 2, 4, 6])
    F = GroupoidFunctor.tabulated(G, T, rule)
    for _ in range(3):
        assert [F.ob(a) for a in G.objects] == [0, 2, 4]
        assert F(Mor(1, 1, "id")) == Mor(2, 2, "id")
    assert calls == {0: 1, 1: 1, 2: 1}
    # an object outside the source still goes through the rule, once when
    # it has an image and on every read when the rule refuses it
    assert F.ob(3) == F.ob(3) == 6 and calls[3] == 1
    for _ in range(2):
        with pytest.raises(DomainError, match="no image of 'bad'"):
            F.ob("bad")
    assert calls["bad"] == 2
    # with a morphism rule, each entry is read by the object and the morphism maps
    H = GroupoidFunctor.tabulated(G, T, lambda a: (rule(a + 10) - 20, a),
                                  lambda m, s, t: Mor(s[0], t[0], ("moved", s[1])))
    assert [H.ob(a) for a in G.objects] * 2 == [0, 2, 4] * 2
    assert H(Mor(2, 2, "id")) == Mor(4, 4, ("moved", 2))
    assert [calls[a] for a in (10, 11, 12)] == [1, 1, 1]


def test_a_tabulated_morphism_rule_runs_once_per_morphism_and_keeps_no_refusal():
    calls = collections.Counter()

    def rule(a):
        calls["ob", a] += 1
        if a == "bad":
            raise DomainError("no image of 'bad'")
        return 2 * a, (a if a else None)

    def mor(m, s, t):
        calls["mor", m] += 1
        return Mor(s[0], t[0], ("moved", s[1], t[1]))

    G, T = discrete_groupoid([0, 1, 2]), discrete_groupoid([0, 2, 4, 6])
    F = GroupoidFunctor.tabulated(G, T, rule, mor)
    for _ in range(3):
        assert F(Mor(0, 0, "id")) == Mor(0, 0, ("moved", None, None))
        assert F(Mor(2, 2, "id")) == Mor(4, 4, ("moved", 2, 2))
    assert calls == {("ob", 0): 1, ("ob", 2): 1,
                     ("mor", Mor(0, 0, "id")): 1, ("mor", Mor(2, 2, "id")): 1}
    # a morphism out of an object the rule refuses raises on every read
    # and leaves no entry in either table
    bad = Mor("bad", "bad", "id")
    for _ in range(2):
        with pytest.raises(DomainError, match="no image of 'bad'"):
            F(bad)
    assert calls["ob", "bad"] == 2 and calls["mor", bad] == 0
    assert bad not in F._mor.__self__ and "bad" not in F._ob.__self__
    # without a morphism rule, an identity whose image is outside the
    # target raises the target's error on every read
    D = GroupoidFunctor.tabulated(G, T, lambda a: 2 * a)
    for _ in range(2):
        with pytest.raises(DomainError, match="10 not an object"):
            D(Mor(5, 5, "id"))
    assert Mor(5, 5, "id") not in D._mor.__self__


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


def _random_set_squares(rng, count):
    """At least count squares over random cospans of maps between discrete
    groupoids, alternately over a discrete and a cluster target: the
    squares of `_squares_over`, and its strict pullback with one object
    doubled, since on sets only a map that is not injective collides."""
    squares, discrete_target = [], False
    while len(squares) < count:
        if discrete_target:
            C = discrete_groupoid(range(rng.randint(1, 3)), name="tgt")
        else:
            C, _ = random_cluster_groupoid(rng, max_size=2, max_order=3, name="tgt")
        discrete_target = not discrete_target
        f, g = [discrete_functor(S, C, {a: rng.choice(C.objects) for a in S.objects}.__getitem__)
                for S in (discrete_groupoid(range(rng.randint(1, 3)), name=leg) for leg in "AB")]
        squares += _squares_over(f, g, rng)
        pairs = [(a, b) for a in f.source.objects for b in g.source.objects if f.ob(a) == g.ob(b)]
        if pairs:
            D = discrete_groupoid(pairs + ["copy"])
            ob = dict(zip(D.objects, pairs + pairs[:1]))
            squares.append((discrete_functor(D, f.source, lambda w, ob=ob: ob[w][0]),
                            discrete_functor(D, g.source, lambda w, ob=ob: ob[w][1]), f, g))
    return squares


def _random_graded_set_cospans(rng, count):
    """count cospans (f, g, grade_bound) of maps between graded discrete
    groupoids, alternately over a graded discrete and a graded cluster
    target, with a grade bound that some pairs over a class exceed."""
    cospans, discrete_target = [], False
    while len(cospans) < count:
        if discrete_target:
            grade = {c: rng.randint(0, 1) for c in range(rng.randint(1, 3))}
            C = discrete_groupoid(grade, grade=grade.__getitem__, name="tgt")
        else:   # a grade constant on each cluster
            K, clusters = random_cluster_groupoid(rng, max_size=2, max_order=3)
            grade = {tag: rng.randint(0, 1) for tag, _, _ in clusters}
            C = FiniteGroupoid(K.objects, K.hom, K.compose, K.identity,
                               grade=lambda c, grade=grade: grade[c[0]], name="tgt")
        discrete_target = not discrete_target
        f, g = [discrete_functor(S, C, {a: rng.choice(C.objects) for a in S.objects}.__getitem__)
                for S in (discrete_groupoid(range(rng.randint(1, 4)), name=leg,
                                            grade={a: rng.randint(0, 2)
                                                   for a in range(4)}.__getitem__)
                          for leg in "AB")]
        cospans.append((f, g, rng.randint(0, 3)))
    return cospans


def _random_graded_set_squares(rng, count):
    """At least count squares (p, q, f, g, grade_bound) of sets over
    `_random_graded_set_cospans`: the strict pullback within the bound, that
    less one pair and with one pair doubled, and the whole strict pullback,
    whose pairs beyond the bound are no objects of the bounded iso-comma."""
    squares = []
    while len(squares) < count:
        (f, g, bound), = _random_graded_set_cospans(rng, 1)
        A, B, C = f.source, g.source, f.target
        pairs = [(a, b) for a in A.objects for b in B.objects if f.ob(a) == g.ob(b)]
        within = [(a, b) for a, b in pairs
                  if A.grade(a) + B.grade(b) - C.grade(f.ob(a)) <= bound]
        for chosen in (within, within[1:], within + within[:1], pairs):
            D = discrete_groupoid(range(len(chosen)))
            squares.append((discrete_functor(D, A, lambda w, chosen=chosen: chosen[w][0]),
                            discrete_functor(D, B, lambda w, chosen=chosen: chosen[w][1]),
                            f, g, bound))
    return squares


def _outcome(check):
    """(passed, witness) of a check, or ("raised", message) of its
    DomainError."""
    try:
        result = check()
    except DomainError as err:
        return "raised", str(err)
    return result.passed, result.witness


def _is_square_of_sets(p, f, g):
    return all(groupoid._is_discrete(G) for G in (p.source, f.source, g.source))


def _witness_kind(witness):
    if witness is None:
        return "pass"
    for kind, marker in [("collision", "not fully faithful"),
                         ("missed", "not essentially surjective"),
                         ("aut", "automorphism map not bijective")]:
        if witness.startswith(marker):
            return kind
    raise AssertionError(f"unknown witness {witness!r}")


def test_pullback_square_matches_the_whole_iso_comma_random():
    # the check on class representatives, and the set rule on squares of
    # sets, give the verdict and the witness of the untransported
    # comparison into the whole iso-comma
    kinds, set_kinds = collections.Counter(), collections.Counter()
    for p, q, f, g in _random_squares(seeded(29), 210) + _random_set_squares(seeded(43), 150):
        got = is_pullback_square(p, q, f, g)
        want = _whole_comparison(p, q, f, g)
        assert (got.passed, got.witness) == (want.passed, want.witness)
        kinds[_witness_kind(got.witness)] += 1
        if _is_square_of_sets(p, f, g):
            set_kinds[_witness_kind(got.witness)] += 1
    assert set(kinds) == {"pass", "collision", "missed", "aut"}, kinds
    assert set(set_kinds) == {"pass", "collision", "missed"}, set_kinds


def test_graded_squares_of_sets_match_the_whole_bounded_iso_comma():
    # squares of sets under a grade bound take the orbit walk: the bounded
    # pairs, the bounded missed class and the carrier error of an image
    # beyond the bound
    kinds = collections.Counter()
    for p, q, f, g, bound in _random_graded_set_squares(seeded(47), 160):
        assert _is_square_of_sets(p, f, g) and f.source.is_graded()
        got = _outcome(lambda: is_pullback_square(p, q, f, g, bound))
        assert got == _outcome(lambda: _whole_comparison(p, q, f, g, bound))
        kinds["raised" if got[0] == "raised" else _witness_kind(got[1])] += 1
    assert set(kinds) == {"pass", "collision", "missed", "raised"}, kinds


def test_the_iso_comma_size_off_the_legs_counts_the_whole_iso_comma(monkeypatch):
    # on discrete legs over discrete and cluster targets, and on every
    # square of the nerve checks
    cospans = [(f, g) for _, _, f, g in _random_set_squares(seeded(43), 150)
               if groupoid._is_discrete(g.source)]
    recorded = _recorded_cospans(monkeypatch)
    for N in _small_nerves(20):
        for profile in ("segal", "decomposition"):
            assert check_axioms(N, profile, 2).passed
    monkeypatch.undo()
    assert len(recorded) == 5 * 20
    cospans += [(f, g) for f, g, _, _ in recorded]
    for f, g in cospans:
        assert groupoid._is_discrete(f.source) and groupoid._is_discrete(g.source)
        assert groupoid._iso_comma_size(f, g) == len(homotopy_pullback(f, g)[0].objects)


def test_a_square_of_sets_over_legs_without_a_shared_codomain_is_refused():
    # g lands in a groupoid with an object that f's target lacks, or in
    # another groupoid with the objects of f's target: both are refused
    A, B = discrete_groupoid([0], name="A"), discrete_groupoid(["b"], name="B")
    C = discrete_groupoid(["c"], name="C")
    W = discrete_groupoid([(0, "b")], name="W")
    p, q = discrete_functor(W, A, lambda w: w[0]), discrete_functor(W, B, lambda w: w[1])
    f = discrete_functor(A, C, lambda a: "c")
    wider = discrete_functor(B, discrete_groupoid(["c", "d"]), lambda b: "c")
    same_objects = discrete_functor(B, discrete_groupoid(["c"]), lambda b: "c")
    for g in (wider, same_objects):
        with pytest.raises(DomainError, match="^cospan legs do not share a codomain$"):
            groupoid._iso_comma_size(f, g)
        with pytest.raises(DomainError, match="^cospan legs do not share a codomain$"):
            is_pullback_square(p, q, f, g)


@pytest.mark.parametrize("corner", ["set", "orbit"])
def test_legs_into_two_groupoids_with_equal_objects_do_not_meet(corner):
    # f lands in Z/2 and g in Z/3, both on the one object ("c", 0): equal
    # objects, two groupoids.  A discrete A makes a square of sets; A = Z/2
    # sent to the identity makes the square go through its orbits
    Z2, Z3 = cluster_groupoid([("c", 1, 2)], name="Z2"), cluster_groupoid([("c", 1, 3)], name="Z3")
    assert Z2.objects == Z3.objects
    c = ("c", 0)
    if corner == "set":
        A = discrete_groupoid([("a", 0)], name="A")
        f = discrete_functor(A, Z2, lambda a: c)
    else:
        A = cluster_groupoid([("a", 1, 2)], name="A")
        f = GroupoidFunctor(A, Z2, lambda a: c, lambda m: Z2.identity(c))
    B, W = discrete_groupoid(["b"], name="B"), discrete_groupoid([(("a", 0), "b")], name="W")
    p, q = discrete_functor(W, A, lambda w: w[0]), discrete_functor(W, B, lambda w: w[1])
    g = discrete_functor(B, Z3, lambda b: c)
    assert groupoid._is_discrete(A) == (corner == "set")
    with pytest.raises(DomainError, match="^cospan legs do not share a codomain$"):
        is_pullback_square(p, q, f, g)
    with pytest.raises(DomainError, match="^cospan legs do not share a codomain$"):
        homotopy_pullback(f, g)
    with pytest.raises(DomainError, match="^functors not composable$"):
        GroupoidFunctor.compose(GroupoidFunctor.identity(Z3), f)
    # f composes with what starts at its own target
    assert GroupoidFunctor.compose(GroupoidFunctor.identity(Z2), f).target is Z2


def _graded_set_square():
    """W = {(0, b), (1, b)} over A = {0, 1} and B = {b}, graded by a and 1,
    with C = {c} at grade 0: (1, b) glues to grade 2."""
    A = discrete_groupoid([0, 1], grade=lambda a: a, name="A")
    B = discrete_groupoid(["b"], grade=lambda b: 1, name="B")
    C = discrete_groupoid(["c"], grade=lambda c: 0, name="C")
    W = discrete_groupoid([(0, "b"), (1, "b")], name="W")
    return (discrete_functor(W, A, lambda w: w[0]), discrete_functor(W, B, lambda w: w[1]),
            discrete_functor(A, C, lambda a: "c"), discrete_functor(B, C, lambda b: "c"))


def test_a_set_square_off_the_bounded_iso_comma_raises_as_the_general_rule(monkeypatch):
    messages = []
    for rule in ("set", "general"):
        with pytest.raises(DomainError) as raised:
            is_pullback_square(*_graded_set_square(), grade_bound=1)
        messages.append(str(raised.value))
        monkeypatch.setattr(groupoid, "_is_discrete", lambda G: False)
    assert messages == 2 * ["(1, 'b', Mor('c' -> 'c': 'id')) not an object of the carrier"]
    assert is_pullback_square(*_graded_set_square(), grade_bound=2).passed


def test_a_set_square_with_an_image_off_its_legs_raises_the_carrier_error():
    # f and g map any key to c, so the square commutes, and its one image
    # is as many as the iso-comma {(0, b, id)} has objects: only the pass
    # test's look at A x B keeps it from passing
    A, B = discrete_groupoid([0], name="A"), discrete_groupoid(["b"], name="B")
    C = discrete_groupoid(["c"], name="C")
    f, g = discrete_functor(A, C, lambda a: "c"), discrete_functor(B, C, lambda b: "c")
    for corner, off in [((1, "b"), 1), ((0, "x"), "x")]:
        W = discrete_groupoid([corner], name="W")
        p, q = discrete_functor(W, A, lambda w: w[0]), discrete_functor(W, B, lambda w: w[1])
        message = f"{off!r} not an object of the carrier"
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            is_pullback_square(p, q, f, g)


def test_a_set_square_that_does_not_commute_raises_before_its_carrier_error(monkeypatch):
    # f(2) = d but g(b) = c, so the square does not commute at (2, b), whose
    # image glues to grade 3, off the iso-comma bounded at 1; (1, b) before
    # it commutes and glues to grade 2, also off
    A = discrete_groupoid([0, 1, 2], grade=lambda a: a, name="A")
    B = discrete_groupoid(["b"], grade=lambda b: 1, name="B")
    C = discrete_groupoid(["c", "d"], grade=lambda c: 0, name="C")
    f, g = discrete_functor(A, C, "ccd".__getitem__), discrete_functor(B, C, lambda b: "c")
    for objects in ([(2, "b")], [(1, "b"), (2, "b")], [(0, "b"), (2, "b")]):
        W = discrete_groupoid(objects, name="W")
        square = (discrete_functor(W, A, lambda w: w[0]), discrete_functor(W, B, lambda w: w[1]),
                  f, g)
        assert _is_square_of_sets(square[0], f, g)
        for rule in ("set", "general"):
            with monkeypatch.context() as m:
                if rule == "general":
                    m.setattr(groupoid, "_is_discrete", lambda G: False)
                with pytest.raises(DomainError, match="^square s does not commute strictly$"):
                    is_pullback_square(*square, grade_bound=1, name="s")


def test_pullback_checks_of_the_spaces_match_the_whole_iso_comma(monkeypatch):
    kinds = collections.Counter()

    def checked(p, q, f, g, grade_bound=None, name=""):
        got = is_pullback_square(p, q, f, g, grade_bound, name)
        want = _whole_comparison(p, q, f, g, grade_bound)
        assert (got.passed, got.witness) == (want.passed, want.witness), name
        kinds[_witness_kind(got.witness)] += 1
        return got

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


# -- the kernel's memo of automorphisms and connectors; discrete iso-commas ------


def test_mor_is_a_named_triple():
    m = Mor("a", "b", 3)
    assert repr(m) == "Mor('a' -> 'b': 3)"
    assert hash(m) == hash(("a", "b", 3))
    assert (m.src, m.tgt, m.label) == tuple(m) == ("a", "b", 3)
    for field in ("src", "tgt", "label"):
        with pytest.raises(AttributeError):
            setattr(m, field, None)


@pytest.mark.parametrize("objects, grade", [([], None), (["x"], None),
                                            ([(0, 1), (1,), (), (1, 0)], len)])
def test_a_discrete_groupoid_carries_the_class_table_of_its_hom(objects, grade):
    G = discrete_groupoid(objects, grade=grade)
    reads = []
    hom = G._hom
    G._hom = lambda a, b: reads.append((a, b)) or hom(a, b)
    # the carried table is no read of Aut(a): _auts reads the hom
    assert [groupoid._auts(G, a) for a in G.objects] == [(G.identity(a),) for a in G.objects]
    assert reads == [(a, a) for a in G.objects]
    stated, built = G.iso_classes(), groupoid.IsoClassTable._build(G)
    assert stated.reps == built.reps == G.objects
    assert stated.members == built.members
    assert [stated.class_of(a) for a in G.objects] == [built.class_of(a) for a in G.objects]
    for table in (stated, built):
        with pytest.raises(DomainError):
            table.class_of("not an object")
    assert stated.aut_orders == built.aut_orders
    assert groupoid._is_discrete(G)


def _small_nerves(seed):
    """Nerves of three seeded posets and two free quiver categories."""
    rng = seeded(seed)
    return ([nerve(random_poset(rng, max_size=5), max_level=4) for _ in range(3)]
            + [nerve(random_quiver_category(rng), max_level=4) for _ in range(2)])


def test_a_nerve_check_reads_each_automorphism_group_once():
    # the levels are shared by every square of a check, and Aut(a) and the
    # connector of a sit in the level's memo, so no hom-set of a level is
    # read twice over a whole check_axioms run
    for N in _small_nerves(18):
        reads = collections.Counter()
        for n in range(N.max_level + 1):
            G = N.level(n)

            def counted(a, b, hom=G._hom, n=n):
                reads[n, a, b] += 1
                return hom(a, b)

            G._hom = counted
        for profile in ("segal", "decomposition", "complete"):
            assert check_axioms(N, profile, 2).passed
        # a nerve level is discrete: every object is its class representative
        assert reads and all(a == b for _, a, b in reads)
        assert max(reads.values()) == 1


def _recorded_orbit_walks(monkeypatch):
    """Record (f, g, grade_bound, (reps, class_of, aut_orders)) for every
    orbit walk that a pullback check makes."""
    walks = []
    walk = groupoid._iso_comma_classes

    def recorded(f, g, grade_bound):
        result = walk(f, g, grade_bound)
        walks.append((f, g, grade_bound, result))
        return result

    monkeypatch.setattr(groupoid, "_iso_comma_classes", recorded)
    return walks


def test_the_orbit_walk_reads_each_leg_automorphism_group_once(monkeypatch):
    # the orbit walk and the automorphism test read Aut(a) and Aut(b) of
    # the legs' sources from their memo, so each is read once per groupoid
    for name in ("_layered_level", "_layered_space"):
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    walks = _recorded_orbit_walks(monkeypatch)
    reads = collections.Counter()
    hom = FiniteGroupoid.hom

    def counted(G, a, b):
        if a == b:
            reads[G, a] += 1
        return hom(G, a, b)

    monkeypatch.setattr(FiniteGroupoid, "hom", counted)
    X = layered_posets(3)
    assert check_axioms(X, "decomposition", 1).passed
    assert not check_axioms(X, "segal", 1).passed
    legs = {h.source for f, g, *_ in walks for h in (f, g)}
    assert legs and all(reads[G, a] <= 1 for G in legs for a in G.objects)


def _check_orbit_classes(f, g, grade_bound, walked):
    """The orbit walk's classes are those of the class table of the
    iso-comma on class representatives: the same representatives in the
    same order, every object in its class and no other label classified,
    and the same automorphism orders, which the table reads by a hom scan.
    Returns that iso-comma and its legs."""
    reps, class_of, aut_orders = walked
    sk_f = f.restrict(skeleton(f.source))
    sk_g = g.restrict(skeleton(g.source))
    P = homotopy_pullback(sk_f, sk_g, grade_bound)[0]
    table = P.iso_classes()
    assert reps == list(table.reps)
    assert [aut_orders[x] for x in reps] == [table.aut_orders[x] for x in table.reps]
    assert all(class_of[a, b][phi.label] == table.class_of((a, b, phi))
               for a, b, phi in P.objects)
    assert sum(map(len, class_of.values())) == len(P.objects)
    return P, sk_f, sk_g


def test_orbit_classes_match_the_iso_comma_class_table(monkeypatch):
    walks = _recorded_orbit_walks(monkeypatch)
    check_axioms(layered_posets(2), "decomposition", 1)
    # the legs of layered squares have nontrivial automorphisms; the hom of
    # their iso-commas is the definition's
    assert any(max(f.source.iso_classes().aut_orders.values()) > 1 for f, *_ in walks)
    for f, g, grade_bound, walked in walks:
        _check_against_brute_force(*_check_orbit_classes(f, g, grade_bound, walked))
    walks.clear()
    for g in (2, 3):
        for profile in ("decomposition", "segal"):
            check_axioms(layered_posets(g), profile, 1)
    for p, q, f, g in _random_squares(seeded(29), 210):
        is_pullback_square(p, q, f, g)
    assert len(walks) > 100
    for f, g, grade_bound, walked in walks:
        _check_orbit_classes(f, g, grade_bound, walked)


def _brute_force_hom(f, g, x, y):
    """The labels (alpha, beta) of the iso-comma morphisms x -> y, by the
    definition g(beta) . phi = phi' . f(alpha), over every pair (alpha, beta)."""
    A, B, C = f.source, g.source, f.target
    (a, b, phi), (a2, b2, phi2) = x, y
    return sorted((al.label, be.label) for al in A.hom(a, a2) for be in B.hom(b, b2)
                  if C.compose(g(be), phi) == C.compose(phi2, f(al)))


def _recorded_cospans(monkeypatch):
    """Record (f, g, grade_bound, route) for every pullback check of a
    space, where route lists the calls that the check made to
    homotopy_pullback, functors_equal and is_equivalence, and whether it
    mapped a morphism."""
    cospans, open_routes = [], []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            if open_routes:
                open_routes[-1][name] += 1
            return function(*args, **kwargs)
        return wrapper

    def recorded(p, q, f, g, grade_bound=None, name=""):
        open_routes.append(collections.Counter())
        try:
            return is_pullback_square(p, q, f, g, grade_bound, name)
        finally:
            cospans.append((f, g, grade_bound, open_routes.pop()))

    for name in ("homotopy_pullback", "functors_equal", "is_equivalence"):
        monkeypatch.setattr(groupoid, name, counted(name, getattr(groupoid, name)))
    monkeypatch.setattr(GroupoidFunctor, "__call__",
                        counted("a morphism mapped", GroupoidFunctor.__call__))
    monkeypatch.setattr(simplicial, "is_pullback_square", recorded)
    return cospans


def _check_against_brute_force(P, f, g):
    for x in P.objects:
        for y in P.objects:
            homs = P.hom(x, y)
            assert all((m.src, m.tgt) == (x, y) for m in homs)
            assert sorted(m.label for m in homs) == _brute_force_hom(f, g, x, y)


def test_discrete_iso_commas_match_the_brute_force_hom(monkeypatch):
    # a passing nerve check builds no iso-comma; the test builds those of
    # its cospans
    cospans = _recorded_cospans(monkeypatch)
    for N in _small_nerves(19):
        for profile in ("segal", "decomposition"):
            assert check_axioms(N, profile, 2).passed
    monkeypatch.undo()
    assert len(cospans) == 5 * 20   # segal and decomposition squares at n <= 2
    for f, g, grade_bound, _ in cospans:
        assert groupoid._is_discrete(f.source) and groupoid._is_discrete(g.source)
        _check_against_brute_force(homotopy_pullback(f, g, grade_bound)[0], f, g)


def test_a_passing_nerve_check_builds_no_iso_comma_and_maps_no_morphism(monkeypatch):
    # nerve squares are squares of sets: one walk of W compares the object
    # maps and counts the images, the iso-comma's size comes from the legs,
    # and no precheck, equivalence test or morphism map runs; a square that
    # misses an object names it through the orbit walk's classes
    cospans = _recorded_cospans(monkeypatch)
    for N in _small_nerves(21):
        for profile in ("segal", "decomposition"):
            assert check_axioms(N, profile, 2).passed
    assert len(cospans) == 5 * 20
    assert [route for *_, route in cospans] == 5 * 20 * [{}]
    f, g, grade_bound, _ = cospans[-1]
    D = discrete_groupoid([], name="empty")
    missed = simplicial.is_pullback_square(discrete_functor(D, f.source, None),
                                           discrete_functor(D, g.source, None), f, g,
                                           grade_bound)
    assert _witness_kind(missed.witness) == "missed"
    assert cospans[-1][-1] == {}
    # the counters do count: a square of groupoids runs the precheck
    p, q, f, g = next(square for square in _random_squares(seeded(29), 10)
                      if not all(groupoid._is_discrete(h.source) for h in square))
    simplicial.is_pullback_square(p, q, f, g)
    assert cospans[-1][-1]["functors_equal"] == 1


def _oracle_failures(monkeypatch):
    """The oracles that fail on fresh layered spaces and nerves: the golden
    outputs of the layered-posets checks, the identities, the Segal check of
    layered sets, whose squares reach beyond the grade bound, the
    cardinality route on every passed square, the verdict on a map that sends an
    automorphism outside Aut(F rep), the whole iso-comma on random
    squares of sets and on random squares of cluster groupoids, the whole
    bounded iso-comma on random graded squares of sets, and the verdict on
    a corner Z/2 over the point, whose automorphisms all go to the
    identity.  A library
    call that raises ends the run as the failure "raised"."""
    for name in ("_layered_level", "_layered_space"):
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    failed = set()

    def checked(p, q, f, g, grade_bound=None, name=""):
        result = is_pullback_square(p, q, f, g, grade_bound, name)
        if result.passed:
            try:
                _check_fiber_cardinalities(p, f, g, grade_bound)
            except AssertionError:
                failed.add("cardinality")
        return result

    try:
        golden = load_golden()
        for index, argv in enumerate(COMMANDS):
            if argv[:2] == ["check", "builtin:layered-posets"]:
                if dict(argv=argv, **run_command(argv)) != golden[index]:
                    failed.add("golden")
        if not check_axioms(layered_posets(2), "identities", 2).passed:
            failed.add("identities")
        if not check_axioms(layered_sets(3), "segal", 1).passed:
            failed.add("segal of layered sets")
        with monkeypatch.context() as m:
            m.setattr(simplicial, "is_pullback_square", checked)
            for X in [layered_posets(g) for g in (2, 3)] + _small_nerves(20):
                for profile in ("decomposition", "segal"):
                    check_axioms(X, profile, 1)
        G = bc2()
        x = G.objects[0]
        if is_equivalence(GroupoidFunctor(G, G, lambda a: a, lambda m: Mor(x, x, m.label + 2))):
            failed.add("not a functor")
        for p, q, f, g in _random_set_squares(seeded(43), 40):
            got, want = is_pullback_square(p, q, f, g), _whole_comparison(p, q, f, g)
            if (got.passed, got.witness) != (want.passed, want.witness):
                failed.add("whole iso-comma")
        for p, q, f, g in _random_squares(seeded(29), 40):
            got, want = is_pullback_square(p, q, f, g), _whole_comparison(p, q, f, g)
            if (got.passed, got.witness) != (want.passed, want.witness):
                failed.add("whole iso-comma of groupoids")
        for p, q, f, g, bound in _random_graded_set_squares(seeded(47), 40):
            if (_outcome(lambda: is_pullback_square(p, q, f, g, bound))
                    != _outcome(lambda: _whole_comparison(p, q, f, g, bound))):
                failed.add("whole bounded iso-comma")
        pt = discrete_groupoid(["pt"], name="pt")
        Z2 = cluster_groupoid([("w", 1, 2)], name="Z2")
        corner = GroupoidFunctor(Z2, pt, lambda w: "pt", lambda m: pt.identity("pt"))
        leg = GroupoidFunctor.identity(pt)
        witness = is_pullback_square(corner, corner, leg, leg).witness
        if _witness_kind(witness) != "aut":
            failed.add("automorphisms of the corner")
    except Exception:   # a faulty kernel may raise where a sound one answers
        failed.add("raised")
    return failed


def _twisted_connector(connector):
    """The connector c: a -> r composed with a nontrivial automorphism of r,
    while its inverse stays the inverse of c."""
    def twisted(G, a, inverse=False):
        c = connector(G, a)
        if c is None or inverse:
            return c and G.inverse(c)
        auts = groupoid._auts(G, c.tgt)
        return G.compose(auts[-1], c)

    return twisted


def _aut_witness_by_count(F):
    """_aut_witness without the test that each F(alpha) lies in Aut(F rep)."""
    for rep in F.source.iso_classes().reps:
        auts = groupoid._auts(F.source, rep)
        target_auts = groupoid._auts(F.target, F.ob(rep))
        if len({F(alpha) for alpha in auts}) != len(auts) or len(auts) != len(target_auts):
            return "automorphism map not bijective"
    return None


def _one_ended_transport(G, m, c_src_inv, c_tgt):
    """_transport that conjugates only at the target end."""
    return m if c_tgt is None else G.compose(c_tgt, m)


def _without_count(passes):
    """The pass test taking the iso-comma's size to be the number of
    objects of W, so it passes every square that only misses an object."""
    def mutant(p, q, f, g, name):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groupoid, "_iso_comma_size", lambda f, g: len(p.source.objects))
            return passes(p, q, f, g, name)

    return mutant


def _pairs_without_auts(f, g):
    """_iso_comma_size counting the pairs (a, b) of the iso-comma's objects,
    without the factor |Aut| of their class in C."""
    return len({x[:2] for x in homotopy_pullback(f, g)[0].objects})


def _orbit_size_as_aut_order(walk):
    """The orbit walk giving a class the order |orbit| of its orbit, not
    the stabilizer's |Aut r_a| |Aut r_b| / |orbit|."""
    def mutant(f, g, grade_bound):
        reps, class_of, aut_orders = walk(f, g, grade_bound)
        atab, btab = f.source.iso_classes(), g.source.iso_classes()
        return reps, class_of, {x: atab.aut_orders[x[0]] * btab.aut_orders[x[1]] // n
                                for x, n in aut_orders.items()}

    return mutant


def _left_coset_only(double_coset):
    """The orbit of phi under f(Aut r_a) alone."""
    def mutant(C, phi, left, right):
        return double_coset(C, phi, left, [C.identity(phi.tgt)])

    return mutant


def _without_grade_bound(rule):
    """The pairs of class representatives with no glued-grade filter."""
    def mutant(f, g, grade_bound):
        return rule(f, g, None)

    return mutant


def test_each_kernel_fault_fails_an_oracle(monkeypatch):
    assert _oracle_failures(monkeypatch) == set()
    faults = {
        "twisted connector": ("_connector", _twisted_connector(groupoid._connector), "golden"),
        "aut count only": ("_aut_witness", _aut_witness_by_count, "not a functor"),
        "set rule forced": ("_is_discrete", lambda G: True, "automorphisms of the corner"),
        "set rule without the count": (
            "_set_pullback_passes", _without_count(groupoid._set_pullback_passes),
            "whole iso-comma"),
        "set rule counting pairs without |Aut|": (
            "_iso_comma_size", _pairs_without_auts, "whole iso-comma"),
        "one-ended conjugation": ("_transport", _one_ended_transport, "golden"),
        "orbit size as the aut order": (
            "_iso_comma_classes", _orbit_size_as_aut_order(groupoid._iso_comma_classes),
            "whole iso-comma of groupoids"),
        "orbit of f(Aut r_a) alone": (
            "_double_coset", _left_coset_only(groupoid._double_coset),
            "whole iso-comma of groupoids"),
        "iso-comma pairs ignoring the grade bound": (
            "_iso_comma_pairs", _without_grade_bound(groupoid._iso_comma_pairs),
            "segal of layered sets"),
    }
    for fault, (name, mutant, oracle) in faults.items():
        with monkeypatch.context() as m:
            m.setattr(groupoid, name, mutant)
            assert oracle in _oracle_failures(m), fault


def _z3(table=None, identity=lambda a: Mor(a, a, 0)):
    """Z/3 on the object "*", its labels listed 1, 2, 0 as the powers of a
    generator and composed by addition mod 3, except where `table` maps
    (f, g) to the label of g after f."""
    over = table or {}
    return FiniteGroupoid(
        ["*"], lambda a, b: tuple(Mor(a, b, label) for label in (1, 2, 0)),
        lambda g, f: Mor(f.src, g.tgt, over.get((f.label, g.label), (f.label + g.label) % 3)),
        identity, name="Z3")


@pytest.mark.parametrize("broken, message", [
    # hom("x", "y") holds the identity of "x"
    (FiniteGroupoid(["x", "y"], lambda a, b: (Mor(a, a, 0),), lambda g, f: f,
                    lambda a: Mor(a, a, 0)),
     "Mor('x' -> 'x': 0) in hom('x','y') has other ends"),
    (_z3(identity=lambda a: Mor(a, "elsewhere", 0)), "identity of '*' is not an endomorphism"),
    (_z3(identity=lambda a: Mor(a, a, 3)), "identity of '*' missing from hom('*','*')"),
    (_z3({(0, 1): 2}), "right unit law fails at Mor('*' -> '*': 1)"),
    (_z3({(1, 0): 2}), "left unit law fails at Mor('*' -> '*': 1)"),
    # `inverse` returns only a g with g . f the identity, and refuses an f
    # that has none: that refusal is the inverse law's
    (_z3({(1, 2): 1}), "no inverse found for Mor('*' -> '*': 1)"),
    (_z3({(1, 1): 3}), "composite Mor('*' -> '*': 3) escapes its hom-set"),
    (_z3({(1, 1): 0}), "associativity fails at Mor('*' -> '*': 1), Mor('*' -> '*': 1), "
                       "Mor('*' -> '*': 2)"),
])
def test_validate_refuses_each_broken_groupoid_law(broken, message):
    _z3().validate()
    # a label names a morphism within its hom-set only, so two hom-sets
    # may share one
    cluster_groupoid([("a", 1, 1), ("b", 1, 1)]).validate()
    discrete_groupoid([0, 1]).validate()
    with pytest.raises(StructureError, match="^" + re.escape(message) + "$"):
        broken.validate()
