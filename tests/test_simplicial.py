import re

import pytest

from moebiuskit.bicomodule import decalage
from moebiuskit.catposet import FinPoset, chain_poset, nerve
from moebiuskit.examples import (
    enumerate_posets,
    layered_posets,
    layered_sets,
    poset_key,
    sets_posets_bicomodule,
)
from moebiuskit.groupoid import DomainError, GroupoidFunctor, discrete_functor, is_monomorphism
from moebiuskit.simplicial import (
    InsufficientLevelsError,
    SimplicialMap,
    TruncatedSimplicialGroupoid,
    check_axioms,
    is_culf,
    word_groupoid,
)

from conftest import random_poset, random_quiver_category, seeded
from reference import nondegenerate_simplices, principal_edges
from test_catposet import involution_category


CHAIN3 = nerve(chain_poset(3), max_level=6)


def identity_map(X):
    return SimplicialMap(X, X, lambda m, n: GroupoidFunctor.identity(X.level(n)))


def test_nerve_level_count_oracle():
    # independent oracle: weak 2-chains in 0<1<2 are monotone triples
    triples = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
               if a <= b <= c]
    assert len(CHAIN3.level(2).objects) == len(triples) == 10


def test_identities_profile():
    assert check_axioms(CHAIN3, "identities", 3).passed


def test_segal_and_decomposition_and_complete():
    assert check_axioms(CHAIN3, "segal", 2).passed
    assert check_axioms(CHAIN3, "decomposition", 2).passed
    assert check_axioms(CHAIN3, "complete", 1).passed


def test_segal_implies_decomposition_random_nerves():
    rng = seeded(23)
    for _ in range(6):
        N = nerve(random_poset(rng, max_size=4), max_level=5)
        seg = check_axioms(N, "segal", 2)
        dec = check_axioms(N, "decomposition", 2)
        assert seg.passed and dec.passed
    N = nerve(random_quiver_category(rng), max_level=5)
    assert check_axioms(N, "segal", 2).passed
    assert check_axioms(N, "decomposition", 2).passed


def test_insufficient_levels_error_names_level():
    with pytest.raises(InsufficientLevelsError) as err:
        check_axioms(nerve(chain_poset(2), max_level=2), "segal", 3)
    assert "level 4" in str(err.value)


@pytest.mark.parametrize("check, n_max, message", [
    (lambda n: check_axioms(CHAIN3, "segal", n), 0, "the segal profile needs n_max >= 1, got 0"),
    (lambda n: check_axioms(CHAIN3, "identities", n), 0,
     "the identities profile needs n_max >= 1, got 0"),
    (lambda n: check_axioms(CHAIN3, "decomposition", n), -1,
     "the decomposition profile needs n_max >= 0, got -1"),
    (lambda n: is_culf(identity_map(CHAIN3), n), -1,
     "the culf check needs n_max >= 0, got -1"),
], ids=["segal", "identities", "decomposition", "culf"])
def test_a_truncation_that_verifies_nothing_is_refused(check, n_max, message):
    with pytest.raises(DomainError, match=message):
        check(n_max)
    assert check(n_max + 1).checks   # the least truncation verifies squares


def test_the_least_truncations_are_accepted():
    # the nerves bench workload checks each profile at its least n, and
    # "complete" takes any n
    for profile, n_max in (("segal", 1), ("decomposition", 0), ("complete", 0),
                           ("complete", -1)):
        report = check_axioms(CHAIN3, profile, n_max)
        assert report.passed and report.checks, profile


def test_decalage_bottom_of_nerve():
    dec = decalage(CHAIN3, "bottom")
    # level 0 of the decalage is the arrows of the poset
    assert set(dec.space.level(0).objects) == set(CHAIN3.level(1).objects)
    assert check_axioms(dec.space, "segal", 2).passed
    assert is_culf(dec.base_map, 2).passed
    # the extra section is a monomorphism when the base is complete
    assert is_monomorphism(dec.section(0))
    assert is_monomorphism(dec.section(1))


def test_decalage_top_of_nerve():
    dec = decalage(CHAIN3, "top")
    assert check_axioms(dec.space, "segal", 2).passed
    assert is_culf(dec.base_map, 2).passed


def test_decalage_of_layered_posets_is_segal():
    C = layered_posets(2)
    dec = decalage(C, "bottom")
    assert check_axioms(dec.space, "segal", 1).passed
    assert is_culf(dec.base_map, 1).passed
    assert is_monomorphism(dec.section(0))


def test_decalage_segal_on_random_nerves():
    # Dec_bot of anything passing decomposition is Segal
    rng = seeded(29)
    for _ in range(4):
        N = nerve(random_poset(rng, max_size=4), max_level=5)
        assert check_axioms(decalage(N, "bottom").space, "segal", 2).passed
    N = nerve(random_quiver_category(rng), max_level=5)
    assert check_axioms(N, "decomposition", 2).passed
    assert check_axioms(decalage(N, "bottom").space, "segal", 2).passed


def test_identity_map_is_culf():
    assert is_culf(identity_map(CHAIN3), 2).passed


def test_forgetful_map_posets_to_sets_not_culf():
    # forgetting the order is simplicial but not culf; the failures are
    # inner coface (ulf) squares, while all codegeneracy squares pass
    C = layered_posets(2, max_level=4)
    I = layered_sets(2, max_level=4)

    def forget_level(mapping, n):
        src, tgt = C.level(n), I.level(n)

        def ob(key):
            _ns, np_, colors, _rels = key
            return (np_, 0, colors, ())

        def mor(m):
            from moebiuskit.groupoid import Mor
            return Mor(ob(m.src), ob(m.tgt), m.label)

        return GroupoidFunctor(src, tgt, ob, mor, name=f"forget@{n}")

    forget = SimplicialMap(C, I, forget_level, name="forget")
    forget.validate(2)
    report = is_culf(forget, 1)
    assert not report.passed
    for failure in report.failures():
        assert "inner coface" in failure.name
    assert any("codegeneracy" in c.name and c.passed for c in report.checks)


def test_word_groupoid_letters():
    # nondegenerate edges of a poset nerve are the strict relations
    nd = nondegenerate_simplices(CHAIN3, 1)
    strict = [c for c in CHAIN3.level(1).objects if c[0][1] != c[0][2]]
    assert sorted(nd.groupoid.objects) == sorted(strict)
    degen = word_groupoid(CHAIN3, "0")
    assert len(degen.groupoid.objects) == 3
    # class-wise complement: |X_a| + |X_0| = |X_1|
    assert len(nd.groupoid.objects) + len(degen.groupoid.objects) \
        == len(CHAIN3.level(1).objects)


def test_word_groupoid_matches_degeneracy_complement():
    # for complete spaces X_{a..a} equals the complement of the images of
    # all degeneracies; checked on the 2-level of a nerve and of C
    for X, n in [(CHAIN3, 2), (layered_posets(2), 2)]:
        nd = set(nondegenerate_simplices(X, n).groupoid.objects)
        lvl = X.level(n)
        table = lvl.iso_classes()
        degenerate = set()
        for i in range(n):
            s = X.degeneracy(n - 1, i)
            for x in X.level(n - 1).objects:
                degenerate.add(table.class_of(s.ob(x)))
        complement = {o for o in lvl.objects if table.class_of(o) not in degenerate}
        assert nd == complement


def test_principal_edges_of_chain_simplex():
    sigma = (("le", 0, 1), ("le", 1, 2))
    assert principal_edges(CHAIN3, 2, sigma) == [(("le", 0, 1),), (("le", 1, 2),)]
    x = CHAIN3.level(0).objects[0]
    edge = CHAIN3.degeneracy(0, 0).ob(x)
    assert principal_edges(CHAIN3, 1, edge) == [edge]


def test_layered_poset_principal_edges_are_layers():
    C = layered_posets(3, max_level=4)
    P = poset_key(FinPoset(["a", "b", "c"], [("a", "b")]))
    # a 3-layering of that poset: read layers directly vs principal edges
    for sigma in C.level(3).objects:
        if sigma[2] and len(sigma[2]) == 3:
            edges = principal_edges(C, 3, sigma)
            for i, e in enumerate(edges, start=1):
                count = sum(1 for c in sigma[2] if c == i)
                assert len(e[2]) == count
            break


def test_mutated_nerve_fails_segal_with_witness():
    # drop one nondegenerate 2-simplex at the truncation level
    base = nerve(chain_poset(3), max_level=2)
    dropped = (("le", 0, 1), ("le", 1, 2))

    def level_fn(space, n):
        lvl = base.level(n)
        if n == 2:
            keep = [o for o in lvl.objects if o != dropped]
            from moebiuskit.groupoid import full_subgroupoid
            return full_subgroupoid(lvl, keep, name="mutated2")
        return lvl

    def face_fn(space, n, i):
        F = base.face(n, i)
        return GroupoidFunctor(space.level(n), space.level(n - 1), F.ob, F, name=F.name)

    def degen_fn(space, n, i):
        F = base.degeneracy(n, i)
        return GroupoidFunctor(space.level(n), space.level(n + 1), F.ob, F, name=F.name)

    mutated = TruncatedSimplicialGroupoid(2, level_fn, face_fn, degen_fn, name="mutated")
    report = check_axioms(mutated, "segal", 1)
    assert not report.passed
    failure = report.failures()[0]
    assert "segal square n=1" in failure.name
    assert "essentially surjective" in failure.witness


def test_report_lines_render():
    report = check_axioms(CHAIN3, "segal", 1)
    lines = report.lines()
    assert lines[0].startswith("profile segal: PASS")
    assert any("segal square" in line for line in lines)


LEVEL_7 = "insufficient levels: need level 7, truncated at 6"


@pytest.mark.parametrize("call, error, message", [
    (lambda: layered_sets(-1), DomainError, "grade_bound must be >= 0"),
    (lambda: layered_posets(-1), DomainError, "grade_bound must be >= 0"),
    (lambda: sets_posets_bicomodule(-1), DomainError, "grade_bound must be >= 0"),
    (lambda: enumerate_posets(-1), DomainError, "n must be >= 0"),
    (lambda: decalage(nerve(chain_poset(2), max_level=1)), InsufficientLevelsError,
     "insufficient levels: need level 2, truncated at 1 (for decalage)"),
    (lambda: check_axioms(CHAIN3, "bogus", 1), DomainError, "unknown profile 'bogus'"),
    (lambda: word_groupoid(CHAIN3, "2"), DomainError, "word '2' not over alphabet 0/1/a"),
    (lambda: CHAIN3.level(7), InsufficientLevelsError, LEVEL_7),
    (lambda: CHAIN3.level(-1), DomainError, "no level -1"),
    (lambda: CHAIN3.check_phi_count(0), DomainError, "the Phi count needs n >= 1"),
    (lambda: CHAIN3.face(2, 3), DomainError, "no face d_3 at level 2"),
    (lambda: CHAIN3.face(0, 0), DomainError, "no face d_0 at level 0"),
    (lambda: CHAIN3.degeneracy(6, 0), InsufficientLevelsError, LEVEL_7),
    (lambda: CHAIN3.degeneracy(1, 2), DomainError, "no degeneracy s_2 at level 1"),
    (lambda: CHAIN3.principal_edge(2, None, 3), DomainError,
     "principal edge index 3 out of range 1..2"),
    (lambda: CHAIN3.principal_edge(2, None, 0), DomainError,
     "principal edge index 0 out of range 1..2"),
    (lambda: identity_map(CHAIN3).level_map(7), InsufficientLevelsError, LEVEL_7),
    (lambda: identity_map(CHAIN3).level_map(-1), DomainError, "no level map at level -1"),
    (lambda: sets_posets_bicomodule(2).u_map().level_map(-1), DomainError,
     "no level map at level -1"),
    (lambda: sets_posets_bicomodule(2).v_map().level_map(-1), DomainError,
     "no level map at level -1"),
    (lambda: sets_posets_bicomodule(2).cell(-2, 0), DomainError, "no cell (-2,0)"),
    (lambda: sets_posets_bicomodule(2).cell(0, -2), DomainError, "no cell (0,-2)"),
    (lambda: sets_posets_bicomodule(2).cell(4, 0), InsufficientLevelsError,
     "insufficient levels: need level 4, truncated at 3 (for cell (4,0))"),
    (lambda: is_culf(identity_map(CHAIN3), 6), InsufficientLevelsError,
     LEVEL_7 + " (for culf check)"),
])
def test_documented_refusals(call, error, message):
    # an InsufficientLevelsError names the space after its message
    with pytest.raises(error, match="^" + re.escape(message)) as raised:
        call()
    assert type(raised.value) is error


def test_a_report_names_the_level_an_unchecked_family_needs():
    report = check_axioms(layered_posets(0), "decomposition", 0)
    assert report.passed and len(report.checks) == 2
    assert report.note == ("degeneracy families n = 0..0; coface families none checked"
                           " (need level 3, truncated at 2)")
    culf = is_culf(identity_map(nerve(chain_poset(2), max_level=1)), 0)
    assert culf.passed and len(culf.checks) == 1
    assert culf.note == ("codegeneracies n = 0..0; inner cofaces none checked"
                         " (need level 2, truncated at 1)")


def _self_map(X, level, ob):
    """The identity of X, except that level `level` maps by `ob`."""
    def level_fn(m, n):
        L = X.level(n)
        return discrete_functor(L, L, ob if n == level else lambda x: x)

    return SimplicialMap(X, X, level_fn, name="mutated")


@pytest.mark.parametrize("X, level, ob, message", [
    # 0 and 1 swapped on objects, chains left alone
    (nerve(chain_poset(2), max_level=1), 0, {0: 1, 1: 0}.get,
     "map does not commute with d_0 at level 1"),
    # id and g swapped: both run * -> *, so faces commute
    (nerve(involution_category(), max_level=1), 1, {("id",): ("g",), ("g",): ("id",)}.get,
     "map does not commute with s_0 at level 0"),
])
def test_simplicial_map_validate_refuses_each_operator_it_breaks(X, level, ob, message):
    _self_map(X, None, None).validate()
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        _self_map(X, level, ob).validate()
