import ast
import collections
import functools
import importlib
import pathlib
import pkgutil
import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import moebiuskit
from moebiuskit import cli, examples, groupoid
from moebiuskit.catposet import FinPoset
from moebiuskit.examples import (
    aut_order,
    canonical_form,
    enumerate_posets,
    layered_posets,
    layered_sets,
    mu_posets,
    poset_key,
    sets_posets_bicomodule,
)
from moebiuskit.groupoid import DomainError, GroupoidFunctor, Mor, cardinality
from moebiuskit.incidence import counit, mobius, phi_n
from moebiuskit.simplicial import check_axioms

from reference import _layerings


def test_enumerate_posets_counts():
    for n, want in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 16), (5, 63)]:
        assert len(enumerate_posets(n)) == want
    with pytest.raises(DomainError):
        enumerate_posets(7)


def test_poset_automorphism_orders():
    auts = sorted(aut for _P, aut in enumerate_posets(3))
    assert auts == [1, 1, 2, 2, 6]  # chain, V, A, chain+point?, discrete
    discrete = [aut for P, aut in enumerate_posets(3) if not P.strict_pairs()]
    assert discrete == [6]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_relabeling_invariant(data):
    catalog = enumerate_posets(4)
    P, _aut = catalog[data.draw(st.integers(0, len(catalog) - 1))]
    m = len(P.elements)
    if m == 0:
        return
    perm = data.draw(st.permutations(range(m)))
    rels = tuple(sorted((perm[a], perm[b]) for a, b in P.strict_pairs()))
    colors = (1,) * m
    key1, _ = canonical_form((0, 1, colors, tuple(sorted(P.strict_pairs()))))
    key2, _ = canonical_form((0, 1, colors, rels))
    assert key1 == key2
    assert aut_order(key1) >= 1
    # the automorphism count divides m!
    fact = 1
    for i in range(1, m + 1):
        fact *= i
    assert fact % aut_order(key1) == 0


def test_layered_sets_level_one_classes():
    I = layered_sets(3)
    table = I.level(1).iso_classes()
    assert len(table.reps) == 4
    assert sorted(table.aut_orders.values()) == [1, 1, 2, 6]


def test_layered_sets_axioms():
    I = layered_sets(3)
    assert check_axioms(I, "identities", 2).passed
    assert check_axioms(I, "segal", 1).passed
    assert check_axioms(I, "decomposition", 1).passed
    assert check_axioms(I, "complete", 1).passed


def test_layered_posets_level_one_classes():
    C = layered_posets(3)
    assert len(C.level(1).iso_classes().reps) == 9  # 1 + 1 + 2 + 5


def test_layered_posets_axioms():
    C = layered_posets(3)
    assert check_axioms(C, "identities", 2).passed
    seg = check_axioms(C, "segal", 1)
    assert not seg.passed
    assert seg.failures()[0].witness  # a concrete witness square
    assert check_axioms(C, "decomposition", 1).passed
    assert check_axioms(C, "complete", 1).passed


def test_empty_layer_degeneracies_are_first_class():
    C = layered_posets(2)
    x = C.level(1).objects[0]
    up = C.degeneracy(1, 0).ob(x)
    assert up[1] == 2  # one more poset layer even if empty
    assert C.level(2).has_object(up)


def test_merge_of_pure_set_layer_is_discrete():
    # e_top(S, empty poset) is the discrete poset on S
    B = sets_posets_bicomodule(3, max_i=2, max_j=2)
    merge = B.vface(1, 0, 1)
    for key in B.cell(1, 0).objects:
        if key[3]:
            continue  # no recorded relations: the merge adds none
        image = merge.ob(key)
        assert image[3] == ()


def test_b_cell_class_counts():
    B = sets_posets_bicomodule(2, max_i=2, max_j=2)
    assert len(B.cell(0, 0).iso_classes().reps) == 4  # posets on <= 2 elements
    # the row is the lower decalage of layered posets
    C = layered_posets(2)
    row0 = B.row(0)
    assert sorted(map(repr, row0.level(1).iso_classes().reps)) \
        == sorted(map(repr, C.level(2).iso_classes().reps))


def test_counit_of_layered_posets():
    C = layered_posets(2)
    assert counit(C, poset_key(FinPoset([]))) == 1
    assert counit(C, poset_key(FinPoset(["x"]))) == 0


def test_mu_posets_both_routes_small():
    cases = [
        (FinPoset([]), Fraction(1)),
        (FinPoset(["a"]), Fraction(-1)),
        (FinPoset(["a", "b"]), Fraction(1)),
        (FinPoset(["a", "b"], [("a", "b")]), Fraction(0)),
        (FinPoset(["a", "b", "c"]), Fraction(-1)),
        (FinPoset(["a", "b", "c"], [("a", "b"), ("a", "c")]), Fraction(0)),
    ]
    for P, want in cases:
        assert mu_posets(P, "direct") == want
        assert mu_posets(P, "rota") == want


def test_mu_posets_direct_route_on_all_five_element_posets():
    # closed form: (-1)^n on the discrete poset, 0 on every other
    posets = enumerate_posets(5)
    assert len(posets) == 63
    for P, _aut in posets:
        want = Fraction(-1) if not P.strict_pairs() else Fraction(0)
        assert mu_posets(P, "direct") == want


def test_mu_posets_unknown_route():
    with pytest.raises(DomainError):
        mu_posets(FinPoset([]), "sideways")


def test_binomial_mobius():
    I = layered_sets(4, max_level=4)
    for n in range(5):
        key = (1, 0, (1,) * n, ())
        assert mobius(I, key) == Fraction(-1) ** n


def _ordered_partitions(n, k):
    """k! S(n, k), the ordered partitions of n points into k blocks: the
    maps onto k blocks, by inclusion-exclusion over the blocks missed."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))


def _closed_form_phi(n):
    """(space builder, key, Phi_k as a function of k) for the n-element
    antichain as a layered set and as a layered poset, and for the n-chain
    0 < 1 < ... < n-1."""
    antichain = (1,) * n, ()
    chain = poset_key(FinPoset(range(n), [(i, i + 1) for i in range(n - 1)]))
    return [(layered_sets, (1, 0, *antichain), lambda k: _ordered_partitions(n, k)),
            (layered_posets, (0, 1, *antichain), lambda k: _ordered_partitions(n, k)),
            (layered_posets, chain, lambda k: comb(n - 1, k - 1))]


def test_phi_count_of_antichains_and_chains_is_the_closed_form():
    # a layering of the antichain is an ordered set partition, and of the
    # chain a choice of k - 1 of its n - 1 cuts; each length asked gives
    # exactly the histogram up to it, also below the longest chain; the
    # count reads the key alone and builds no level of the grade-7 spaces
    for n in range(1, 8):
        for build, key, phi in _closed_form_phi(n):
            X = build(7)
            for top in range(1, n + 2):
                assert X._phi_fn(X, top, key) == [0] + [phi(k) for k in range(1, top + 1)], (
                    key, top)
    assert not any(key[0] == "level" for X in (layered_sets(7), layered_posets(7))
                   for key in X._memo)


def test_phi_n_of_antichains_and_chains_is_the_closed_form():
    for n in range(1, 5):
        for build, key, phi in _closed_form_phi(n):
            X = build(4)
            assert [phi_n(X, key, k) for k in range(1, X.max_level + 1)] == [
                phi(k) for k in range(1, X.max_level + 1)], key


def test_phi_count_equals_the_layering_walk_at_every_class():
    # the count's histogram against the lengths of the listed layerings
    cases = 0
    for build, kind in ((layered_sets, "s"), (layered_posets, "p")):
        for g in range(5):
            X = build(g)
            walk = _layerings(kind)
            for f in X.level(1).iso_classes().reps:
                for n in range(1, X.max_level + 1):
                    lengths = collections.Counter(k for k, _sigma in walk(X, n, f))
                    assert X._phi_fn(X, n, f) == [0] + [lengths[k] for k in range(1, n + 1)]
                    cases += 1
    assert cases == 289


def test_cardinality_of_layered_sets_level():
    # |I_1| at grade <= 3 is 1 + 1 + 1/2 + 1/6
    I = layered_sets(3)
    assert cardinality(I.level(1)) == Fraction(8, 3)


def test_spaces_are_memoised_by_normalised_arguments():
    assert layered_posets(3) is layered_posets(3, max_level=5)
    assert layered_sets(2) is layered_sets(2, max_level=4)
    assert sets_posets_bicomodule(2) is sets_posets_bicomodule(2, max_i=3, max_j=3)
    assert layered_posets(3) is not layered_posets(3, max_level=3)


def test_no_module_binds_a_dict():
    # memos live on the objects that own them or behind functools.cache
    for info in pkgutil.iter_modules(moebiuskit.__path__):
        module = importlib.import_module(f"moebiuskit.{info.name}")
        bound = [name for name, value in vars(module).items()
                 if isinstance(value, dict)
                 and not (name.startswith("__") and name.endswith("__"))]
        assert bound == [], (info.name, bound)


def test_max_level_zero_is_not_the_default():
    # only None selects the default truncation grade_bound + 2
    for build in (layered_sets, layered_posets):
        with pytest.raises(DomainError):
            build(2, max_level=0)
    with pytest.raises(DomainError):
        sets_posets_bicomodule(2, max_i=0)


def _assert_operator_follows(F, surgery, *args):
    """F is the functor of the layer surgery a -> surgery(a, *args) on every
    object and on hom(rep, a) for every object a: images are the surgery's
    structures, and a morphism relabels the kept elements of rep to their
    places in a."""
    source, target = F.source, F.target
    table = source.iso_classes()
    for a in source.objects:
        image, keep = surgery(a, *args)
        assert F.ob(a) == image
        assert target.has_object(image)
        rep = table.class_of(a)
        rep_image, rep_keep = surgery(rep, *args)
        for m in source.hom(rep, a):
            if keep is None:
                label = m.label
            else:
                label = tuple(keep.index(m.label[e]) for e in rep_keep)
            assert F(m) == Mor(rep_image, image, label)


def test_layer_surgery_operators_follow_their_rule():
    face, insert = examples._layer_face, examples._insert_layer
    for g in range(4):
        for kind, build in (("s", layered_sets), ("p", layered_posets)):
            X = build(g, max_level=3)
            for n in range(4):
                for v in range(n + 1):
                    if n >= 1:
                        _assert_operator_follows(X.face(n, v), face, v)
                    if n < 3:
                        _assert_operator_follows(X.degeneracy(n, v), insert, v + 1,
                                                 kind == "s")
        B = sets_posets_bicomodule(g, 2, 2)
        for i in range(3):
            for j in range(3):
                for v in range(i + j + 2):
                    _assert_operator_follows(B.face(i, j, v), face, v)
                    # the empty layer after vertex v: a set layer on the X side
                    if (i if v <= i else j) < 2:
                        _assert_operator_follows(B.degen(i, j, v), insert, v + 1, v <= i)
        for n in range(3):
            _assert_operator_follows(B.section("right", n), insert, 1, False)
        _assert_operator_follows(B.section("left", 0), insert, 1, False)


def _vertex_chain(struct):
    """The vertices V_0 <= V_1 <= ... <= V_n of a structure with n layers:
    V_k holds the elements of layers 1..k."""
    ns, np_, colors, _rels = struct
    return [frozenset(e for e, c in enumerate(colors) if c <= k) for k in range(ns + np_ + 1)]


def _assert_face_follows_the_vertex_rule(face, sigma, v):
    # d_v drops vertex V_v; an outer face also drops the elements of its layer
    ns, np_, _colors, rels = sigma
    V = _vertex_chain(sigma)
    n = ns + np_
    kept = sorted(V[n] - V[1] if v == 0 else V[n - 1] if v == n else V[n])
    rank = {e: i for i, e in enumerate(kept)}
    tau = face.ob(sigma)
    assert _vertex_chain(tau) == [frozenset(rank[e] for e in Vk if e in rank)
                                  for k, Vk in enumerate(V) if k != v]
    assert tau[0] == ns - (max(v, 1) <= ns)
    assert tau[3] == tuple(sorted((rank[a], rank[b]) for a, b in rels
                                  if a in rank and b in rank))


def _assert_degeneracy_follows_the_vertex_rule(degen, sigma, v, set_layer):
    # s_v repeats vertex V_v; the new layer v+1 is a set layer or a poset layer
    ns, np_, _colors, rels = sigma
    V = _vertex_chain(sigma)
    tau = degen.ob(sigma)
    assert _vertex_chain(tau) == V[:v + 1] + V[v:]
    assert tau[:2] == (ns + set_layer, np_ + (not set_layer))
    assert tau[3] == rels


def test_faces_and_degeneracies_follow_the_vertex_rule():
    for X, set_layer in ((layered_sets(3, max_level=4), True),
                         (layered_posets(3, max_level=4), False)):
        for n in range(4):
            for v in range(n + 1):
                degen = X.degeneracy(n, v)
                for sigma in X.level(n).objects:
                    if n >= 1:
                        _assert_face_follows_the_vertex_rule(X.face(n, v), sigma, v)
                    _assert_degeneracy_follows_the_vertex_rule(degen, sigma, v, set_layer)
    B = sets_posets_bicomodule(3)
    for i in range(3):
        for j in range(3):
            for v in range(i + j + 2):
                face, degen = B.face(i, j, v), B.degen(i, j, v)
                for sigma in B.cell(i, j).objects:
                    _assert_face_follows_the_vertex_rule(face, sigma, v)
                    _assert_degeneracy_follows_the_vertex_rule(degen, sigma, v, v <= i)


def test_axiom_checks_run_layer_surgery_once_per_object_and_operator(monkeypatch):
    calls = collections.Counter()

    def counted(op):
        def run(struct, *args):
            calls[op.__name__, struct, args] += 1
            return op(struct, *args)
        return run

    monkeypatch.setattr(examples, "_layer_face", counted(examples._layer_face))
    monkeypatch.setattr(examples, "_insert_layer", counted(examples._insert_layer))
    monkeypatch.setattr(examples, "_layered_level", examples._layered_level.__wrapped__)
    C = examples._layered_space.__wrapped__("p", 3, 5)   # fresh levels and tables
    assert check_axioms(C, "decomposition", 2).passed
    assert calls and max(calls.values()) == 1


def test_axiom_checks_map_each_morphism_once_per_operator(monkeypatch):
    calls, names = collections.Counter(), []
    tabulated = GroupoidFunctor.tabulated

    def counting(source, target, rule, mor=None, name=""):
        if mor is not None:
            names.append(name)

            def counted(m, src, tgt):
                calls[name, m] += 1
                return mor(m, src, tgt)

            return tabulated(source, target, rule, counted, name=name)
        return tabulated(source, target, rule, name=name)

    monkeypatch.setattr(GroupoidFunctor, "tabulated", staticmethod(counting))
    monkeypatch.setattr(examples, "_layered_level", examples._layered_level.__wrapped__)
    C = examples._layered_space.__wrapped__("p", 3, 5)   # fresh levels and tables

    def check():
        return [check_axioms(C, profile, 2).passed for profile in ("decomposition", "segal")]

    assert check() == [True, False]
    assert len(set(names)) == len(names)     # one name per operator
    assert calls and max(calls.values()) == 1
    calls.clear()
    assert check() == [True, False]
    assert calls == {}


def test_axiom_checks_walk_orbits_with_no_iso_comma_or_equivalence_test(monkeypatch):
    # every square of layered levels is checked by the orbit walk on class
    # representatives: no iso-comma groupoid, no class table of one, no
    # equivalence test
    monkeypatch.setattr(examples, "_layered_level", examples._layered_level.__wrapped__)
    C = examples._layered_space.__wrapped__("p", 3, 5)   # fresh levels and tables
    reps = {r for n in range(C.max_level + 1) for r in C.level(n).iso_classes().reps}
    calls, classified = collections.Counter(), []
    walk, build = groupoid._iso_comma_classes, groupoid.IsoClassTable._build

    def walked(f, g, grade_bound):
        result = walk(f, g, grade_bound)
        assert all(a in reps and b in reps for a, b in result[1])
        classified.append(sum(map(len, result[1].values())))
        return result

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    def built(G):
        calls["iso-comma class tables"] += G.name.startswith("pb(")
        return build(G)

    monkeypatch.setattr(groupoid, "_iso_comma_classes", walked)
    monkeypatch.setattr(groupoid.IsoClassTable, "_build", staticmethod(built))
    for name in ("homotopy_pullback", "is_equivalence"):
        monkeypatch.setattr(groupoid, name, counted(name, getattr(groupoid, name)))
    assert check_axioms(C, "decomposition", 2).passed
    # every object of the iso-commas on class representatives, 3,848 in all,
    # is classified once (44,984 objects on the whole iso-commas)
    assert len(classified) == 24 and sum(classified) == 3848
    assert calls == {}, calls


def _assert_orbit_table(objects):
    """A fresh layered groupoid on these objects carries the class table
    that `IsoClassTable._build` groups by canonical key, field by field."""
    G = examples.layered_groupoid(objects)
    table = G.iso_classes()
    oracle = groupoid.IsoClassTable._build(G)
    assert table.reps == oracle.reps
    assert table.members == oracle.members
    assert table._class_of == oracle._class_of
    assert table.aut_orders == oracle.aut_orders


def _relabelings_onto(a, b):
    """Every relabeling sigma of a's elements with sigma . a = b, by brute
    force over all permutations: sigma[e] is the element of b that e goes
    to, which must keep its layer and the relations."""
    (ns, np_, colors, rels), (ns_b, np_b, colors_b, rels_b) = a, b
    if (ns, np_, len(colors)) != (ns_b, np_b, len(colors_b)):
        return set()
    return {sigma for sigma in permutations(range(len(colors)))
            if all(colors_b[sigma[e]] == c for e, c in enumerate(colors))
            and {(sigma[x], sigma[y]) for x, y in rels} == set(rels_b)}


def _assert_hom_sets(G, pairs=300):
    """Each hom-set within a class of G is, as a set, the relabelings that
    carry its source to its target, hom(a, a) listing the identity first;
    a seeded sample of pairs from different classes has empty hom-sets."""
    table = G.iso_classes()
    for group in table.members.values():
        for a in group:
            assert G.hom(a, a)[0] == G.identity(a)
            for b in group:
                homs = G.hom(a, b)
                assert {(m.src, m.tgt) for m in homs} == {(a, b)}
                assert len(set(homs)) == len(homs)
                assert {m.label for m in homs} == _relabelings_onto(a, b)
    rng = random.Random(0)
    for _ in range(pairs):
        a, b = rng.choice(G.objects), rng.choice(G.objects)
        if table.class_of(a) != table.class_of(b):
            assert G.hom(a, b) == () and not _relabelings_onto(a, b)


@pytest.mark.parametrize("build", [layered_sets, layered_posets])
def test_layered_hom_sets_are_the_relabelings_between_their_ends(build):
    X = build(3)
    for n in range(X.max_level + 1):
        _assert_hom_sets(X.level(n))


def test_sets_posets_cell_hom_sets_are_the_relabelings_between_their_ends():
    B = sets_posets_bicomodule(2)
    for i in range(B.max_i + 1):
        for j in range(B.max_j + 1):
            _assert_hom_sets(B.cell(i, j))


def test_only_groupoid_py_subscripts_class_data_memo_entries():
    # the automorphism groups and connectors are filled lazily by
    # `groupoid._auts` and `groupoid._connector`: no other module
    # subscripts a memo, under any name, with an ("auts", ...) or
    # ("connector", ...) key
    def class_data_keys(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and node.slice.elts and isinstance(node.slice.elts[0], ast.Constant)
                and node.slice.elts[0].value in ("auts", "connector")]

    assert class_data_keys(groupoid)   # the check sees groupoid.py's own entries
    for info in pkgutil.iter_modules(moebiuskit.__path__):
        if info.name != "groupoid":
            module = importlib.import_module(f"moebiuskit.{info.name}")
            assert class_data_keys(module) == [], info.name


# every level of I and C for g <= 4, except C_5 and C_6 at g = 4, whose
# 39,271 and 75,853 objects take the oracle 7 s of canonical forms
@pytest.mark.parametrize("build, g", [(layered_sets, g) for g in range(5)]
                         + [(layered_posets, g) for g in range(5)])
def test_layered_levels_carry_the_class_table_of_their_canonical_keys(build, g):
    X = build(g, max_level=4 if (build, g) == (layered_posets, 4) else None)
    for n in range(X.max_level + 1):
        _assert_orbit_table(X.level(n).objects)


def test_sets_posets_cells_carry_the_class_table_of_their_canonical_keys():
    B = sets_posets_bicomodule(3)
    for i in range(B.max_i + 1):
        for j in range(B.max_j + 1):
            _assert_orbit_table(B.cell(i, j).objects)


def test_an_orbit_table_counts_relabelings_outside_its_groupoid():
    # every third object dropped: orbits leave the groupoid, and |Aut| is
    # still m! over the whole orbit
    level = layered_posets(3).level(2)
    objects = [a for k, a in enumerate(level.objects) if k % 3 != 1]
    G = examples.layered_groupoid(objects)
    table, whole = G.iso_classes(), level.iso_classes()
    assert any(len(table.members[rep]) < len(whole.members[whole.class_of(rep)])
               for rep in table.reps)
    _assert_orbit_table(objects)
    _assert_hom_sets(G)


def test_layered_class_tables_compute_no_canonical_form(monkeypatch):
    for n in range(6):
        examples._level_objects(0, n, 3)   # the enumeration itself is not counted
    for name in ("_layered_level", "_layered_space"):   # fresh levels and tables
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    calls = []
    monkeypatch.setattr(examples, "canonical_form", lambda struct: calls.append(struct))
    X = layered_posets(3)
    assert sum(len(X.level(n).iso_classes().reps) for n in range(6)) == 511
    assert calls == []


def test_check_layered_computes_canonical_forms_only_for_the_hom_sets_it_reads(monkeypatch, capsys):
    # the two CLI calls of the check-layered benchmark on fresh levels and a
    # fresh canonical-form cache: the class tables and the hom-sets the
    # checks read both come from relabeling orbits, so no canonical form is
    # computed (419 when each hom-set read compared canonical forms, 2,261
    # when each level's class table computed one per labelled object)
    for n in range(6):
        examples._level_objects(0, n, 3)   # the enumeration itself is not counted
    for name in ("_layered_level", "_layered_space"):
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    forms = functools.cache(examples.canonical_form.__wrapped__)
    monkeypatch.setattr(examples, "canonical_form", forms)
    base = ["check", "builtin:layered-posets", "--grade", "3", "--format", "json"]
    assert cli.main(base + ["--profile", "decomposition", "--max-level", "2"]) == 0
    assert cli.main(base + ["--profile", "segal", "--max-level", "1"]) == 1
    capsys.readouterr()
    assert forms.cache_info().misses == 0
