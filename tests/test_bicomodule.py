import collections
import functools
import inspect
import re
import sys
import types
import weakref
from fractions import Fraction
from itertools import product

import pytest

from moebiuskit import bicomodule, cli, examples, groupoid
from moebiuskit.bicomodule import (
    AugmentedBisimplicialGroupoid,
    check_associativity,
    coact,
    comodule_mobius_check,
    config_coact,
    convolve_action,
    decalage,
    delta_functional,
    left_comodule,
    phi_comodule,
    pointing_delta,
    right_comodule,
    rota_evaluate,
    total_decalage,
    validate_configuration,
)
from moebiuskit.catposet import (
    chain_poset,
    check_adjunction,
    correspondence_bisimplicial,
    divisor_poset,
    fibration_report,
    mapping_cylinder,
    nerve,
    poset_functor,
    rota_direct,
)
from moebiuskit.examples import (
    layered_posets,
    layered_sets,
    mu_posets,
    poset_key,
    sets_posets_bicomodule,
)
from moebiuskit.catposet import FinPoset
from moebiuskit.groupoid import (
    DomainError,
    GroupoidFunctor,
    cardinality,
    fiber_cardinality,
    full_subgroupoid,
    is_monomorphism,
    is_pullback_square,
    weighted_fiber,
)
from moebiuskit.incidence import (
    Functional,
    MobiusCertificateError,
    comultiply,
    mobius,
    mobius_functional,
    verify_inversion,
    zeta,
)
from moebiuskit.simplicial import (
    InsufficientLevelsError,
    check_axioms,
    word_groupoid,
)

from conftest import random_poset, seeded
from reference import fiber, nondegenerate_simplices, principal_edges


def adjunction_nerve(max_i=3, max_j=3):
    F = poset_functor(chain_poset(3), chain_poset(2), {0: 0, 1: 0, 2: 1})
    G = poset_functor(chain_poset(2), chain_poset(3), {0: 1, 1: 2})
    corr = mapping_cylinder(F)
    B = correspondence_bisimplicial(corr, max_i, max_j)
    adj = check_adjunction(F, G).adjunction
    return B, adj


def test_validate_adjunction_nerve():
    B, _ = adjunction_nerve()
    assert validate_configuration(B, 1).passed


def test_validate_total_decalage_stability_family():
    N = nerve(chain_poset(3), max_level=6)
    TD = total_decalage(N, 2, 2)
    report = validate_configuration(TD, 1)
    assert report.passed


def test_validate_configuration_refuses_a_truncation_below_1():
    B, _ = adjunction_nerve()
    with pytest.raises(DomainError, match="the configuration profile needs n_max >= 1, got 0"):
        validate_configuration(B, 0)


# refusals of the grid layer: each call takes the spaces of the test below
GRID_REFUSALS = {
    "cell (-1,-1)": (lambda s: s.TD.cell(-1, -1), DomainError,
                     "the (-1,-1) cell does not exist"),
    "face above the top vertex": (lambda s: s.TD.face(0, 0, 2), DomainError,
                                  "no face d_2 at (0,0)"),
    "face below vertex 0": (lambda s: s.B.face(1, 0, -1), DomainError,
                            "no face d_-1 at (1,0)"),
    "degeneracy above the top vertex": (lambda s: s.TD.degen(1, 1, 4), DomainError,
                                        "no degeneracy s_4 at (1,1)"),
    "validation below 2 x 2": (
        lambda s: validate_configuration(total_decalage(s.N, 1, 2), 1), InsufficientLevelsError,
        "insufficient levels: need level 2, truncated at 1 (for bicomodule validation)"),
    "total decalage past the truncation": (
        lambda s: total_decalage(s.N, 3, 2), InsufficientLevelsError,
        "insufficient levels: need level 6, truncated at 5 (for total decalage)"),
    "decalage side": (lambda s: decalage(s.N, "middle"), DomainError,
                      "side must be 'bottom' or 'top', got 'middle'"),
    "coaction side": (lambda s: coact(s.TD, "up", s.m), DomainError,
                      "side must be 'right' or 'left'"),
    "section side": (lambda s: s.TD.section("up", 0), DomainError,
                     "side must be 'right' or 'left'"),
    "phi_comodule below -1": (lambda s: phi_comodule(decalage(s.N), s.m, -2), DomainError,
                              "phi_comodule needs n >= -1"),
    "phi_comodule off C_0": (lambda s: phi_comodule(decalage(s.N), "z", 1), DomainError,
                             "'z' is not an object of C_0"),
    "square out of two corners": (
        lambda s: is_pullback_square(s.TD.face(1, 1, 0), s.TD.face(1, 0, 0),
                                     s.TD.face(0, 1, 0), s.TD.face(0, 0, 0)),
        DomainError, "square corner mismatch"),
}


@pytest.mark.parametrize("call, error, message", GRID_REFUSALS.values(), ids=GRID_REFUSALS)
def test_grid_layer_refusals(call, error, message):
    N = nerve(chain_poset(2), max_level=5)
    TD = total_decalage(N, 2, 2)
    spaces = types.SimpleNamespace(N=N, TD=TD, B=adjunction_nerve()[0],
                                   m=TD.cell(0, 0).objects[0])
    with pytest.raises(DomainError) as refused:
        call(spaces)
    assert refused.type is error and str(refused.value) == message


def test_validate_sets_posets_sections():
    B = sets_posets_bicomodule(2, max_i=2, max_j=2)
    report = validate_configuration(B, 1)
    status = {k: r.passed for k, r in report.sections.items()}
    # everything the acceptance flows rely on holds; the columns-Segal
    # section needs the companion paper's richer cells (see the ledger)
    for key in ("rows segal", "stability", "culf u", "culf v",
                "border X decomposition", "border Y decomposition", "pointings"):
        assert status[key], key
    assert not status["columns segal"]
    # the left pointing exists at n = 0 only: its check above is named, n/a
    assert B.section("left", 1) is None
    assert report.sections["pointings"].checks[-1].name == (
        "e_top . t_{top+1} = id at (1,0): n/a, no left pointing")


def test_validate_sets_posets_stability_family():
    # the grid is not double Segal (its columns fail), so no reduction to
    # the (1,1) slice applies there; the full family does
    report = validate_configuration(sets_posets_bicomodule(2, max_i=2, max_j=2), 1)
    stability = report.sections["stability"]
    assert stability.note == "face/face and degeneracy families to (2,2)"
    assert stability.passed and len(stability.checks) == 56
    assert not report.sections["columns segal"].passed


def test_square_names_are_unique_and_the_reduction_is_the_11_slice():
    # the family opens with the (1,1) slice of the face/face squares; no
    # section checks a square twice
    grids = [sets_posets_bicomodule(2, max_i=2, max_j=2),
             total_decalage(nerve(chain_poset(3), max_level=6), 2, 2),
             adjunction_nerve()[0]]
    for B in grids:
        report = validate_configuration(B, 1)
        for key, section in report.sections.items():
            names = [c.name for c in section.checks]
            assert len(names) == len(set(names)), (B.name, key)
        assert [c.name for c in report.sections["stability"].checks[:2]] == [
            "stability d_0/e_0 at (1,1)", "stability d_1/e_1 at (1,1)"]


def test_stability_runs_to_the_truncation_corner():
    B, _ = adjunction_nerve()
    for n, corner, count in ((1, "(2,2)", 56), (2, "(3,3)", 207)):
        stability = validate_configuration(B, n).sections["stability"]
        assert stability.note == f"face/face and degeneracy families to {corner}"
        assert stability.passed and len(stability.checks) == count, n
        assert max(c.name.rsplit(" at ", 1)[1] for c in stability.checks) == corner


def mutated_grid(base, cell_fn, name, pointed=True):
    """The grid `base` with the cells of cell_fn(B, i, j), full subgroupoids
    of its cells, and its operators (and, when `pointed`, its pointings)
    restricted to them."""
    def restrict(F, source, target):
        return GroupoidFunctor(source, target, F.ob, F, name=F.name)

    def section_fn(B, side, n):
        cells = ((0, n - 1), (0, n)) if side == "right" else ((n - 1, 0), (n, 0))
        return restrict(base.section(side, n), B.cell(*cells[0]), B.cell(*cells[1]))

    return AugmentedBisimplicialGroupoid(
        base.max_i, base.max_j, base.x_space(), base.y_space(), cell_fn,
        lambda B, i, j, v: restrict(base.face(i, j, v), B.cell(i, j), B.face_target(i, j, v)),
        lambda B, i, j, v: restrict(base.degen(i, j, v), B.cell(i, j), B.degen_target(i, j, v)),
        section_fn=section_fn if pointed else None, name=name)


def test_stability_mutation_fails_with_witness_and_breaks_associativity():
    N = nerve(chain_poset(4), max_level=6)
    base = total_decalage(N, 1, 1)
    dropped = (("le", 0, 1), ("le", 1, 2), ("le", 2, 3))

    def cell_fn(B, i, j):
        cell = base.cell(i, j)
        if (i, j) == (1, 1):
            keep = [o for o in cell.objects if o != dropped]
            return full_subgroupoid(cell, keep, name="mutated11")
        return cell

    mutated = mutated_grid(base, cell_fn, "mutated")
    square = is_pullback_square(
        p=mutated.hface(1, 1, 1), q=mutated.vface(1, 1, 1),
        f=mutated.vface(1, 0, 1), g=mutated.hface(0, 1, 1),
        name="stability d_1/e_1")
    # the corner lost a class, so the comparison misses a pullback class
    assert not square.passed
    assert "essentially surjective" in square.witness

    # a mutation that reaches the coaction cells breaks the associativity
    # law; the exact check names the class and the first differing coefficient
    sigma0 = (("le", 0, 1), ("le", 1, 2))

    def cell_fn2(B, i, j):
        cell = base.cell(i, j)
        if (i, j) == (0, 1):
            keep = [o for o in cell.objects if o != sigma0]
            return full_subgroupoid(cell, keep, name="mut01")
        if (i, j) == (1, 1):
            e0 = base.vface(1, 1, 0)
            keep = [o for o in cell.objects if e0.ob(o) != sigma0]
            return full_subgroupoid(cell, keep, name="mut11")
        return cell

    mutated2 = mutated_grid(base, cell_fn2, "mutated2", pointed=False)
    report = check_associativity(mutated2)
    assert report.failures == [(
        (("le", 0, 2),),
        ((("le", 0, 1),), (("le", 1, 1),), (("le", 1, 2),)), 1, 0)]


def test_validate_configuration_fails_a_grid_that_is_stable_on_the_11_slice():
    # a 5-chain dropped from cell (2,2): every section but stability passes,
    # and stability fails first off the (1,1) slice, on a missed class
    base = total_decalage(nerve(chain_poset(7), max_level=7), 2, 2)
    dropped = tuple(("le", a, a + 1) for a in range(5))

    def cell_fn(B, i, j):
        cell = base.cell(i, j)
        if (i, j) == (2, 2):
            return full_subgroupoid(cell, [o for o in cell.objects if o != dropped],
                                    name="mutated22")
        return cell

    report = validate_configuration(mutated_grid(base, cell_fn, "mutated"), 1)
    assert [k for k, r in report.sections.items() if not r.passed] == ["stability"]
    first = next(c for c in report.sections["stability"].checks if not c.passed)
    assert first.name == "stability d_0/e_0 at (2,2)"
    assert "not essentially surjective" in first.witness and "missed" in first.witness


def test_coact_right_adjunction_nerve_counts_factorizations():
    B, _ = adjunction_nerve()
    # m: the mixed arrow F(0) = 0 <= 1 factors through y' in {0, 1}
    m = (("mix", 0, ("le", 0, 1)),)
    assert sum(coact(B, "right", m).values()) == 2
    total = convolve_action(B, "right", zeta(B.y_space()),
                            Functional.constant(B.cell(0, 0), 1), m)
    assert total == 2
    # and one with a single factorization: F(2) = 1 <= 1
    m1 = (("mix", 2, ("le", 1, 1)),)
    assert sum(coact(B, "right", m1).values()) == 1


def test_coact_total_decalage_matches_comultiply():
    N = nerve(chain_poset(3), max_level=6)
    TD = total_decalage(N, 2, 2)
    f = (("le", 0, 2),)
    # right coaction labels: (first factor as B00 class, second as Y1 class)
    assert coact(TD, "right", f) == comultiply(N, f)


def test_coact_is_config_coact_of_either_comodule():
    grids = [sets_posets_bicomodule(3), adjunction_nerve()[0]]
    for B in grids:
        for m in B.cell(0, 0).iso_classes().reps:
            for side, config in (("right", right_comodule(B)), ("left", left_comodule(B))):
                terms = coact(B, side, m)
                assert terms == config_coact(config, m)
                # a count >= 1 on the generated route, a sum of |Aut m|/|Aut sigma| off it
                assert all(type(w) is Fraction and w > 0 for w in terms.values())
                assert coact(B, side, m) is terms
                with pytest.raises(TypeError):   # memoised values are read-only
                    terms[None] = Fraction(1)


def whole_cell_coact(config, m):
    """The coaction of m read off the whole cell C_1: the fiber of the leg
    over m, labelled by vertex and base-edge classes, base first on the left."""
    tab0 = config.space.level(0).iso_classes()
    btab = config.base.level(1).iso_classes()
    vertex, edge = config.vertex_functor(1), config.base_map.level_map(1)

    def label(sigma):
        c, e = tab0.class_of(vertex.ob(sigma)), btab.class_of(edge.ob(sigma))
        return (c, e) if config.side == "right" else (e, c)

    return weighted_fiber(config.leg_functor(1), m, label)


def test_generated_coaction_matches_the_whole_cell_route():
    cases = 0
    for g in range(5):
        B = sets_posets_bicomodule(g)
        for config in (right_comodule(B), left_comodule(B)):
            tab = config.space.level(0).iso_classes()
            for rep in tab.reps:
                assert config.coaction_fiber(rep) is not None   # the generated route
                members = tab.members[rep]
                for m in (rep, members[-1]) if len(members) > 1 else (rep,):
                    terms = config_coact(config, m)
                    assert terms == whole_cell_coact(config, m), (g, config.side, m)
                    assert all(type(w) is Fraction and w > 0 for w in terms.values())
                cases += 1
    assert cases == 82
    # grids without a generator read the whole cell
    TD = total_decalage(nerve(chain_poset(3), max_level=6), 2, 2)
    f = (("le", 0, 2),)
    for config in (right_comodule(TD), left_comodule(TD)):
        assert config.coaction_fiber(f) is None
        assert config_coact(config, f) == whole_cell_coact(config, f)


def test_convolve_action_unit_law():
    B = sets_posets_bicomodule(2, max_i=2, max_j=2)
    rc = right_comodule(B)
    inner = Functional(B.cell(0, 0), lambda rep: Fraction(len(rep[2]) + 1))
    d_right = delta_functional(rc)
    # pairing the inner functional against delta on the base side returns it
    dY = Functional(B.cell(-1, 1),
                    lambda rep: Fraction(1) if not rep[2] else Fraction(0))
    for m in B.cell(0, 0).iso_classes().reps:
        assert convolve_action(B, "right", dY, inner, m) == inner(m)


def test_convolve_action_refuses_functionals_on_other_carriers():
    B, _adj = adjunction_nerve()
    x, c, y = (Functional.constant(B.cell(i, j), 1) for i, j in ((1, -1), (0, 0), (-1, 1)))
    m = B.cell(0, 0).iso_classes().reps[0]
    for side, outer, inner, message in [
            ("right", y, x, "inner functional does not live on B_{0,0}"),
            ("left", x, y, "inner functional does not live on B_{0,0}"),
            ("right", x, c, "outer functional does not live on Y_1"),
            ("left", y, c, "outer functional does not live on X_1")]:
        with pytest.raises(DomainError, match=re.escape(message)):
            convolve_action(B, side, outer, inner, m)


def test_pointing_deltas_sets_posets():
    B = sets_posets_bicomodule(2, max_i=2, max_j=2)
    rc, lc = right_comodule(B), left_comodule(B)
    empty = poset_key(FinPoset([]))
    for m in B.cell(0, 0).iso_classes().reps:
        expected = Fraction(1) if m == empty else Fraction(0)
        assert pointing_delta(rc, m) == expected
        assert pointing_delta(lc, m) == expected
    # phi at n = 0 is the complement indicator; n = -1 the pointing delta
    pt = poset_key(FinPoset(["x"]))
    assert phi_comodule(rc, pt, 0) == 1
    assert phi_comodule(rc, pt, -1) == 0


def test_pointing_delta_looks_up_its_section_once_per_value(monkeypatch):
    # the pointing's completeness is memoised, so after the first value on
    # each side (which also checks completeness) a pointing_delta value
    # costs one section lookup, on a warm pass too
    lookups, values = collections.Counter(), collections.Counter()
    section, delta = bicomodule._GridCells.section, bicomodule.pointing_delta

    def counted_section(cells, side, n):
        lookups[side] += 1
        return section(cells, side, n)

    def counted_delta(config, m):
        values[config.side] += 1
        return delta(config, m)

    monkeypatch.setattr(bicomodule._GridCells, "section", counted_section)
    monkeypatch.setattr(bicomodule, "pointing_delta", counted_delta)
    B = examples._sets_posets_bicomodule.__wrapped__(3, 3, 3)   # not warmed by another test
    reps = B.cell(0, 0).iso_classes().reps
    for m in reps:
        rota_evaluate(B, m)
    assert values["right"] and values["left"]
    assert lookups == values + collections.Counter(right=1, left=1)
    lookups.clear()
    values.clear()
    for m in reps:
        rota_evaluate(B, m)
    assert values["right"] and values["left"]
    assert lookups == values


def test_convolve_actions_reproduce_mu_of_posets():
    B = sets_posets_bicomodule(3, max_i=3, max_j=3)
    rc, lc = right_comodule(B), left_comodule(B)
    mu_C = mobius_functional(B.y_space())
    mu_I = mobius_functional(B.x_space())
    chain2 = poset_key(FinPoset(["a", "b"], [("a", "b")]))
    # delta^L *_r mu^C recovers mu^C pointwise (only the empty-first-layer
    # cut survives), and mu^I *_l delta^R is the discrete closed form
    for m in B.cell(0, 0).iso_classes().reps:
        assert convolve_action(B, "right", mu_C, delta_functional(lc), m) == mu_C(m)
    assert convolve_action(B, "left", mu_I, delta_functional(rc), chain2) == 0


def test_pointing_delta_adjunction_nerve_supports():
    B, _ = adjunction_nerve()
    rc, lc = right_comodule(B), left_comodule(B)
    for m in B.cell(0, 0).objects:
        ((_, x, (_, _, y)),) = m    # the mixed arrow ("mix", x, ("le", Fx, y))
        fx = {0: 0, 1: 0, 2: 1}[x]
        # delta^R supported on identity-mixed arrows (y = Fx)
        assert pointing_delta(rc, m) == (1 if y == fx else 0)
        # delta^L supported on counit-type arrows (x = Gy)
        gy = {0: 1, 1: 2}[y]
        assert pointing_delta(lc, m) == (1 if x == gy else 0)


def test_phi_comodule_adjunction_nerve_conventions():
    B, _ = adjunction_nerve()
    rc = right_comodule(B)
    m_id = (("mix", 1, ("le", 0, 0)),)  # F1 = 0: identity type
    assert phi_comodule(rc, m_id, -1) == 1
    assert phi_comodule(rc, m_id, 0) == 0
    m_strict = (("mix", 0, ("le", 0, 1)),)
    assert phi_comodule(rc, m_strict, 0) == 1


def layerings_oracle(P: FinPoset, parts: int, first_nonempty: bool):
    """Independent count of monotone layerings of the fixed poset P into
    `parts` labeled blocks, all blocks nonempty, optionally tracking the
    distinguished first block."""
    count = 0
    elements = list(P.elements)
    for assign in product(range(1, parts + 1), repeat=len(elements)):
        layer = dict(zip(elements, assign))
        if any(layer[a] > layer[b] for a, b in P.strict_pairs()):
            continue
        sizes = [sum(1 for e in elements if layer[e] == k)
                 for k in range(1, parts + 1)]
        if all(s > 0 for s in sizes):
            count += 1
    return count


def test_phi_comodule_decalage_of_layered_posets_vs_oracle():
    C = layered_posets(3, max_level=4)
    config = decalage(C, "bottom")
    for m in C.level(1).iso_classes().reps:
        P = FinPoset(range(len(m[2])), m[3])
        size = len(P.elements)
        for n in range(0, size + 1):
            # Phi^R_n counts surjective monotone (n+1)-layerings of P
            assert phi_comodule(config, m, n) == layerings_oracle(P, n + 1, True)


def phi_comodule_oracle(config, m, n):
    """Phi^side_n(m) with the principal edges of every simplex tested one by
    one, and the pointing delta as the cardinality of the full fiber."""
    if n == -1:
        return cardinality(fiber(config.bottom_section(), m))
    tab0 = config.space.level(0).iso_classes()
    image = config.pointing_image_classes()
    if n == 0:
        return Fraction(int(tab0.class_of(m) not in image))
    level = config.space.level(n)
    vertex, leg = config.vertex_functor(n), config.leg_functor(n)
    fmap = config.base_map.level_map(n)
    btab = config.base.level(1).iso_classes()
    degen = config.base.degenerate_edge_classes()
    keep = [sigma for sigma in level.objects
            if tab0.class_of(vertex.ob(sigma)) not in image
            and all(btab.class_of(e) not in degen
                    for e in principal_edges(config.base, n, fmap.ob(sigma)))]
    W = full_subgroupoid(level, keep)
    return fiber_cardinality(GroupoidFunctor(W, leg.target, leg.ob, leg.__call__), m)


def test_phi_comodule_matches_principal_edge_oracle():
    B = sets_posets_bicomodule(3)
    configs = [right_comodule(B), left_comodule(B),
               decalage(layered_posets(3, max_level=4), "bottom")]
    for config in configs:
        for m in config.space.level(0).iso_classes().reps:
            for n in range(-1, 3):
                assert phi_comodule(config, m, n) == phi_comodule_oracle(config, m, n), \
                    (config.name, m, n)


def phi_comodule_word_groupoid(config, m, n):
    """Phi^side_n(m) by the whole-level route: the n-simplices with vertex
    outside the pointing image whose base image lies in the base's word
    groupoid X_{a...a}."""
    if n == -1:
        return pointing_delta(config, m)
    tab0 = config.space.level(0).iso_classes()
    image = config.pointing_image_classes()
    if n == 0:
        return Fraction(int(tab0.class_of(m) not in image))
    level = config.space.level(n)
    vertex = config.vertex_functor(n)
    fmap = config.base_map.level_map(n)
    nondegenerate = nondegenerate_simplices(config.base, n).groupoid
    keep = [sigma for sigma in level.objects
            if tab0.class_of(vertex.ob(sigma)) not in image
            and nondegenerate.has_object(fmap.ob(sigma))]
    W = full_subgroupoid(level, keep)
    return fiber_cardinality(config.leg_functor(n).restrict(W), m)


def test_phi_comodule_matches_the_word_groupoid_route():
    B = sets_posets_bicomodule(3)
    A, _ = adjunction_nerve()
    C = layered_posets(3, max_level=4)
    configs = [right_comodule(B), left_comodule(B), decalage(C, "bottom"),
               decalage(C, "top"), right_comodule(A), left_comodule(A)]
    cases = 0
    for config in configs:
        for m in config.space.level(0).iso_classes().reps:
            for n in range(-1, config.space.max_level + 1):
                assert phi_comodule(config, m, n) == phi_comodule_word_groupoid(config, m, n), \
                    (config.name, m, n)
                cases += 1
    assert cases == 230


def test_comodule_mobius_check_filters_each_degree_once(monkeypatch):
    restricted = []
    restrict = GroupoidFunctor.restrict

    def counted(F, W):
        restricted.append(W.name)
        return restrict(F, W)

    monkeypatch.setattr(GroupoidFunctor, "restrict", counted)
    config = decalage(layered_posets(3, max_level=4), "bottom")   # a fresh configuration
    assert comodule_mobius_check(config).passed
    assert sorted(restricted) == ["C_ba", "C_baa", "C_baaa"]   # 32 when filtered per class


def test_comodule_mobius_check_refuses_an_ungraded_c0_without_a_bound():
    config = decalage(nerve(chain_poset(3), max_level=3), "bottom")
    assert not config.space.level(0).is_graded()
    with pytest.raises(MobiusCertificateError, match="locally finite length"):
        comodule_mobius_check(config)
    assert comodule_mobius_check(config, length_bound=2).passed


def test_comodule_mobius_check_refuses_a_negative_length_bound():
    config = decalage(nerve(chain_poset(3), max_level=3), "bottom")
    with pytest.raises(DomainError, match="length bound must be >= 0, got -1"):
        comodule_mobius_check(config, length_bound=-1)


def test_phi_comodule_refuses_an_incomplete_base(monkeypatch):
    config = decalage(nerve(chain_poset(2), max_level=3), "bottom")
    monkeypatch.setattr(config.base, "is_complete", lambda: False)
    m = (("le", 0, 1),)   # an arrow that is not an identity
    assert phi_comodule(config, m, 0) == 1
    with pytest.raises(DomainError, match="space is not complete"):
        phi_comodule(config, m, 1)


def test_left_sets_posets_comodule_fails_per_degree_at_strict_relations():
    # the columns-Segal gap: on the left side the per-degree identities fail
    # at the 5 classes with a strict relation; the summed inversion holds
    B = sets_posets_bicomodule(3)
    left = comodule_mobius_check(left_comodule(B))
    assert len(left.rows) == 9
    assert all(row.summed_lhs == row.summed_rhs for row in left.rows)
    failed = [row.cls for row in left.failures()]
    assert len(failed) == 5 and failed == [row.cls for row in left.rows if row.cls[3]]
    assert comodule_mobius_check(right_comodule(B)).passed


def test_library_routes_build_no_word_groupoid(monkeypatch):
    def refuse(*args):
        raise AssertionError("a library route built a whole-level word groupoid")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "moebiuskit":
            for attr in ("word_groupoid", "nondegenerate_simplices"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    # fresh spaces and grids, so no memoised count hides a call
    monkeypatch.setattr(examples, "_layered_space",
                        functools.cache(examples._layered_space.__wrapped__))
    monkeypatch.setattr(examples, "_sets_posets_bicomodule",
                        examples._sets_posets_bicomodule.__wrapped__)
    N = nerve(divisor_poset(12), max_level=5)
    assert mobius(N, (("le", 1, 12),), length_bound=4) == 0
    assert verify_inversion(N, length_bound=4).passed
    C = layered_posets(3)
    assert mobius(C, poset_key(FinPoset(["a", "b"]))) == 1
    assert verify_inversion(C).passed
    D = layered_posets(3, max_level=4)
    for side in ("bottom", "top"):
        assert comodule_mobius_check(decalage(D, side)).passed
    B = sets_posets_bicomodule(3)
    for m in B.cell(0, 0).iso_classes().reps:
        lhs, rhs = rota_evaluate(B, m)
        assert lhs == rhs


def test_comodule_mobius_check_decalage():
    C = layered_posets(3, max_level=4)
    config = decalage(C, "bottom")
    report = comodule_mobius_check(config)
    assert report.passed
    for row in report.rows:
        # delta^R is supported on the empty poset
        assert row.summed_rhs == (1 if not row.cls[2] else 0)


def test_comodule_mobius_check_adjunction_nerve_both_sides():
    B, _ = adjunction_nerve()
    for config in (right_comodule(B), left_comodule(B)):
        report = comodule_mobius_check(config, length_bound=3)
        assert report.passed


def test_comodule_mobius_check_corrupted_control():
    C = layered_posets(3, max_level=4)
    config = decalage(C, "bottom")
    good = mobius_functional(C)
    pt = poset_key(FinPoset(["x"]))
    table = {rep: good(rep) for rep in C.level(1).iso_classes().reps}
    table[pt] = table[pt] + 1
    bad = Functional(C.level(1), lambda rep: table.get(rep, 0))
    report = comodule_mobius_check(config, mu_base=bad)
    assert not report.passed


def test_rota_evaluate_adjunction_nerve_matches_rota_direct():
    B, adj = adjunction_nerve()
    F = adj.F
    for m in B.cell(0, 0).objects:
        ((_, x, (_, _, y)),) = m    # the mixed arrow ("mix", x, ("le", Fx, y))
        lhs, rhs = rota_evaluate(B, m, length_bound=3)
        assert lhs == rhs
        # the delta-support identification: mixed arrows are the pairs
        # (x, y) with Fx <= y, and both sides match the direct sums there
        d_lhs, d_rhs = rota_direct(adj, x, y)
        assert (lhs, rhs) == (d_lhs, d_rhs)


def test_rota_direct_vanishes_without_mixed_arrow():
    _B, adj = adjunction_nerve()
    # (x, y) = (2, 0) has no mixed arrow (F2 = 1 > 0); both sums are empty
    assert rota_direct(adj, 2, 0) == (0, 0)


def test_cylinder_without_right_adjoint_is_refused():
    # negative control: {a, b} -> 0 < 1 (a -> 0, b -> 1) has no right
    # adjoint, so nothing over 0 is a cartesian lift onto y = 1
    F = poset_functor(FinPoset(["a", "b"]), chain_poset(2), {"a": 0, "b": 1})
    corr = mapping_cylinder(F)
    assert fibration_report(corr).cartesian[("y", 1)] is None
    B = correspondence_bisimplicial(corr, 3, 3)
    assert B.section("left", 0) is None
    report = validate_configuration(B, 1)
    pointings = report.sections["pointings"]
    assert [c.name for c in pointings.checks] == [
        "u . s_{-1} = id at (0,0)",
        "right pointing complete (s_{-1} mono)",
        "d_0 . s_{-1} = id at (0,1)",
        "left pointing t_{top+1} exists",
    ]
    assert [c.passed for c in pointings.checks] == [True, True, True, False]
    assert "no left pointing" in pointings.checks[-1].witness
    assert not report.passed
    classes = B.cell(0, 0).iso_classes().reps
    assert len(classes) == 3
    for m in classes:
        with pytest.raises(DomainError, match="left pointing has no bottom section"):
            rota_evaluate(B, m, length_bound=3)


def test_check_associativity_total_decalage_and_adjunction():
    N = nerve(chain_poset(3), max_level=6)
    TD = total_decalage(N, 2, 2)
    assert check_associativity(TD).passed
    B, _ = adjunction_nerve(2, 2)
    assert check_associativity(B).passed


def test_check_associativity_fails_at_a_class_with_a_scaled_coaction_weight(monkeypatch):
    # doubling the trivial split (id, m) of the left coaction of m breaks
    # the law at m, whose right coaction has a second term
    B, _ = adjunction_nerve(2, 2)
    target = (("mix", 0, ("le", 0, 1)),)
    unit = ((("xm", ("le", 0, 0)),), target)
    real = bicomodule.coact

    def scaled(B, side, m):
        table = dict(real(B, side, m))
        if side == "left" and m == target:
            table[unit] *= 2
        return table

    monkeypatch.setattr(bicomodule, "coact", scaled)
    assert [m for m, *_ in check_associativity(B).failures] == [target]


def test_insufficient_cells_rejected():
    B = sets_posets_bicomodule(2, max_i=2, max_j=2)
    with pytest.raises(DomainError):
        B.cell(5, 0)


def test_comodules_are_memoised_on_the_grid():
    B = sets_posets_bicomodule(2)
    assert right_comodule(B) is right_comodule(B)
    assert left_comodule(B) is left_comodule(B)
    assert right_comodule(B) is not left_comodule(B)


def test_a_dropped_grid_is_freed_without_the_cycle_collector(no_cycle_collector):
    # rows, columns, u and v, and the comodules with their sections and
    # coaction generators are all memoised on the grid
    B, _ = adjunction_nerve(2, 2)
    assert validate_configuration(B, 1).passed
    for side, config in (("right", right_comodule(B)), ("left", left_comodule(B))):
        assert config.section(0) is not None and config.coaction_fiber(None) is None
        for m in B.cell(0, 0).iso_classes().reps:
            coact(B, side, m)
    cell = weakref.ref(B.cell(1, 1))
    del B, config
    assert cell() is None


def test_rota_sweep_checks_each_pointing_once(monkeypatch):
    # a fresh grid, so the count does not depend on which tests ran before
    B = examples._sets_posets_bicomodule.__wrapped__(3, 3, 3)
    calls = []

    def counting(F):
        calls.append(F)
        return is_monomorphism(F)

    monkeypatch.setattr(bicomodule, "is_monomorphism", counting)
    reps = B.cell(0, 0).iso_classes().reps
    assert len(reps) == 9
    for m in reps:
        lhs, rhs = rota_evaluate(B, m)
        assert lhs == rhs
    assert len(calls) == 2     # one per pointing, not one per class and side


def test_grid_takes_its_borders():
    params = list(inspect.signature(AugmentedBisimplicialGroupoid).parameters)
    assert params[:4] == ["max_i", "max_j", "x", "y"]
    assert "grade_bound" not in params


def test_grid_borders_are_the_given_spaces():
    for m in (2, 3):
        B = sets_posets_bicomodule(2, max_i=m, max_j=m)
        assert B.y_space() is layered_posets(2, max_level=m)
        assert B.x_space() is layered_sets(2, max_level=m)
        assert B.row(-1) is B.y_space() and B.column(-1) is B.x_space()
        assert B.v_map().target is B.y_space() and B.u_map().target is B.x_space()
        assert B.grade_bound == 2
    X = nerve(chain_poset(3), max_level=6)
    TD = total_decalage(X, 2, 2)
    assert TD.x_space() is X is TD.y_space()
    assert TD.cell(-1, 4) is X.level(4) and TD.hface(-1, 3, 1) is X.face(3, 1)
    assert TD.vface(2, -1, 1) is X.face(2, 1)
    assert TD.degen(-1, 2, 0) is X.degeneracy(2, 0)
    assert TD.degen(2, -1, 1) is X.degeneracy(2, 1)


def test_rota_route_reuses_the_direct_route_space():
    P = FinPoset(["a", "b", "c"], [("a", "b")])
    assert mu_posets(P, "direct") == mu_posets(P, "rota")
    # the spaces behind the two routes at a 3-element poset
    direct = layered_posets(3, max_level=3)
    B = sets_posets_bicomodule(3, max_i=3, max_j=3)
    for word in ("a", "aa", "aaa"):
        assert word_groupoid(B.y_space(), word) is word_groupoid(direct, word)


def test_sets_posets_row_zero_is_bottom_decalage_of_posets():
    # the Rota route's row 0 is Dec_bot(C) of the direct route's space C:
    # same objects, d_k = d_{k+1} of C, and v = d_0 of C
    for g in (2, 3):
        B = sets_posets_bicomodule(g)
        C = layered_posets(g, max_level=B.max_j + 1)
        for j in range(B.max_j + 1):
            objects = B.cell(0, j).objects
            assert objects == C.level(j + 1).objects
            pairs = [(B.hface(0, j, k), C.face(j + 1, k + 1)) for k in range(j + 1)]
            pairs.append((B.aug_v(j), C.face(j + 1, 0)))
            for ours, theirs in pairs:
                assert [ours.ob(a) for a in objects] == [theirs.ob(a) for a in objects]


def test_sets_posets_cells_with_no_set_layer_are_levels_of_posets():
    for g in (2, 3):
        B = sets_posets_bicomodule(g)
        for j in range(B.max_j + 1):
            assert B.cell(0, j) is layered_posets(g, max_level=B.max_j + 1).level(j + 1)


def test_rota_classifies_the_shared_levels_once(monkeypatch, capsys):
    built = collections.Counter()
    build, orbits = groupoid.IsoClassTable._build, examples._orbit_classes

    def counted(classify):
        def run(G):
            built[len(G.objects)] += 1
            return classify(G)
        return run

    # a layered level carries its orbit-built table; any other builds one
    monkeypatch.setattr(groupoid.IsoClassTable, "_build", staticmethod(counted(build)))
    monkeypatch.setattr(examples, "_orbit_classes", counted(orbits))
    for name in ("_layered_level", "_layered_space"):   # fresh levels and spaces
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    monkeypatch.setattr(examples, "_sets_posets_bicomodule",
                        examples._sets_posets_bicomodule.__wrapped__)
    assert cli.main(["rota", "builtin:sets-posets", "--grade", "4"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert built[243] == 1   # C_1 is cell (0, 0) too: classified twice when built apart


def test_missing_pointing_is_none_and_only_bottom_section_raises():
    B = sets_posets_bicomodule(2, max_i=2, max_j=2)
    assert B.section("left", 0) is not None
    assert B.section("left", 1) is None     # no section of the merge above n = 0
    base = total_decalage(nerve(chain_poset(2), max_level=5), 2, 2)
    bare = AugmentedBisimplicialGroupoid(
        2, 2, base.x_space(), base.y_space(),
        lambda B, i, j: base.cell(i, j),
        lambda B, i, j, v: base.face(i, j, v),
        lambda B, i, j, v: base.degen(i, j, v),
        name="unpointed")
    assert bare.section("right", 0) is None and bare.section("left", 0) is None
    report = validate_configuration(bare, 1)
    pointings = report.sections["pointings"]
    assert [(c.name, c.passed, c.witness) for c in pointings.checks] == [
        ("right pointing s_{-1} exists", False, "unpointed has no right pointing at (0,0)"),
        ("left pointing t_{top+1} exists", False, "unpointed has no left pointing at (0,0)"),
    ]
    assert not report.passed
    assert all(r.passed for k, r in report.sections.items() if k != "pointings")
    for config in (right_comodule(bare), left_comodule(bare)):
        assert config.section(0) is None
        with pytest.raises(DomainError, match=f"unpointed.{config.side}: the "
                                              f"{config.side} pointing has no bottom section"):
            config.bottom_section()


def test_comodule_mobius_check_top_decalage():
    config = decalage(layered_posets(3, max_level=4), "top")
    assert config.side == "left"
    report = comodule_mobius_check(config)
    assert report.passed and report.side == "left"
    N = nerve(random_poset(seeded(44), max_size=4), max_level=5)   # 4 elements, 4 strict pairs
    report = comodule_mobius_check(decalage(N, "top"), length_bound=4)
    assert report.passed and len(report.rows) == 8


def test_validate_total_decalage_checks_its_border_once(monkeypatch):
    TD = total_decalage(layered_posets(3, max_level=5), 2, 2)
    profiles = []

    def counting(X, profile, n_max):
        profiles.append(profile)
        return check_axioms(X, profile, n_max)

    monkeypatch.setattr(bicomodule, "check_axioms", counting)
    report = validate_configuration(TD, 1)
    assert profiles.count("decomposition") == 1
    x, y = (report.sections[f"border {s} decomposition"] for s in "XY")
    assert x is y and x.passed and x.checks


def test_rota_builds_no_coaction_cell(monkeypatch, capsys):
    # the coactions are generated: cells (0,1) and (1,0) are never listed,
    # classified or read through a fiber table of their legs
    fibers, levels, classified = collections.Counter(), collections.Counter(), collections.Counter()
    fiber_table = groupoid._fiber_table
    level_objects = examples._level_objects.__wrapped__
    build, orbits = groupoid.IsoClassTable._build, examples._orbit_classes

    def counted_fibers(F):
        fibers[F.name] += ("fibers",) not in F._memo
        return fiber_table(F)

    def counted_levels(*args):
        levels[args] += 1
        return level_objects(*args)

    def counted_build(classify):
        def run(G):
            classified[len(G.objects)] += 1
            return classify(G)
        return run

    monkeypatch.setattr(groupoid, "_fiber_table", counted_fibers)
    monkeypatch.setattr(examples, "_level_objects", counted_levels)
    monkeypatch.setattr(groupoid.IsoClassTable, "_build", staticmethod(counted_build(build)))
    monkeypatch.setattr(examples, "_orbit_classes", counted_build(orbits))
    for name in ("_layered_level", "_layered_space"):   # fresh levels and spaces
        monkeypatch.setattr(examples, name, functools.cache(getattr(examples, name).__wrapped__))
    monkeypatch.setattr(examples, "_sets_posets_bicomodule",   # a fresh grid
                        examples._sets_posets_bicomodule.__wrapped__)
    assert cli.main(["rota", "builtin:sets-posets", "--grade", "4"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert levels[0, 1, 4] == 1 and classified[243] == 1   # C_1 = B_{0,0}, seen by the counters
    assert fibers["d1@(1,0)*id"] == fibers["d1@(0,1)*id"] == 0   # 1 each from the whole cells
    assert levels[1, 1, 4] == levels[0, 2, 4] == 0
    assert classified[921] == classified[1789] == 0   # B(1,0) and C_2 at grade 4
