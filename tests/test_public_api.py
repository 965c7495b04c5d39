"""The public surface of the package, written out: a new public name or a
new knob on an inversion check fails here until this list is edited."""

import ast
import inspect
import pathlib

import pytest

import moebiuskit

PUBLIC = [
    "Adjunction", "AugmentedBisimplicialGroupoid", "CarrierMismatchError",
    "ComoduleConfiguration", "CorrespondenceCat", "DomainError", "FinCategory",
    "FinFunctor", "FinPoset", "FiniteGroupoid", "Functional", "GroupoidFunctor",
    "InsufficientLevelsError", "IsoClassTable", "MobiusCertificateError", "Mor",
    "SimplicialMap", "StructureError", "TruncatedSimplicialGroupoid", "bicomodule",
    "cardinality", "catposet", "chain_poset", "check_adjunction", "check_associativity",
    "check_axioms", "classical_mobius", "coact", "comodule_mobius_check", "comultiply",
    "convolve", "convolve_action", "correspondence_bisimplicial", "counit", "decalage",
    "delta", "divisor_poset", "enumerate_posets", "examples", "fiber_cardinality",
    "groupoid", "homotopy_pullback", "incidence", "is_culf", "is_equivalence",
    "is_mobius_category", "is_monomorphism", "is_pullback_square", "layered_posets",
    "layered_sets", "left_comodule", "mapping_cylinder", "mobius", "mobius_functional",
    "mu_posets", "nerve", "phi_comodule", "phi_n", "pointing_delta", "poset_functor",
    "poset_key", "right_comodule", "rota_direct", "rota_evaluate",
    "sets_posets_bicomodule", "simplicial", "total_decalage", "validate_configuration",
    "verify_inversion", "word_groupoid", "zeta",
]


def test_the_public_names_are_the_listed_ones():
    assert sorted(moebiuskit.__all__) == PUBLIC


def test_the_inversion_checks_run_on_every_class():
    # no parameter picks a subset of the classes to check
    for check, params in [(moebiuskit.verify_inversion, ["X", "length_bound", "mu"]),
                          (moebiuskit.comodule_mobius_check,
                           ["config", "length_bound", "mu_base"])]:
        assert list(inspect.signature(check).parameters) == params, check.__name__


def test_a_space_takes_one_optional_phi_count():
    # the only optional callback of a space counts its Phi fibers; there is
    # no second callback that lists the simplices
    params = inspect.signature(moebiuskit.TruncatedSimplicialGroupoid).parameters
    assert list(params) == ["max_level", "level_fn", "face_fn", "degen_fn",
                            "grade_bound", "phi_fn", "name"]
    assert params["phi_fn"].default is None


def test_the_constructors_take_no_parameter_that_no_caller_passes():
    # no name for a derived space, category or functor, no grade for a
    # table-backed groupoid
    mk = moebiuskit
    for fn, params in [
            (mk.total_decalage, ["X", "max_i", "max_j"]),
            (mk.correspondence_bisimplicial, ["corr", "max_i", "max_j"]),
            (mk.FinCategory.from_poset, ["P"]),
            (mk.FinCategory.free_on_quiver, ["objects", "edges"]),
            (mk.poset_functor, ["P", "Q", "ob_map"]),
            (mk.nerve, ["C", "max_level"]),
            (mk.GroupoidFunctor.identity, ["G"]),
            (mk.FiniteGroupoid.from_tables, ["objects", "homs", "compose", "identities",
                                             "name"])]:
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__


def test_a_functor_calls_its_object_map():
    # a mapping is no object map: it is called, not indexed
    G = moebiuskit.groupoid.discrete_groupoid([0])
    F = moebiuskit.GroupoidFunctor(G, G, {0: 0}, lambda m: m)
    with pytest.raises(TypeError):
        F.ob(0)


def _unused_imports(source: str) -> list:
    """The names a module imports and never reads, by its syntax tree."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports its public names to re-export them
    src = pathlib.Path(moebiuskit.__file__).parent
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("from collections import Counter\nx = 1\n") == ["Counter"]
