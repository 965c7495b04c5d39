"""moebiuskit: exact incidence coalgebras, Mobius inversion and Rota
formulas for finite 1-truncated decomposition spaces."""

from .groupoid import (
    DomainError,
    FiniteGroupoid,
    GroupoidFunctor,
    IsoClassTable,
    Mor,
    StructureError,
    cardinality,
    fiber_cardinality,
    homotopy_pullback,
    is_equivalence,
    is_monomorphism,
    is_pullback_square,
)
from .simplicial import (
    InsufficientLevelsError,
    SimplicialMap,
    TruncatedSimplicialGroupoid,
    check_axioms,
    is_culf,
    word_groupoid,
)
from .incidence import (
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
from .catposet import (
    Adjunction,
    CorrespondenceCat,
    FinCategory,
    FinFunctor,
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
    rota_direct,
)
from .bicomodule import (
    AugmentedBisimplicialGroupoid,
    ComoduleConfiguration,
    check_associativity,
    coact,
    comodule_mobius_check,
    convolve_action,
    decalage,
    left_comodule,
    phi_comodule,
    pointing_delta,
    right_comodule,
    rota_evaluate,
    total_decalage,
    validate_configuration,
)
from .examples import (
    enumerate_posets,
    layered_posets,
    layered_sets,
    mu_posets,
    poset_key,
    sets_posets_bicomodule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
