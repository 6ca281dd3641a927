"""Teleportation schemes, basic-construction towers and quantum-graph
colourings for finite-dimensional operator-algebra inclusions."""

__version__ = "0.1.0"

from .linalg import DEFAULT_SEED, DEFAULT_TOL, Tolerance, set_default_seed
from .algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    conditional_expectation_onto,
    intersect,
    scalar_decompose_cp_family,
)
from .inclusion import (
    Inclusion,
    concrete_jones_projection,
    diagonal_in_full,
    homogeneous_in_full,
    inclusion_matrix,
    is_connected,
    markov_inclusion,
    markov_trace,
    trivial_in_full,
)
from .tower import (
    GnsSpace,
    Tower,
    basic_construction,
    iterate,
    normalizer_check,
    verify_epr,
    verify_tower,
    verify_tracial_entangled_state,
)
from .bases import (
    PimsnerPopaBasis,
    cardinality_test,
    character_basis,
    commutant_factor_basis,
    homogeneity_test,
    homogeneous_block_basis,
    kraus_decomposition,
    shift_basis,
    verify_basis,
    weyl_basis,
)
from .teleport import (
    SchemeFlags,
    TeleportationContext,
    TeleportationScheme,
    classify,
    commutant_trace_is_markov,
    correction_unitaries,
    direct_sum_scheme,
    extract_tight_scheme,
    standard_scheme,
    tight_scheme_from_basis,
    unbiased_scheme,
    verify_scheme,
)
from .qgraph import (
    ChromaticBounds,
    Colouring,
    QuantumGraph,
    basis_colouring,
    basis_lower_bound,
    chromatic_bounds,
    factor_colouring,
    factor_lower_bound,
    graphs_from_inclusion,
    traceless_part,
    verify_colouring,
)

__all__ = [name for name in dir() if not name.startswith("_")]
