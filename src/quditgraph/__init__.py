"""Four-qudit graph states over prime dimensions.

Construction of weighted-graph states and their stabilizer groups, exact
generalized Pauli arithmetic, entanglement measures by dense and exact
tableau routes, exhaustive enumeration of projective-measurement steering
paths, and canonicalization of arbitrary 4-vertex graphs into the three
entanglement classes.
"""

__version__ = "0.1.0"

from .classify import (
    CanonicalResult,
    ClassCensus,
    LCOperation,
    ScaleOp,
    StarOp,
    SwapOp,
    apply_scale,
    apply_star,
    apply_swap,
    canonicalize,
    census_random,
    classify_exhaustive,
    cut_rank_classes,
    profile_class,
    purity_class,
    replay,
)
from .graphs import (
    AdjacencyMatrix,
    cluster_graph,
    gamma_graph,
    ghz_graph,
    graph_from_json_dict,
    p_graph,
    path_graph,
)
from .measures import (
    PurityProfile,
    ReducedState,
    concurrence,
    is_k_mm,
    max_identity_factors,
    partial_trace,
    purity,
    purity_profile,
    reduced_from_stabilizers,
    tableau_purity_profile,
    tableau_purity_profiles,
    wedge_measure,
)
from .pauli import (
    PauliWord,
    dense_matrix,
    fourier_conjugate,
    inv_mod,
    is_prime,
    pauli_mul,
    pauli_pow,
)
from .states import (
    StateVector,
    Tableau,
    apply_local_fourier,
    apply_pauli,
    build_state,
    family_graph,
    family_reduced_state,
    ghz3_state,
    iter_stabilizers,
    psi_gamma,
    stabilizer,
    stabilizer_tableau,
    verify_eigen,
)
from .steering import (
    ClassificationError,
    MeasurementBasis,
    MeasurementEvent,
    PathTally,
    PersistencyStats,
    ZeroProbabilityError,
    all_bases,
    classify2,
    classify3,
    enumerate_paths,
    mub_eigenstate,
    persistency_stats,
    project,
    schmidt_bounds,
)
