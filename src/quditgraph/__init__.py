"""Four-qudit graph states over prime dimensions.

Construction of weighted-graph states and their stabilizer groups, with
every Pauli word held as integer (x, z) rows and a phase exponent over GF(d)
at any prime d; entanglement measures by dense and exact tableau routes,
exhaustive enumeration of projective-measurement steering paths, and
canonicalization of arbitrary 4-vertex graphs into the three entanglement
classes.
"""

__version__ = "0.1.0"

from .classify import (
    CanonicalResult,
    ClassCensus,
    LCOperation,
    ScaleOp,
    StarOp,
    SwapOp,
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
    tableau_purity_profiles,
    wedge_measure,
)
from .pauli import dense_matrix, inv_mod, is_prime, pauli_mul
from .states import (
    StateVector,
    Tableau,
    apply_local_fourier,
    apply_pauli,
    build_state,
    family_graph,
    family_reduced_state,
    ghz3_state,
    psi_gamma,
    stabilizer_group,
    stabilizer_tableau,
    verify_eigen,
)
from .steering import (
    ClassificationError,
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
