"""Four-qudit graph states over prime dimensions.

Construction of weighted-graph states as stabilizer tableaux and exact phase
tables, with every Pauli word held as integer (x, z) rows and a phase
exponent over GF(d) at any prime d; exact entropies as GF(d) cut ranks,
exhaustive enumeration of projective-measurement steering paths, and
canonicalization of arbitrary 4-vertex graphs into the three entanglement
classes. Every name re-exported here is exact: a few dense complex routes
stay in their modules only as spans the benchmark tracer names.
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
from .measures import cut_ranks, graph_entropies, is_k_mm, max_identity_factors
from .pauli import inv_mod, is_prime, pauli_mul
from .states import Tableau, family_graph, stabilizer_group, stabilizer_tableau
from .steering import (
    ClassificationError,
    PathTally,
    PersistencyStats,
    all_bases,
    enumerate_paths,
    persistency_stats,
    schmidt_bounds,
)
