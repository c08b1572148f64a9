"""Four-vertex weighted graphs over Z_d and the named state families.

An adjacency matrix is a symmetric 4x4 integer matrix with zero diagonal and
entries in [0, d); entry (n, m) is the weight of the edge between vertices n
and m, with 0 meaning no edge. Vertices are indexed 0..3 in code and reported
1..4 in serialized output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pauli import check_prime

__all__ = [
    "PAIRS",
    "PAIR_INDEX",
    "AdjacencyMatrix",
    "cluster_graph",
    "gamma_graph",
    "ghz_graph",
    "graph_from_json_dict",
    "p_graph",
    "path_graph",
]

N_VERTICES = 4
# The vertex pairs in the order of a graph's six weights (w01, ..., w23), and
# the index among them of each pair, in either order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_INDEX = {p: k for k, (n, m) in enumerate(PAIRS) for p in ((n, m), (m, n))}


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric, zero-diagonal 4x4 matrix of edge weights in Z_d."""

    d: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = check_prime(self.d)
        object.__setattr__(self, "d", d)
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        if len(rows) != N_VERTICES or any(len(r) != N_VERTICES for r in rows):
            raise ValueError("adjacency matrix must be 4x4")
        for n in range(N_VERTICES):
            if rows[n][n] != 0:
                raise ValueError("adjacency matrix must have zero diagonal")
            for m in range(N_VERTICES):
                if not 0 <= rows[n][m] < d:
                    raise ValueError(f"edge weight {rows[n][m]} outside [0, {d})")
                if rows[n][m] != rows[m][n]:
                    raise ValueError("adjacency matrix must be symmetric")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_array(cls, arr, d: int) -> "AdjacencyMatrix":
        # read as objects: numpy would turn ints >= 2**63 beside smaller ones into floats
        return cls(d, [[_reduced(v, d) for v in row]
                       for row in np.asarray(arr, dtype=object).tolist()])

    @classmethod
    def from_edges(cls, d: int, edges: Mapping[tuple[int, int], int]) -> "AdjacencyMatrix":
        """Build from a {(n, m): weight} mapping over unordered vertex pairs."""
        a = [[0] * N_VERTICES for _ in range(N_VERTICES)]
        for (n, m), w in edges.items():
            if n == m:
                raise ValueError("self-loops are not allowed")
            a[n][m] = a[m][n] = _reduced(w, d)
        return cls(d, a)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=int)

    def __getitem__(self, nm: tuple[int, int]) -> int:
        return self.entries[nm[0]][nm[1]]

    @property
    def weights(self) -> tuple[int, ...]:
        """The six edge weights, in ``PAIRS`` order."""
        return tuple([self.entries[n][m] for n, m in PAIRS])


def _reduced(w, d: int) -> int:
    """w mod d as a Python int; bool and float weights are not coerced."""
    if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
        raise ValueError(f"edge weight {w!r} is not an integer")
    return int(w) % d


def graph_from_json_dict(obj: Mapping) -> AdjacencyMatrix:
    """Parse the wire format {"d": int, "gamma": [[int x4] x4]}; any other key
    is an error, not silently dropped."""
    try:
        d = obj["d"]
        gamma = obj["gamma"]
    except (KeyError, TypeError) as exc:
        raise ValueError('graph JSON must carry keys "d" and "gamma"') from exc
    extra = [key for key in obj if key not in ("d", "gamma")]
    if extra:
        raise ValueError(f'graph JSON takes only the keys "d" and "gamma", not '
                         f'{", ".join(map(repr, extra))}')
    if not (
        isinstance(gamma, list)
        and len(gamma) == N_VERTICES
        and all(isinstance(row, list) and len(row) == N_VERTICES for row in gamma)
    ):
        raise ValueError('graph JSON "gamma" must be a 4x4 list of lists')
    for row in gamma:
        for w in row:
            if type(w) is not int:  # bool, float and str weights are not coerced
                raise ValueError(f"edge weight {w!r} is not an integer")
    return AdjacencyMatrix(d, tuple(tuple(row) for row in gamma))


def ghz_graph(d: int) -> AdjacencyMatrix:
    """Star graph: vertex 0 joined to 1, 2, 3 with unit weights."""
    return AdjacencyMatrix.from_edges(d, {(0, 1): 1, (0, 2): 1, (0, 3): 1})


def cluster_graph(d: int) -> AdjacencyMatrix:
    """Square graph 0-1-2-3-0 with unit weights."""
    return AdjacencyMatrix.from_edges(d, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})


def p_graph(d: int) -> AdjacencyMatrix:
    """Square graph with the 1-2 edge negated; distinct class only for d >= 3."""
    return AdjacencyMatrix.from_edges(
        d, {(0, 1): 1, (1, 2): d - 1, (2, 3): 1, (0, 3): 1}
    )


def gamma_graph(gamma: int, d: int) -> AdjacencyMatrix:
    """Chain 0-1-2-3 with unit weights plus a 0-3 chord of weight gamma.

    gamma = 1 gives the square (cluster) graph, gamma = 0 the open chain;
    gamma in 2..d-1 gives graphs in the third entanglement class.
    """
    return AdjacencyMatrix.from_edges(
        d, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): gamma % d}
    )


def path_graph(d: int) -> AdjacencyMatrix:
    """Open chain 0-1-2-3; same entanglement class as the square graph."""
    return gamma_graph(0, d)
