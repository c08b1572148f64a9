"""Local-equivalence calculus on 4-vertex graphs and class canonicalization.

Two operations generate local-unitary equivalence of graph states at the
adjacency-matrix level: scaling a vertex (multiply its row and column by a
nonzero field element) and the star update Gamma_lm += f * Gamma_ln * Gamma_nm
applied off the diagonal. Together with vertex permutations they reduce any
connected 4-vertex graph to one of three canonical forms: the unit star
(GHZ class G), or the chain-plus-chord form with parameter gamma_tilde,
which is class C for gamma_tilde in {0, 1} and class P otherwise.

Every reduction is recorded as a replayable trace of operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .graphs import N_VERTICES, AdjacencyMatrix, gamma_graph
from .measures import PurityProfile, purity_profile
from .pauli import check_prime, inv_mod
from .states import build_state

__all__ = [
    "CanonicalResult",
    "ClassCensus",
    "ClassOracleMismatch",
    "LCOperation",
    "ScaleOp",
    "StarOp",
    "SwapOp",
    "apply_op",
    "apply_scale",
    "apply_star",
    "apply_swap",
    "canonicalize",
    "census_random",
    "classify_exhaustive",
    "ghz_canonical_graph",
    "profile_class",
    "replay",
]

CLASS_G = "G"
CLASS_C = "C"
CLASS_P = "P"
DISCONNECTED = "disconnected"
ORACLE_TOL = 1e-7


@dataclass(frozen=True)
class ScaleOp:
    """Multiply the row and column of ``vertex`` by the nonzero ``factor``."""

    vertex: int
    factor: int


@dataclass(frozen=True)
class StarOp:
    """Add factor * Gamma_l,vertex * Gamma_vertex,m to every off-diagonal entry."""

    vertex: int
    factor: int


@dataclass(frozen=True)
class SwapOp:
    """Exchange two vertices (their rows and columns)."""

    a: int
    b: int


LCOperation = ScaleOp | StarOp | SwapOp


def apply_scale(g: AdjacencyMatrix, vertex: int, factor: int) -> AdjacencyMatrix:
    d = g.d
    factor %= d
    if factor == 0:
        raise ValueError("scale factor must be nonzero")
    a = g.as_array()
    a[vertex, :] = a[vertex, :] * factor % d
    a[:, vertex] = a[:, vertex] * factor % d
    a[vertex, vertex] = 0
    return AdjacencyMatrix.from_array(a, d)


def apply_star(g: AdjacencyMatrix, vertex: int, factor: int) -> AdjacencyMatrix:
    """Off-diagonal update Gamma_lm += f * Gamma_l,vertex * Gamma_vertex,m.

    The diagonal is pinned to zero; entries in the row and column of
    ``vertex`` are unchanged because the added term carries Gamma_vv = 0.
    """
    d = g.d
    a = g.as_array()
    col = a[:, vertex]
    update = factor * np.outer(col, col) % d
    np.fill_diagonal(update, 0)
    return AdjacencyMatrix.from_array((a + update) % d, d)


def apply_swap(g: AdjacencyMatrix, a: int, b: int) -> AdjacencyMatrix:
    axes = list(range(N_VERTICES))
    axes[a], axes[b] = axes[b], axes[a]
    return g.permuted(axes)


def apply_op(g: AdjacencyMatrix, op: LCOperation) -> AdjacencyMatrix:
    if isinstance(op, ScaleOp):
        return apply_scale(g, op.vertex, op.factor)
    if isinstance(op, StarOp):
        return apply_star(g, op.vertex, op.factor)
    if isinstance(op, SwapOp):
        return apply_swap(g, op.a, op.b)
    raise TypeError(f"unknown operation {op!r}")


def replay(g: AdjacencyMatrix, trace) -> AdjacencyMatrix:
    """Apply a recorded operation sequence to a matrix."""
    for op in trace:
        g = apply_op(g, op)
    return g


def ghz_canonical_graph(d: int) -> AdjacencyMatrix:
    """Canonical G form: unit-weight star centered at vertex 3."""
    return AdjacencyMatrix.from_edges(d, {(0, 3): 1, (1, 3): 1, (2, 3): 1})


@dataclass(frozen=True)
class CanonicalResult:
    """Outcome of canonicalization: class label, chord parameter for the C/P
    forms, the replayable trace, and the canonical matrix it produces."""

    cls: str
    gamma_tilde: int | None
    trace: tuple[LCOperation, ...]
    canonical: AdjacencyMatrix

    def to_json_dict(self) -> dict:
        ops = []
        for op in self.trace:
            if isinstance(op, ScaleOp):
                ops.append({"op": "scale", "vertex": op.vertex + 1, "f": op.factor})
            elif isinstance(op, StarOp):
                ops.append({"op": "star", "vertex": op.vertex + 1, "f": op.factor})
            else:
                ops.append({"op": "swap", "vertices": [op.a + 1, op.b + 1]})
        return {
            "class": self.cls,
            "gamma_tilde": self.gamma_tilde,
            "trace": ops,
            "canonical": [list(row) for row in self.canonical.entries],
        }


class _Reducer:
    """Mutable canonicalization state: current matrix plus recorded trace."""

    def __init__(self, g: AdjacencyMatrix):
        self.h = g
        self.ops: list[LCOperation] = []

    def scale(self, vertex: int, factor: int) -> None:
        if factor % self.h.d != 1:
            self.h = apply_scale(self.h, vertex, factor)
            self.ops.append(ScaleOp(vertex, factor % self.h.d))

    def star(self, vertex: int, factor: int) -> None:
        if factor % self.h.d != 0:
            self.h = apply_star(self.h, vertex, factor)
            self.ops.append(StarOp(vertex, factor % self.h.d))

    def permute(self, axes) -> None:
        """Realize h -> h.permuted(axes) as a sequence of swaps."""
        cur = list(range(N_VERTICES))
        for r in range(N_VERTICES):
            if cur[r] != axes[r]:
                s = cur.index(axes[r])
                self.h = apply_swap(self.h, r, s)
                self.ops.append(SwapOp(r, s))
                cur[r], cur[s] = cur[s], cur[r]

    def normalize_edge(self, vertex: int, other: int) -> None:
        """Scale ``vertex`` so the edge to ``other`` gets unit weight."""
        w = self.h[vertex, other]
        self.scale(vertex, inv_mod(w, self.h.d))


def canonicalize(g: AdjacencyMatrix) -> CanonicalResult:
    """Reduce a 4-vertex graph to its canonical class representative.

    Disconnected graphs (including everything with fewer than three edges)
    return the class "disconnected" with an empty trace. Connected graphs
    reduce to the unit star (class G) or to the chain-plus-chord form whose
    chord weight gamma_tilde decides between C (0 or 1) and P (anything else).
    """
    d = g.d
    if not g.is_connected():
        return CanonicalResult(DISCONNECTED, None, (), g)

    r = _Reducer(g)
    n_edges = g.edge_count()

    if n_edges == 6:
        _reduce_six_edged(r)
    elif n_edges == 5:
        _reduce_five_edged(r)
    elif n_edges == 4:
        _reduce_four_edged(r)
    else:
        _reduce_three_edged(r)

    h = r.h
    if h == ghz_canonical_graph(d):
        result = CanonicalResult(CLASS_G, None, tuple(r.ops), h)
    else:
        gamma = h[0, 3]
        if h != gamma_graph(gamma, d):
            raise RuntimeError(f"reduction left a non-canonical matrix {h.entries}")
        cls = CLASS_C if gamma in (0, 1) else CLASS_P
        result = CanonicalResult(cls, gamma, tuple(r.ops), h)
    return result


def _reduce_six_edged(r: _Reducer) -> None:
    d = r.h.d
    # Kill the 1-3 edge with a star at 2, then normalize the 1-2 and 2-3 edges.
    r.star(2, -r.h[1, 3] * inv_mod(r.h[1, 2], d) * inv_mod(r.h[2, 3], d))
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)
    alpha, beta, gamma = r.h[0, 1], r.h[0, 2], r.h[0, 3]
    if alpha == 0 and gamma == 0:
        # Remaining graph is a star at vertex 2 with one non-unit edge.
        r.permute((0, 1, 3, 2))
        r.normalize_edge(0, 3)
        return
    if alpha == 0:
        r.permute((0, 3, 2, 1))  # exchange the roles of the 0-1 and 0-3 edges
    # Kill the 0-2 edge with a star at 1, then normalize the 0-1 edge.
    r.star(1, -r.h[0, 2] * inv_mod(r.h[0, 1], d))
    r.normalize_edge(0, 1)


def _reduce_five_edged(r: _Reducer) -> None:
    d = r.h.d
    (zero_pair,) = [
        (n, m) for n, m in combinations(range(N_VERTICES), 2) if r.h[n, m] == 0
    ]
    others = [v for v in range(N_VERTICES) if v not in zero_pair]
    r.permute((others[0], zero_pair[0], others[1], zero_pair[1]))
    # Kill the 0-2 chord, leaving the 4-cycle 0-1-2-3-0.
    r.star(1, -r.h[0, 2] * inv_mod(r.h[0, 1] * r.h[1, 2], d))
    _normalize_cycle(r)


def _reduce_four_edged(r: _Reducer) -> None:
    d = r.h.d
    zeros = [(n, m) for n, m in combinations(range(N_VERTICES), 2) if r.h[n, m] == 0]
    (z1, z2) = zeros
    shared = set(z1) & set(z2)
    if not shared:
        # Diagonally placed gaps: the graph is already a 4-cycle.
        r.permute((z1[0], z2[0], z1[1], z2[1]))
        _normalize_cycle(r)
        return
    v = shared.pop()
    i, j = sorted((set(z1) | set(z2)) - {v})
    (k,) = set(range(N_VERTICES)) - {v, i, j}
    r.permute((i, j, k, v))
    # Triangle 0-1-2 with a pendant 3; kill the 0-2 edge to leave the chain.
    r.star(1, -r.h[0, 2] * inv_mod(r.h[0, 1] * r.h[1, 2], d))
    _normalize_chain(r)


def _reduce_three_edged(r: _Reducer) -> None:
    degrees = [r.h.degree(v) for v in range(N_VERTICES)]
    if 3 in degrees:
        center = degrees.index(3)
        leaves = [v for v in range(N_VERTICES) if v != center]
        r.permute((*leaves, center))
        for v in range(3):
            r.normalize_edge(v, 3)
        return
    # A connected 3-edged graph without a degree-3 vertex is an open chain.
    first = min(v for v in range(N_VERTICES) if degrees[v] == 1)
    order = [first]
    while len(order) < N_VERTICES:
        nxt = [
            m
            for m in range(N_VERTICES)
            if r.h[order[-1], m] != 0 and m not in order
        ]
        order.append(nxt[0])
    r.permute(tuple(order))
    _normalize_chain(r)


def _normalize_chain(r: _Reducer) -> None:
    r.normalize_edge(1, 0)
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)


def _normalize_cycle(r: _Reducer) -> None:
    # Scale the chain edges to one; the 0-3 chord becomes gamma_tilde.
    _normalize_chain(r)


class ClassOracleMismatch(RuntimeError):
    """Canonical class disagrees with the purity-profile oracle."""

    def __init__(self, g: AdjacencyMatrix, canonical_cls: str, oracle_cls: str):
        super().__init__(
            f"class mismatch for matrix {g.entries}: "
            f"canonicalization says {canonical_cls}, purity oracle says {oracle_cls}"
        )
        self.matrix = g
        self.canonical_cls = canonical_cls
        self.oracle_cls = oracle_cls


def profile_class(profile: PurityProfile, tol: float = ORACLE_TOL) -> str:
    """Class fingerprint from purities alone.

    A pure subsystem flags a product cut (disconnected graph); otherwise the
    number of pairs at purity 1/d is 6, 2, or 0 for classes G, C, and P.
    """
    if any(v >= 1.0 - tol for v in profile.values.values()):
        return DISCONNECTED
    n_loose = profile.pair_pattern(tol)
    mapping = {6: CLASS_G, 2: CLASS_C, 0: CLASS_P}
    if n_loose not in mapping:
        raise ClassificationPatternError(
            f"pair-purity pattern {sorted(profile.pairs().values())} matches no class"
        )
    return mapping[n_loose]


class ClassificationPatternError(RuntimeError):
    """Purity profile matches none of the known class fingerprints."""


def _check_one(g: AdjacencyMatrix) -> str:
    """Canonicalize, then cross-check against the purity oracle and the trace."""
    result = canonicalize(g)
    oracle = profile_class(purity_profile(build_state(g)))
    if oracle != result.cls:
        raise ClassOracleMismatch(g, result.cls, oracle)
    if replay(g, result.trace) != result.canonical:
        raise RuntimeError(f"trace replay failed for matrix {g.entries}")
    return result.cls


@dataclass(frozen=True)
class ClassCensus:
    """Class counts over a set of graphs, with the number of oracle mismatches
    (always zero: a mismatch raises instead of being tallied)."""

    d: int
    total: int
    counts: dict
    mismatches: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "total": self.total,
            "counts": dict(self.counts),
            "mismatches": self.mismatches,
        }


def classify_exhaustive(d: int) -> ClassCensus:
    """Canonicalize every symmetric zero-diagonal matrix over Z_d.

    Every connected graph's class is cross-checked against the purity-profile
    oracle and every trace is replayed; any disagreement raises with the
    offending matrix. Full sweeps are limited to d <= 5 (d^6 matrices).
    """
    check_prime(d)
    if d > 5:
        raise ValueError("full sweep supports d <= 5; use census_random beyond that")
    counts = {CLASS_G: 0, CLASS_C: 0, CLASS_P: 0, DISCONNECTED: 0}
    pairs = list(combinations(range(N_VERTICES), 2))
    total = 0
    for weights in product(range(d), repeat=len(pairs)):
        g = AdjacencyMatrix.from_edges(d, dict(zip(pairs, weights)))
        counts[_check_one(g)] += 1
        total += 1
    return ClassCensus(d, total, counts, 0)


def census_random(d: int, samples: int, seed: int) -> ClassCensus:
    """Same cross-checked census over ``samples`` random matrices."""
    check_prime(d)
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    rng = np.random.default_rng(seed)
    counts = {CLASS_G: 0, CLASS_C: 0, CLASS_P: 0, DISCONNECTED: 0}
    pairs = list(combinations(range(N_VERTICES), 2))
    for _ in range(samples):
        weights = rng.integers(0, d, size=len(pairs))
        g = AdjacencyMatrix.from_edges(d, dict(zip(pairs, map(int, weights))))
        counts[_check_one(g)] += 1
    return ClassCensus(d, samples, counts, 0)
