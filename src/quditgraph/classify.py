"""Local-equivalence calculus on 4-vertex graphs and class canonicalization.

Two operations generate local-unitary equivalence of graph states at the
adjacency-matrix level: scaling a vertex (multiply its row and column by a
nonzero field element) and the star update Gamma_lm += f * Gamma_ln * Gamma_nm
applied off the diagonal. Together with vertex permutations they reduce any
connected 4-vertex graph to one of three canonical forms: the unit star
(GHZ class G), or the chain-plus-chord form with parameter gamma_tilde,
which is class C for gamma_tilde in {0, 1} and class P otherwise.

Every reduction is recorded as a replayable trace of operations. The
reduction runs on plain 4x4 int tuples; the public operations wrap the same
kernels and validate one ``AdjacencyMatrix`` per call.

Sweeps cross-check every class against an exact oracle: the purity of a
subsystem A of a graph state is d**-rank, the rank taken over GF(d) of the
cut block Gamma[A, complement of A] (Hein, Eisert, Briegel, PRA 69, 062311;
Hostens, Dehaene, De Moor, PRA 71, 042315 for qudits). A zero vertex row or
a zero 2|2 block marks a disconnected graph; otherwise the number of 2|2
cuts of rank 1 is 3, 1 or 0 for classes G, C and P. Every recorded trace is
also replayed. The dense purity-profile route (``purity_class``) is the
reference the tests hold the cut-rank oracle to.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .graphs import N_VERTICES, AdjacencyMatrix
from .measures import PurityProfile, purity_profile
from .pauli import check_prime, inv_mod
from .states import build_state

__all__ = [
    "CanonicalResult",
    "ClassCensus",
    "ClassOracleMismatch",
    "ClassificationPatternError",
    "LCOperation",
    "ScaleOp",
    "StarOp",
    "SwapOp",
    "VerificationFailure",
    "apply_scale",
    "apply_star",
    "apply_swap",
    "canonicalize",
    "census_random",
    "classify_exhaustive",
    "cut_rank_classes",
    "ghz_canonical_graph",
    "profile_class",
    "purity_class",
    "replay",
]

CLASS_G = "G"
CLASS_C = "C"
CLASS_P = "P"
DISCONNECTED = "disconnected"
ORACLE_TOL = 1e-7
MAX_EXHAUSTIVE_D = 7

# Vertex pairs in the order of the sweeps' weight columns (w01, ..., w23).
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Canonical G form: unit-weight star centered at vertex 3.
_G_FORM = ((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 1), (1, 1, 1, 0))


class VerificationFailure(RuntimeError):
    """A computed result failed one of its independent cross-checks."""


class ClassificationPatternError(VerificationFailure):
    """Purity or cut-rank pattern matches none of the known class fingerprints."""


class ClassOracleMismatch(VerificationFailure):
    """Canonical class disagrees with the cut-rank oracle."""

    def __init__(self, g: AdjacencyMatrix, canonical_cls: str, oracle_cls: str):
        super().__init__(
            f"class mismatch for matrix {g.entries}: "
            f"canonicalization says {canonical_cls}, cut-rank oracle says {oracle_cls}"
        )
        self.matrix = g
        self.canonical_cls = canonical_cls
        self.oracle_cls = oracle_cls


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


def _scale(e, d: int, vertex: int, factor: int):
    factor %= d
    if factor == 0:
        raise ValueError("scale factor must be nonzero")
    rows = [list(row) for row in e]
    for m in range(N_VERTICES):
        rows[vertex][m] = rows[m][vertex] = e[vertex][m] * factor % d
    return tuple(map(tuple, rows))


def _star(e, d: int, vertex: int, factor: int):
    # Rows n with Gamma_n,vertex = 0 (vertex itself included) are unchanged.
    col = e[vertex]
    rows = []
    for n, (row, c) in enumerate(zip(e, col)):
        if c:
            new = [(w + factor * c * cm) % d for w, cm in zip(row, col)]
            new[n] = 0
            row = tuple(new)
        rows.append(row)
    return tuple(rows)


def _swap(e, a: int, b: int):
    axes = list(range(N_VERTICES))
    axes[a], axes[b] = axes[b], axes[a]
    pick = itemgetter(*axes)
    return tuple([pick(e[n]) for n in axes])


def _apply(e, d: int, op: LCOperation):
    if isinstance(op, ScaleOp):
        return _scale(e, d, op.vertex, op.factor)
    if isinstance(op, StarOp):
        return _star(e, d, op.vertex, op.factor)
    if isinstance(op, SwapOp):
        return _swap(e, op.a, op.b)
    raise TypeError(f"unknown operation {op!r}")


def _replay(e, d: int, trace):
    for op in trace:
        e = _apply(e, d, op)
    return e


def apply_scale(g: AdjacencyMatrix, vertex: int, factor: int) -> AdjacencyMatrix:
    return AdjacencyMatrix(g.d, _scale(g.entries, g.d, vertex, factor))


def apply_star(g: AdjacencyMatrix, vertex: int, factor: int) -> AdjacencyMatrix:
    """Off-diagonal update Gamma_lm += f * Gamma_l,vertex * Gamma_vertex,m.

    The diagonal is pinned to zero; entries in the row and column of
    ``vertex`` are unchanged because the added term carries Gamma_vv = 0.
    """
    return AdjacencyMatrix(g.d, _star(g.entries, g.d, vertex, factor))


def apply_swap(g: AdjacencyMatrix, a: int, b: int) -> AdjacencyMatrix:
    return AdjacencyMatrix(g.d, _swap(g.entries, a, b))


def replay(g: AdjacencyMatrix, trace) -> AdjacencyMatrix:
    """Apply a recorded operation sequence to a matrix."""
    return AdjacencyMatrix(g.d, _replay(g.entries, g.d, trace))


def ghz_canonical_graph(d: int) -> AdjacencyMatrix:
    """Canonical G form: unit-weight star centered at vertex 3."""
    return AdjacencyMatrix(d, _G_FORM)


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
    """Mutable canonicalization state: current entries plus recorded trace."""

    def __init__(self, e, d: int):
        self.h = e
        self.d = d
        self.ops: list[LCOperation] = []

    def scale(self, vertex: int, factor: int) -> None:
        factor %= self.d
        if factor != 1:
            self.h = _scale(self.h, self.d, vertex, factor)
            self.ops.append(ScaleOp(vertex, factor))

    def star(self, vertex: int, factor: int) -> None:
        factor %= self.d
        if factor != 0:
            self.h = _star(self.h, self.d, vertex, factor)
            self.ops.append(StarOp(vertex, factor))

    def permute(self, axes) -> None:
        """Relabel so that new vertex i is old vertex axes[i], as a sequence of swaps."""
        cur = list(range(N_VERTICES))
        for r in range(N_VERTICES):
            if cur[r] != axes[r]:
                s = cur.index(axes[r])
                self.h = _swap(self.h, r, s)
                self.ops.append(SwapOp(r, s))
                cur[r], cur[s] = cur[s], cur[r]

    def normalize_edge(self, vertex: int, other: int) -> None:
        """Scale ``vertex`` so the edge to ``other`` gets unit weight."""
        self.scale(vertex, inv_mod(self.h[vertex][other], self.d))


def _is_connected(e) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        n = stack.pop()
        for m in range(N_VERTICES):
            if e[n][m] != 0 and m not in seen:
                seen.add(m)
                stack.append(m)
    return len(seen) == N_VERTICES


def _canonical(e, d: int):
    """(class, gamma_tilde, trace, canonical entries) of the entries ``e``."""
    if not _is_connected(e):
        return DISCONNECTED, None, (), e

    r = _Reducer(e, d)
    n_edges = sum(1 for n, m in _PAIRS if e[n][m] != 0)
    if n_edges == 6:
        _reduce_six_edged(r)
    elif n_edges == 5:
        _reduce_five_edged(r)
    elif n_edges == 4:
        _reduce_four_edged(r)
    else:
        _reduce_three_edged(r)

    h = r.h
    if h == _G_FORM:
        return CLASS_G, None, tuple(r.ops), h
    gamma = h[0][3]
    # the gamma_graph form: chain 0-1-2-3 of unit weights plus the 0-3 chord
    if h != ((0, 1, 0, gamma), (1, 0, 1, 0), (0, 1, 0, 1), (gamma, 0, 1, 0)):
        raise VerificationFailure(f"reduction left a non-canonical matrix {h}")
    return (CLASS_C if gamma in (0, 1) else CLASS_P), gamma, tuple(r.ops), h


def canonicalize(g: AdjacencyMatrix) -> CanonicalResult:
    """Reduce a 4-vertex graph to its canonical class representative.

    Disconnected graphs (including everything with fewer than three edges)
    return the class "disconnected" with an empty trace. Connected graphs
    reduce to the unit star (class G) or to the chain-plus-chord form whose
    chord weight gamma_tilde decides between C (0 or 1) and P (anything else).
    """
    cls, gamma, trace, h = _canonical(g.entries, g.d)
    return CanonicalResult(cls, gamma, trace, g if h is g.entries else AdjacencyMatrix(g.d, h))


def _reduce_six_edged(r: _Reducer) -> None:
    d = r.d
    # Kill the 1-3 edge with a star at 2, then normalize the 1-2 and 2-3 edges.
    r.star(2, -r.h[1][3] * inv_mod(r.h[1][2], d) * inv_mod(r.h[2][3], d))
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)
    alpha, gamma = r.h[0][1], r.h[0][3]
    if alpha == 0 and gamma == 0:
        # Remaining graph is a star at vertex 2 with one non-unit edge.
        r.permute((0, 1, 3, 2))
        r.normalize_edge(0, 3)
        return
    if alpha == 0:
        r.permute((0, 3, 2, 1))  # exchange the roles of the 0-1 and 0-3 edges
    # Kill the 0-2 edge with a star at 1, then normalize the 0-1 edge.
    r.star(1, -r.h[0][2] * inv_mod(r.h[0][1], d))
    r.normalize_edge(0, 1)


def _reduce_five_edged(r: _Reducer) -> None:
    (zero_pair,) = [(n, m) for n, m in _PAIRS if r.h[n][m] == 0]
    others = [v for v in range(N_VERTICES) if v not in zero_pair]
    r.permute((others[0], zero_pair[0], others[1], zero_pair[1]))
    # Kill the 0-2 chord, leaving the 4-cycle 0-1-2-3-0; normalizing its chain
    # edges turns the 0-3 edge into gamma_tilde.
    r.star(1, -r.h[0][2] * inv_mod(r.h[0][1] * r.h[1][2], r.d))
    _normalize_chain(r)


def _reduce_four_edged(r: _Reducer) -> None:
    (z1, z2) = [(n, m) for n, m in _PAIRS if r.h[n][m] == 0]
    shared = set(z1) & set(z2)
    if not shared:
        # Diagonally placed gaps: the graph is already a 4-cycle.
        r.permute((z1[0], z2[0], z1[1], z2[1]))
        _normalize_chain(r)
        return
    v = shared.pop()
    i, j = sorted((set(z1) | set(z2)) - {v})
    (k,) = set(range(N_VERTICES)) - {v, i, j}
    r.permute((i, j, k, v))
    # Triangle 0-1-2 with a pendant 3; kill the 0-2 edge to leave the chain.
    r.star(1, -r.h[0][2] * inv_mod(r.h[0][1] * r.h[1][2], r.d))
    _normalize_chain(r)


def _reduce_three_edged(r: _Reducer) -> None:
    degrees = [sum(1 for w in row if w != 0) for row in r.h]
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
        nxt = [m for m in range(N_VERTICES) if r.h[order[-1]][m] != 0 and m not in order]
        order.append(nxt[0])
    r.permute(tuple(order))
    _normalize_chain(r)


def _normalize_chain(r: _Reducer) -> None:
    r.normalize_edge(1, 0)
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)


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


def purity_class(g: AdjacencyMatrix) -> str:
    """Class of a graph by the dense route: build its state, take every purity."""
    return profile_class(purity_profile(build_state(g)))


# Weight columns of the cut block of each one- and two-site subsystem: the
# four vertex rows, then the 2|2 cuts {0,1}|{2,3}, {0,2}|{1,3}, {0,3}|{1,2}
# as (a, b, c, e) with block determinant w_a w_b - w_c w_e.
_VERTEX_ROWS = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
_CUT_BLOCKS = ((1, 4, 2, 3), (0, 5, 2, 3), (0, 5, 1, 4))


def cut_rank_classes(d: int, weights) -> list[str]:
    """Class of each graph of an (N, 6) weight array (w01, w02, w03, w12, w13, w23).

    A vertex row or a 2|2 cut block of rank 0 (all zero) is a pure subsystem:
    the graph is disconnected. Otherwise each 2|2 block has rank 1 (its
    determinant vanishes mod d) or 2, and the number of rank-1 cuts is 3, 1
    or 0 for classes G, C and P; complementary pairs share a cut, so this is
    the purity pair pattern 6, 2, 0 halved.
    """
    # int64 holds the products w_a w_b exactly while d**2 < 2**63.
    w = np.asarray(weights, dtype=np.int64 if d * d < 2**63 else object).reshape(-1, 6)
    zero = w == 0
    disconnected = np.zeros(len(w), dtype=bool)
    rank_one = np.zeros(len(w), dtype=np.int64)
    for cols in _VERTEX_ROWS + _CUT_BLOCKS:
        disconnected |= zero[:, cols].all(axis=1)
    for a, b, c, e in _CUT_BLOCKS:
        # every block of a connected graph is nonzero, so det = 0 means rank 1
        rank_one += (w[:, a] * w[:, b] - w[:, c] * w[:, e]) % d == 0
    bad = ~disconnected & (rank_one == 2)
    if bad.any():
        raise ClassificationPatternError(
            f"cut-rank pattern of weights {w[bad][0].tolist()} matches no class"
        )
    # Indexed by the rank-1 cut count; count 2 is excluded above, so its slot
    # carries the disconnected graphs.
    labels = np.array([CLASS_P, CLASS_C, DISCONNECTED, CLASS_G], dtype=object)
    return labels[np.where(disconnected, 2, rank_one)].tolist()


@dataclass(frozen=True)
class ClassCensus:
    """Class counts over a set of graphs. Every class was cross-checked against
    the cut-rank oracle and every trace replayed; ``mismatches`` is always
    zero, because a failed check raises instead of being tallied."""

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


def _sweep(d: int, weights: np.ndarray) -> ClassCensus:
    """Canonicalize each row of an (N, 6) weight array, replay its trace, and
    check its class against the cut-rank oracle."""
    oracle = cut_rank_classes(d, weights)
    counts = {CLASS_G: 0, CLASS_C: 0, CLASS_P: 0, DISCONNECTED: 0}
    columns = weights.T.tolist()  # six lists of ints rather than N small lists
    for (a, b, c, x, y, z), expected in zip(zip(*columns), oracle):
        e = ((0, a, b, c), (a, 0, x, y), (b, x, 0, z), (c, y, z, 0))
        cls, _, trace, h = _canonical(e, d)
        if cls != expected:
            raise ClassOracleMismatch(AdjacencyMatrix(d, e), cls, expected)
        if _replay(e, d, trace) != h:
            raise VerificationFailure(f"trace replay failed for matrix {e}")
        counts[cls] += 1
    return ClassCensus(d, len(oracle), counts, 0)


def classify_exhaustive(d: int) -> ClassCensus:
    """Canonicalize every symmetric zero-diagonal matrix over Z_d.

    Every class is cross-checked against the cut-rank oracle and every trace
    is replayed; any disagreement raises with the offending matrix. Full
    sweeps are limited to d <= 7 (d^6 matrices).
    """
    check_prime(d)
    if d > MAX_EXHAUSTIVE_D:
        raise ValueError(
            f"full sweep supports d <= {MAX_EXHAUSTIVE_D}; use census_random beyond that"
        )
    weights = np.indices((d,) * len(_PAIRS), dtype=np.int8).reshape(len(_PAIRS), -1).T
    return _sweep(d, weights)


def census_random(d: int, samples: int, seed: int) -> ClassCensus:
    """Same cross-checked census over ``samples`` random matrices."""
    check_prime(d)
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    rng = np.random.default_rng(seed)
    return _sweep(d, rng.integers(0, d, size=(samples, len(_PAIRS))))
