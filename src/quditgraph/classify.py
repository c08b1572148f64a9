"""Local-equivalence calculus on 4-vertex graphs and class canonicalization.

Two operations generate local-Clifford equivalence of graph states at the
adjacency-matrix level: scaling a vertex (multiply its row and column by a
nonzero field element) and the star update Gamma_lm += f * Gamma_ln * Gamma_nm
applied off the diagonal. Together with vertex permutations they reduce any
connected 4-vertex graph to one of three canonical forms: the unit star
(GHZ class G), or the chain-plus-chord form with parameter gamma_tilde,
which is class C for gamma_tilde in {0, 1} and class P otherwise.

A batch of graphs is held as six weight columns in ``graphs.PAIRS`` order,
one entry per graph, and every operation is a column operation mod d.
Three programs take these edge supports (which weights are nonzero): the
star at vertex 3; the chain 0-1-2-3 with any chords but 1-3 (a star at vertex
1, by 0 where there is no 0-2 chord, then the chain's normalization); and the
complete graph. Each is one straight-line list of operations over its whole
group; the complete graph's swaps act only on the rows a mask names. A
connected support is relabelled, by a few swaps, with the first of the 24
vertex orders that turns it into one of these; a disconnected one keeps its
labels. The reducer relabels each row by its support's swaps and runs each
program's rows as one group. A group records its trace, after the
relabelling, as one operation list whose scale and star factors are
columns, one entry per row.
``canonicalize`` is the one-graph call of the same reducer and checks, and
``replay`` runs a trace of operations through the same kernels.
Columns take the narrowest signed integer type that holds d**3 (int8 to
d = 5, int16 to 31, int32 to 1289, int64 while d**3 < 2**63) and Python ints
beyond, and every reduction mod d is a floor division, ``x - x // d * d``,
which numpy runs without a hardware divide for a scalar d. Inverses are
Fermat's, by ``pauli.inv_mod_array``: a length-d table for d up to the rows
of a chunk, and per column beyond.

Sweeps run the reducer over chunks of 32 KiB per weight column (32,768 rows
of int8 down to 4,096 of int64 or Python ints), so its memory does not grow
with the number of graphs, and runs at most four groups per chunk.
The exhaustive sweep enumerates the rows support pattern by support pattern,
so at d = 11 and 13 most of its chunks hold one pattern. A group whose rows
share one relabelling, as every disconnected group does, moves whole
columns; a group of mixed relabellings, as a random census draws, gathers
per row. Every row is held to three checks: the reduced matrix must be a
canonical form; its class must equal an exact oracle's; and each group's
trace, replayed from the original rows after their relabelling, must give
the reduced rows. The oracle reads the GF(d) cut ranks of the weight
columns, ``measures.cut_ranks``: a zero vertex row or 2|2 block marks a
disconnected graph, and otherwise 3, 1 or 0 cuts of rank 1 mark classes G,
C and P. ``profile_class``, the same fingerprint read off a purity profile,
stays only as a span the benchmark tracer names (``SPANS`` in
``perfbench/child.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .graphs import N_VERTICES, PAIR_INDEX, PAIRS, AdjacencyMatrix
# purity_profile and build_state stay bound for perfbench/child.py's tracer.
from .measures import PAIR_TOL, PurityProfile, cut_ranks, purity_profile
from .pauli import check_prime, inv_mod_array
from .states import build_state

__all__ = [
    "CanonicalResult",
    "ClassCensus",
    "LCOperation",
    "ScaleOp",
    "StarOp",
    "SwapOp",
    "VerificationFailure",
    "canonicalize",
    "census_random",
    "classify_exhaustive",
    "cut_rank_classes",
    "ghz_canonical_graph",
    "profile_class",
    "replay",
]

CLASS_G = "G"
CLASS_C = "C"
CLASS_P = "P"
DISCONNECTED = "disconnected"
MAX_EXHAUSTIVE_D = 13
# Bytes per weight column of a sweep step: bounds the reducer's working set,
# not the output.
_CHUNK = 32 * 1024

# Class codes index the labels; cut_rank_classes relies on this order.
_P, _C, _DISCONNECTED, _G = range(4)
_LABELS = np.array([CLASS_P, CLASS_C, DISCONNECTED, CLASS_G], dtype=object)


class VerificationFailure(RuntimeError):
    """A computed result failed one of its independent cross-checks."""


@dataclass(frozen=True)
class ScaleOp:
    """Multiply the row and column of ``vertex`` by the nonzero ``factor``.

    In a group's trace the factor is a column, one entry per row."""

    vertex: int
    factor: int


@dataclass(frozen=True)
class StarOp:
    """Add factor * Gamma_l,vertex * Gamma_vertex,m to every off-diagonal entry.

    In a group's trace the factor is a column, one entry per row."""

    vertex: int
    factor: int


@dataclass(frozen=True)
class SwapOp:
    """Exchange two vertices (their rows and columns)."""

    a: int
    b: int


LCOperation = ScaleOp | StarOp | SwapOp


def _dtype(d: int):
    # The narrowest signed type holding d**3 holds every value a kernel forms
    # from reduced weights, the largest being a star term (d-1)**3 + (d-1).
    return next((t for t in (np.int8, np.int16, np.int32, np.int64)
                 if d**3 <= np.iinfo(t).max), object)


def _chunk_rows(d: int) -> int:
    """Rows per sweep step at d: the column budget over the item size."""
    return _CHUNK // np.dtype(_dtype(d)).itemsize


def _mod(x, d: int):
    """``x % d`` as a floor division, which numpy runs by multiplication for a
    scalar d; the same values as ``%`` for negative x and Python-int columns."""
    return x - x // d * d


def _scale(w, d: int, vertex: int, factor):
    return [_mod(c * factor, d) if vertex in pair else c for c, pair in zip(w, PAIRS)]


def _star(w, d: int, vertex: int, factor):
    # Weights at the star vertex are unchanged: the added term carries Gamma_vv = 0.
    return [
        c if vertex in (n, m)
        else _mod(c + factor * w[PAIR_INDEX[n, vertex]] * w[PAIR_INDEX[vertex, m]], d)
        for c, (n, m) in zip(w, PAIRS)
    ]


def _swap(w, a: int, b: int):
    t = {a: b, b: a}
    return [w[PAIR_INDEX[t.get(n, n), t.get(m, m)]] for n, m in PAIRS]


def _apply(w, d: int, op: LCOperation, where=None):
    """One operation on six weight columns, on the rows where ``where`` holds
    (every row if it is None); factors are already reduced mod d."""
    if isinstance(op, ScaleOp):
        out = _scale(w, d, op.vertex, op.factor)
    elif isinstance(op, StarOp):
        out = _star(w, d, op.vertex, op.factor)
    else:
        out = _swap(w, op.a, op.b)
    return out if where is None else [np.where(where, a, b) for a, b in zip(out, w)]


def _columns(g: AdjacencyMatrix):
    return list(np.array([g.weights], dtype=_dtype(g.d)).T)


def _entries(w, i: int):
    """4x4 entries of row ``i`` of six weight columns."""
    a, b, c, x, y, z = (int(col[i]) for col in w)
    return ((0, a, b, c), (a, 0, x, y), (b, x, 0, z), (c, y, z, 0))


def replay(g: AdjacencyMatrix, trace) -> AdjacencyMatrix:
    """Apply a recorded operation sequence to a matrix."""
    w = _columns(g)
    for op in trace:
        if isinstance(op, SwapOp):
            vertices = (op.a, op.b)
        elif isinstance(op, (ScaleOp, StarOp)):
            vertices = (op.vertex,)
            op = type(op)(op.vertex, op.factor % g.d)
            if isinstance(op, ScaleOp) and op.factor == 0:
                raise ValueError("scale factor must be nonzero")
        else:
            raise TypeError(f"unknown operation {op!r}")
        if not all(v in range(N_VERTICES) for v in vertices):
            raise ValueError(f"{op} names a vertex outside 0..{N_VERTICES - 1}")
        w = _apply(w, g.d, op)
    return AdjacencyMatrix(g.d, _entries(w, 0))


def ghz_canonical_graph(d: int) -> AdjacencyMatrix:
    """Canonical G form: unit-weight star centered at vertex 3."""
    return AdjacencyMatrix(d, ((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 1), (1, 1, 1, 0)))


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


@lru_cache(maxsize=None)
def _inverter(d: int):
    """Column-wise inverse mod the prime d of nonzero entries, built once per d."""
    if d > _chunk_rows(d):
        # a length-d table would cost more to build than the lookups of a chunk
        return lambda col: inv_mod_array(col, d)
    table = inv_mod_array(np.arange(d, dtype=np.int64), d).astype(_dtype(d))
    table.flags.writeable = False
    return table.__getitem__


class _Group:
    """Rows under reduction that share one program: their indices into the
    chunk, their supports, their current weight columns, the trace so far
    after each row's relabelling as (operation, mask of the rows it acts on or
    None for all) pairs, and, once reduced, their class codes."""

    def __init__(self, rows, support, w, d: int, inverse):
        self.rows = rows
        self.support = support
        self.w = w
        self.d = d
        self.inverse = inverse
        self.ops: list[tuple[LCOperation, np.ndarray | None]] = []
        self.codes = None

    def weight(self, n: int, m: int):
        return self.w[PAIR_INDEX[n, m]]

    def _record(self, op: LCOperation, where=None) -> None:
        self.w = _apply(self.w, self.d, op, where)
        self.ops.append((op, where))

    def scale(self, vertex: int, factor) -> None:
        self._record(ScaleOp(vertex, _mod(factor, self.d)))

    def star(self, vertex: int, factor) -> None:
        self._record(StarOp(vertex, _mod(factor, self.d)))

    def swap(self, a: int, b: int, where=None) -> None:
        self._record(SwapOp(a, b), where)

    def normalize_edge(self, vertex: int, other: int) -> None:
        """Scale ``vertex`` so the edge to ``other`` gets unit weight."""
        self.scale(vertex, self.inverse(self.weight(vertex, other)))

    def check_canonical(self) -> None:
        """Set the class codes of reduced rows; raise if a row is in no canonical form."""
        w01, w02, w03, w12, w13, w23 = self.w
        is_g = (w01 == 0) & (w02 == 0) & (w03 == 1) & (w12 == 0) & (w13 == 1) & (w23 == 1)
        # the gamma_graph form: chain 0-1-2-3 of unit weights plus the 0-3 chord
        is_chain = (w01 == 1) & (w02 == 0) & (w12 == 1) & (w13 == 0) & (w23 == 1)
        bad = np.flatnonzero(~(is_g | is_chain))
        if bad.size:
            raise VerificationFailure(
                f"reduction left a non-canonical matrix {_entries(self.w, bad[0])}"
            )
        self.codes = np.where(is_g, _G, np.where((w03 == 0) | (w03 == 1), _C, _P))

    def result(self, i: int):
        """(class, gamma_tilde, trace, canonical entries) of row ``i``; the trace
        starts with the swaps of the row's relabelling and leaves out the
        operations masked off the row, the scales by 1 and the stars by 0."""
        code = int(self.codes[i])
        trace = list(_SWAPS[self.support[i]])
        for op, where in self.ops:
            if where is not None and not where[i]:
                continue
            if not isinstance(op, SwapOp):
                op = type(op)(op.vertex, int(op.factor[i]))
                if op.factor == (1 if isinstance(op, ScaleOp) else 0):
                    continue
            trace.append(op)
        gamma = int(self.w[2][i]) if code in (_C, _P) else None
        return _LABELS[code], gamma, tuple(trace), _entries(self.w, i)


# Program shapes: a disconnected support runs no program; every connected one
# is relabelled onto the star, the chain or the six-edged program.
_UNREDUCED, _STAR, _CHAIN, _SIX_EDGED = range(4)


def _plan_table():
    """Per support: its program shape, its relabelling as swaps, and the
    weight column each relabelled column reads, all from the first vertex order
    (new vertex i is old vertex order[i]) that makes it a support a program
    takes; a disconnected support keeps its labels."""
    orders = list(permutations(range(N_VERTICES)))  # the identity first
    columns = np.array([[PAIR_INDEX[o[n], o[m]] for n, m in PAIRS] for o in orders])
    bit = {pair: 1 << k for pair, k in PAIR_INDEX.items()}
    star, chain = bit[0, 3] | bit[1, 3] | bit[2, 3], bit[0, 1] | bit[1, 2] | bit[2, 3]
    support = np.arange(2 ** len(PAIRS))
    # (support, order): the support each order relabels it to
    t = ((support[:, None, None] >> columns & 1) << np.arange(len(PAIRS))).sum(axis=2)
    shapes = np.select(
        [t == star, t & (chain | bit[1, 3]) == chain, t == support[-1]],
        [_STAR, _CHAIN, _SIX_EDGED], _UNREDUCED,
    )
    first = np.argmax(shapes != _UNREDUCED, axis=1)  # 0, the identity, if none
    swaps = []
    for order in orders:
        cur, ops = list(range(N_VERTICES)), []
        for r, v in enumerate(order):
            s = cur.index(v)
            if s != r:
                ops.append(SwapOp(r, s))
                cur[r], cur[s] = v, cur[r]
        swaps.append(tuple(ops))
    return shapes[support, first], tuple(swaps[i] for i in first), columns[first]


_SHAPE, _SWAPS, _RELABEL = _plan_table()
# Per support, the index of its relabelling among the distinct ones.
_RELABEL_ID = np.unique(_RELABEL, axis=0, return_inverse=True)[1].reshape(-1)


def _relabel(w, support):
    """Six weight columns with each row relabelled by its support's swaps."""
    relabelling = _RELABEL_ID[support]
    if relabelling.min() == relabelling.max():  # one relabelling: move whole columns
        return [w[k] for k in _RELABEL[support[0]]]
    # column k of row r reads entry r of column _RELABEL[support[r], k]: one
    # flat take per column from the six columns laid end to end
    flat, rows = np.concatenate(w), np.arange(len(support))
    return [flat.take(col.take(support) * len(support) + rows) for col in _RELABEL.T]


def _reduce(w, d: int, inverse):
    """Reduce the graphs of six weight columns to canonical forms.

    Rows are grouped by program shape; each group relabels every row by its
    support's swaps and runs its shape's program. Yields the nonempty groups,
    one per shape, with their class codes set.
    """
    support = sum((c != 0).astype(np.int64) << k for k, c in enumerate(w))
    shape = _SHAPE[support]
    for code, program in enumerate(_PROGRAMS):
        rows = np.flatnonzero(shape == code)
        if not rows.size:
            continue
        if rows.size == shape.size:  # the whole chunk: no copy
            group = _Group(rows, support, w, d, inverse)
        else:
            group = _Group(rows, support[rows], [c[rows] for c in w], d, inverse)
        if program is None:
            group.codes = np.full(len(rows), _DISCONNECTED)
        else:
            group.w = _relabel(group.w, group.support)
            program(group)
            group.check_canonical()
        yield group


def canonicalize(g: AdjacencyMatrix) -> CanonicalResult:
    """Reduce a 4-vertex graph to its canonical class representative.

    Disconnected graphs (including everything with fewer than three edges)
    return the class "disconnected" with an empty trace. Connected graphs
    reduce to the unit star (class G) or to the chain-plus-chord form whose
    chord weight gamma_tilde decides between C (0 or 1) and P (anything else).
    The class is checked against the cut-rank oracle and the trace replayed,
    as in the sweeps.
    """
    (group,) = _checked(_columns(g), g.d, _inverter(g.d))
    cls, gamma, trace, h = group.result(0)
    return CanonicalResult(cls, gamma, trace, AdjacencyMatrix(g.d, h))


def _reduce_star(r: _Group):
    for v in range(3):  # normalize the edges of the star at vertex 3
        r.normalize_edge(v, 3)


def _reduce_chain(r: _Group):
    # Kill the 0-2 chord with a star at 1 (by 0 where there is none), leaving
    # the chain 0-1-2-3 and the 0-3 edge; normalizing the chain edges turns
    # the 0-3 edge into gamma_tilde.
    r.star(1, -r.weight(0, 2) * r.inverse(_mod(r.weight(0, 1) * r.weight(1, 2), r.d)))
    r.normalize_edge(1, 0)
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)


def _reduce_six_edged(r: _Group):
    # Kill the 1-3 edge with a star at 2, then normalize the 1-2 and 2-3 edges.
    r.star(2, -r.weight(1, 3) * r.inverse(_mod(r.weight(1, 2) * r.weight(2, 3), r.d)))
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)
    # Where the 0-1 and 0-3 edges are both gone (the star rows), the graph is a
    # star at 2 that swapping 2 and 3 moves to 3; where only 0-1 is gone,
    # swapping 1 and 3 exchanges the roles of the 0-1 and 0-3 edges.
    star = (r.weight(0, 1) == 0) & (r.weight(0, 3) == 0)
    r.swap(2, 3, where=star)
    r.swap(1, 3, where=(r.weight(0, 1) == 0) & ~star)
    # Kill the 0-2 edge with a star at 1 (by 0 on the star rows, whose 0-2 weight
    # the swap zeroed), then normalize their 0-3 edge and the other rows' 0-1 edge.
    r.star(1, -r.weight(0, 2) * r.inverse(r.weight(0, 1)))
    r.scale(0, r.inverse(np.where(star, r.weight(0, 3), r.weight(0, 1))))


# Reduction program by shape; disconnected graphs run none.
_PROGRAMS = (None, _reduce_star, _reduce_chain, _reduce_six_edged)


def profile_class(profile: PurityProfile) -> str:
    """Class fingerprint from purities alone.

    A pure subsystem flags a product cut (disconnected graph); otherwise the
    number of pairs at purity 1/d is 6, 2, or 0 for classes G, C, and P.
    """
    if any(v >= 1.0 - PAIR_TOL for v in profile.values.values()):
        return DISCONNECTED
    n_loose = profile.pair_pattern()
    mapping = {6: CLASS_G, 2: CLASS_C, 0: CLASS_P}
    if n_loose not in mapping:
        raise VerificationFailure(
            f"pair-purity pattern {sorted(profile.pairs().values())} matches no class"
        )
    return mapping[n_loose]


def _cut_rank_codes(d: int, w):
    """Class codes of the graphs of six weight columns, by ``cut_ranks``."""
    rows, ranks = cut_ranks(w, d)
    connected = np.logical_and.reduce([*rows, *(rank != 0 for rank in ranks)])
    # the cuts of a connected graph have rank 1 or 2: 6 less their sum counts the 1s
    rank_one = 6 - sum(ranks)
    bad = np.flatnonzero(connected & (rank_one == 2))
    if bad.size:
        weights = [int(c[bad[0]]) for c in w]
        raise VerificationFailure(f"cut-rank pattern of weights {weights} matches no class")
    # The rank-1 cut count is the class code; count 2 is excluded above, so
    # its code marks the disconnected graphs.
    return np.where(connected, rank_one, _DISCONNECTED)


def cut_rank_classes(d: int, weights) -> list[str]:
    """Class of each graph of an (N, 6) weight array in ``PAIRS`` order, by
    the oracle's cut ranks: 3, 1 or 0 cuts of rank 1, the purity pair pattern
    6, 2, 0 halved, as complementary pairs share a cut. Weights of any shape
    but (N, 6), a float or bool weight, or one outside [0, d), raise
    ValueError, as does a d that is not prime.
    """
    d = check_prime(d)
    w = weights
    if not isinstance(w, np.ndarray) or w.dtype.kind not in "iu":
        # as Python ints: numpy would read big ints as floats, and bools as ints
        w = np.asarray(weights, dtype=object)
        bad = [v for v in w.flat if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
        if bad:
            raise ValueError(f"weight {bad[0]!r} is not an integer")
    if w.ndim != 2 or w.shape[1] != len(PAIRS):
        raise ValueError(f"weights must be an (N, {len(PAIRS)}) array, got shape {w.shape}")
    if ((w < 0) | (w >= d)).any():
        raise ValueError(f"weights must lie in [0, {d}) for d = {d}")
    w = w.astype(_dtype(d))
    return _LABELS[_cut_rank_codes(d, list(np.ascontiguousarray(w.T)))].tolist()


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


def _checked(w, d: int, inverse):
    """The reduced groups of six weight columns, each row's class checked
    against the cut-rank oracle and each group's trace replayed from the
    original rows; raises on the first disagreement."""
    expected = _cut_rank_codes(d, w)
    for group in _reduce(w, d, inverse):
        oracle = expected[group.rows]
        bad = np.flatnonzero(group.codes != oracle)
        if bad.size:
            i = bad[0]
            raise VerificationFailure(
                f"class mismatch for matrix {_entries(w, group.rows[i])}: "
                f"canonicalization says {_LABELS[group.codes[i]]}, "
                f"cut-rank oracle says {_LABELS[oracle[i]]}"
            )
        replayed = _relabel([c[group.rows] for c in w], group.support)
        for op, where in group.ops:
            replayed = _apply(replayed, d, op, where)
        bad = np.flatnonzero(np.any([a != b for a, b in zip(replayed, group.w)], axis=0))
        if bad.size:
            raise VerificationFailure(
                f"trace replay failed for matrix {_entries(w, group.rows[bad[0]])}"
            )
        yield group


def _sweep(d: int, chunks) -> ClassCensus:
    """Canonicalize every row of each chunk of six weight columns, with the
    checks of ``_checked``, and tally the classes."""
    inverse = _inverter(d)
    tally = np.zeros(len(_LABELS), dtype=np.int64)
    for w in chunks:
        for group in _checked(w, d, inverse):
            tally += np.bincount(group.codes, minlength=len(_LABELS))
    counts = {_LABELS[code]: int(tally[code]) for code in (_G, _C, _P, _DISCONNECTED)}
    return ClassCensus(d, int(tally.sum()), counts, 0)


def classify_exhaustive(d: int) -> ClassCensus:
    """Canonicalize every symmetric zero-diagonal matrix over Z_d.

    Every class is cross-checked against the cut-rank oracle and every trace
    is replayed; any disagreement raises with the offending matrix. Full
    sweeps are limited to d <= 13 (d^6 matrices).
    """
    check_prime(d)
    if d > MAX_EXHAUSTIVE_D:
        raise ValueError(
            f"full sweep supports d <= {MAX_EXHAUSTIVE_D}; use census_random beyond that"
        )

    def chunks():
        # Rows run support pattern by support pattern, so a chunk holds few
        # reduction groups. Support s owns the rows offset[s] to offset[s + 1]:
        # its i-th row puts the base-(d-1) digits of i, plus one, on the
        # columns of s, the lowest column taking the least significant digit.
        supports = [[k for k in range(len(PAIRS)) if s >> k & 1]
                    for s in range(2 ** len(PAIRS))]
        offset = [0]
        for cols in supports:
            offset.append(offset[-1] + (d - 1) ** len(cols))
        n, rows = offset[-1], _chunk_rows(d)  # n = d**6, by the binomial theorem
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            w = [np.zeros(stop - start, dtype=_dtype(d)) for _ in PAIRS]
            s = bisect_right(offset, start) - 1
            while offset[s] < stop:
                lo, hi = max(start, offset[s]), min(stop, offset[s + 1])
                i = np.arange(lo - offset[s], hi - offset[s])
                for k in supports[s]:
                    rest = i // (d - 1)
                    w[k][lo - start:hi - start] = i - rest * (d - 1) + 1
                    i = rest
                s += 1
            yield w

    return _sweep(d, chunks())


def census_random(d: int, samples: int, seed: int) -> ClassCensus:
    """Same cross-checked census over ``samples`` random matrices."""
    check_prime(d)
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if d >= 2**63:  # the weights are drawn as int64
        raise ValueError(f"random census supports d < 2**63, got {d}")
    rng, rows = np.random.default_rng(seed), _chunk_rows(d)
    return _sweep(d, (  # drawn chunk by chunk: memory stays flat in samples
        list(np.ascontiguousarray(
            rng.integers(0, d, size=(min(rows, samples - start), len(PAIRS))).T,
            dtype=_dtype(d)))
        for start in range(0, samples, rows)
    ))
