"""The stabilizer elimination engine: the independent route that the closed
forms of ``steering.enumerate_paths`` and ``measures.graph_entropies`` are
tested against, on any ``Tableau``, whether or not it is a graph's.

Bases are lines of GF(d)^2, (0, 1) for Z and (1, k) for XZ^k, and measuring
qudit q of a tableau along one clears the rows with a nonzero symplectic
product against a pivot row, zeroes the pivot, and deletes q's columns
(Gottesman, quant-ph/9802007). ``first_patterns`` takes a batch of tableaux
of any mix of primes, each row of its arithmetic reduced by its own
tableau's d: one batched elimination measures all four first qudits of
every tableau along all d+1 lines, and ``tableau_entropy`` classes each
3-qudit residue by which of its sites are pure. The first measurements of
all tableaux, 4(d+1) per tableau, are cut into batches of ``_GROUP_ROWS``,
whatever their d, and each batch costs one elimination: d = 2..13 runs as
one, and a tableau at large d spans many, so no batch's temporaries grow
with d. ``enumerate_paths`` counts each tableau's patterns into a
``PathTally``; ``tableau_entropies`` reads every one- and two-site entropy
off the rows as a GF(d) rank.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from quditgraph.graphs import N_VERTICES
from quditgraph.measures import all_subsystems
from quditgraph.pauli import eliminate_mod, rank_mod
from quditgraph.states import Tableau
from quditgraph.steering import ClassificationError, PathTally

# First-measurement rows that ``first_patterns`` eliminates together: it cuts
# the rows of all its tableaux into slices of this many, whatever their d.
_GROUP_ROWS = 4096


def tableau_entropy(t: np.ndarray, site_sets: Sequence[Sequence[int]],
                    d: int | np.ndarray) -> np.ndarray:
    """Entanglement of each of k site sets with the rest, in units of log d,
    for a batch of tableaux (..., rows, 2n) reduced mod d, d an int or an
    integer array broadcasting over the batch axes (...): shape (..., k), the
    GF(d) rank of a set's columns minus its size (Hein, Eisert and Briegel,
    PRA 69, 062311). Smaller sets are padded with zero columns. A lone site's
    two columns have rank (any entry nonzero) + (any 2x2 minor nonzero)."""
    sizes = [len(s) for s in site_sets]
    width = max(sizes)
    cols = np.array([[c for i in s for c in (2 * i, 2 * i + 1)] + [0] * (2 * (width - len(s)))
                     for s in site_sets])
    m = np.moveaxis(t[..., cols], -3, -2)  # (..., k, rows, 2 width)
    d = np.asarray(d)[..., None]  # over the batch axes and k
    if width == 1:
        x, z = m[..., :, None, 0], m[..., None, :, 1]
        minors = (x * z - np.swapaxes(x * z, -1, -2)) % d[..., None, None]
        rank = m.any(axis=(-2, -1)).astype(np.int64) + minors.any(axis=(-2, -1))
    else:
        rank = rank_mod(m * (np.arange(2 * width) < 2 * np.array(sizes)[:, None])[:, None], d)
    return rank - np.array(sizes)


def tableau_entropies(tableaux: Sequence[Tableau]) -> list[dict[tuple[int, ...], int]]:
    """Entropy S, in units of log d, of every one- and two-site subsystem of
    each tableau, of any mix of primes d, in ``all_subsystems`` order, from
    one batched ``tableau_entropy`` call."""
    keeps = all_subsystems(N_VERTICES, 2)
    d = np.array([t.d for t in tableaux], dtype=np.int64)
    xz = np.array([t.xz for t in tableaux], dtype=np.int64)
    entropy = tableau_entropy(xz.reshape(len(d), N_VERTICES, 2 * N_VERTICES), keeps, d).tolist()
    return [dict(zip(keeps, row)) for row in entropy]


def _qudit_first(t: np.ndarray) -> np.ndarray:
    """Each qudit q's view of a batch ``t`` (..., rows, 2n): shape (n, ..., rows,
    2n), q's columns first and the other qudits' columns after them in order."""
    n = t.shape[-1] // 2
    order = [[q] + [p for p in range(n) if p != q] for q in range(n)]
    cols = np.array([[c for p in sites for c in (2 * p, 2 * p + 1)] for sites in order])
    return np.moveaxis(t[..., cols], -2, 0)


def _measure(g: np.ndarray, line: np.ndarray, d: int | np.ndarray) -> np.ndarray:
    """Residual tableaux (..., rows, 2n-2) of measuring the first qudit of each
    tableau of ``g`` (..., rows, 2n) along the line ``line`` (..., 2) mod d, d
    broadcasting over (...). Row operations commute with deleting columns, so
    the measured qudit's columns are split off before the elimination."""
    d = np.asarray(d)
    # each row's symplectic product with the line
    col = (g[..., 0] * line[..., None, 1] - g[..., 1] * line[..., None, 0]) % d[..., None]
    return eliminate_mod(np.broadcast_to(g[..., 2:], col.shape + (g.shape[-1] - 2,)), col, d)


def _classify_rows(g: np.ndarray, line: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Pure residue sites, shape (rows, 3), of measuring the first qudit of
    each tableau ``g`` (rows, 4, 8) along ``line`` (rows, 2) mod d (rows,)."""
    return tableau_entropy(_measure(g, line, d), ((0,), (1,), (2,)), d) == 0


def _refuse_two_pure_sites(patterns: np.ndarray) -> None:
    """Raise ClassificationError at the first residue pattern of ``patterns``
    (..., 3 sites) with exactly two pure sites, which no stabilizer state has."""
    two = patterns[patterns.sum(-1) == 2]
    if len(two):
        kinds = ["pure" if p else "mixed" for p in two[0]]
        raise ClassificationError(f"purity pattern {kinds} is not a graph-state residue")


def first_patterns(tableaux: Iterable[Tableau]) -> list[np.ndarray]:
    """Per tableau, in order, the read-only booleans (4 q1, d+1 b1, 3 sites)
    over the lines of ``all_bases``: which sites of the residue of measuring
    qudit q1 along b1 are pure. The rows of all tableaux, one per (tableau,
    q1, b1), are eliminated in slices of _GROUP_ROWS rows, each row reduced
    by its own tableau's d; a pattern with two pure sites raises
    ClassificationError."""
    tableaux = list(tableaux)
    if not tableaux:
        return []
    d_t = np.array([t.d for t in tableaux])
    n_rows = 4 * (d_t + 1)
    stops = np.cumsum(n_rows)
    xz = _qudit_first(np.stack([t.xz.reshape(4, 8) for t in tableaux]))
    first = np.empty((stops[-1], 3), bool)
    for start in range(0, len(first), _GROUP_ROWS):
        row = np.arange(start, min(start + _GROUP_ROWS, len(first)))
        tab = np.searchsorted(stops, row, side="right")  # each row's tableau
        q1, b1 = np.divmod(row - (stops - n_rows)[tab], d_t[tab] + 1)
        lines = np.stack([b1 > 0, np.where(b1 > 0, b1 - 1, 1)], axis=-1)  # Z, then XZ^k
        first[row] = _classify_rows(xz[q1, tab], lines, d_t[tab])
    _refuse_two_pure_sites(first)
    first.flags.writeable = False
    return [f.reshape(4, t.d + 1, 3) for t, f in zip(tableaux, np.split(first, stops[:-1]))]


def moves_of(first: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """A ``PathTally.moves`` table of one pattern array (4, d+1, 3): per first
    qudit, the lines leaving 0, 1 or 3 pure residue sites."""
    _refuse_two_pure_sites(first)
    n_pure = first.sum(-1)
    return tuple(tuple(int((row == k).sum()) for k in (0, 1, 3)) for row in n_pure)


def enumerate_paths(tableaux: Iterable[Tableau]) -> list[PathTally]:
    """The tally of each tableau, in order, of any mix of primes d, from its
    ``first_patterns``."""
    tableaux = list(tableaux)
    return [PathTally(t.d, moves_of(f)) for t, f in zip(tableaux, first_patterns(tableaux))]
