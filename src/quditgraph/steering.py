"""Projective-measurement steering of four-qudit graph states.

Each qudit offers d+1 measurement bases (Z and XZ^k for k = 0..d-1), which
are pairwise mutually unbiased for prime d. The engine enumerates every
ordered single measurement and measurement pair, classifies the residual
state by its single-site purity pattern, and aggregates the results into
tallies, per-branch trees, and averaged persistency statistics.

The engine is exact: bases are lines of GF(d)^2, (0, 1) for Z and (1, k)
for XZ^k, and measuring qudit q of a ``Tableau`` along one clears the rows
with a nonzero symplectic product against a pivot row, zeroes the pivot, and
deletes q's columns (Gottesman, quant-ph/9802007). ``enumerate_paths`` takes
a batch of tableaux of any mix of primes, each row of its arithmetic reduced
by its own tableau's d. One batched elimination measures all four first
qudits of every tableau along all d+1 lines, and ``states.tableau_entropy``
classes each 3-qudit residue R by which of its sites are pure (Hein, Eisert
and Briegel, PRA 69, 062311). Every second measurement is then classed from
R's purity pattern alone, with no further elimination:

Let R's rows span V (dim V = 3), measure site c along line l, and let a, b
be the other two sites. The measurement keeps the v in V with v_c in <l>
and adds l on c, so the pair (a, b) is stabilized by those v's restrictions;
it is a product exactly when site a is pure there, that is, when some v in V
has v_b = 0, v_a != 0 and v_c in <l>. With W = {v in V : v_b = 0}, a site
set's entropy being its size minus the dimension of V's vectors supported on
it gives dim W = 2 - S(b) and, for each site s, a nonzero v supported on s
alone exactly when s is pure. Hence, by R's purity pattern:

- all three sites pure: take v on a alone; a product for every l;
- one pure site s, c = s: W is spanned by the v on c alone, whose v_a = 0;
  a Bell pair for every l;
- one pure site s = a: take v on a alone; a product for every l;
- one pure site s = b: W, of dim 2, stabilizes a Bell pair of a and c, so
  v -> v_c is a bijection of W onto GF(d)^2; the v with v_c = l has v_a != 0;
  a product for every l;
- no pure site: W = <n>, where n_a != 0 (else c would be pure) and n_c != 0
  (else a would be); a product exactly when n_c in <l>, i.e. when l is
  n_c's line, Z if n_c = (0, z) and XZ^(z/x) if n_c = (x, z) with x != 0;
- two pure sites: no stabilizer state (S(c) = S(ab) <= S(a) + S(b) = 0),
  so ``ClassificationError``.

So the class of every pair follows from R's purity pattern: each site of a
product residue has d+1 second measurements that leave a product, each
mixed site of an S_nB residue d+1 and its pure site none, and each site of
a GHZ3 residue exactly one, the line of n_c. A tally keeps only the first
level, the pure sites of each residue, and every pair count is a closed
form of it. The first measurements of all tableaux, 4(d+1) per tableau,
are cut into batches of 4,096, whatever their d, and each batch costs one
elimination: d = 2..13 runs as one, and a tableau at large d spans many,
so no batch's temporaries grow with d.

``project`` is the single-event form on a dense ``StateVector``: it
measures one qudit along a line of ``all_bases``, with the eigenvectors of
``mub_eigenstate``, and refuses an outcome below PROB_TOL. No command runs
it; it stays only as a span the benchmark tracer names (``SPANS`` in
``perfbench/child.py``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .classify import VerificationFailure
from .measures import tableau_entropies
from .pauli import check_prime, eliminate_mod, omega_powers, pauli_str
from .states import StateVector, Tableau, tableau_entropy

__all__ = [
    "ClassificationError",
    "MeasurementEvent",
    "PathTally",
    "PersistencyStats",
    "ZeroProbabilityError",
    "all_bases",
    "basis_eigenvalue",
    "enumerate_paths",
    "mub_eigenstate",
    "persistency_stats",
    "project",
    "schmidt_bounds",
]

PROB_TOL = 1e-9

GHZ3 = "ghz3"
SNB = "snb"
PRODUCT = "product"
BELL = "bell"


class ZeroProbabilityError(ValueError):
    """Raised when projecting onto an outcome of (numerically) zero probability."""


class ClassificationError(VerificationFailure):
    """Raised when a purity pattern matches no graph-state residue class."""


def _line(basis) -> tuple[int, int]:
    """``basis`` as a line of GF(d)^2: (0, 1) for Z or (1, k) for XZ^k, k
    taken mod d where d is known; any other pair raises ValueError."""
    line = tuple(map(operator.index, basis))
    if line != (0, 1) and (len(line) != 2 or line[0] != 1):
        raise ValueError(f"basis {basis!r} is neither the line (0, 1) nor a line (1, k)")
    return line


def all_bases(d: int) -> tuple[tuple[int, int], ...]:
    """The d+1 distinct measurement bases on one qudit, as lines: Z, then XZ^k."""
    check_prime(d)
    return ((0, 1),) + tuple((1, k) for k in range(d))


def basis_eigenvalue(basis: tuple[int, int], outcome: int, d: int) -> complex:
    """Eigenvalue attached to an outcome index under this module's convention."""
    x, k = _line(basis)
    omega = omega_powers(d)
    if x == 0:
        return complex(omega[outcome % d])
    if k % d == 0:
        return complex(omega[(-outcome) % d])
    if d == 2:
        return complex(1j * (-1) ** (outcome % 2))
    return complex(omega[outcome % d])


def mub_eigenstate(basis: tuple[int, int], outcome: int, d: int) -> StateVector:
    """Normalized eigenvector of the basis operator for a given outcome index.

    Conventions: Z outcome i is the computational vector e_i (eigenvalue
    omega^i); X outcome j is the Fourier vector with components omega^(j*m)
    (eigenvalue omega^-j); for XZ^k with k >= 1 outcomes are indexed by
    eigenvalue phase from omega^0 upward.
    """
    x, k = _line(basis)
    d = check_prime(d)
    outcome %= d
    omega = omega_powers(d)
    if x == 0:
        amps = np.zeros(d, dtype=complex)
        amps[outcome] = 1.0
        return StateVector(d, 1, amps)
    k %= d
    m = np.arange(d)
    if k == 0:
        amps = omega[(outcome * m) % d] / np.sqrt(d)
    elif d % 2 == 1:
        # X Z^k |v> = lambda |v> recursion: c_m = lambda^-m omega^(k m(m-1)/2) c_0
        amps = omega[(k * (m * (m - 1) // 2) - outcome * m) % d] / np.sqrt(d)
    else:
        # d = 2 only: XZ has order 4 with eigenvalues +/- i
        lam = basis_eigenvalue(basis, outcome, d)
        amps = lam ** (-m.astype(float)) / np.sqrt(d)
    return StateVector(d, 1, amps)


@dataclass(frozen=True)
class MeasurementEvent:
    """A projective measurement: which qudit, which basis line, which outcome."""

    qudit: int
    basis: tuple[int, int]
    outcome: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", _line(self.basis))


def project(s: StateVector, event: MeasurementEvent) -> tuple[StateVector, float]:
    """Project out one qudit, returning the renormalized residual and the
    outcome probability (the squared norm of the unnormalized contraction)."""
    if not 0 <= event.qudit < s.n_qudits:
        raise ValueError(f"qudit {event.qudit} out of range")
    v = mub_eigenstate(event.basis, event.outcome, s.d).amps
    res = np.tensordot(v.conj(), s.reshaped(), axes=(0, event.qudit))
    prob = float(np.vdot(res, res).real)
    if prob < PROB_TOL:
        raise ZeroProbabilityError(f"outcome {event.outcome} in basis "
                                   f"{pauli_str([event.basis])} has probability {prob:.3e}")
    residual = StateVector(s.d, s.n_qudits - 1, res.reshape(-1) / np.sqrt(prob))
    return residual, prob


def _refuse_two_pure_sites(patterns: np.ndarray) -> None:
    """Raise ClassificationError at the first residue pattern of ``patterns``
    (..., 3 sites) with exactly two pure sites, which no stabilizer state has."""
    two = patterns[patterns.sum(-1) == 2]
    if len(two):
        kinds = ["pure" if p else "mixed" for p in two[0]]
        raise ClassificationError(f"purity pattern {kinds} is not a graph-state residue")


@dataclass(frozen=True, eq=False)
class PathTally:
    """Classified outcomes of all single measurements and measurement pairs,
    held as the read-only booleans ``first`` (4 q1, d+1 b1, 3 sites) over the
    lines of ``all_bases``: which sites of the residue of measuring qudit q1
    along b1 are pure. Three pure sites make a product, one an S_nB state and
    none a GHZ3 state; two raise ClassificationError. Residue sites are
    positions within the 3-qudit residual state.

    By the module docstring's rule the pattern decides every pair, so a first
    move leaves 3(d+1) product pairs if all three residue sites are pure,
    2(d+1) if one is and 3 if none is. Every reader is thus a closed form of
    the 4x3 tuple of ints ``moves``: per first qudit, the first moves leaving
    0, 1 or 3 pure residue sites. First-measurement classes total 4(d+1); ordered
    pairs total 12(d+1)^2. The readers take a first qudit 0..3, or None for
    all four.
    """

    d: int
    first: np.ndarray

    def __post_init__(self) -> None:
        n = self.d + 1
        first = np.asarray(self.first, dtype=bool).view()
        if first.shape != (4, n, 3):
            raise ValueError(f"expected an array of shape (4, {n}, 3)")
        _refuse_two_pure_sites(first)
        n_pure = first.sum(-1)
        counts = np.bincount((4 * np.arange(4)[:, None] + n_pure).ravel(), minlength=16)
        first.flags.writeable = False
        moves = tuple(map(tuple, counts.reshape(4, 4)[:, [0, 1, 3]].tolist()))
        vars(self).update(first=first, moves=moves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathTally):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.first, other.first)

    def first_counts(self, qudit: int | None = None) -> dict[str, int]:
        ghz3, snb, product = self._moves(qudit)
        return {PRODUCT: product, SNB: snb, GHZ3: ghz3}

    def pair_counts(self, qudit: int | None = None) -> dict[str, int]:
        return self._pairs(*self._moves(qudit))

    def persistency_histogram(self, qudit: int | None = None) -> dict[int, int]:
        """Paths binned by the measurement count after which entanglement is gone."""
        ghz3, snb, product = self._moves(qudit)
        pairs = self._pairs(ghz3, snb, 0)
        return {1: 3 * (self.d + 1) * product, 2: pairs[PRODUCT], 3: pairs[BELL]}

    def branch_tree(self, qudit: int = 0) -> list[dict]:
        """Per-branch counts for one first-qudit choice: first-measurement class,
        how many bases lead to it, and where its measurement pairs end up."""
        ghz3, snb, product = self._moves(qudit)
        return [{"first_class": kind, "first_count": sum(branch), "pairs": self._pairs(*branch)}
                for kind, branch in ((PRODUCT, (0, 0, product)), (SNB, (0, snb, 0)),
                                     (GHZ3, (ghz3, 0, 0)))
                if sum(branch)]

    def _moves(self, qudit: int | None) -> tuple[int, int, int]:
        """First moves of one or every first qudit that leave 0, 1 or 3 pure sites."""
        if qudit is not None and qudit not in range(4):
            raise ValueError(f"qudit must be 0..3 or None, got {qudit!r}")
        return tuple(map(sum, zip(*self.moves))) if qudit is None else self.moves[qudit]

    def _pairs(self, ghz3: int, snb: int, product: int) -> dict[str, int]:
        """Second-measurement classes after that many first moves of each class."""
        n = self.d + 1
        products = 3 * ghz3 + 2 * n * snb + 3 * n * product
        return {PRODUCT: products, BELL: 3 * n * (ghz3 + snb + product) - products}


# First-measurement rows that ``enumerate_paths`` eliminates together: it cuts
# the rows of all its tableaux into slices of this many, whatever their d.
_GROUP_ROWS = 4096


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


def enumerate_paths(tableaux: Iterable[Tableau]) -> list[PathTally]:
    """The tally of each tableau, in order, of any mix of primes d: the residue
    of every ordered single and pair of measurements. The first measurements
    of all tableaux, one row per (tableau, q1, b1), are eliminated in slices
    of _GROUP_ROWS rows, each row reduced by its own tableau's d, and each
    second measurement is classed by the rule of the module docstring."""
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
    return [PathTally(t.d, f.reshape(4, t.d + 1, 3))
            for t, f in zip(tableaux, np.split(first, stops[:-1]))]


@dataclass(frozen=True)
class PersistencyStats:
    """Averaged persistency over all paths with a fixed first qudit, the
    minimum over paths, and the normalized Bell-minus-product difference."""

    n_ave: Fraction
    n_min: int
    delta: Fraction


def persistency_stats(t: Tableau, tally: PathTally | None = None) -> PersistencyStats:
    """Persistency statistics of a four-qudit stabilizer state.

    A path scores 1 if entanglement is gone after the first measurement, 2 if
    after the second, and 3 otherwise; the average runs over the 3(d+1)^2
    paths with a fixed first qudit. The per-qudit statistics, closed forms of
    the tally's ``moves`` table, are checked to agree before the common value
    is returned. A fully product input scores 0. An already computed
    ``tally`` for the same state may be passed to avoid re-enumeration.
    """
    d = t.d
    if tally is None:
        (tally,) = enumerate_paths([t])
    # A state is a product exactly when every first move leaves three pure
    # sites: were site a mixed while every move on another site b left a pure,
    # then for each line at b some stabilizer on {a, b} would be nonzero on a
    # and on that line; those span two dimensions, a Bell pair of a and b,
    # which measuring a third site leaves mixed.
    if tally.first_counts()[PRODUCT] == 4 * (d + 1):
        return PersistencyStats(Fraction(0), 0, Fraction(0))
    total = 3 * (d + 1) ** 2
    per_qudit = []
    for q in range(4):
        hist = tally.persistency_histogram(q)
        pairs = tally.pair_counts(q)
        n_sum = sum(n * c for n, c in hist.items())
        per_qudit.append((n_sum, pairs[BELL], pairs[PRODUCT]))
    if len(set(per_qudit)) != 1:
        raise ClassificationError(
            "path statistics unexpectedly depend on the first qudit measured"
        )
    n_sum, bell, prod = per_qudit[0]
    hist = tally.persistency_histogram(0)
    n_min = 1 if hist[1] else (2 if hist[2] else 3)
    return PersistencyStats(Fraction(n_sum, total), n_min, Fraction(bell - prod, total))


def schmidt_bounds(t: Tableau) -> tuple[int, int]:
    """(lower, upper) bounds on the Schmidt measure log_d N_min, exact ints.

    Lower: the largest entropy of a bipartition, log_d of its Schmidt rank,
    a rank over GF(d): the largest of ``tableau_entropies``, as complementary
    site sets have equal entropy.
    Upper: the minimum number of single-site measurements that removes all
    entanglement, ``persistency_stats(t).n_min``. For the canonical graph
    states the two coincide and equal the Schmidt measure.
    """
    (entropy,) = tableau_entropies([t])
    return max(entropy.values()), persistency_stats(t).n_min
