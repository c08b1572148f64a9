"""Projective-measurement steering of four-qudit graph states.

Each qudit offers d+1 measurement bases (Z and XZ^k for k = 0..d-1), which
are pairwise mutually unbiased for prime d. The engine enumerates every
ordered single measurement and measurement pair, classifies the residual
state by its single-site purity pattern, and aggregates the results into
tallies, per-branch trees, and averaged persistency statistics.

The engine is exact: bases are lines of GF(d)^2, (0, 1) for Z and (1, k)
for XZ^k, and measuring qudit q of a ``Tableau`` along one clears the rows
with a nonzero symplectic product against a pivot row, zeroes the pivot, and
deletes q's columns (Gottesman, quant-ph/9802007). Residues are classed by
``states.tableau_entropy``, the exact entropy of sites on a tableau. One
elimination measures all four first qudits along all d+1 lines, then one per
first qudit measures all three second qudits along all (d+1)^2 line pairs;
each level's single-site entropies take one ``tableau_entropy`` call.
``project``, ``classify3`` and ``classify2`` are the single-event form on
dense vectors, with PROB_TOL and PURITY_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import all_subsystems, partial_trace, purity
from .pauli import check_prime, eliminate_mod, omega_powers, site_matrix
from .states import StateVector, Tableau, tableau_entropy

__all__ = [
    "ClassificationError",
    "MeasurementBasis",
    "MeasurementEvent",
    "PathTally",
    "PersistencyStats",
    "StateClass2",
    "StateClass3",
    "ZeroProbabilityError",
    "all_bases",
    "basis_eigenvalue",
    "basis_operator",
    "classify2",
    "classify3",
    "enumerate_paths",
    "mub_eigenstate",
    "persistency_stats",
    "project",
    "schmidt_bounds",
]

PURITY_TOL = 1e-7
PROB_TOL = 1e-9

GHZ3 = "ghz3"
SNB = "snb"
PRODUCT = "product"
BELL = "bell"


class ZeroProbabilityError(ValueError):
    """Raised when projecting onto an outcome of (numerically) zero probability."""


class ClassificationError(ValueError):
    """Raised when a purity pattern matches no graph-state residue class."""


@dataclass(frozen=True)
class MeasurementBasis:
    """One of the d+1 single-qudit bases: Z, or the eigenbasis of XZ^k."""

    kind: str  # "Z" or "XZ"
    power: int = 0  # the k in XZ^k; ignored for kind "Z"

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "XZ"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "Z":
            object.__setattr__(self, "power", 0)

    @classmethod
    def z(cls) -> "MeasurementBasis":
        return cls("Z")

    @classmethod
    def xz(cls, k: int) -> "MeasurementBasis":
        return cls("XZ", k)

    @property
    def name(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.power == 0:
            return "X"
        if self.power == 1:
            return "XZ"
        return f"XZ^{self.power}"


def all_bases(d: int) -> tuple[MeasurementBasis, ...]:
    """The d+1 distinct measurement bases on one qudit."""
    check_prime(d)
    return (MeasurementBasis.z(),) + tuple(MeasurementBasis.xz(k) for k in range(d))


def basis_operator(basis: MeasurementBasis, d: int) -> np.ndarray:
    """Dense single-qudit operator whose eigenbasis is measured."""
    if basis.kind == "Z":
        return site_matrix(d, 0, 1)
    return site_matrix(d, 1, basis.power % d)


def basis_eigenvalue(basis: MeasurementBasis, outcome: int, d: int) -> complex:
    """Eigenvalue attached to an outcome index under this module's convention."""
    omega = omega_powers(d)
    if basis.kind == "Z":
        return complex(omega[outcome % d])
    k = basis.power % d
    if k == 0:
        return complex(omega[(-outcome) % d])
    if d == 2:
        return complex(1j * (-1) ** (outcome % 2))
    return complex(omega[outcome % d])


def mub_eigenstate(basis: MeasurementBasis, outcome: int, d: int) -> StateVector:
    """Normalized eigenvector of the basis operator for a given outcome index.

    Conventions: Z outcome i is the computational vector e_i (eigenvalue
    omega^i); X outcome j is the Fourier vector with components omega^(j*m)
    (eigenvalue omega^-j); for XZ^k with k >= 1 outcomes are indexed by
    eigenvalue phase from omega^0 upward.
    """
    d = check_prime(d)
    outcome %= d
    omega = omega_powers(d)
    if basis.kind == "Z":
        amps = np.zeros(d, dtype=complex)
        amps[outcome] = 1.0
        return StateVector(d, 1, amps)
    k = basis.power % d
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
    """A projective measurement: which qudit, which basis, which outcome."""

    qudit: int
    basis: MeasurementBasis
    outcome: int


def project(s: StateVector, event: MeasurementEvent) -> tuple[StateVector, float]:
    """Project out one qudit, returning the renormalized residual and the
    outcome probability (the squared norm of the unnormalized contraction)."""
    if not 0 <= event.qudit < s.n_qudits:
        raise ValueError(f"qudit {event.qudit} out of range")
    v = mub_eigenstate(event.basis, event.outcome, s.d).amps
    res = np.tensordot(v.conj(), s.reshaped(), axes=(0, event.qudit))
    prob = float(np.vdot(res, res).real)
    if prob < PROB_TOL:
        raise ZeroProbabilityError(
            f"outcome {event.outcome} in basis {event.basis.name} has probability {prob:.3e}"
        )
    residual = StateVector(s.d, s.n_qudits - 1, res.reshape(-1) / np.sqrt(prob))
    return residual, prob


@dataclass(frozen=True)
class StateClass3:
    """Residue class after one measurement: product, S_nB, or a 3-particle
    maximally entangled state. ``separated`` is the 0-based position of the
    lone pure qudit for the S_nB case."""

    kind: str
    separated: int | None = None


@dataclass(frozen=True)
class StateClass2:
    """Residue class after two measurements: product or a generalized Bell pair."""

    kind: str


def _pure_sites(purities: np.ndarray, d: int) -> np.ndarray:
    """True where a single-site purity is 1, False where it is 1/d; any other
    value is no graph-state residue and raises ClassificationError."""
    pure = np.abs(purities - 1.0) <= PURITY_TOL
    odd = ~pure & (np.abs(purities - 1.0 / d) > PURITY_TOL)
    if odd.any():
        raise ClassificationError(
            f"single-site purity {purities[odd][0]} is neither 1 nor 1/{d}"
        )
    return pure


def classify3(s: StateVector) -> StateClass3:
    """Classify a 3-qudit projection residue by its single-site purities."""
    if s.n_qudits != 3:
        raise ValueError("classify3 expects a 3-qudit state")
    purities = [purity(partial_trace(s, (i,), validate=False)) for i in range(3)]
    return _class3(_pure_sites(np.array(purities), s.d).tolist())


def _class3(pure_sites: list[bool]) -> StateClass3:
    """Residue class of a 3-qudit purity pattern (True marks a pure site)."""
    count = sum(pure_sites)
    if count == 0:
        return StateClass3(GHZ3)
    if count == 3:
        return StateClass3(PRODUCT)
    if count == 1:
        return StateClass3(SNB, pure_sites.index(True))
    kinds = ["pure" if p else "mixed" for p in pure_sites]
    raise ClassificationError(f"purity pattern {kinds} is not a graph-state residue")


def classify2(s: StateVector) -> StateClass2:
    """Classify a 2-qudit projection residue: Bell-type or product."""
    if s.n_qudits != 2:
        raise ValueError("classify2 expects a 2-qudit state")
    pure = _pure_sites(np.array([purity(partial_trace(s, (0,), validate=False))]), s.d)
    return StateClass2(PRODUCT if pure[0] else BELL)


@dataclass(frozen=True)
class FirstMove:
    """One first measurement (qudit, basis), its residue class, and the class
    of every second measurement that can follow it. Second-qudit indices refer
    to positions within the 3-qudit residual state."""

    qudit: int
    basis: MeasurementBasis
    class3: StateClass3
    seconds: tuple[tuple[int, MeasurementBasis, str], ...]

    def pair_count(self, kind: str) -> int:
        return sum(1 for _, _, c in self.seconds if c == kind)


@dataclass(frozen=True)
class PathTally:
    """Classified outcomes of all single measurements and measurement pairs.

    First-measurement classes total 4(d+1); ordered pairs total 12(d+1)^2.
    """

    d: int
    moves: tuple[FirstMove, ...]

    def first_counts(self, qudit: int | None = None) -> dict[str, int]:
        counts = {PRODUCT: 0, SNB: 0, GHZ3: 0}
        for mv in self._moves(qudit):
            counts[mv.class3.kind] += 1
        return counts

    def pair_counts(self, qudit: int | None = None) -> dict[str, int]:
        counts = {PRODUCT: 0, BELL: 0}
        for mv in self._moves(qudit):
            counts[PRODUCT] += mv.pair_count(PRODUCT)
            counts[BELL] += mv.pair_count(BELL)
        return counts

    def persistency_histogram(self, qudit: int | None = None) -> dict[int, int]:
        """Paths binned by the measurement count after which entanglement is gone."""
        hist = {1: 0, 2: 0, 3: 0}
        for mv in self._moves(qudit):
            if mv.class3.kind == PRODUCT:
                hist[1] += len(mv.seconds)
                continue
            for _, _, c in mv.seconds:
                hist[2 if c == PRODUCT else 3] += 1
        return hist

    def branch_tree(self, qudit: int = 0) -> list[dict]:
        """Per-branch counts for one first-qudit choice: first-measurement class,
        how many bases lead to it, and where its measurement pairs end up."""
        branches: dict[str, dict] = {}
        for mv in self._moves(qudit):
            node = branches.setdefault(
                mv.class3.kind,
                {"first_class": mv.class3.kind, "first_count": 0,
                 "pairs": {PRODUCT: 0, BELL: 0}},
            )
            node["first_count"] += 1
            node["pairs"][PRODUCT] += mv.pair_count(PRODUCT)
            node["pairs"][BELL] += mv.pair_count(BELL)
        return [branches[k] for k in (PRODUCT, SNB, GHZ3) if k in branches]

    def _moves(self, qudit: int | None) -> tuple[FirstMove, ...]:
        if qudit is None:
            return self.moves
        return tuple(mv for mv in self.moves if mv.qudit == qudit)


def _measure_each(t: np.ndarray, d: int) -> np.ndarray:
    """Residual tableaux of measuring each qudit q of a batch ``t`` (..., rows,
    2n) along every line, in ``all_bases`` order: shape (n, ..., d+1, rows,
    2n-2), the other qudits' columns in order. Row operations commute with
    deleting columns, so q's columns are split off before the elimination."""
    n = t.shape[-1] // 2
    order = [[q] + [p for p in range(n) if p != q] for q in range(n)]
    cols = np.array([[c for p in sites for c in (2 * p, 2 * p + 1)] for sites in order])
    g = np.moveaxis(t[..., cols], -2, 0)[..., None, :, :]  # (n, ..., 1, rows, 2n)
    lines = np.array([(0, 1)] + [(1, k) for k in range(d)])
    col = (g[..., 0] * lines[:, 1:] - g[..., 1] * lines[:, :1]) % d  # symplectic products
    return eliminate_mod(np.broadcast_to(g[..., 2:], col.shape + (2 * n - 2,)), col, d)


def enumerate_paths(t: Tableau) -> PathTally:
    """Classify the residue of every ordered single and pair of measurements,
    one batched elimination per measurement level (see the module docstring).
    """
    d = t.d
    bases = all_bases(d)
    res3 = _measure_each(t.xz.reshape(4, 8), d)  # (q1, b1, rows, 6)
    firsts = (tableau_entropy(res3, ((0,), (1,), (2,)), d) == 0).tolist()
    labels = [((q2, b2, PRODUCT), (q2, b2, BELL)) for q2 in range(3) for b2 in bases]
    moves = []
    for q1 in range(4):
        pure = tableau_entropy(_measure_each(res3[q1], d), ((0,),), d)[..., 0] == 0
        seconds = pure.transpose(1, 0, 2).reshape(d + 1, -1).tolist()  # (b1, q2 b2)
        for b1, second, first in zip(bases, seconds, firsts[q1]):
            pairs = tuple(lab[0] if p else lab[1] for lab, p in zip(labels, second))
            moves.append(FirstMove(q1, b1, _class3(first), pairs))
    return PathTally(d, tuple(moves))


@dataclass(frozen=True)
class PersistencyStats:
    """Averaged persistency over all paths with a fixed first qudit, the
    minimum over paths, and the normalized Bell-minus-product difference."""

    n_ave: float
    n_min: int
    delta: float
    n_ave_exact: Fraction
    delta_exact: Fraction


def persistency_stats(t: Tableau, tally: PathTally | None = None) -> PersistencyStats:
    """Persistency statistics of a four-qudit stabilizer state.

    A path scores 1 if entanglement is gone after the first measurement, 2 if
    after the second, and 3 otherwise; the average runs over the 3(d+1)^2
    paths with a fixed first qudit. The per-qudit statistics are checked to
    agree before the common value is returned. A fully product input scores 0.
    An already computed ``tally`` for the same state may be passed to avoid
    re-enumeration.
    """
    d = t.d
    if (tableau_entropy(t.xz.reshape(4, 8), [(i,) for i in range(4)], d) == 0).all():
        return PersistencyStats(0.0, 0, 0.0, Fraction(0), Fraction(0))
    if tally is None:
        tally = enumerate_paths(t)
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
    n_ave = Fraction(n_sum, total)
    delta = Fraction(bell - prod, total)
    return PersistencyStats(float(n_ave), n_min, float(delta), n_ave, delta)


def schmidt_bounds(t: Tableau) -> tuple[float, int]:
    """(lower, upper) bounds on the Schmidt measure log_d N_min.

    Lower: the largest entropy of a bipartition, log_d of its Schmidt rank.
    Upper: the minimum number of single-site measurements that removes all
    entanglement, ``persistency_stats(t).n_min``. For the canonical graph
    states the two coincide and equal the Schmidt measure.
    """
    cuts = [keep for keep in all_subsystems(4, 2) if len(keep) == 1 or 0 in keep]
    lower = int(tableau_entropy(t.xz.reshape(4, 8), cuts, t.d).max())
    return float(lower), persistency_stats(t).n_min
