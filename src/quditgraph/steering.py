"""Projective-measurement steering of four-qudit graph states.

Each qudit offers d+1 measurement bases (Z and XZ^k for k = 0..d-1), which
are pairwise mutually unbiased for prime d. Every ordered single measurement
and measurement pair is classed by the single-site purity pattern of what it
leaves, and the classes are aggregated into tallies, per-branch trees and
averaged persistency statistics. All of it is a closed form of the graph's
six weights, in O(1) GF(d) arithmetic per graph: no state, no tableau and no
loop over the d+1 bases.

Bases are lines of GF(d)^2, (0, 1) for Z and (1, k) for XZ^k. The graph
state of Gamma is stabilized by the words that carry (p_n, (Gamma p)_n) on
each site n, one per p in GF(d)^4 (Gottesman, quant-ph/9802007). Measuring
qudit q along the line l = (x, z) keeps the words whose part on q lies in
<l> and drops q. A site s of the 3-qudit residue R is pure exactly when a
kept word acts on s alone, and nontrivially. With t1 and t2 the other two
sites, such a word vanishes at t1 and t2, so p = alpha e_q + beta e_s with

- alpha Gamma_tq + beta Gamma_ts = 0 at t = t1, t2: (alpha, beta) lies in the
  kernel of B = [[Gamma_t1q, Gamma_t1s], [Gamma_t2q, Gamma_t2s]], the cut block
  Gamma[{t1, t2}, {q, s}] of the pair {q, s}, whose rank is S({q, s});
- (beta, alpha Gamma_sq) != 0, its part on s;
- z alpha = x beta Gamma_qs, its part (alpha, beta Gamma_qs) on q lying in <l>.

Hence, by the rank of B over GF(d), the lines on which s is pure are

- at rank 0, every line: (0, 1) serves when x Gamma_qs = 0, and
  (x Gamma_qs, z) otherwise, its part (z, x Gamma_qs^2) on s being nonzero;
- at rank 2, none: the kernel is 0;
- at rank 1, with kernel <(alpha, beta)>: none if beta = alpha Gamma_sq = 0;
  otherwise every line if (alpha, beta Gamma_qs) = 0, and else the one line
  through it, Z if alpha = 0 and XZ^(beta Gamma_qs / alpha) if not.

Two cases show the rule at work. Z (x = 0) forces alpha = 0, so s is pure
exactly when it has no neighbour among t1 and t2: as far as the residue's
pure sites go, Z deletes q. XZ^k with k != 0 gives alpha = beta Gamma_qs / k,
so s is pure exactly when Gamma_ts + Gamma_tq Gamma_qs / k = 0 at both t:
the weight-1/k local complementation at q, then deletion (Hein, Eisert and
Briegel, PRA 69, 062311, give the qubit rules).

So for each first qudit q the three residue sites are pure on every line,
on none or on one, and the lines leaving 0, 1 or 3 pure sites are counted
from those three sets without visiting the lines. Exactly two pure sites
is no stabilizer state (S(c) = S(ab) <= S(a) + S(b) = 0), so a line with
two raises ``ClassificationError``.

Every second measurement is classed from R's purity pattern alone. Let R's
words span V (dim V = 3), measure site c along line l, and let a, b be the
other two sites. The measurement keeps the v in V with v_c in <l> and adds
l on c, so the pair (a, b) is stabilized by those v's restrictions; it is a
product exactly when site a is pure there, that is, when some v in V has
v_b = 0, v_a != 0 and v_c in <l>. With W = {v in V : v_b = 0}, a site set's
entropy being its size minus the dimension of V's vectors supported on it
gives dim W = 2 - S(b) and, for each site s, a nonzero v supported on s
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
  n_c's line.

So each site of a product residue has d+1 second measurements that leave a
product, each mixed site of an S_nB residue d+1 and its pure site none, and
each site of a GHZ3 residue exactly one. A tally keeps only the per-qudit
count of first moves by pure sites, and every pair count is a closed form of
it.

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
from .graphs import AdjacencyMatrix
from .measures import graph_entropies
from .pauli import check_prime, inv_mod, omega_powers, pauli_str
from .states import StateVector

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


@dataclass(frozen=True)
class PathTally:
    """Classified outcomes of all single measurements and measurement pairs,
    held as the 4x3 tuple of ints ``moves``: per first qudit q1, how many of
    its d+1 first moves leave 0, 1 or 3 pure residue sites, that is a GHZ3
    state, an S_nB state or a product.

    By the module docstring's rule the pattern decides every pair, so a first
    move leaves 3(d+1) product pairs if all three residue sites are pure,
    2(d+1) if one is and 3 if none is. Every reader is thus a closed form of
    ``moves``. First-measurement classes total 4(d+1); ordered pairs total
    12(d+1)^2. The readers take a first qudit 0..3, or None for all four.
    """

    d: int
    moves: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        moves = tuple(tuple(map(operator.index, row)) for row in self.moves)
        if (len(moves) != 4 or any(len(row) != 3 or min(row) < 0 or sum(row) != self.d + 1
                                   for row in moves)):
            raise ValueError(f"expected 4 rows of 3 counts >= 0 summing to {self.d + 1}")
        object.__setattr__(self, "moves", moves)

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


# A set of lines on which a residue site is pure: every line, no line (None),
# or the one line all_bases(d)[k], held as k >= 0.
EVERY_LINE = -1
# Per first qudit q, each residue site s in order as ({q, s}, s, t1, t2).
_RESIDUES = tuple(tuple(((min(q, s), max(q, s)), s, *(t for t in range(4) if t not in (q, s)))
                        for s in range(4) if s != q) for q in range(4))


def _pure_lines(w, d: int, q: int, s: int, t1: int, t2: int) -> int | None:
    """The lines of qudit q whose measurement leaves site s pure, for the graph
    of weights ``w`` mod d whose block B of the module docstring has rank 1,
    by the kernel of B."""
    a, b, c, e = w[t1][q], w[t1][s], w[t2][q], w[t2][s]
    alpha, beta = (b, -a) if a or b else (e, -c)  # a nonzero row (r, t) has kernel <(t, -r)>
    if not beta and not alpha * w[s][q] % d:
        return None
    z = beta * w[q][s] % d
    if alpha:
        return 1 + z * inv_mod(alpha, d) % d  # XZ^(beta Gamma_qs / alpha)
    return 0 if z else EVERY_LINE


def _qudit_moves(d: int, lines: list) -> tuple[int, int, int]:
    """How many of a first qudit's d+1 lines leave 0, 1 or 3 pure residue
    sites, from each site's ``_pure_lines``; a line leaving two raises
    ClassificationError."""
    every = lines.count(EVERY_LINE)
    special = {}  # the lines with a site of their own, and how many
    for k in lines:
        if k is not None and k != EVERY_LINE:
            special[k] = special.get(k, 0) + 1
    counts = [0, 0, 0, 0]
    counts[every] += d + 1 - len(special)
    for extra in special.values():
        counts[every + extra] += 1
    if counts[2]:
        k = next((k for k, extra in special.items() if every + extra == 2), EVERY_LINE)
        kinds = ["pure" if k_s in (EVERY_LINE, k) else "mixed" for k_s in lines]
        raise ClassificationError(f"purity pattern {kinds} is not a graph-state residue")
    return counts[0], counts[1], counts[3]


def enumerate_paths(graphs: Iterable[AdjacencyMatrix]) -> list[PathTally]:
    """The tally of each graph state, in order, of any mix of primes d: the
    residue of every ordered single and pair of measurements, by the rule of
    the module docstring."""
    tallies = []
    for g in graphs:
        w, d, entropy = g.entries, g.d, graph_entropies(g)
        # B is the cut block of {q, s}, so its rank is S({q, s}): s is pure on
        # every line at rank 0, on none at rank 2, and by B's kernel at rank 1
        moves = tuple(_qudit_moves(d, [_pure_lines(w, d, q, s, t1, t2) if entropy[pair] == 1
                                       else EVERY_LINE if entropy[pair] == 0 else None
                                       for pair, s, t1, t2 in residue])
                      for q, residue in enumerate(_RESIDUES))
        tallies.append(PathTally(d, moves))
    return tallies


@dataclass(frozen=True)
class PersistencyStats:
    """Averaged persistency over all paths with a fixed first qudit, the
    minimum over paths, and the normalized Bell-minus-product difference."""

    n_ave: Fraction
    n_min: int
    delta: Fraction


def persistency_stats(tally: PathTally) -> PersistencyStats:
    """Persistency statistics of a four-qudit graph state from its tally.

    A path scores 1 if entanglement is gone after the first measurement, 2 if
    after the second, and 3 otherwise; the average runs over the 3(d+1)^2
    paths with a fixed first qudit. The statistics are closed forms of one
    row of ``moves``, and distinct rows give distinct statistics, so every
    first qudit is checked to have the same row. A fully product input
    scores 0.
    """
    n = tally.d + 1
    # A state is a product exactly when every first move leaves three pure
    # sites: were site a mixed while every move on another site b left a pure,
    # then for each line at b some stabilizer on {a, b} would be nonzero on a
    # and on that line; those span two dimensions, a Bell pair of a and b,
    # which measuring a third site leaves mixed.
    if all(row[2] == n for row in tally.moves):
        return PersistencyStats(Fraction(0), 0, Fraction(0))
    if len(set(tally.moves)) != 1:
        raise ClassificationError(
            "path statistics unexpectedly depend on the first qudit measured"
        )
    total = 3 * n * n
    hist, pairs = tally.persistency_histogram(0), tally.pair_counts(0)
    n_sum = sum(k * paths for k, paths in hist.items())
    # without a first move to a product, a path ends at 2: a GHZ3 or S_nB
    # residue has a second measurement that leaves a product
    return PersistencyStats(Fraction(n_sum, total), 1 if hist[1] else 2,
                            Fraction(pairs[BELL] - pairs[PRODUCT], total))


def schmidt_bounds(g: AdjacencyMatrix) -> tuple[int, int]:
    """(lower, upper) bounds on the Schmidt measure log_d N_min, exact ints.

    Lower: the largest entropy of a bipartition, log_d of its Schmidt rank,
    a rank over GF(d): the largest of ``graph_entropies``, as complementary
    site sets have equal entropy.
    Upper: the minimum number of single-site measurements that removes all
    entanglement, ``persistency_stats``' ``n_min``. For the canonical graph
    states the two coincide and equal the Schmidt measure.
    """
    (tally,) = enumerate_paths([g])
    return max(graph_entropies(g).values()), persistency_stats(tally).n_min
