"""Graph-state construction, stabilizer tableaux, and reduced forms.

States are dense complex vectors over the standard product basis
|j1, j2, j3, j4>, stored row-major with the first qudit slowest. A graph
state carries the amplitude omega^(sum over edges of w_nm * j_n * j_m) / d^2,
each edge counted once, and is the simultaneous +1 eigenstate of the four
generators X_n (x) Z_m^w_nm, whose phase-free rows form its ``Tableau``;
``tableau_entropy`` reads the exact entanglement of any sites off the rows,
and ``stabilizer_exponents`` checks the rows on the exact ``phase_exponents``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import N_VERTICES, AdjacencyMatrix, cluster_graph, gamma_graph, ghz_graph, p_graph
from .pauli import PauliWord, check_prime, omega_powers, rank_mod

__all__ = [
    "StateVector",
    "Tableau",
    "apply_local_fourier",
    "apply_pauli",
    "build_state",
    "family_fourier_sites",
    "family_graph",
    "family_reduced_state",
    "ghz3_state",
    "iter_stabilizers",
    "phase_exponents",
    "psi_gamma",
    "stabilizer",
    "stabilizer_exponents",
    "stabilizer_tableau",
    "stabilizer_tableaux",
    "tableau_batch",
    "tableau_entropy",
    "verify_eigen",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``n_qudits`` d-level systems."""

    d: int
    n_qudits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        d = check_prime(self.d)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (d**self.n_qudits,):
            raise ValueError(
                f"expected {d**self.n_qudits} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def basis_state(cls, d: int, indices: Sequence[int]) -> "StateVector":
        n = len(indices)
        amps = np.zeros(d**n, dtype=complex)
        amps[int(np.ravel_multi_index(tuple(indices), (d,) * n))] = 1.0
        return cls(d, n, amps)

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape((self.d,) * self.n_qudits)

    def equals_up_to_phase(self, other: "StateVector", tol: float = 1e-9) -> bool:
        """True when |<self|other>| >= 1 - tol, i.e. equal up to a global phase."""
        self._check_compatible(other)
        return abs(np.vdot(self.amps, other.amps)) >= 1.0 - tol

    def permute_qudits(self, axes: Sequence[int]) -> "StateVector":
        """Reorder qudits so that new position i carries old qudit axes[i]."""
        if sorted(axes) != list(range(self.n_qudits)):
            raise ValueError("axes must be a permutation of the qudit positions")
        arr = self.reshaped().transpose(tuple(axes)).reshape(-1)
        return StateVector(self.d, self.n_qudits, arr)

    def _check_compatible(self, other: "StateVector") -> None:
        if self.d != other.d or self.n_qudits != other.n_qudits:
            raise ValueError("states live in different Hilbert spaces")


def phase_exponents(g: AdjacencyMatrix, fourier_sites: Iterable[int] = ()) -> np.ndarray:
    """Amplitude exponents sum_{n<m} w_nm j_n j_m mod d as an int array of shape (d,)*4.

    After ``apply_local_fourier`` on a set S of pairwise unjoined sites the
    amplitudes are omega^e * d^(|S|/2 - 2) on the support j_s = sum_m w_sm j_m
    (mod d) for s in S, e summed over the edges with no end in S; -1 off it."""
    d = g.d
    sites = sorted(set(fourier_sites))
    if any(not 0 <= q < N_VERTICES for q in sites) or any(
            g.entries[s][t] for s, t in combinations(sites, 2)):
        raise ValueError(f"Fourier sites {sites} must be pairwise unjoined vertices")
    idx = np.indices((d,) * N_VERTICES, sparse=True)  # broadcast axes, not d^4 x 4 digits
    exponent = np.zeros((d,) * N_VERTICES, dtype=int)
    for n, m in combinations(range(N_VERTICES), 2):
        w = g.entries[n][m]
        if w and n not in sites and m not in sites:
            exponent += w * idx[n] * idx[m]
    exponent %= d
    for s in sites:
        off = sum(g.entries[s][m] * idx[m] for m in range(N_VERTICES)) - idx[s]
        exponent = np.where(off % d == 0, exponent, -1)
    return exponent


def build_state(g: AdjacencyMatrix) -> StateVector:
    """Graph state of g: amplitudes omega^(sum_{n<m} w_nm j_n j_m) / d^2."""
    amps = omega_powers(g.d)[phase_exponents(g)] / g.d**2
    return StateVector(g.d, N_VERTICES, amps.reshape(-1))


def stabilizer(g: AdjacencyMatrix, powers: Sequence[int]) -> PauliWord:
    """Stabilizer g_1^p1 g_2^p2 g_3^p3 g_4^p4 in normal-ordered form.

    Collecting the per-site factors yields the phase exponent
    sum_{n>m} w_nm p_n p_m and site powers (p_n, sum_m w_nm p_m).
    """
    d = g.d
    p = [int(v) % d for v in powers]
    if len(p) != N_VERTICES:
        raise ValueError("need one power per vertex")
    phase = sum(
        g.entries[n][m] * p[n] * p[m]
        for n in range(N_VERTICES)
        for m in range(n)
    )
    z = [sum(g.entries[n][m] * p[m] for m in range(N_VERTICES)) % d for n in range(N_VERTICES)]
    return PauliWord.from_powers(d, p, z, phase)


@dataclass(frozen=True, eq=False)
class Tableau:
    """Stabilizer tableau of a pure four-qudit state over GF(d): ``xz[n, q]`` is
    the (x, z) pair of generator n on qudit q; rows commute and are independent.
    Phases are left out, as no residue class or cut rank depends on them.
    Checked as a ``tableau_batch`` of one."""

    d: int
    xz: np.ndarray

    def __post_init__(self) -> None:
        (t,) = tableau_batch([self.d], [self.xz])
        vars(self).update(vars(t))  # the checked d and read-only rows


def tableau_batch(d_values: Sequence[int], xz_values: Sequence) -> list[Tableau]:
    """``Tableau(d, xz)`` of each d and xz, of any mix of primes, checked in one
    batch: the rows (k, 4, 4, 2), reduced mod each d, pass one commutation
    product and one ``rank_mod`` call with an array modulus, or ValueError."""
    d_values = [check_prime(d) for d in d_values]
    if any(np.asarray(xz).dtype.kind not in "iu" or np.shape(xz) != (N_VERTICES, N_VERTICES, 2)
           for xz in xz_values):
        raise ValueError(f"expected a {N_VERTICES}x{N_VERTICES}x2 integer array")
    d = np.array(d_values, dtype=np.int64)
    xz = np.array(xz_values, dtype=np.int64).reshape(-1, N_VERTICES, N_VERTICES, 2)
    xz %= d[:, None, None, None]
    x_z = xz[..., 0] @ np.swapaxes(xz[..., 1], -1, -2)  # x_n . z_m; rows commute iff symmetric
    if (((x_z - np.swapaxes(x_z, -1, -2)) % d[:, None, None]).any()
            or (rank_mod(xz.reshape(len(d), N_VERTICES, 2 * N_VERTICES), d) < N_VERTICES).any()):
        raise ValueError("tableau rows must commute pairwise and be independent")
    xz.flags.writeable = False
    tableaux = [object.__new__(Tableau) for _ in d_values]  # checked, so no __post_init__
    for t, d_t, rows in zip(tableaux, d_values, xz):
        vars(t).update(d=d_t, xz=rows)
    return tableaux


def stabilizer_tableaux(graphs_and_sites: Iterable[tuple]) -> list[Tableau]:
    """Tableau of the graph state of each g, rows X_n Z^Gamma_n, in the frame
    where ``apply_local_fourier`` acted on its sites: there each pair (x, z)
    becomes (z, -x), as in ``fourier_conjugate``. One ``tableau_batch``."""
    pairs = list(graphs_and_sites)
    fourier = np.zeros((len(pairs), 1, N_VERTICES), dtype=bool)  # by qudit
    for mask, (_, sites) in zip(fourier, pairs):
        if any(not 0 <= q < N_VERTICES for q in sites):
            raise ValueError(f"Fourier sites {sorted(set(sites))} out of range")
        mask[0, list(sites)] = True
    eye = np.eye(N_VERTICES, dtype=np.int64)
    gamma = np.array([g.entries for g, _ in pairs], dtype=np.int64).reshape((-1,) + eye.shape)
    xz = np.stack([np.where(fourier, gamma, eye), np.where(fourier, -eye, gamma)], axis=-1)
    return tableau_batch([g.d for g, _ in pairs], xz)


def stabilizer_tableau(g: AdjacencyMatrix, fourier_sites: Sequence[int]) -> Tableau:
    """``stabilizer_tableaux`` of the one graph g with ``fourier_sites``."""
    (t,) = stabilizer_tableaux([(g, fourier_sites)])
    return t


def stabilizer_exponents(e: np.ndarray, t: Tableau) -> list[int | None]:
    """Exponent r of each row (x, z) of t with X^x Z^z |psi> = omega^r |psi>, or
    None where the row does not fix psi, for psi = omega^e(j) on the support
    e >= 0 of a ``phase_exponents`` table e (one magnitude throughout). Exact:
    (X^x Z^z psi)(j) = omega^(z.(j - x)) psi(j - x), so the row fixes psi iff
    it keeps the support and (e(j - x) + z.(j - x) - e(j)) mod d is one r on it."""
    idx = np.indices(e.shape, sparse=True)
    support = e >= 0
    exponents = []
    for x, z in (rows.T.tolist() for rows in t.xz):
        moved = np.roll(e, x, axis=tuple(range(N_VERTICES)))
        r = (moved + sum(zq * (j - xq) for zq, j, xq in zip(z, idx, x)) - e)[support] % t.d
        same = np.array_equal(moved >= 0, support) and (r == r[0]).all()
        exponents.append(int(r[0]) if same else None)
    return exponents


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


def iter_stabilizers(g: AdjacencyMatrix) -> Iterator[tuple[tuple[int, ...], PauliWord]]:
    """All d^4 stabilizers, keyed by their generator powers."""
    for p in product(range(g.d), repeat=N_VERTICES):
        yield p, stabilizer(g, p)


def apply_pauli(s: StateVector, w: PauliWord) -> StateVector:
    """Apply a Pauli word to a state without building its dense matrix."""
    if w.d != s.d or w.n_qudits != s.n_qudits:
        raise ValueError("word and state dimensions do not match")
    d = s.d
    omega = omega_powers(d)
    arr = s.reshaped().copy()
    for site, (x, z) in enumerate(w.xz):
        if z:
            shape = [1] * s.n_qudits
            shape[site] = d
            arr = arr * omega[(z * np.arange(d)) % d].reshape(shape)
        if x:
            arr = np.roll(arr, x, axis=site)
    arr = arr * omega[w.phase]
    return StateVector(d, s.n_qudits, arr.reshape(-1))


def verify_eigen(s: StateVector, w: PauliWord, tol: float = 1e-9) -> int | None:
    """Eigenvalue exponent r with w|s> = omega^r |s>, or None if not an eigenstate."""
    ws = apply_pauli(s, w)
    val = np.vdot(s.amps, ws.amps)
    d = s.d
    r = int(np.round(d * np.angle(val) / (2 * np.pi))) % d
    if np.linalg.norm(ws.amps - omega_powers(d)[r] * s.amps) <= tol:
        return r
    return None


def psi_gamma(gamma: int, d: int) -> StateVector:
    """The two-index family (1/d) sum_{i,k} |i, i+gamma*k, k, i+k>.

    gamma = 1 is the reduced square-graph state, gamma = -1 the reduced state
    of the third class, gamma = 0 the reduced open-chain state.
    """
    d = check_prime(d)
    gamma %= d
    arr = np.zeros((d,) * N_VERTICES, dtype=complex)
    for i in range(d):
        for k in range(d):
            arr[i, (i + gamma * k) % d, k, (i + k) % d] = 1.0 / d
    return StateVector(d, N_VERTICES, arr.reshape(-1))


def ghz3_state(d: int) -> StateVector:
    """Three-qudit maximally entangled reference state sum |i,i,i> / sqrt(d)."""
    arr = np.zeros((d,) * 3, dtype=complex)
    for i in range(d):
        arr[i, i, i] = 1.0
    return StateVector(d, 3, arr.reshape(-1) / np.sqrt(d))


def apply_local_fourier(s: StateVector, sites: Iterable[int]) -> StateVector:
    """Apply the single-qudit gate |k> -> d^(-1/2) sum_j omega^(-jk) |j> at each site.

    This is the transform that carries X eigenstates to the standard basis,
    collapsing the internal Fourier sums of graph states into their short
    reduced forms.
    """
    d = s.d
    omega = omega_powers(d)
    gate = omega[(-np.outer(np.arange(d), np.arange(d))) % d] / np.sqrt(d)
    arr = s.reshaped()
    for site in sorted(set(sites)):
        if not 0 <= site < s.n_qudits:
            raise ValueError(f"site {site} out of range")
        arr = np.moveaxis(np.tensordot(gate, arr, axes=([1], [site])), 0, site)
    return StateVector(d, s.n_qudits, arr.reshape(-1))


_FAMILY_GRAPHS = {"G": ghz_graph, "C": cluster_graph, "P": p_graph}
_FAMILY_FOURIER_SITES = {"G": (1, 2, 3), "C": (1, 3), "P": (1, 3), "psi": (1, 3)}


def family_graph(name: str, d: int, gamma: int | None = None) -> AdjacencyMatrix:
    """Graph of a named family: G, C, P, or psi (requires gamma)."""
    if name == "psi":
        if gamma is None:
            raise ValueError("family psi requires a gamma value")
        return gamma_graph(gamma, d)
    try:
        return _FAMILY_GRAPHS[name](d)
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected G, C, P, or psi") from None


def family_fourier_sites(name: str) -> tuple[int, ...]:
    """Sites whose Fourier transform collapses the family state to reduced form."""
    try:
        return _FAMILY_FOURIER_SITES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def family_reduced_state(name: str, d: int, gamma: int | None = None) -> StateVector:
    """Fourier-reduced state of a family (the short equal-weight form)."""
    g = family_graph(name, d, gamma)
    return apply_local_fourier(build_state(g), family_fourier_sites(name))

