"""Graph-state stabilizer tableaux, exact phase tables, and dense states.

A graph state over the standard product basis |j1, j2, j3, j4> (first qudit
slowest) carries the amplitude omega^(sum over edges of w_nm * j_n * j_m) / d^2,
each edge counted once, and is the simultaneous +1 eigenstate of the four
generators X_n (x) Z_m^w_nm, whose phase-free rows form its ``Tableau``
(``stabilizer_group`` lists all d^4 of their products, phases included),
and ``stabilizer_exponents`` checks the rows on the exact ``phase_exponents``.
``StateVector``, ``build_state``, ``apply_local_fourier`` and
``family_reduced_state`` are the dense complex form: no command runs them,
and they stay only as spans the benchmark tracer names (``SPANS`` in
``perfbench/child.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .graphs import (N_VERTICES, PAIRS, AdjacencyMatrix, cluster_graph, gamma_graph, ghz_graph,
                     p_graph)
from .pauli import check_prime, omega_powers, rank_mod

__all__ = [
    "StateVector",
    "Tableau",
    "apply_local_fourier",
    "build_state",
    "family_fourier_sites",
    "family_graph",
    "family_reduced_state",
    "phase_exponents",
    "stabilizer_exponents",
    "stabilizer_group",
    "stabilizer_tableau",
    "stabilizer_tableaux",
    "tableau_batch",
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

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape((self.d,) * self.n_qudits)


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
    for (n, m), w in zip(PAIRS, g.weights):
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


def stabilizer_group(g: AdjacencyMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All d^4 stabilizers g_1^p1 g_2^p2 g_3^p3 g_4^p4 of the graph state of g,
    first power slowest: the powers p (d^4, 4), the normal-ordered rows
    (d^4, 4, 2), site n carrying (p_n, sum_m w_nm p_m) mod d, and the phase
    exponents sum_{n>m} w_nm p_n p_m mod d (d^4,) that collecting the per-site
    factors leaves."""
    d, gamma = g.d, g.as_array()
    powers = np.indices((d,) * N_VERTICES).reshape(N_VERTICES, -1).T
    rows = np.stack([powers, powers @ gamma % d], axis=-1)
    phases = ((powers @ np.triu(gamma, 1)) * powers).sum(axis=1) % d
    return powers, rows, phases


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
    becomes (z, -x), as the gate takes Z to X and X to Z^-1; the phase
    omega^(-x z) this leaves is 1, as no generator has both on one site.
    One ``tableau_batch``."""
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

