"""Dense reference routes the tests hold the exact package to.

Complex state vectors and matrices, compared within float tolerances: Pauli
words as dense matrices and acting on dense states, the density-matrix
checks, the stabilizer expansion of a reduced state, concurrence and the
wedge product, the single-event steering classes and the purity-profile
class oracle. The package keeps only the dense functions that the benchmark
tracer wraps (``SPANS`` in ``perfbench/child.py``); this module builds on
them. pytest does not collect it (it is no ``test_*.py`` file); tests
import it as ``dense``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from quditgraph.classify import profile_class
from quditgraph.graphs import N_VERTICES, AdjacencyMatrix
from quditgraph.measures import PurityProfile, partial_trace, purity, purity_profile
from quditgraph.pauli import check_prime, omega_powers
from quditgraph.states import StateVector, build_state, stabilizer_group
from quditgraph.steering import ClassificationError

from engine import _refuse_two_pure_sites

# Hermiticity and unit-trace deviation of a density matrix, and its most
# negative eigenvalue.
HERM_TOL = 1e-10
PSD_TOL = 1e-9
# Overlap deficit of equals_up_to_phase and residual norm of verify_eigen.
EIGEN_TOL = 1e-9
# Float purities within these of d^-size (k-MM) and of 1 or 1/d (residue sites) count as equal.
MM_TOL = 1e-9
PURITY_TOL = 1e-7
MAX_DENSE_DIM = 4096


# Pauli words as matrices and on states.

def site_matrix(d: int, x: int, z: int) -> np.ndarray:
    """Dense d x d matrix of X^x Z^z, acting as |k> -> omega^(z*k) |k+x>."""
    omega = omega_powers(d)
    m = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m[(k + x) % d, k] = omega[(z * k) % d]
    return m


def dense_matrix(d: int, rows, phase: int = 0) -> np.ndarray:
    """Dense matrix of the word omega^phase * prod_site X^x Z^z, rows its (x, z)
    pairs, for systems of dimension at most MAX_DENSE_DIM."""
    rows = np.asarray(rows)
    dim = d ** len(rows)
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense matrix of dimension {dim} exceeds {MAX_DENSE_DIM}")
    m = np.array([[omega_powers(d)[phase % d]]])
    for x, z in rows:
        m = np.kron(m, site_matrix(d, x, z))
    return m


def apply_pauli(s: StateVector, rows, phase: int = 0) -> StateVector:
    """Apply the word omega^phase * prod_site X^x Z^z, rows its (x, z) pairs,
    to a state without building its dense matrix."""
    if np.shape(rows) != (s.n_qudits, 2):
        raise ValueError("word and state dimensions do not match")
    d = s.d
    omega = omega_powers(d)
    arr = s.reshaped().copy()
    for site, (x, z) in enumerate(rows):
        if z:
            shape = [1] * s.n_qudits
            shape[site] = d
            arr = arr * omega[(z * np.arange(d)) % d].reshape(shape)
        if x:
            arr = np.roll(arr, x, axis=site)
    arr = arr * omega[phase % d]
    return StateVector(d, s.n_qudits, arr.reshape(-1))


def verify_eigen(s: StateVector, rows, phase: int = 0) -> int | None:
    """Eigenvalue exponent r with w|s> = omega^r |s> for the word w of ``rows``
    and ``phase`` (as in ``apply_pauli``), within EIGEN_TOL, or None if s is
    not an eigenstate."""
    ws = apply_pauli(s, rows, phase)
    val = np.vdot(s.amps, ws.amps)
    d = s.d
    r = int(np.round(d * np.angle(val) / (2 * np.pi))) % d
    if np.linalg.norm(ws.amps - omega_powers(d)[r] * s.amps) <= EIGEN_TOL:
        return r
    return None


# Reference states.

def basis_state(d: int, indices: Sequence[int]) -> StateVector:
    """The computational basis state |indices>."""
    n = len(indices)
    amps = np.zeros(d**n, dtype=complex)
    amps[int(np.ravel_multi_index(tuple(indices), (d,) * n))] = 1.0
    return StateVector(d, n, amps)


def equals_up_to_phase(s: StateVector, other: StateVector) -> bool:
    """True when |<s|other>| >= 1 - EIGEN_TOL, i.e. equal up to a global phase."""
    if s.d != other.d or s.n_qudits != other.n_qudits:
        raise ValueError("states live in different Hilbert spaces")
    return abs(np.vdot(s.amps, other.amps)) >= 1.0 - EIGEN_TOL


def permute_qudits(s: StateVector, axes: Sequence[int]) -> StateVector:
    """Reorder qudits so that new position i carries old qudit axes[i]."""
    if sorted(axes) != list(range(s.n_qudits)):
        raise ValueError("axes must be a permutation of the qudit positions")
    return StateVector(s.d, s.n_qudits, s.reshaped().transpose(tuple(axes)).reshape(-1))


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


# Reduced states and measures.

def checked_density(m, d: int, n_sites: int) -> np.ndarray:
    """``m`` as a read-only complex matrix once it passes the density-matrix
    checks: shape (d^n, d^n), Hermitian and of unit trace within HERM_TOL,
    and positive semidefinite within PSD_TOL; ValueError otherwise."""
    m = np.array(m, dtype=complex)
    dim = d**n_sites
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
        raise ValueError("reduced state is not Hermitian")
    if abs(np.trace(m).real - 1.0) > HERM_TOL:
        raise ValueError("reduced state does not have unit trace")
    if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
        raise ValueError("reduced state is not positive semidefinite")
    m.flags.writeable = False
    return m


def reduced_state(s: StateVector, keep) -> np.ndarray:
    """``partial_trace(s, keep)``, held to the ``checked_density`` checks."""
    return checked_density(partial_trace(s, keep), s.d, len(tuple(keep)))


def reduced_from_stabilizers(g: AdjacencyMatrix, keep) -> np.ndarray:
    """Reduced density matrix via the stabilizer expansion, checked.

    Tracing a site kills every stabilizer that is not the identity there, so
    the reduced state is d^(traced - 4) times the sum of the surviving words
    restricted to the kept sites, phases included.
    """
    keep = tuple(keep)
    if not 1 <= len(keep) <= 2:
        raise ValueError("stabilizer-trace route supports subsystems of size 1 or 2")
    d = g.d
    traced = [i for i in range(N_VERTICES) if i not in keep]
    _, rows, phases = stabilizer_group(g)
    survives = ~rows[:, traced].any(axis=(1, 2))
    acc = sum(dense_matrix(d, r[list(keep)], phase)
              for r, phase in zip(rows[survives], phases[survives]))
    return checked_density(acc * float(d) ** (len(traced) - N_VERTICES), d, len(keep))


def is_k_mm_float(profile: PurityProfile, k: int) -> bool:
    """True when every float purity of size <= k is within MM_TOL of d^-size."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2 for four-particle systems")
    return all(abs(v - profile.d ** (-len(keep))) <= MM_TOL
               for keep, v in profile.values.items() if len(keep) <= k)


def concurrence(s: StateVector, keep) -> float:
    """Bipartite concurrence of a pure state: sqrt(1 - purity)."""
    return float(np.sqrt(max(0.0, 1.0 - purity(partial_trace(s, keep)))))


def wedge_measure(s: StateVector, keep) -> float:
    """Sum over unordered pairs of associated states of the squared wedge product.

    W^2(a, a') = <a|a><a'|a'> - |<a|a'>|^2, summed over a < a', the inner
    products read off the Gram matrix of the associated states, which is the
    partial trace. Twice this equals 1 - purity for any bipartition of a pure
    state.
    """
    gram = partial_trace(s, keep)
    norms = np.diag(gram).real
    total = 0.0
    for a in range(len(norms)):
        for b in range(a + 1, len(norms)):
            total += norms[a] * norms[b] - abs(gram[a, b]) ** 2
    return float(total)


# Steering residues and the class oracle.

def pure_sites(purities: np.ndarray, d: int) -> np.ndarray:
    """True where a single-site purity is 1, False where it is 1/d; any other
    value is no graph-state residue and raises ClassificationError."""
    pure = np.abs(purities - 1.0) <= PURITY_TOL
    odd = ~pure & (np.abs(purities - 1.0 / d) > PURITY_TOL)
    if odd.any():
        raise ClassificationError(
            f"single-site purity {purities[odd][0]} is neither 1 nor 1/{d}"
        )
    return pure


def classify3(s: StateVector) -> tuple[bool, bool, bool]:
    """Pure-site pattern of a 3-qudit projection residue, a row of
    ``engine.first_patterns``: three pure sites make a product, one an S_nB state
    and none a GHZ3 state."""
    if s.n_qudits != 3:
        raise ValueError("classify3 expects a 3-qudit state")
    pure = pure_sites(np.array([purity(partial_trace(s, (i,))) for i in range(3)]), s.d)
    _refuse_two_pure_sites(pure)
    return tuple(pure.tolist())


def classify2(s: StateVector) -> bool:
    """True when a 2-qudit projection residue is a product, False for a Bell pair."""
    if s.n_qudits != 2:
        raise ValueError("classify2 expects a 2-qudit state")
    return bool(pure_sites(np.array([purity(partial_trace(s, (0,)))]), s.d)[0])


def purity_class(g: AdjacencyMatrix) -> str:
    """Class of a graph by the dense route: build its state, take every purity."""
    return profile_class(purity_profile(build_state(g)))
