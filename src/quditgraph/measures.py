"""Reduced states, purities, and derived entanglement measures.

Two independent routes produce reduced density matrices: contracting the
state vector (the Gram matrix of associated states) and summing the dense
matrices of the stabilizers that survive the partial trace. Purity-based
quantities (k-MM tests, concurrence, the summed wedge product) all live on
top of the first route; the second exists so the two can be cross-checked.
A third route is exact and builds no state: ``tableau_purity_profiles``
reads each purity d^-entropy off stabilizer ``Tableau``s, all in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .graphs import N_VERTICES, AdjacencyMatrix
from .pauli import dense_matrix
from .states import StateVector, Tableau, stabilizer_group, tableau_entropy

__all__ = [
    "PurityProfile",
    "ReducedState",
    "all_subsystems",
    "concurrence",
    "is_k_mm",
    "max_identity_factors",
    "partial_trace",
    "purity",
    "purity_profile",
    "reduced_from_stabilizers",
    "subsystem_label",
    "tableau_purity_profiles",
    "wedge_measure",
]

HERM_TOL = 1e-10
PSD_TOL = 1e-9
# Float purities within these of 1/d (pairs), 1 (profile_class) or d^-size (k-MM) count as equal.
PAIR_TOL = 1e-7
MM_TOL = 1e-9


def subsystem_label(keep: tuple[int, ...]) -> str:
    """1-based label of a subsystem, e.g. (0, 2) -> "13"."""
    return "".join(str(i + 1) for i in keep)


def all_subsystems(n_qudits: int = N_VERTICES, max_size: int = 2) -> tuple[tuple[int, ...], ...]:
    """All kept-site tuples of size 1..max_size, in lexicographic order."""
    out = []
    for size in range(1, max_size + 1):
        out.extend(combinations(range(n_qudits), size))
    return tuple(out)


@dataclass(frozen=True)
class ReducedState:
    """Hermitian, unit-trace, positive semidefinite density matrix of a subsystem."""

    matrix: np.ndarray
    keep: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        dim = self.d ** len(self.keep)
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise ValueError("reduced state is not Hermitian")
        if abs(np.trace(m).real - 1.0) > HERM_TOL:
            raise ValueError("reduced state does not have unit trace")
        if np.linalg.eigvalsh(m)[0] < -PSD_TOL:
            raise ValueError("reduced state is not positive semidefinite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "keep", tuple(self.keep))

    @property
    def dim(self) -> int:
        return self.d ** len(self.keep)


def _check_keep(s: StateVector, keep: tuple[int, ...]) -> tuple[int, ...]:
    keep = tuple(keep)
    if not keep or len(keep) >= s.n_qudits:
        raise ValueError("keep must be a nonempty strict subset of the qudits")
    if len(set(keep)) != len(keep) or any(not 0 <= k < s.n_qudits for k in keep):
        raise ValueError(f"invalid subsystem {keep} for {s.n_qudits} qudits")
    return keep


def _associated_matrix(s: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Amplitudes regrouped so row a is the state of the complement associated
    with kept-basis state a."""
    rest = tuple(i for i in range(s.n_qudits) if i not in keep)
    return s.reshaped().transpose(keep + rest).reshape(
        s.d ** len(keep), s.d ** len(rest)
    )


def partial_trace(s: StateVector, keep, *, validate: bool = True):
    """Reduced density matrix on the kept sites.

    Equals the Gram matrix of the associated complement states, which is the
    same thing as the usual index-contraction partial trace. With
    ``validate=False`` returns the raw matrix without the ReducedState checks
    (used by hot classification loops).
    """
    keep = _check_keep(s, tuple(keep))
    m = _associated_matrix(s, keep)
    rho = m @ m.conj().T
    if not validate:
        return rho
    return ReducedState(rho, keep, s.d)


def purity(r) -> float:
    """Tr(rho^2); plain arrays are accepted alongside ReducedState."""
    m = r.matrix if isinstance(r, ReducedState) else np.asarray(r)
    return float(np.vdot(m, m).real)


@dataclass(frozen=True)
class PurityProfile:
    """Map from subsystem to Tr(rho^2) (a float, or an exact Fraction) for all sites and pairs."""

    d: int
    n_qudits: int
    values: dict

    def __getitem__(self, keep) -> float:
        return self.values[tuple(keep)]

    def singles(self) -> tuple[float, ...]:
        return tuple(self.values[(i,)] for i in range(self.n_qudits))

    def pairs(self) -> dict:
        return {k: v for k, v in self.values.items() if len(k) == 2}

    def pair_pattern(self) -> int:
        """Number of pairs at purity 1/d: 6 for G-type, 2 for C-type, 0 for P-type."""
        return sum(1 for v in self.pairs().values() if abs(v - 1.0 / self.d) <= PAIR_TOL)


def purity_profile(s: StateVector) -> PurityProfile:
    """Purities of all one- and two-site subsystems of a four-qudit state."""
    if s.n_qudits != N_VERTICES:
        raise ValueError("purity profiles are defined for four-qudit states")
    values = {
        keep: purity(partial_trace(s, keep, validate=False))
        for keep in all_subsystems(s.n_qudits, 2)
    }
    return PurityProfile(s.d, s.n_qudits, values)


def tableau_purity_profiles(tableaux: Sequence[Tableau]) -> list[PurityProfile]:
    """Exact purities Fraction(1, d**entropy) of all one- and two-site
    subsystems of each tableau, of any mix of primes d, from one batched
    ``tableau_entropy`` call."""
    keeps = all_subsystems(N_VERTICES, 2)
    d = np.array([t.d for t in tableaux], dtype=np.int64)
    xz = np.array([t.xz for t in tableaux], dtype=np.int64)
    entropy = tableau_entropy(xz.reshape(len(d), N_VERTICES, 2 * N_VERTICES), keeps, d).tolist()
    return [PurityProfile(t.d, N_VERTICES, {k: Fraction(1, t.d**e) for k, e in zip(keeps, row)})
            for t, row in zip(tableaux, entropy)]


def is_k_mm(profile: PurityProfile, k: int) -> bool:
    """True when every subsystem of size <= k has purity d^-size (maximal
    mixing): exactly for ``Fraction`` purities, within MM_TOL for floats."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2 for four-particle systems")
    exact = [Fraction(1, profile.d**size) for size in range(k + 1)]
    return all(v == exact[len(keep)] if isinstance(v, Fraction)
               else abs(v - profile.d ** (-len(keep))) <= MM_TOL
               for keep, v in profile.values.items() if len(keep) <= k)


def concurrence(s: StateVector, keep) -> float:
    """Bipartite concurrence of a pure state: sqrt(1 - purity)."""
    pi_a = purity(partial_trace(s, tuple(keep), validate=False))
    return float(np.sqrt(max(0.0, 1.0 - pi_a)))


def wedge_measure(s: StateVector, keep) -> float:
    """Sum over unordered pairs of associated states of the squared wedge product.

    W^2(a, a') = <a|a><a'|a'> - |<a|a'>|^2, summed over a < a'. Twice this
    equals 1 - purity for any bipartition of a pure state.
    """
    keep = _check_keep(s, tuple(keep))
    m = _associated_matrix(s, keep)
    gram = m @ m.conj().T
    norms = np.diag(gram).real
    total = 0.0
    for a in range(len(norms)):
        for b in range(a + 1, len(norms)):
            total += norms[a] * norms[b] - abs(gram[a, b]) ** 2
    return float(total)


def reduced_from_stabilizers(g: AdjacencyMatrix, keep) -> ReducedState:
    """Reduced density matrix via the stabilizer expansion.

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
    acc *= float(d) ** (len(traced) - N_VERTICES)
    return ReducedState(acc, keep, d)


def max_identity_factors(g: AdjacencyMatrix) -> int:
    """Largest number of identity site factors over all non-identity stabilizers.

    At most 1 exactly when every two-site subsystem of the graph state is
    maximally mixed.
    """
    powers, rows, _ = stabilizer_group(g)
    id_counts = (~rows.any(axis=2)).sum(axis=1)
    return int(id_counts[powers.any(axis=1)].max())
