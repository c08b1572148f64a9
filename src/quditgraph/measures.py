"""Purities and the maximal-mixing test of four-qudit states.

The exact route builds no state: ``tableau_purity_profiles`` reads each
purity d^-entropy off stabilizer ``Tableau``s, all in one batch, as exact
``Fraction``s, and ``is_k_mm`` and ``max_identity_factors`` are exact too.
``partial_trace``, ``purity`` and ``purity_profile`` are the dense route on
a ``StateVector``: no command runs them, and they stay in the package only
as spans the benchmark tracer names (``SPANS`` in ``perfbench/child.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .graphs import N_VERTICES, AdjacencyMatrix
from .states import StateVector, Tableau, stabilizer_group, tableau_entropy

__all__ = [
    "PurityProfile",
    "all_subsystems",
    "is_k_mm",
    "max_identity_factors",
    "partial_trace",
    "purity",
    "purity_profile",
    "subsystem_label",
    "tableau_purity_profiles",
]

# Float purities within this of 1/d (pairs) or 1 (profile_class) count as equal.
PAIR_TOL = 1e-7


def subsystem_label(keep: tuple[int, ...]) -> str:
    """1-based label of a subsystem, e.g. (0, 2) -> "13"."""
    return "".join(str(i + 1) for i in keep)


def all_subsystems(n_qudits: int = N_VERTICES, max_size: int = 2) -> tuple[tuple[int, ...], ...]:
    """All kept-site tuples of size 1..max_size, in lexicographic order."""
    out = []
    for size in range(1, max_size + 1):
        out.extend(combinations(range(n_qudits), size))
    return tuple(out)


def _check_keep(s: StateVector, keep: tuple[int, ...]) -> tuple[int, ...]:
    keep = tuple(keep)
    if not keep or len(keep) >= s.n_qudits:
        raise ValueError("keep must be a nonempty strict subset of the qudits")
    if len(set(keep)) != len(keep) or any(not 0 <= k < s.n_qudits for k in keep):
        raise ValueError(f"invalid subsystem {keep} for {s.n_qudits} qudits")
    return keep


def partial_trace(s: StateVector, keep) -> np.ndarray:
    """Reduced density matrix on the kept sites: the Gram matrix of the
    complement states associated with each kept-basis state, which is the
    usual index-contraction partial trace."""
    keep = _check_keep(s, tuple(keep))
    rest = tuple(i for i in range(s.n_qudits) if i not in keep)
    m = s.reshaped().transpose(keep + rest).reshape(s.d ** len(keep), -1)
    return m @ m.conj().T


def purity(rho) -> float:
    """Tr(rho^2) of a density matrix."""
    m = np.asarray(rho)
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
        keep: purity(partial_trace(s, keep))
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
    """True when every subsystem of size <= k has purity exactly d^-size
    (maximal mixing). The purities must be ``Fraction``s, as
    ``tableau_purity_profiles`` gives them; floats raise TypeError."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2 for four-particle systems")
    if not all(isinstance(v, Fraction) for v in profile.values.values()):
        raise TypeError("is_k_mm needs exact Fraction purities")
    exact = [Fraction(1, profile.d**size) for size in range(k + 1)]
    return all(v == exact[len(keep)] for keep, v in profile.values.items() if len(keep) <= k)


def max_identity_factors(g: AdjacencyMatrix) -> int:
    """Largest number of identity site factors over all non-identity stabilizers.

    At most 1 exactly when every two-site subsystem of the graph state is
    maximally mixed.
    """
    powers, rows, _ = stabilizer_group(g)
    id_counts = (~rows.any(axis=2)).sum(axis=1)
    return int(id_counts[powers.any(axis=1)].max())
