"""Entropies, purities and the maximal-mixing test of four-qudit states.

The exact route builds no state. ``cut_ranks``, the one cut rule, reads the
entropy S(A) of every one- and two-site set A of a graph state, in units of
log d, off its six weights, per graph or as columns: S(A) is the GF(d) rank
of the cut block Gamma[A, rest] (Hein, Eisert and Briegel, PRA 69, 062311;
Hostens, Dehaene and De Moor, PRA 71, 042315, for qudits).
``graph_entropies`` is one graph's profile of them. The purity of A is
d^-S(A), and exactly d^(|A| - S(A)) stabilizers act as the identity outside
A (Fattal et al., quant-ph/0406168). ``is_k_mm`` and ``max_identity_factors``
read that profile. ``partial_trace``, ``purity`` and ``purity_profile`` are
the dense route on a ``StateVector``: no command runs them, and they stay in
the package only as spans the benchmark tracer names (``SPANS`` in
``perfbench/child.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import N_VERTICES, PAIR_INDEX, PAIRS, AdjacencyMatrix
from .states import StateVector

__all__ = [
    "CUTS",
    "PurityProfile",
    "all_subsystems",
    "cut_ranks",
    "graph_entropies",
    "is_k_mm",
    "max_identity_factors",
    "partial_trace",
    "purity",
    "purity_profile",
    "subsystem_label",
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
    """Map from subsystem to the float Tr(rho^2) for all sites and pairs."""

    d: int
    n_qudits: int
    values: dict

    def __getitem__(self, keep) -> float:
        return self.values[tuple(keep)]

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


# The 2|2 cuts (a, b, c, e), {a, b} against {c, e}: the cut of both pairs.
CUTS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
_ROWS = [[PAIR_INDEX[n, m] for m in range(N_VERTICES) if m != n] for n in range(N_VERTICES)]
_BLOCKS = [[PAIR_INDEX[p] for p in ((a, c), (b, e), (a, e), (b, c))] for a, b, c, e in CUTS]
# The cut of each pair of PAIRS, the order all_subsystems lists the pairs in.
_PAIR_CUT = [k for pair in PAIRS for k, (a, b, c, e) in enumerate(CUTS) if pair in ((a, b), (c, e))]
_SUBSYSTEMS = all_subsystems()


def cut_ranks(w, d: int):
    """(vertex-row flags, cut ranks) of six weights ``w`` in ``PAIRS`` order
    mod the prime d, Python ints or equal-length integer columns: whether each
    vertex row has an edge, and per cut of ``CUTS`` the GF(d) rank of its block
    [[w_ac, w_ae], [w_bc, w_be]], 0 if it is zero, 2 if its determinant is
    nonzero mod d, else 1."""
    nonzero = [c != 0 for c in w]
    rows = [nonzero[i] | nonzero[j] | nonzero[k] for i, j, k in _ROWS]
    ranks = []
    for ac, be, ae, bc in _BLOCKS:
        det = w[ac] * w[be] - w[ae] * w[bc]
        # det - det // d * d is det % d, which numpy runs without a divide for a
        # scalar d; 1 * makes a bool column a count, as bool columns add as "or"
        ranks.append(1 * (nonzero[ac] | nonzero[be] | nonzero[ae] | nonzero[bc])
                     + (det - det // d * d != 0))
    return rows, ranks


def graph_entropies(g: AdjacencyMatrix) -> dict[tuple[int, ...], int]:
    """Entropy S, in units of log d, of every one- and two-site subsystem of
    the graph state of g, in ``all_subsystems`` order, by ``cut_ranks``: a
    site's is its row flag, a pair's the rank of its cut, its complement's."""
    rows, ranks = cut_ranks(g.weights, g.d)
    return dict(zip(_SUBSYSTEMS, [*map(int, rows), *[ranks[k] for k in _PAIR_CUT]]))


def is_k_mm(entropy: dict, k: int) -> bool:
    """True when every subsystem of size <= k has entropy S(A) = |A|, its
    purity d^-|A| (maximal mixing), in a ``graph_entropies`` profile."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2 for four-particle systems")
    return all(s == len(keep) for keep, s in entropy.items() if len(keep) <= k)


def max_identity_factors(g: AdjacencyMatrix) -> int:
    """Largest number of identity site factors over the non-identity
    stabilizers of the graph state of g.

    Exactly d^(|A| - S(A)) stabilizers are the identity outside a site set A,
    so one besides the identity exists iff S(A) < |A|; every triple has one,
    as its S is its complement's, at most 1. At most 1 exactly when every
    two-site subsystem is maximally mixed.
    """
    entropy = graph_entropies(g)
    return max((N_VERTICES - len(keep) for keep, s in entropy.items() if s < len(keep)), default=1)
