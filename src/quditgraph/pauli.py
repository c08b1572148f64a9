"""Exact generalized Pauli arithmetic for prime-dimensional qudits.

Operators are words ``omega^phase * prod_site X^x Z^z`` with every exponent
kept as an integer mod d, so products and powers are computed without any
floating point. Complex matrices appear only through :func:`dense_matrix`,
which exists mainly as an oracle for tests and for small state-vector work.

The exact engine requires an odd prime d: for d = 2 the operator XZ has
order 4 and its phases live outside Z_d. Binary systems are still handled by
the state-vector layer, just not by :class:`PauliWord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PauliWord",
    "check_odd_prime",
    "check_prime",
    "dense_matrix",
    "eliminate_mod",
    "fourier_conjugate",
    "inv_mod",
    "inv_mod_array",
    "is_prime",
    "omega_powers",
    "pauli_mul",
    "pauli_pow",
    "pauli_str",
    "rank_mod",
    "site_matrix",
]

MAX_DENSE_DIM = 4096


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017) 985).
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; n at or above
    PRIME_TEST_LIMIT, where it is no longer exact, raises ValueError."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is beyond the exact primality test (below {PRIME_TEST_LIMIT})")
    if n < 2 or any(n % p == 0 for p in _PRIME_TEST_BASES):
        return n in _PRIME_TEST_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = m * 2^s with m odd
    for a in _PRIME_TEST_BASES:
        chain = [pow(a, (n - 1) >> (s - i), n) for i in range(s)]
        if chain[0] != 1 and n - 1 not in chain:
            return False
    return True


def check_prime(d: int) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or not is_prime(int(d)):
        raise ValueError(f"qudit dimension must be a prime integer, got {d!r}")
    return int(d)


def check_odd_prime(d: int) -> int:
    d = check_prime(d)
    if d == 2:
        raise ValueError("exact Pauli arithmetic requires an odd prime dimension")
    return d


def inv_mod(a: int, d: int) -> int:
    """Multiplicative inverse of ``a`` modulo the prime ``d``."""
    a %= d
    if a == 0:
        raise ZeroDivisionError(f"0 has no multiplicative inverse mod {d}")
    return pow(a, -1, d)


def inv_mod_array(a: np.ndarray, d: int) -> np.ndarray:
    """Inverses mod the prime d of the nonzero entries, in [0, d), of ``a``:
    Fermat's a^(d-2) by square and multiply. Exact for int64 entries while
    d^2 < 2^63, and for Python-int (object) entries always."""
    inv, base, e = np.ones_like(a), a, d - 2
    while e:
        if e & 1:
            inv = inv * base % d
        base = base * base % d
        e >>= 1
    return inv


def eliminate_mod(t: np.ndarray, col: np.ndarray, d: int | np.ndarray) -> np.ndarray:
    """Clear the per-row values ``col`` (..., rows) of a batch of matrices
    ``t`` (..., rows, columns) against one pivot row, zeroing it: row r becomes
    lead * r - col_r * pivot mod d, lead the pivot's value (or 1 if col is 0).
    The modulus d is an int or an integer array broadcasting over the batch
    axes (...), one prime per matrix."""
    pivot = (col != 0).argmax(axis=-1)
    at = (*np.indices(pivot.shape, sparse=True), pivot)  # each batch entry's pivot
    lead = col[at][..., None, None]
    lead += lead == 0
    return (lead * t - col[..., None] * t[at][..., None, :]) % np.asarray(d)[..., None, None]


def rank_mod(m: np.ndarray, d: int | np.ndarray) -> np.ndarray:
    """Ranks over GF(d) of a batch of integer matrices (..., rows, columns),
    one elimination per column of the narrower of m and its transpose; d is
    an int or an integer array broadcasting over the batch axes (...)."""
    if m.shape[-2] < m.shape[-1]:
        m = np.swapaxes(m, -1, -2)
    rank = 0
    for c in range(m.shape[-1]):
        rank = rank + (m[..., c] != 0).any(axis=-1)
        m = eliminate_mod(m, m[..., c], d)
    return rank


@lru_cache(maxsize=None)
def omega_powers(d: int) -> np.ndarray:
    """Lookup table omega^k for k in [0, d), omega = exp(2*pi*i/d)."""
    table = np.exp(2j * np.pi * np.arange(d) / d)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class PauliWord:
    """``omega^phase * (X^x Z^z) x (X^x Z^z) x ...`` over n qudits.

    ``xz`` holds one (x_power, z_power) pair per site, each reduced mod d.
    The normal ordering puts X powers to the left of Z powers at every site;
    reordering during multiplication is what accumulates phase.
    """

    d: int
    phase: int
    xz: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        d = check_odd_prime(self.d)
        if not self.xz:
            raise ValueError("a Pauli word needs at least one site")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "phase", int(self.phase) % d)
        object.__setattr__(
            self, "xz", tuple((int(x) % d, int(z) % d) for x, z in self.xz)
        )

    @classmethod
    def identity(cls, d: int, n_qudits: int) -> "PauliWord":
        return cls(d, 0, ((0, 0),) * n_qudits)

    @classmethod
    def from_powers(
        cls,
        d: int,
        x_powers: Sequence[int],
        z_powers: Sequence[int],
        phase: int = 0,
    ) -> "PauliWord":
        if len(x_powers) != len(z_powers):
            raise ValueError("x_powers and z_powers must have equal length")
        return cls(d, phase, tuple(zip(x_powers, z_powers)))

    @classmethod
    def single(
        cls, d: int, n_qudits: int, site: int, x: int = 0, z: int = 0, phase: int = 0
    ) -> "PauliWord":
        """Word acting as X^x Z^z on one site and as identity elsewhere."""
        xz = [(0, 0)] * n_qudits
        xz[site] = (x, z)
        return cls(d, phase, tuple(xz))

    @property
    def n_qudits(self) -> int:
        return len(self.xz)

    @property
    def x_powers(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.xz)

    @property
    def z_powers(self) -> tuple[int, ...]:
        return tuple(z for _, z in self.xz)

    def is_identity(self) -> bool:
        return self.phase == 0 and all(x == 0 and z == 0 for x, z in self.xz)

    def identity_sites(self) -> tuple[int, ...]:
        """Sites where this word acts as the identity factor."""
        return tuple(i for i, (x, z) in enumerate(self.xz) if x == 0 and z == 0)

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        return pauli_mul(self, other)

    def __pow__(self, k: int) -> "PauliWord":
        return pauli_pow(self, k)

    def __str__(self) -> str:
        return pauli_str(self.xz, self.phase)


def pauli_str(xz: Iterable[Sequence[int]], phase: int = 0) -> str:
    """Text of the word omega^phase * prod_site X^x Z^z, the powers as given:
    any d renders, d = 2 included."""
    return "w^%d %s" % (phase, " ".join(_site_str(x, z) for x, z in xz))


def _site_str(x: int, z: int) -> str:
    if x == 0 and z == 0:
        return "I"
    parts = []
    if x:
        parts.append("X" if x == 1 else f"X^{x}")
    if z:
        parts.append("Z" if z == 1 else f"Z^{z}")
    return "".join(parts)


def pauli_mul(p: PauliWord, q: PauliWord) -> PauliWord:
    """Normal-ordered product of two words.

    Commuting Z^b past X^a on the same site costs a factor omega^(a*b),
    so the product phase is p.phase + q.phase + sum_site p.z * q.x.
    """
    if p.d != q.d or p.n_qudits != q.n_qudits:
        raise ValueError("Pauli words act on different spaces")
    d = p.d
    phase = p.phase + q.phase
    xz = []
    for (px, pz), (qx, qz) in zip(p.xz, q.xz):
        phase += pz * qx
        xz.append(((px + qx) % d, (pz + qz) % d))
    return PauliWord(d, phase % d, tuple(xz))


def pauli_pow(p: PauliWord, k: int) -> PauliWord:
    """k-th power (k >= 0) by square and multiply; p**d is the identity."""
    if k < 0:
        raise ValueError("negative powers not supported; use p**(d-1) as inverse")
    result = PauliWord.identity(p.d, p.n_qudits)
    base = p
    while k:
        if k & 1:
            result = pauli_mul(result, base)
        base = pauli_mul(base, base)
        k >>= 1
    return result


def site_matrix(d: int, x: int, z: int) -> np.ndarray:
    """Dense d x d matrix of X^x Z^z, acting as |k> -> omega^(z*k) |k+x>."""
    omega = omega_powers(d)
    m = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m[(k + x) % d, k] = omega[(z * k) % d]
    return m


def dense_matrix(p: PauliWord) -> np.ndarray:
    """Dense matrix of a word; intended as a test oracle for small systems."""
    dim = p.d**p.n_qudits
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense matrix of dimension {dim} exceeds {MAX_DENSE_DIM}")
    m = np.array([[omega_powers(p.d)[p.phase]]])
    for x, z in p.xz:
        m = np.kron(m, site_matrix(p.d, x, z))
    return m


def fourier_conjugate(p: PauliWord, sites: Iterable[int]) -> PauliWord:
    """Conjugate a word by the inverse Fourier gate on the given sites.

    Under that gate Z maps to X and X maps to Z^-1, so the site pair (x, z)
    becomes (z, -x) at a phase cost of omega^(-x*z).
    """
    site_set = set(sites)
    d = p.d
    phase = p.phase
    xz = []
    for i, (x, z) in enumerate(p.xz):
        if i in site_set:
            phase -= x * z
            xz.append((z, (-x) % d))
        else:
            xz.append((x, z))
    return PauliWord(d, phase % d, tuple(xz))
