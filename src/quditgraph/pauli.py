"""Exact generalized Pauli arithmetic for prime-dimensional qudits.

A word ``omega^phase * prod_site X^x Z^z`` is an integer (sites, 2) array of
its (x, z) rows and an integer phase exponent, all kept mod d. Since
Z X = omega X Z, products stay words and are computed without any floating
point at every prime d, d = 2 included. The one complex table here,
:func:`omega_powers`, serves the dense states of ``states`` and ``steering``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "check_prime",
    "eliminate_mod",
    "inv_mod",
    "inv_mod_array",
    "is_prime",
    "omega_powers",
    "pauli_mul",
    "pauli_str",
    "rank_mod",
]

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


def pauli_mul(d: int, p: tuple, q: tuple) -> tuple[np.ndarray, int]:
    """Normal-ordered product of two words (rows, phase), rows an integer
    (sites, 2) array of (x, z) powers: commuting Z^b past X^a on one site costs
    omega^(a*b), so the phase is p.phase + q.phase + sum_site p.z * q.x, mod d.
    Exact at every prime d, d = 2 included."""
    (p_rows, p_phase), (q_rows, q_phase) = p, q
    p_rows, q_rows = np.asarray(p_rows), np.asarray(q_rows)
    if p_rows.shape != q_rows.shape:
        raise ValueError("Pauli words act on different spaces")
    return (p_rows + q_rows) % d, int(p_phase + q_phase + p_rows[:, 1] @ q_rows[:, 0]) % d

