"""Exact Pauli arithmetic against the dense-matrix oracle."""

import math

import numpy as np
import pytest

from quditgraph import PauliWord, dense_matrix, fourier_conjugate, inv_mod, is_prime, pauli_mul, pauli_pow
from quditgraph.pauli import (
    PRIME_TEST_LIMIT,
    check_prime,
    eliminate_mod,
    inv_mod_array,
    omega_powers,
    pauli_str,
    rank_mod,
    site_matrix,
)

from conftest import random_word


def reference_rank(m, d):
    """Gaussian elimination over GF(d), one row operation at a time."""
    rows = [[int(v) % d for v in row] for row in m]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, d)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [(a - f * b) % d for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_rank_mod_matches_reference(rng, d):
    # low-rank products as well as full random matrices, in one batch per
    # shape; wide batches are eliminated along their rows, tall ones along
    # their columns
    for rows, cols in [(4, 6), (4, 8), (4, 4), (6, 4), (8, 3)]:
        full = rng.integers(0, d, size=(40, rows, cols))
        low = (rng.integers(0, d, size=(40, rows, 2)) @ rng.integers(0, d, size=(40, 2, cols))) % d
        batch = np.concatenate([full, low])
        assert rank_mod(batch, d).tolist() == [reference_rank(m, d) for m in batch]


def test_array_modulus_matches_per_d_calls(rng):
    # matrices over mixed primes in shuffled order, each with its own modulus,
    # against scalar-modulus calls on each matrix alone; the moduli broadcast
    # over the last of two batch axes as well as over a single one
    d = rng.permutation(np.repeat([2, 3, 5, 7, 11, 13, 31, 101, 1009], 4))
    for rows, cols in [(4, 8), (6, 4), (4, 4)]:
        full = rng.integers(0, 1 << 20, size=(len(d), rows, cols))
        left = rng.integers(0, 1 << 20, size=(len(d), rows, 2))
        low = left @ rng.integers(0, 4, size=(len(d), 2, cols))  # rank at most 2
        for m in (full % d[:, None, None], low % d[:, None, None]):
            col = m[..., 1]
            expected = [eliminate_mod(mi, ci, int(di)) for mi, ci, di in zip(m, col, d)]
            assert np.array_equal(eliminate_mod(m, col, d), expected)
            ranks = [int(rank_mod(mi, int(di))) for mi, di in zip(m, d)]
            assert rank_mod(m, d).tolist() == ranks
            assert rank_mod(np.stack([m, m]), d).tolist() == [ranks, ranks]
        assert len(set(ranks)) > 1


def test_is_prime_small():
    primes = [n for n in range(30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(10**5))


def test_is_prime_large():
    # a strong pseudoprime to every prime base up to 23
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert not is_prime(10**18)
    # a strong pseudoprime to every prime base up to 37, caught by base 41
    assert not is_prime(399165290221 * 798330580441)
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(ValueError):
        check_prime(10**30)


@pytest.mark.parametrize("d,a,expected", [(3, 2, 2), (5, 3, 2)])
def test_inv_mod_known(d, a, expected):
    assert inv_mod(a, d) == expected
    assert a * inv_mod(a, d) % d == 1


def test_inv_mod_exhaustive_oracle():
    # brute-force search over Z_7 as the independent oracle
    d = 7
    brute = {a: next(b for b in range(1, d) if a * b % d == 1) for a in range(1, d)}
    assert brute[4] == 2
    for a in range(1, d):
        assert inv_mod(a, d) == brute[a]


def test_inv_mod_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def test_inv_mod_array_matches_inv_mod():
    # int64 entries, and Python-int entries past int64
    for d in (2, 3, 7, 1009, 10007):
        a = np.arange(1, d)
        assert (inv_mod_array(a, d) == [inv_mod(int(x), d) for x in a]).all()
    d = 2**61 - 1  # d^2 overflows int64
    a = np.array([1, 2, d - 1, 12345], dtype=object)
    assert inv_mod_array(a, d).tolist() == [inv_mod(int(x), d) for x in a]


def test_word_text():
    # one renderer: a word prints as pauli_str of its powers, which takes the
    # powers as given at any d (a d = 2 tableau row here)
    word = PauliWord(3, 2, ((1, 0), (0, 2), (1, 1), (0, 0)))
    assert str(word) == pauli_str(word.xz, word.phase) == "w^2 X Z^2 XZ I"
    assert pauli_str([[1, 0], [0, 1], [1, 1], [0, 0]]) == "w^0 X Z XZ I"


def test_word_requires_odd_prime():
    with pytest.raises(ValueError):
        PauliWord(2, 0, ((1, 0),))
    with pytest.raises(ValueError):
        PauliWord(4, 0, ((1, 0),))


def test_zx_commutation_phase():
    # Z X = omega * X Z on a single qutrit
    d = 3
    x = PauliWord.from_powers(d, [1], [0])
    z = PauliWord.from_powers(d, [0], [1])
    zx = pauli_mul(z, x)
    xz = pauli_mul(x, z)
    assert zx.xz == xz.xz
    assert (zx.phase - xz.phase) % d == 1


@pytest.mark.parametrize("d", [3, 5])
def test_commutation_phase_exhaustive(d):
    # Z^b X^a = omega^(a*b) X^a Z^b for all exponents
    for a in range(d):
        for b in range(d):
            za = pauli_mul(
                PauliWord.from_powers(d, [0], [b]), PauliWord.from_powers(d, [a], [0])
            )
            assert za.phase == a * b % d
            assert za.xz == ((a, b),)


def test_mul_identity(rng):
    for d in (3, 5, 7):
        ident = PauliWord.identity(d, 4)
        for _ in range(10):
            p = random_word(rng, d, 4)
            assert pauli_mul(p, ident) == p
            assert pauli_mul(ident, p) == p


def test_xz_squared_matches_matrix_oracle():
    d = 3
    xz = PauliWord.from_powers(d, [1], [1])
    prod = pauli_mul(xz, xz)
    assert prod.x_powers == (2,)
    assert prod.z_powers == (2,)
    oracle = dense_matrix(xz) @ dense_matrix(xz)
    np.testing.assert_allclose(dense_matrix(prod), oracle, atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mul_matches_matrix_oracle_randomized(d, rng):
    for _ in range(80):
        n = int(rng.integers(1, 3))
        p = random_word(rng, d, n)
        q = random_word(rng, d, n)
        left = dense_matrix(pauli_mul(p, q))
        right = dense_matrix(p) @ dense_matrix(q)
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_mul_associative_via_oracle(rng):
    d = 5
    for _ in range(20):
        p, q, r = (random_word(rng, d, 2) for _ in range(3))
        assert pauli_mul(pauli_mul(p, q), r) == pauli_mul(p, pauli_mul(q, r))


def test_pow_zero_is_identity(rng):
    p = random_word(rng, 5, 3)
    assert pauli_pow(p, 0) == PauliWord.identity(5, 3)


def test_pow_x_cubed_identity():
    d = 3
    x = PauliWord.from_powers(d, [1], [0])
    assert pauli_pow(x, d) == PauliWord.identity(d, 1)


def test_pow_xz2_order_five():
    # (X Z^2)^5 is the identity, phase included, confirmed by the 5x5 oracle
    d = 5
    w = PauliWord.from_powers(d, [1], [2])
    p5 = pauli_pow(w, 5)
    assert p5 == PauliWord.identity(d, 1)
    oracle = np.linalg.matrix_power(dense_matrix(w), 5)
    np.testing.assert_allclose(oracle, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_every_word_has_order_d(d, rng):
    for _ in range(25):
        p = random_word(rng, d, 4)
        assert pauli_pow(p, d) == PauliWord.identity(d, 4)


def test_dense_z_is_omega_diagonal():
    d = 3
    z = PauliWord.from_powers(d, [0], [1])
    np.testing.assert_allclose(dense_matrix(z), np.diag(omega_powers(d)), atol=1e-14)


def test_dense_x_is_cyclic_shift():
    d = 3
    x = PauliWord.from_powers(d, [1], [0])
    expected = np.zeros((d, d))
    for k in range(d):
        expected[(k + 1) % d, k] = 1.0
    np.testing.assert_allclose(dense_matrix(x), expected, atol=1e-14)


def test_dense_identity():
    np.testing.assert_allclose(
        dense_matrix(PauliWord.identity(3, 2)), np.eye(9), atol=1e-14
    )


def test_dense_refuses_oversized():
    with pytest.raises(ValueError):
        dense_matrix(PauliWord.identity(13, 4))


def test_phase_and_power_normalized_mod_d():
    w = PauliWord(3, 7, ((4, -1),))
    assert w.phase == 1
    assert w.xz == ((1, 2),)


def test_identity_sites():
    w = PauliWord.from_powers(5, [1, 0, 0, 2], [0, 0, 3, 0])
    assert w.identity_sites() == (1,)


@pytest.mark.parametrize("d", [3, 5])
def test_fourier_conjugate_matches_gate_conjugation(d, rng):
    # oracle: F^dagger U F with the Fourier matrix F_jk = omega^(jk)/sqrt(d)
    f1 = omega_powers(d)[np.outer(np.arange(d), np.arange(d)) % d] / np.sqrt(d)
    for _ in range(20):
        p = random_word(rng, d, 2)
        sites = tuple(int(s) for s in rng.choice(2, size=int(rng.integers(0, 3)), replace=False))
        f = np.array([[1.0]])
        for i in range(2):
            f = np.kron(f, f1 if i in sites else np.eye(d))
        oracle = f.conj().T @ dense_matrix(p) @ f
        np.testing.assert_allclose(dense_matrix(fourier_conjugate(p, sites)), oracle, atol=1e-10)


def test_fourier_conjugate_z_to_x_and_x_to_zinv():
    d = 5
    z = PauliWord.from_powers(d, [0], [1])
    x = PauliWord.from_powers(d, [1], [0])
    assert fourier_conjugate(z, (0,)) == x
    assert fourier_conjugate(x, (0,)) == PauliWord.from_powers(d, [0], [d - 1])


def test_site_matrix_unitary():
    for d in (3, 5):
        for x in range(d):
            for z in range(d):
                m = site_matrix(d, x, z)
                np.testing.assert_allclose(m @ m.conj().T, np.eye(d), atol=1e-12)
