"""Shared helpers for the test suite."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from quditgraph import AdjacencyMatrix
from quditgraph.pauli import omega_powers
from quditgraph.states import Tableau, family_fourier_sites, family_graph, stabilizer_tableau


def pytest_configure(config):
    # Hypothesis caches the constants it mines from local source files even
    # with database=None; keep that cache in pytest's own cache directory.
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def random_word(rng: np.random.Generator, d: int, n: int) -> tuple[np.ndarray, int]:
    """A random word on n sites: its (x, z) rows (n, 2) and phase exponent."""
    return rng.integers(0, d, size=(n, 2)), int(rng.integers(0, d))


def same_word(p: tuple, q: tuple) -> bool:
    """Whether two words (rows, phase) are equal."""
    return np.array_equal(p[0], q[0]) and p[1] == q[1]


def fourier_gate(d: int, sites, n_sites: int = 4) -> np.ndarray:
    """Dense gate |k> -> d^(-1/2) sum_j omega^(-jk) |j> of ``apply_local_fourier``
    on the given sites, and the identity elsewhere."""
    f1 = omega_powers(d)[-np.outer(np.arange(d), np.arange(d)) % d] / np.sqrt(d)
    f = np.array([[1.0]])
    for i in range(n_sites):
        f = np.kron(f, f1 if i in sites else np.eye(d))
    return f


def random_state_amps(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_graph(rng: np.random.Generator, d: int) -> AdjacencyMatrix:
    weights = np.zeros((4, 4), dtype=int)
    weights[np.triu_indices(4, 1)] = rng.integers(0, d, size=6)
    return AdjacencyMatrix.from_array(weights + weights.T, d)


def family_tableau(family: str, d: int) -> Tableau:
    """Tableau of a family state in the frame of ``family_reduced_state``."""
    return stabilizer_tableau(family_graph(family, d), family_fourier_sites(family))


def z_tableau(d: int) -> Tableau:
    """Tableau of a computational basis state: the rows Z_n."""
    return Tableau(d, np.stack([np.zeros((4, 4), dtype=int), np.eye(4, dtype=int)], axis=-1))


def reference_phase_exponents(g: AdjacencyMatrix) -> np.ndarray:
    """Graph-state amplitude exponents sum_{n<m} w_nm j_n j_m mod d, one basis
    state at a time: the loop reference for ``phase_exponents``."""
    d = g.d
    out = np.zeros((d,) * 4, dtype=int)
    for idx in product(range(d), repeat=4):
        exp = sum(g.entries[n][m] * idx[n] * idx[m] for n, m in combinations(range(4), 2))
        out[idx] = exp % d
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
