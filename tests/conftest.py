"""Shared helpers for the test suite."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from quditgraph import AdjacencyMatrix, PauliWord
from quditgraph.states import Tableau, family_fourier_sites, family_graph, stabilizer_tableau


def pytest_configure(config):
    # Hypothesis caches the constants it mines from local source files even
    # with database=None; keep that cache in pytest's own cache directory.
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def random_word(rng: np.random.Generator, d: int, n: int) -> PauliWord:
    xz = tuple(
        (int(rng.integers(0, d)), int(rng.integers(0, d))) for _ in range(n)
    )
    return PauliWord(d, int(rng.integers(0, d)), xz)


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


def tableau_words(t: Tableau) -> tuple[PauliWord, ...]:
    """The rows of t as phase-free Pauli words, one per generator."""
    return tuple(PauliWord(t.d, 0, rows.tolist()) for rows in t.xz)


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
