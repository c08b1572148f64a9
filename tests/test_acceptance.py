"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion shows up as the usual pytest failure instead).
"""

import time

import numpy as np
import pytest

from quditgraph import (
    MeasurementEvent,
    StateVector,
    all_bases,
    build_state,
    classify_exhaustive,
    canonicalize,
    classify3,
    cluster_graph,
    concurrence,
    dense_matrix,
    gamma_graph,
    ghz_graph,
    is_k_mm,
    max_identity_factors,
    mub_eigenstate,
    p_graph,
    partial_trace,
    pauli_mul,
    persistency_stats,
    project,
    purity,
    purity_profile,
    reduced_from_stabilizers,
    schmidt_bounds,
    stabilizer,
    verify_eigen,
    wedge_measure,
)
from quditgraph.measures import all_subsystems
from quditgraph.states import family_reduced_state, stabilizer_tableau
from quditgraph.steering import BELL, GHZ3, PRODUCT, SNB, enumerate_paths

from conftest import family_tableau, random_state_amps, random_word, tableau_words


def report(num: int, text: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} PASS: {text}{suffix}")


def test_criterion_01_purity_table():
    t0 = time.perf_counter()
    patterns = {
        "G": lambda d: (1 / d, 1 / d, 1 / d),
        "C": lambda d: (1 / d, 1 / d, 1 / d**2),
        "P": lambda d: (1 / d, 1 / d**2, 1 / d**2),
    }
    for d in (3, 5, 7):
        for fam, pattern in patterns.items():
            single, diag, adj = pattern(d)
            prof = purity_profile(family_reduced_state(fam, d))
            for i in range(4):
                assert abs(prof[(i,)] - single) <= 1e-9
            for pair in ((0, 2), (1, 3)):
                assert abs(prof[pair] - diag) <= 1e-9
            for pair in ((0, 1), (1, 2), (2, 3), (0, 3)):
                assert abs(prof[pair] - adj) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "purity patterns of G', C', P' for d in {3,5,7} within 1e-9", elapsed)


def test_criterion_02_first_measurement_tallies():
    t0 = time.perf_counter()
    expected = {
        "G": lambda d: {PRODUCT: 4, SNB: 0, GHZ3: 4 * d},
        "C": lambda d: {PRODUCT: 0, SNB: 4, GHZ3: 4 * d},
        "P": lambda d: {PRODUCT: 0, SNB: 0, GHZ3: 4 * (d + 1)},
    }
    for d in (3, 5, 7):
        for fam, exp in expected.items():
            (tally,) = enumerate_paths([family_tableau(fam, d)])
            assert tally.first_counts() == exp(d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "first-measurement tallies (4,0,4d), (0,4,4d), (0,0,4(d+1))", elapsed)


def test_criterion_03_pair_tallies():
    t0 = time.perf_counter()
    expected = {
        "G": lambda d: {PRODUCT: 24 * d + 12, BELL: 12 * d * d},
        "C": lambda d: {PRODUCT: 20 * d + 8, BELL: 12 * d * d + 4 * d + 4},
        "P": lambda d: {PRODUCT: 12 * d + 12, BELL: 12 * d * d + 12 * d},
    }
    for d in (3, 5, 7):
        for fam, exp in expected.items():
            (tally,) = enumerate_paths([family_tableau(fam, d)])
            pairs = tally.pair_counts()
            assert pairs == exp(d)
            assert sum(pairs.values()) == 12 * (d + 1) ** 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "pair tallies match the closed forms and sum to 12(d+1)^2", elapsed)


def test_criterion_04_persistency_values():
    d = 3
    targets = {
        "G": (2.31, 0.125, 1),
        "C": (2.65, 0.2917, 2),
        "P": (2.75, 0.500, 2),
    }
    for fam, (ave, delta, nmin) in targets.items():
        tableau = family_tableau(fam, d)
        stats = persistency_stats(tableau)
        assert abs(stats.n_ave - ave) <= 5e-3
        assert abs(stats.delta - delta) <= 1e-3
        assert stats.n_min == nmin
        lower, upper = schmidt_bounds(tableau)
        assert upper == nmin
        assert abs(lower - nmin) <= 1e-9  # bounds coincide: this is the measure
    report(4, "persistency averages 2.31/2.65/2.75, deltas, and N_min = (1,2,2)")


def test_criterion_05_asymptotics():
    for fam in ("G", "C", "P"):
        values = [
            persistency_stats(family_tableau(fam, d)).n_ave
            for d in (3, 5, 7, 11)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 3.0 for v in values)
    report(5, "N_ave strictly increasing over d in {3,5,7,11} and below 3")


def test_criterion_06_mmes_gate():
    for d in (3, 5, 7):
        flags = {}
        for fam in ("G", "C", "P"):
            prof = purity_profile(family_reduced_state(fam, d))
            flags[fam] = (is_k_mm(prof, 1), is_k_mm(prof, 2))
        assert flags == {"G": (True, False), "C": (True, False), "P": (True, True)}
    # at d = 2 the third family collapses onto the square-graph state
    np.testing.assert_allclose(
        build_state(p_graph(2)).amps, build_state(cluster_graph(2)).amps, atol=1e-12
    )
    prof2 = purity_profile(family_reduced_state("P", 2))
    assert is_k_mm(prof2, 1) and not is_k_mm(prof2, 2)
    report(6, "k-MM flags (T,F),(T,F),(T,T) for d in {3,5,7}; P = C at d = 2")


def test_criterion_07_stabilizer_trace_cross_check():
    for d in (3, 5):
        graphs = [ghz_graph(d), cluster_graph(d), p_graph(d)]
        graphs += [gamma_graph(gm, d) for gm in range(d)]
        for g in graphs:
            s = build_state(g)
            for keep in all_subsystems(4, 2):
                left = reduced_from_stabilizers(g, keep).matrix
                right = partial_trace(s, keep).matrix
                assert np.max(np.abs(left - right)) <= 1e-9
        for gm in range(d):
            expected = 1 if gm not in (0, 1) else 2
            assert max_identity_factors(gamma_graph(gm, d)) == expected
        assert max_identity_factors(ghz_graph(d)) == 2
    report(7, "stabilizer-trace route equals partial trace; identity-factor counts")


def test_criterion_08_classifier_sweep():
    t0 = time.perf_counter()
    census = classify_exhaustive(3)
    assert census.total == 729
    assert census.mismatches == 0
    for d in (3, 5, 7):
        for gm in range(d):
            cls = canonicalize(gamma_graph(gm, d)).cls
            assert cls == ("C" if gm in (0, 1) else "P")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "729-matrix sweep with zero oracle mismatches; chord classes", elapsed)


def test_criterion_09_wedge_identities():
    rng = np.random.default_rng(90)
    d = 3
    keeps = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]
    for _ in range(100):
        s = StateVector(d, 4, random_state_amps(rng, d**4))
        for keep in keeps:
            pi_a = purity(partial_trace(s, keep))
            assert abs(2 * wedge_measure(s, keep) - (1 - pi_a)) <= 1e-9
            assert abs(concurrence(s, keep) ** 2 - (1 - pi_a)) <= 1e-9
    report(9, "2 E_A = 1 - purity = concurrence^2 on 100 random states")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(100)
    # Pauli products against the dense-matrix oracle
    for d in (3, 5):
        for _ in range(100):
            p = random_word(rng, d, 2)
            q = random_word(rng, d, 2)
            left = dense_matrix(pauli_mul(p, q))
            right = dense_matrix(p) @ dense_matrix(q)
            assert np.max(np.abs(left - right)) <= 1e-10
    # mutual unbiasedness of every basis pair
    for d in (3, 5, 7):
        bases = all_bases(d)
        for i, b1 in enumerate(bases):
            for b2 in bases[i + 1 :]:
                for o1 in range(d):
                    for o2 in range(d):
                        ov = np.vdot(
                            mub_eigenstate(b1, o1, d).amps,
                            mub_eigenstate(b2, o2, d).amps,
                        )
                        assert abs(abs(ov) ** 2 - 1 / d) <= 1e-9
    # outcome independence of the residue classes, exhaustively at d = 3
    d = 3
    for fam in ("G", "C", "P"):
        s = family_reduced_state(fam, d)
        for qudit in range(4):
            for basis in all_bases(d):
                classes = {
                    classify3(project(s, MeasurementEvent(qudit, basis, o))[0])
                    for o in range(d)
                }
                assert len(classes) == 1
    # unit-eigenvalue stabilizer checks: generators plus 50 random words
    for d in (3, 5):
        for g in (ghz_graph(d), cluster_graph(d), p_graph(d)):
            s = build_state(g)
            for w in tableau_words(stabilizer_tableau(g, ())):
                assert verify_eigen(s, w) == 0
            for _ in range(50):
                powers = tuple(int(v) for v in rng.integers(0, d, size=4))
                assert verify_eigen(s, stabilizer(g, powers)) == 0
    report(10, "oracle agreement, MUB unbiasedness, outcome independence, eigenchecks")
