"""Measurement bases, projections, residue classification, and path tallies.

The tallies and entropies of ``steering`` and ``measures`` are closed forms
of a graph's weights; ``engine``, the elimination engine on tableaux, is the
oracle they are held to."""

import hashlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from quditgraph import (
    ClassificationError,
    all_bases,
    enumerate_paths,
    graph_entropies,
    persistency_stats,
    steering,
)
from quditgraph.classify import DISCONNECTED, cut_rank_classes
from quditgraph.graphs import AdjacencyMatrix, cluster_graph, ghz_graph, p_graph
from quditgraph.pauli import is_prime, omega_powers, pauli_str, rank_mod
from quditgraph.report import _family_effective, build_report
from quditgraph.serialize import json_text
from quditgraph.states import (
    StateVector,
    Tableau,
    apply_local_fourier,
    build_state,
    family_fourier_sites,
    family_graph,
    family_reduced_state,
    stabilizer_tableau,
    stabilizer_tableaux,
    tableau_batch,
)
from quditgraph.steering import (
    BELL,
    EVERY_LINE,
    GHZ3,
    PRODUCT,
    SNB,
    MeasurementEvent,
    PathTally,
    ZeroProbabilityError,
    basis_eigenvalue,
    mub_eigenstate,
    project,
)

import engine
from conftest import family_tableau, random_state_amps, z_tableau
from dense import basis_state, classify2, classify3, dense_matrix, ghz3_state, site_matrix, verify_eigen
from engine import first_patterns, moves_of, tableau_entropy
from pins import PINS

Z, X = (0, 1), (1, 0)  # the lines of the Z and X bases


def family_tally(family, d):
    """The closed-form tally of a family's graph."""
    (tally,) = enumerate_paths([family_graph(family, d)])
    return tally


def graph_of(w, d):
    """The graph of six weights (w01, w02, w03, w12, w13, w23) mod d."""
    grid = np.zeros((4, 4), dtype=int)
    grid[np.triu_indices(4, 1)] = w
    return AdjacencyMatrix.from_array(grid + grid.T, d)


def empty_graph(d):
    """The graph with no edge: its state is a product, held in the Fourier
    frame on every site by the rows Z_n of ``z_tableau``."""
    return AdjacencyMatrix.from_edges(d, {})


def bell_state(d):
    arr = np.zeros((d, d), dtype=complex)
    for i in range(d):
        arr[i, i] = 1 / np.sqrt(d)
    return StateVector(d, 2, arr.reshape(-1))


def test_basis_count_and_names():
    bases = all_bases(3)
    assert bases == ((0, 1), (1, 0), (1, 1), (1, 2))
    assert [pauli_str([b]) for b in bases] == ["w^0 Z", "w^0 X", "w^0 XZ", "w^0 XZ^2"]


@pytest.mark.parametrize("line", [(0, 0), (0, 2), (2, 1), (3, 0), (0, 1, 0)])
def test_bases_other_than_z_or_xz_lines_are_refused(line):
    with pytest.raises(ValueError, match="basis"):
        mub_eigenstate(line, 0, 3)
    with pytest.raises(ValueError, match="basis"):
        basis_eigenvalue(line, 0, 3)
    with pytest.raises(ValueError, match="basis"):
        MeasurementEvent(0, line, 0)


def test_z_basis_eigenstate():
    d = 5
    for i in range(d):
        v = mub_eigenstate(Z, i, d).amps
        expected = np.zeros(d)
        expected[i] = 1.0
        np.testing.assert_allclose(v, expected, atol=1e-12)
        assert basis_eigenvalue(Z, i, d) == pytest.approx(
            omega_powers(d)[i]
        )


def test_x_basis_eigenstate_convention():
    # outcome j carries the Fourier vector with components omega^(jm) and
    # X eigenvalue omega^(-j)
    d = 3
    for j in range(d):
        v = mub_eigenstate(X, j, d).amps
        expected = omega_powers(d)[(j * np.arange(d)) % d] / np.sqrt(d)
        np.testing.assert_allclose(v, expected, atol=1e-12)
        assert basis_eigenvalue(X, j, d) == pytest.approx(
            omega_powers(d)[(-j) % d]
        )


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_all_basis_vectors_satisfy_eigen_equation(d):
    for b in all_bases(d):
        u = dense_matrix(d, [b])
        for outcome in range(d):
            v = mub_eigenstate(b, outcome, d).amps
            lam = basis_eigenvalue(b, outcome, d)
            assert np.linalg.norm(u @ v - lam * v) < 1e-9


def test_outcomes_are_distinct_orthonormal():
    d = 5
    for b in all_bases(d):
        vs = np.array([mub_eigenstate(b, i, d).amps for i in range(d)])
        np.testing.assert_allclose(vs @ vs.conj().T, np.eye(d), atol=1e-9)


def test_x_vs_xz_overlaps_d3():
    d = 3
    for o1 in range(d):
        for o2 in range(d):
            v1 = mub_eigenstate(X, o1, d).amps
            v2 = mub_eigenstate((1, 1), o2, d).amps
            assert abs(np.vdot(v1, v2)) ** 2 == pytest.approx(1 / d, abs=1e-9)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mutual_unbiasedness_all_basis_pairs(d):
    bases = all_bases(d)
    for i, b1 in enumerate(bases):
        for b2 in bases[i + 1 :]:
            for o1 in range(d):
                for o2 in range(d):
                    ov = np.vdot(
                        mub_eigenstate(b1, o1, d).amps, mub_eigenstate(b2, o2, d).amps
                    )
                    assert abs(ov) ** 2 == pytest.approx(1 / d, abs=1e-9)


def test_project_ghz_z_measurement():
    d = 3
    gp = family_reduced_state("G", d)
    res, prob = project(gp, MeasurementEvent(0, Z, 0))
    assert prob == pytest.approx(1 / d, abs=1e-9)
    np.testing.assert_allclose(res.amps, basis_state(d, (0, 0, 0)).amps, atol=1e-9)


def test_project_ghz_x_measurement_leaves_ghz3():
    d = 3
    gp = family_reduced_state("G", d)
    for outcome in range(d):
        res, prob = project(gp, MeasurementEvent(3, X, outcome))
        assert prob == pytest.approx(1 / d, abs=1e-9)
        assert classify3(res) == (False, False, False)  # no pure site: GHZ3


def test_project_cluster_z2_separates_diagonal_partner():
    d = 3
    cp = family_reduced_state("C", d)
    for outcome in range(d):
        res, _ = project(cp, MeasurementEvent(1, Z, outcome))
        # S_nB: the one pure site is original qudit 3, diagonally opposite qudit 1
        assert classify3(res) == (False, False, True)


def test_cluster_snb_cases_follow_diagonals():
    # measured qudit -> (vulnerable basis, separated original qudit)
    d = 3
    cp = family_reduced_state("C", d)
    cases = {
        0: (X, 2),
        1: (Z, 3),
        2: (X, 0),
        3: (Z, 1),
    }
    for qudit, (basis, sep_orig) in cases.items():
        res, _ = project(cp, MeasurementEvent(qudit, basis, 0))
        expected_residual = sep_orig if sep_orig < qudit else sep_orig - 1
        assert classify3(res) == tuple(site == expected_residual for site in range(3))


def test_project_zero_probability_flagged():
    d = 3
    s = basis_state(d, (1, 0))
    with pytest.raises(ZeroProbabilityError, match=r"outcome 0 in basis w\^0 Z "):
        project(s, MeasurementEvent(0, Z, 0))


def test_classify3_examples():
    d = 3
    assert classify3(ghz3_state(d)) == (False, False, False)
    sep = np.kron(basis_state(d, (0,)).amps, bell_state(d).amps)
    assert classify3(StateVector(d, 3, sep)) == (True, False, False)
    assert classify3(basis_state(d, (0, 0, 0))) == (True, True, True)


def test_classify2_examples():
    d = 3
    assert classify2(bell_state(d)) is False
    assert classify2(basis_state(d, (0, 0))) is True


def test_classify2_rejects_partial_entanglement():
    theta = np.pi / 8
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(theta)
    amps[3] = np.sin(theta)
    with pytest.raises(ClassificationError):
        classify2(StateVector(2, 2, amps))


def test_classify3_rejects_non_residue():
    d = 2
    amps = np.zeros(8, dtype=complex)
    amps[0] = np.cos(0.3)
    amps[7] = np.sin(0.3)
    with pytest.raises(ClassificationError):
        classify3(StateVector(d, 3, amps))


EXPECTED_FIRST = {
    "G": lambda d: {PRODUCT: 4, SNB: 0, GHZ3: 4 * d},
    "C": lambda d: {PRODUCT: 0, SNB: 4, GHZ3: 4 * d},
    "P": lambda d: {PRODUCT: 0, SNB: 0, GHZ3: 4 * (d + 1)},
}
EXPECTED_PAIRS = {
    "G": lambda d: {PRODUCT: 24 * d + 12, BELL: 12 * d * d},
    "C": lambda d: {PRODUCT: 20 * d + 8, BELL: 12 * d * d + 4 * d + 4},
    "P": lambda d: {PRODUCT: 12 * d + 12, BELL: 12 * d * d + 12 * d},
}


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("family", ["G", "C", "P"])
def test_path_tallies(d, family):
    tally = family_tally(family, d)
    assert tally.first_counts() == EXPECTED_FIRST[family](d)
    assert tally.pair_counts() == EXPECTED_PAIRS[family](d)
    assert sum(tally.first_counts().values()) == 4 * (d + 1)
    assert sum(tally.pair_counts().values()) == 12 * (d + 1) ** 2


def test_persistency_d3_exact():
    expected = {
        "G": (Fraction(37, 16), 1, Fraction(1, 8)),
        "C": (Fraction(127, 48), 2, Fraction(7, 24)),
        "P": (Fraction(11, 4), 2, Fraction(1, 2)),
    }
    for fam, (ave, nmin, delta) in expected.items():
        stats = persistency_stats(family_tally(fam, 3))
        assert stats.n_ave == ave
        assert stats.n_min == nmin
        assert stats.delta == delta


def test_persistency_product_input():
    (oracle,) = engine.enumerate_paths([z_tableau(3)])
    for tally in (*enumerate_paths([empty_graph(3)]), oracle):
        stats = persistency_stats(tally)
        assert (stats.n_ave, stats.n_min, stats.delta) == (Fraction(0), 0, Fraction(0))


def test_outcome_independence_exhaustive_d3():
    d = 3
    for fam in ("G", "C", "P"):
        s = family_reduced_state(fam, d)
        for qudit in range(4):
            for basis in all_bases(d):
                classes = [
                    classify3(project(s, MeasurementEvent(qudit, basis, o))[0])
                    for o in range(d)
                ]
                assert len(set(classes)) == 1


@pytest.mark.parametrize("d", [5, 7])
def test_outcome_independence_sampled(d):
    s = family_reduced_state("C", d)
    for qudit in (0, 1):
        for basis in (Z, X, (1, 2)):
            classes = [
                classify3(project(s, MeasurementEvent(qudit, basis, o))[0])
                for o in range(d)
            ]
            assert len(set(classes)) == 1


def test_second_level_outcome_independence_d3():
    d = 3
    s = family_reduced_state("C", d)
    res3, _ = project(s, MeasurementEvent(0, (1, 1), 0))
    for q2 in range(3):
        for basis in all_bases(d):
            kinds = set()
            for o in range(d):
                try:
                    res2, _ = project(res3, MeasurementEvent(q2, basis, o))
                except ZeroProbabilityError:
                    continue
                kinds.add(classify2(res2))
            assert len(kinds) == 1


def test_first_qudit_symmetry():
    d = 3
    for fam in ("G", "C", "P"):
        tally = family_tally(fam, d)
        firsts = [tally.first_counts(q) for q in range(4)]
        pairs = [tally.pair_counts(q) for q in range(4)]
        assert all(fc == firsts[0] for fc in firsts)
        assert all(pc == pairs[0] for pc in pairs)
        if fam == "C":
            assert firsts[0][SNB] == 1  # the special case shows up once per qudit


def test_ghz_vulnerable_basis_is_z_on_every_qudit():
    # in the reduced frame, by the oracle; the closed form's tally counts the
    # one product line per qudit
    d = 3
    (first,) = first_patterns([family_tableau("G", d)])
    bases = all_bases(d)
    for q in range(4):
        product_bases = [bases[b] for b in np.flatnonzero(first[q].all(axis=-1))]
        assert product_bases == [Z]
    assert [row[2] for row in family_tally("G", d).moves] == [1] * 4


def test_p_has_no_vulnerable_first_basis():
    d = 3
    (first,) = first_patterns([family_tableau("P", d)])
    assert not first.any()  # no pure residue site: every first move is GHZ3
    assert family_tally("P", d).first_counts() == {PRODUCT: 0, SNB: 0, GHZ3: 4 * (d + 1)}


@pytest.mark.parametrize("d", [3, 5])
def test_p_every_basis_appears_vulnerable_to_second_measurements(d):
    pure = per_line_second_level(family_tableau("P", d))
    bases = all_bases(d)
    vulnerable = {bases[b] for b in np.flatnonzero(pure.any(axis=(0, 1, 2)))}
    assert vulnerable == set(bases)


def test_n_ave_monotone_and_below_three():
    for fam in ("G", "C", "P"):
        values = [persistency_stats(family_tally(fam, d)).n_ave for d in (3, 5, 7, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 3 for v in values)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_bell_fractions(d):
    g_pairs = family_tally("G", d).pair_counts()
    total = 12 * (d + 1) ** 2
    assert Fraction(g_pairs[BELL], total) == Fraction(d * d, (d + 1) ** 2)
    for fam in ("C", "P"):
        pairs = family_tally(fam, d).pair_counts()
        assert Fraction(pairs[BELL], total) > Fraction(d * d, (d + 1) ** 2)


def test_unprimed_graph_states_give_same_tallies():
    # the tallies are invariant under the local Fourier reduction: the
    # oracle's in the graph and reduced frames equal the closed form's
    d = 3
    for fam, graph_fn in (("G", ghz_graph), ("C", cluster_graph), ("P", p_graph)):
        raw, reduced = engine.enumerate_paths([stabilizer_tableau(graph_fn(d), ()),
                                               family_tableau(fam, d)])
        assert raw == reduced == family_tally(fam, d)
        assert raw.first_counts() == reduced.first_counts()
        assert raw.pair_counts() == reduced.pair_counts()


def test_persistency_histogram_totals():
    d = 3
    hist = family_tally("G", d).persistency_histogram()
    assert hist == {1: 48, 2: 36, 3: 108}
    assert sum(hist.values()) == 12 * (d + 1) ** 2


def test_branch_tree_marginals_match_tallies():
    d = 3
    for fam in ("G", "C", "P"):
        tally = family_tally(fam, d)
        tree = tally.branch_tree(0)
        assert sum(node["first_count"] for node in tree) == d + 1
        pair_total = sum(
            node["pairs"][PRODUCT] + node["pairs"][BELL] for node in tree
        )
        assert pair_total == 3 * (d + 1) ** 2
        assert {
            PRODUCT: sum(n["pairs"][PRODUCT] for n in tree),
            BELL: sum(n["pairs"][BELL] for n in tree),
        } == tally.pair_counts(0)


def test_ghz_residual_generators_after_x4():
    # measuring X on the last qudit of the reduced star state leaves a
    # three-qudit state stabilized by XXX, Z Z^-1 I, Z I Z^-1
    d = 3
    gp = family_reduced_state("G", d)
    res, _ = project(gp, MeasurementEvent(3, X, 0))
    for xp, zp in [
        ((1, 1, 1), (0, 0, 0)),
        ((0, 0, 0), (1, d - 1, 0)),
        ((0, 0, 0), (1, 0, d - 1)),
    ]:
        assert verify_eigen(res, np.stack([xp, zp], axis=-1)) == 0


def test_cluster_residual_generators_after_z2():
    # measuring Z on qudit 1 of the reduced square state projects
    # Z Z I (former g_2), X X^-1 I, and I I Z on the residual (0, 2, 3);
    # the Z-word eigenvalues track the measured value omega^j
    d = 3
    cp = family_reduced_state("C", d)
    for outcome in range(d):
        res, _ = project(cp, MeasurementEvent(1, Z, outcome))
        assert verify_eigen(res, [[0, 1], [0, 1], [0, 0]]) == outcome
        assert verify_eigen(res, [[1, 0], [d - 1, 0], [0, 0]]) == 0
        assert verify_eigen(res, [[0, 0], [0, 0], [0, 1]]) == outcome


def reference_paths(s):
    """Single-projection form of the tally, as an oracle ``first_patterns``
    array and a ``pure`` array: one ``project`` call per outcome tried,
    lowest outcome of nonzero probability first, each residue classed by
    ``classify3`` and each pair by ``classify2``."""

    def first_valid(state, qudit, basis):
        for outcome in range(state.d):
            try:
                residual, _ = project(state, MeasurementEvent(qudit, basis, outcome))
                return residual
            except ZeroProbabilityError:
                continue
        raise ZeroProbabilityError("no outcome has nonzero probability")

    bases = all_bases(s.d)
    first = np.zeros((4, s.d + 1, 3), dtype=bool)
    pure = np.zeros((4, s.d + 1, 3, s.d + 1), dtype=bool)
    for q1 in range(4):
        for i1, b1 in enumerate(bases):
            res3 = first_valid(s, q1, b1)
            first[q1, i1] = classify3(res3)
            for q2 in range(3):
                for i2, b2 in enumerate(bases):
                    pure[q1, i1, q2, i2] = classify2(first_valid(res3, q2, b2))
    return first, pure


def rule_product_lines(first):
    """Per residue site, how many of its d+1 second measurements leave a
    product pair, by the module docstring's rule applied to a pattern array
    ``first`` (4 q1, d+1 b1, 3 sites): d+1 on every site of a residue with
    three pure sites, d+1 on each mixed site and 0 on the pure one of a
    residue with one, and exactly 1 on every site of a residue with none."""
    n = first.shape[1]
    n_pure = first.sum(-1, keepdims=True)
    return np.where(n_pure == 3, n, np.where(n_pure == 1, n * ~first, 1))


def matches_reference(t, s, tally):
    """Whether the oracle's patterns of tableau t and the pair classes they
    imply match the single-event reference on the state s of t, and the
    closed-form ``tally`` counts those patterns."""
    (first,) = first_patterns([t])
    ref_first, pure = reference_paths(s)
    return (np.array_equal(first, ref_first) and tally.moves == moves_of(first)
            and np.array_equal(pure.sum(-1), rule_product_lines(first)))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("family", ["G", "C", "P"])
def test_batched_paths_match_reference_families(d, family):
    s = family_reduced_state(family, d)
    assert matches_reference(family_tableau(family, d), s, family_tally(family, d))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_batched_paths_match_reference_random_graphs(d):
    # every third graph keeps a random subset of its edges, so the batch
    # holds disconnected graphs as well as connected ones; at d <= 5 each
    # graph is also compared in a frame with random Fourier sites
    rng = np.random.default_rng(1000 + d)
    weights = rng.integers(0, d, size=(24, 6))
    weights[::3] *= rng.integers(0, 2, size=(8, 6))
    classes = cut_rank_classes(d, weights)
    assert DISCONNECTED in classes and set(classes) != {DISCONNECTED}
    for w in weights:
        g = graph_of(w, d)
        (tally,) = enumerate_paths([g])
        assert matches_reference(stabilizer_tableau(g, ()), build_state(g), tally)
        if d <= 5:  # the same graph with the Fourier gate on random sites
            sites = tuple(np.flatnonzero(rng.integers(0, 2, size=4)))
            state = apply_local_fourier(build_state(g), sites)
            assert matches_reference(stabilizer_tableau(g, sites), state, tally)


def test_batched_paths_match_reference_basis_state():
    # outcome 0 has zero probability for most Z measurements here, so the
    # reference tries later outcomes at both levels; the tableau holds the
    # same state as the rows Z_n
    s = basis_state(3, (1, 2, 0, 1))
    (tally,) = enumerate_paths([empty_graph(3)])
    assert matches_reference(z_tableau(3), s, tally)
    assert tally.first_counts() == {PRODUCT: 16, SNB: 0, GHZ3: 0}


def test_batched_paths_reject_non_graph_state_like_reference(rng):
    # a generic vector is no stabilizer state, so it has no tableau; only
    # the single-event reference sees it
    s = StateVector(3, 4, random_state_amps(rng, 3**4))
    with pytest.raises(ClassificationError):
        reference_paths(s)


def _measure_each(t, d):
    """Residual tableaux of measuring each qudit q of a batch ``t`` (..., rows,
    2n) along every line, in ``all_bases`` order: shape (n, ..., d+1, rows,
    2n-2), the other qudits' columns in order."""
    lines = np.array([(0, 1)] + [(1, k) for k in range(d)])
    return engine._measure(engine._qudit_first(t)[..., None, :, :], lines, d)


def per_line_second_level(t):
    """Per-line form of the second level of the tally: every
    first-level residue measured along every line by one elimination per first
    qudit, each pair classed by its first site's entropy. Shape (4 q1, d+1 b1,
    3 q2, d+1 b2), True for a product pair."""
    d = t.d
    res3 = _measure_each(t.xz.reshape(4, 8), d)  # (q1, b1, rows, 6)
    pure = [tableau_entropy(_measure_each(res3[q1], d), ((0,),), d)[..., 0] == 0
            for q1 in range(4)]  # each (q2, b1, b2)
    return np.stack(pure).transpose(0, 2, 1, 3)


def random_graph_tableau(rng, d, w=None):
    """A graph and its tableau in a frame with the Fourier gate on random
    sites, its rows mixed by a random invertible matrix mod d. The edge
    weights ``w`` default to random ones, one graph in three keeping a random
    subset."""
    if w is None:
        w = rng.integers(0, d, size=6)
        w = w * (rng.integers(0, 2, size=6) if rng.random() < 1 / 3 else 1)
    g = graph_of(w, d)
    xz = stabilizer_tableau(g, tuple(np.flatnonzero(rng.integers(0, 2, size=4)))).xz
    mix = rng.integers(0, d, size=(4, 4))
    while rank_mod(mix, d) < 4:
        mix = rng.integers(0, d, size=(4, 4))
    return g, Tableau(d, np.einsum("mn,nqk->mqk", mix, xz) % d)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31, 101])
def test_second_level_rule_matches_per_line_oracle(d):
    # the purity-pattern rule of the tally against one elimination per
    # second measurement, over tableaux whose residues take every pattern
    rng = np.random.default_rng(2000 + d)
    kinds = set()
    for _ in range(12 if d > 13 else 24):
        g, t = random_graph_tableau(rng, d)
        (first,) = first_patterns([t])
        (tally,) = enumerate_paths([g])
        assert tally.moves == moves_of(first)
        pure = per_line_second_level(t)
        assert np.array_equal(pure.sum(-1), rule_product_lines(first))
        kinds |= {k for k, n in tally.first_counts().items() if n}
    assert kinds == {PRODUCT, SNB, GHZ3}


def test_mixed_d_batch_matches_one_call_per_tableau():
    # one oracle call over random graph tableaux of shuffled primes, in random
    # Fourier frames with their rows mixed, eliminated as one slice, against
    # one call per tableau and the closed form over the graphs in one call
    rng = np.random.default_rng(2500)
    d_values = rng.permutation(np.repeat([2, 3, 5, 7, 11, 13, 31, 101], 3)).tolist()
    graphs, tableaux = zip(*(random_graph_tableau(rng, d) for d in d_values))
    assert sum(4 * (d + 1) for d in d_values) <= engine._GROUP_ROWS
    batch = engine.enumerate_paths(tableaux)
    assert [tally.d for tally in batch] == d_values
    for t, tally in zip(tableaux, batch):
        (alone,) = engine.enumerate_paths([t])
        assert tally == alone
    assert enumerate_paths(graphs) == batch


def test_row_slices_cut_through_tableaux(monkeypatch):
    # 4(d+1) first-measurement rows per tableau; slices of 7 rows cut through
    # most tableaux, and d = 1009 spans hundreds of them, yet each oracle
    # tally equals the one of a call of its own, and the closed form's
    rng = np.random.default_rng(2600)
    d_values = [13, 1009, 11, 7, 3, 2, 5]
    graphs, tableaux = zip(*(random_graph_tableau(rng, d) for d in d_values))
    alone = [engine.enumerate_paths([t])[0] for t in tableaux]
    assert enumerate_paths(graphs) == alone
    sizes, classify_rows = [], engine._classify_rows
    monkeypatch.setattr(engine, "_GROUP_ROWS", 7)
    monkeypatch.setattr(engine, "_classify_rows",
                        lambda g, line, d: sizes.append(len(d)) or classify_rows(g, line, d))
    assert engine.enumerate_paths(tableaux) == alone
    rows = sum(4 * (d + 1) for d in d_values)
    assert sizes == [min(7, rows - start) for start in range(0, rows, 7)]


def test_two_pure_site_residue_raises():
    # no stabilizer residue has exactly two pure sites: the oracle refuses
    # such a pattern, and the closed form such pure-line sets, on every line
    # or on the one line the two sites share
    first = np.zeros((4, 4, 3), dtype=bool)
    first[2, 1, :2] = True
    with pytest.raises(ClassificationError):
        moves_of(first)
    for lines in ([EVERY_LINE, EVERY_LINE, None], [EVERY_LINE, 2, None], [None, 3, 3],
                  [EVERY_LINE, EVERY_LINE, 0]):
        with pytest.raises(ClassificationError, match="purity pattern"):
            steering._qudit_moves(3, lines)
    assert steering._qudit_moves(3, [EVERY_LINE, EVERY_LINE, EVERY_LINE]) == (0, 0, 4)
    assert steering._qudit_moves(3, [None, 1, None]) == (3, 1, 0)


def looped_readers(tally, first, pure, qudit):
    """first_counts, pair_counts, persistency_histogram and branch_tree of a
    tally, by a plain loop over the oracle's pattern array ``first`` and its
    per-line pairs ``pure``."""
    d = tally.d
    counts, pairs, hist = {PRODUCT: 0, SNB: 0, GHZ3: 0}, {PRODUCT: 0, BELL: 0}, {1: 0, 2: 0, 3: 0}
    branches = {}
    for q1 in range(4) if qudit is None else (qudit,):
        for b1 in range(d + 1):
            kind = {3: PRODUCT, 1: SNB, 0: GHZ3}[int(first[q1, b1].sum())]
            counts[kind] += 1
            node = branches.setdefault(
                kind, {"first_class": kind, "first_count": 0, "pairs": {PRODUCT: 0, BELL: 0}})
            node["first_count"] += 1
            for q2 in range(3):
                for b2 in range(d + 1):
                    pair = PRODUCT if pure[q1, b1, q2, b2] else BELL
                    pairs[pair] += 1
                    node["pairs"][pair] += 1
                    hist[1 if kind == PRODUCT else 2 if pair == PRODUCT else 3] += 1
    return counts, pairs, hist, [branches[k] for k in (PRODUCT, SNB, GHZ3) if k in branches]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tally_readers_match_loop_over_arrays(d):
    rng = np.random.default_rng(3000 + d)
    cases = [(family_graph(f, d), family_tableau(f, d)) for f in ("G", "C", "P")]
    cases += [(empty_graph(d), z_tableau(d))]
    cases += [random_graph_tableau(rng, d) for _ in range(6)]
    for g, t in cases:
        (tally,) = enumerate_paths([g])
        (first,) = first_patterns([t])
        pure = per_line_second_level(t)
        for qudit in (None, 0, 1, 2, 3):
            readers = (tally.first_counts(qudit), tally.pair_counts(qudit),
                       tally.persistency_histogram(qudit), tally.branch_tree(qudit))
            assert readers == looped_readers(tally, first, pure, qudit)
            assert all(type(n) is int for reader in readers[:3] for n in reader.values())


def test_path_tally_arrays_are_read_only_and_checked():
    # the oracle's pattern arrays are read-only; a tally holds only d and its
    # checked table of moves, and compares by them
    (first,) = first_patterns([family_tableau("C", 3)])
    with pytest.raises(ValueError):
        first[0, 0, 0] = True
    tally = family_tally("C", 3)
    assert tally.moves == moves_of(first) == ((3, 1, 0),) * 4
    assert tally == PathTally(3, [list(row) for row in tally.moves])
    assert tally != PathTally(3, ((0, 0, 4),) * 4)  # every move now leaves a product
    for d, moves in ((5, tally.moves), (3, tally.moves[:3]), (3, ((3, 1),) * 4),
                     (3, ((5, -1, 0),) * 4), (3, ((3.0, 1, 0),) * 4)):
        with pytest.raises((ValueError, TypeError)):
            PathTally(d, moves)
    with pytest.raises(AttributeError):
        tally.moves = ((0, 0, 4),) * 4


@pytest.mark.parametrize("qudit", [-1, 4, 7, 9])
def test_tally_readers_reject_a_bad_qudit(qudit):
    tally = family_tally("C", 3)
    for reader in (tally.first_counts, tally.pair_counts,
                   tally.persistency_histogram, tally.branch_tree):
        with pytest.raises(ValueError, match="qudit"):
            reader(qudit)


def test_enumerate_paths_eliminates_once_per_row_slice(monkeypatch):
    # the oracle: the 18 family tableaux at d = 2..13 fit one row slice
    tableaux = [family_tableau(f, d) for d in (2, 3, 5, 7, 11, 13) for f in ("G", "C", "P")]
    assert sum(4 * (t.d + 1) for t in tableaux) <= engine._GROUP_ROWS
    calls, eliminate = [], engine.eliminate_mod
    monkeypatch.setattr(engine, "eliminate_mod",
                        lambda *args: calls.append(1) or eliminate(*args))
    engine.enumerate_paths(tableaux)
    assert len(calls) == 1


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_tally_moves_table_matches_per_move_counts(d):
    # the readers are closed forms of the per-qudit table of first moves by
    # pure residue sites; check them against sums over the moves themselves
    rng = np.random.default_rng(4100 + d)
    n = d + 1
    graphs, tableaux = zip(*(random_graph_tableau(rng, d) for _ in range(40)))
    for tally, first in zip(enumerate_paths(graphs), first_patterns(tableaux)):
        n_pure = first.sum(-1)  # (4 q1, d+1 b1), by the oracle
        counts = tuple(tuple(int((row == k).sum()) for k in (0, 1, 3)) for row in n_pure)
        assert tally.moves == counts
        assert all(type(c) is int for row in tally.moves for c in row)
        products = np.where(n_pure == 3, 3 * n, np.where(n_pure == 1, 2 * n, 3))
        for q in (None, 0, 1, 2, 3):
            sel = slice(None) if q is None else slice(q, q + 1)
            moves, prods, pure = n_pure[sel].size, int(products[sel].sum()), n_pure[sel] == 3
            assert tally.pair_counts(q) == {PRODUCT: prods, BELL: 3 * n * moves - prods}
            counts = {k: int((n_pure[sel] == k).sum()) for k in (0, 1, 3)}
            assert tally.first_counts(q) == {PRODUCT: counts[3], SNB: counts[1], GHZ3: counts[0]}
            entangled = int(products[sel][~pure].sum())
            assert tally.persistency_histogram(q) == {
                1: 3 * n * counts[3], 2: entangled, 3: 3 * n * (counts[0] + counts[1]) - entangled}
        for q in range(4):
            tree = {b["first_class"]: (b["first_count"], b["pairs"]) for b in tally.branch_tree(q)}
            for kind, k in ((PRODUCT, 3), (SNB, 1), (GHZ3, 0)):
                branch = n_pure[q] == k
                prods = int(products[q][branch].sum())
                expected = (int(branch.sum()), {PRODUCT: prods, BELL: 3 * n * branch.sum() - prods})
                assert tree.get(kind) == (expected if branch.any() else None)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_all_pure_first_moves_mean_a_product_state(d):
    # random graphs of random edge density, so many are products or hold a
    # lone Bell pair, in random Fourier frames with their rows mixed
    rng = np.random.default_rng(3500 + d)
    weights = rng.integers(1, d, size=(300, 6)) * (rng.random((300, 6)) < rng.random((300, 1)))
    graphs, tableaux = zip(*(random_graph_tableau(rng, d, w) for w in weights))
    all_pure = np.array([first.all() for first in first_patterns(tableaux)])
    entropy = tableau_entropy(np.stack([t.xz.reshape(4, 8) for t in tableaux]),
                              [(i,) for i in range(4)], d)
    product = (entropy == 0).all(-1)
    assert np.array_equal(all_pure, product)
    assert 0 < product.sum() < len(tableaux)
    # the closed form: every move of every qudit leaves a product
    moves_all_pure = [tally.moves == ((0, 0, d + 1),) * 4 for tally in enumerate_paths(graphs)]
    assert np.array_equal(moves_all_pure, product)


def closed_form_persistency(family, d):
    """(n_ave, delta) of a family, from its expected pair tallies."""
    den = 3 * (d + 1) ** 2
    if family == "G":
        return Fraction(9 * d * d + 9 * d + 3, den), Fraction(3 * (d * d - 2 * d - 1), den)
    if family == "C":
        return Fraction(9 * d * d + 13 * d + 7, den), Fraction(3 * d * d - 4 * d - 1, den)
    return Fraction(3 * d + 2, d + 1), Fraction(d - 1, d + 1)


# every prime d that ``tables`` accepts, and P beyond that cap
CLOSED_FORM_CASES = [
    (family, d) for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for family in ("G", "C", "P")
] + [("P", 61), ("P", 101)]


@pytest.mark.parametrize("family,d", CLOSED_FORM_CASES)
def test_persistency_closed_forms(d, family):
    stats = persistency_stats(family_tally(family, d))
    n_ave, delta = closed_form_persistency(_family_effective(family, d), d)
    assert stats.n_ave == n_ave
    assert stats.delta == delta


def test_report_persistency_matches_closed_forms():
    # the tables bundle's own exact n_ave and delta, which its checklist holds
    # to an expectation at d = 3 only; at d = 2, P collapses to C
    d_values = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 1009, 10007]
    bundle, _ = build_report(d_values)
    mismatches = []
    for d in d_values:
        for family in ("G", "C", "P"):
            row = bundle["sections"][str(d)]["persistency"][family]
            actual = Fraction(row["n_ave"]["exact"]), Fraction(row["delta"]["exact"])
            expected = closed_form_persistency("C" if (family, d) == ("P", 2) else family, d)
            if actual != expected:
                mismatches.append((family, d, actual, expected))
    assert mismatches == []


@pytest.mark.parametrize("family,d", CLOSED_FORM_CASES)
def test_tally_closed_forms(d, family):
    tally = family_tally(family, d)
    assert tally.first_counts() == EXPECTED_FIRST[_family_effective(family, d)](d)
    assert tally.pair_counts() == EXPECTED_PAIRS[_family_effective(family, d)](d)


def random_weights(rng, d, n):
    """n rows of six random weights mod d over a random edge density each,
    zero weights and isolated vertices included, and every support: row k
    keeps the support of the six bits of k."""
    weights = rng.integers(0, d, size=(n, 6)) * (rng.random((n, 6)) < rng.random((n, 1)))
    supports = (np.arange(64)[:, None] >> np.arange(6)) & 1
    weights[:64] = supports[:n] * rng.integers(1, d, size=(min(n, 64), 6))
    return weights


@pytest.mark.parametrize("d", [p for p in range(2, 102) if is_prime(p)])
def test_closed_form_matches_oracle_on_random_graphs(d):
    # every support of the six edges, disconnected ones included, and random
    # weights of random density, each in a random Fourier frame: the moves
    # and entropies of the closed form against the elimination engine
    rng = np.random.default_rng(5000 + d)
    graphs = [graph_of(w, d) for w in random_weights(rng, d, 96)]
    tableaux = [stabilizer_tableau(g, tuple(np.flatnonzero(rng.integers(0, 2, size=4))))
                for g in graphs]
    assert enumerate_paths(graphs) == engine.enumerate_paths(tableaux)
    assert [graph_entropies(g) for g in graphs] == engine.tableau_entropies(tableaux)
    classes = set(cut_rank_classes(d, [g.weights for g in graphs]))
    assert DISCONNECTED in classes and len(classes) == (3 if d == 2 else 4)  # P = C at d = 2


@pytest.mark.parametrize("d", [2, 3, 13, 101])
def test_closed_form_matches_oracle_in_every_fourier_frame(d):
    # G, C and P with the Fourier gate on each of the 16 site sets: the tally
    # and entropies of a state do not depend on its local frame
    graphs = [family_graph(f, d) for f in ("G", "C", "P")]
    frames = [tuple(q for q in range(4) if mask >> q & 1) for mask in range(16)]
    tableaux = stabilizer_tableaux((g, sites) for g in graphs for sites in frames)
    expected = [t for t in enumerate_paths(graphs) for _ in frames]
    assert engine.enumerate_paths(tableaux) == expected
    entropies = [graph_entropies(g) for g in graphs for _ in frames]
    assert engine.tableau_entropies(tableaux) == entropies


@pytest.mark.parametrize("d", [1009, 10007])
def test_closed_form_matches_oracle_on_families_at_large_d(d):
    graphs = [family_graph(f, d) for f in ("G", "C", "P")]
    tableaux = [family_tableau(f, d) for f in ("G", "C", "P")]
    assert enumerate_paths(graphs) == engine.enumerate_paths(tableaux)
    assert [graph_entropies(g) for g in graphs] == engine.tableau_entropies(tableaux)


def test_build_report_runs_no_elimination(monkeypatch):
    # the bundle is closed forms of the weights: with every GF(d) elimination
    # and rank route made to raise, wherever it is bound, build_report still
    # gives the pinned bytes at d = 2..13 and at the cap, and the two in one call
    def refuse(*args, **kwargs):
        raise AssertionError("tables ran an elimination")

    modules = [m for name, m in sys.modules.items()
               if name == "engine" or name.startswith("quditgraph")]
    patched = 0
    for module in modules:
        for name in ("eliminate_mod", "rank_mod", "tableau_entropy", "tableau_entropies"):
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, refuse)
                patched += 1
    assert patched >= 5  # pauli's two, states' rank_mod, the engine's four
    with pytest.raises(AssertionError, match="elimination"):
        stabilizer_tableau(ghz_graph(3), ())
    bundles = {}
    for name, d_values in (("tables-d2to13", [2, 3, 5, 7, 11, 13]), ("tables-d10007", [10007])):
        bundles[name], ok = build_report(d_values)
        text = json_text(bundles[name]).encode()
        assert ok and hashlib.sha256(text).hexdigest() == PINS[name].sha256
    both, ok = build_report([2, 3, 5, 7, 11, 13, 10007])
    assert ok and both["sections"] == {**bundles["tables-d2to13"]["sections"],
                                       **bundles["tables-d10007"]["sections"]}


def bad_tableau_inputs():
    """(d, xz) pairs that are no tableau, each with what is wrong with it."""
    good = family_tableau("C", 3).xz
    dependent = good.copy()
    dependent[3] = (dependent[0] + 2 * dependent[1]) % 3
    anticommuting = np.zeros((4, 4, 2), dtype=int)  # rows X_0, Z_0, X_2, X_3
    anticommuting[[0, 1, 2, 3], [0, 0, 2, 3]] = [(1, 0), (0, 1), (1, 0), (1, 0)]
    return [
        ("not prime", 4, good),
        ("wrong shape", 3, good[:3]),
        ("not integers", 3, good.astype(float)),
        ("no state at all", 3, np.zeros((4, 4, 2), dtype=int)),
        ("dependent rows", 3, dependent),
        ("anticommuting rows", 3, anticommuting),
    ]


def test_tableau_rejects_bad_input():
    for _, d, xz in bad_tableau_inputs():
        with pytest.raises(ValueError):
            Tableau(d, xz)
    with pytest.raises(ValueError):
        stabilizer_tableau(ghz_graph(3), (4,))


MIXED_D_FAMILY_TABLEAUX = [(d, f) for d in (2, 3, 13, 1009) for f in ("G", "C", "P")]


@pytest.mark.parametrize("case", [case for case, _, _ in bad_tableau_inputs()])
@pytest.mark.parametrize("at", [0, 5, 12])
def test_tableau_batch_rejects_bad_input_mid_batch(case, at):
    # valid family tableaux of d = 2, 3, 13 and 1009 around one bad input
    [(d_bad, xz_bad)] = [(d, xz) for name, d, xz in bad_tableau_inputs() if name == case]
    valid = [family_tableau(f, d) for d, f in MIXED_D_FAMILY_TABLEAUX]
    d_values, xz_values = [t.d for t in valid], [t.xz for t in valid]
    d_values.insert(at, d_bad)
    xz_values.insert(at, xz_bad)
    with pytest.raises(ValueError):
        tableau_batch(d_values, xz_values)
    del d_values[at], xz_values[at]
    assert len(tableau_batch(d_values, xz_values)) == len(valid)


def test_stabilizer_tableaux_reject_bad_sites_mid_batch():
    pairs = [(family_graph(f, d), family_fourier_sites(f)) for d, f in MIXED_D_FAMILY_TABLEAUX]
    for sites in [(4,), (-1,), (0, 5)]:
        with pytest.raises(ValueError, match="out of range"):
            stabilizer_tableaux(pairs[:5] + [(ghz_graph(3), sites)] + pairs[5:])


def test_tableau_batch_equals_per_tableau_construction():
    rng = np.random.default_rng(4242)
    graphs = [(family_graph(f, d), family_fourier_sites(f)) for d, f in MIXED_D_FAMILY_TABLEAUX]
    for d in (2, 3, 13, 1009):
        for _ in range(5):
            w = np.zeros((4, 4), dtype=int)
            w[np.triu_indices(4, 1)] = rng.integers(0, d, size=6)
            graphs.append((AdjacencyMatrix.from_array(w + w.T, d),
                           tuple(np.flatnonzero(rng.integers(0, 2, size=4)))))
    batch = stabilizer_tableaux(graphs)
    for t, (g, sites) in zip(batch, graphs, strict=True):
        # the per-site Fourier swap (x, z) -> (z, -x), then the single constructor
        xz = np.stack([np.eye(4, dtype=int), g.as_array()], axis=-1)
        xz[:, list(sites)] = xz[:, list(sites), ::-1] * (1, -1)
        for other in (Tableau(g.d, xz), stabilizer_tableau(g, sites)):
            assert type(t.d) is int and t.d == other.d == g.d
            assert np.array_equal(t.xz, other.xz) and t.xz.dtype == other.xz.dtype
            assert not t.xz.flags.writeable and not other.xz.flags.writeable
    # raw rows off by multiples of d are reduced as Tableau(d, xz) reduces them
    shifted = [t.xz + t.d * rng.integers(-3, 4, size=t.xz.shape) for t in batch]
    for t, u in zip(batch, tableau_batch([t.d for t in batch], shifted), strict=True):
        assert u.d == t.d and np.array_equal(u.xz, t.xz) and not u.xz.flags.writeable
        with pytest.raises(ValueError):
            u.xz[0, 0, 0] = 1
    assert tableau_batch([], []) == [] and stabilizer_tableaux([]) == []


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("family", ["G", "C", "P"])
def test_tableau_rows_stabilize_reduced_state(d, family):
    # each row, as a phase-free Pauli word, maps the reduced family state to
    # a multiple of itself: |<s|W|s>| = 1
    s = family_reduced_state(family, d)
    for row in family_tableau(family, d).xz:
        w = s.reshaped()
        for q, (x, z) in enumerate(row):
            w = np.moveaxis(np.tensordot(site_matrix(d, x, z), w, axes=([1], [q])), 0, q)
        assert abs(np.vdot(s.amps, w.reshape(-1))) == pytest.approx(1.0, abs=1e-9)
