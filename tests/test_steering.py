"""Measurement bases, projections, residue classification, and path tallies."""

from fractions import Fraction

import numpy as np
import pytest

from quditgraph import (
    ClassificationError,
    MeasurementBasis,
    MeasurementEvent,
    StateVector,
    ZeroProbabilityError,
    all_bases,
    apply_local_fourier,
    build_state,
    classify2,
    classify3,
    enumerate_paths,
    ghz3_state,
    mub_eigenstate,
    persistency_stats,
    pauli,
    project,
    report,
    steering,
    verify_eigen,
)
from quditgraph.classify import DISCONNECTED, cut_rank_classes
from quditgraph.graphs import AdjacencyMatrix, cluster_graph, ghz_graph, p_graph
from quditgraph.pauli import omega_powers, rank_mod, site_matrix
from quditgraph.report import _family_effective, build_report
from quditgraph.states import (
    Tableau,
    family_fourier_sites,
    family_graph,
    family_reduced_state,
    stabilizer_tableau,
    stabilizer_tableaux,
    tableau_batch,
    tableau_entropy,
)
from quditgraph.steering import (
    BELL,
    GHZ3,
    PRODUCT,
    SNB,
    PathTally,
    _measure,
    _qudit_first,
    basis_eigenvalue,
    basis_operator,
)

from conftest import family_tableau, random_state_amps, z_tableau


def bell_state(d):
    arr = np.zeros((d, d), dtype=complex)
    for i in range(d):
        arr[i, i] = 1 / np.sqrt(d)
    return StateVector(d, 2, arr.reshape(-1))


def test_basis_count_and_names():
    bases = all_bases(3)
    assert len(bases) == 4
    assert [b.name for b in bases] == ["Z", "X", "XZ", "XZ^2"]


def test_z_basis_eigenstate():
    d = 5
    for i in range(d):
        v = mub_eigenstate(MeasurementBasis.z(), i, d).amps
        expected = np.zeros(d)
        expected[i] = 1.0
        np.testing.assert_allclose(v, expected, atol=1e-12)
        assert basis_eigenvalue(MeasurementBasis.z(), i, d) == pytest.approx(
            omega_powers(d)[i]
        )


def test_x_basis_eigenstate_convention():
    # outcome j carries the Fourier vector with components omega^(jm) and
    # X eigenvalue omega^(-j)
    d = 3
    for j in range(d):
        v = mub_eigenstate(MeasurementBasis.xz(0), j, d).amps
        expected = omega_powers(d)[(j * np.arange(d)) % d] / np.sqrt(d)
        np.testing.assert_allclose(v, expected, atol=1e-12)
        assert basis_eigenvalue(MeasurementBasis.xz(0), j, d) == pytest.approx(
            omega_powers(d)[(-j) % d]
        )


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_all_basis_vectors_satisfy_eigen_equation(d):
    for b in all_bases(d):
        u = basis_operator(b, d)
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
            v1 = mub_eigenstate(MeasurementBasis.xz(0), o1, d).amps
            v2 = mub_eigenstate(MeasurementBasis.xz(1), o2, d).amps
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
    res, prob = project(gp, MeasurementEvent(0, MeasurementBasis.z(), 0))
    assert prob == pytest.approx(1 / d, abs=1e-9)
    np.testing.assert_allclose(res.amps, StateVector.basis_state(d, (0, 0, 0)).amps, atol=1e-9)


def test_project_ghz_x_measurement_leaves_ghz3():
    d = 3
    gp = family_reduced_state("G", d)
    for outcome in range(d):
        res, prob = project(gp, MeasurementEvent(3, MeasurementBasis.xz(0), outcome))
        assert prob == pytest.approx(1 / d, abs=1e-9)
        assert classify3(res).kind == GHZ3


def test_project_cluster_z2_separates_diagonal_partner():
    d = 3
    cp = family_reduced_state("C", d)
    for outcome in range(d):
        res, _ = project(cp, MeasurementEvent(1, MeasurementBasis.z(), outcome))
        c = classify3(res)
        assert c.kind == SNB
        assert c.separated == 2  # original qudit 3, diagonally opposite qudit 1


def test_cluster_snb_cases_follow_diagonals():
    # measured qudit -> (vulnerable basis, separated original qudit)
    d = 3
    cp = family_reduced_state("C", d)
    cases = {
        0: (MeasurementBasis.xz(0), 2),
        1: (MeasurementBasis.z(), 3),
        2: (MeasurementBasis.xz(0), 0),
        3: (MeasurementBasis.z(), 1),
    }
    for qudit, (basis, sep_orig) in cases.items():
        res, _ = project(cp, MeasurementEvent(qudit, basis, 0))
        c = classify3(res)
        assert c.kind == SNB
        expected_residual = sep_orig if sep_orig < qudit else sep_orig - 1
        assert c.separated == expected_residual


def test_project_zero_probability_flagged():
    d = 3
    s = StateVector.basis_state(d, (1, 0))
    with pytest.raises(ZeroProbabilityError):
        project(s, MeasurementEvent(0, MeasurementBasis.z(), 0))


def test_classify3_examples():
    d = 3
    assert classify3(ghz3_state(d)).kind == GHZ3
    sep = np.kron(StateVector.basis_state(d, (0,)).amps, bell_state(d).amps)
    c = classify3(StateVector(d, 3, sep))
    assert (c.kind, c.separated) == (SNB, 0)
    assert classify3(StateVector.basis_state(d, (0, 0, 0))).kind == PRODUCT


def test_classify2_examples():
    d = 3
    assert classify2(bell_state(d)).kind == BELL
    assert classify2(StateVector.basis_state(d, (0, 0))).kind == PRODUCT


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
    (tally,) = enumerate_paths([family_tableau(family, d)])
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
        stats = persistency_stats(family_tableau(fam, 3))
        assert stats.n_ave == ave
        assert stats.n_min == nmin
        assert stats.delta == delta


def test_persistency_product_input():
    stats = persistency_stats(z_tableau(3))
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
        for basis in (MeasurementBasis.z(), MeasurementBasis.xz(0), MeasurementBasis.xz(2)):
            classes = [
                classify3(project(s, MeasurementEvent(qudit, basis, o))[0])
                for o in range(d)
            ]
            assert len(set(classes)) == 1


def test_second_level_outcome_independence_d3():
    d = 3
    s = family_reduced_state("C", d)
    res3, _ = project(s, MeasurementEvent(0, MeasurementBasis.xz(1), 0))
    for q2 in range(3):
        for basis in all_bases(d):
            kinds = set()
            for o in range(d):
                try:
                    res2, _ = project(res3, MeasurementEvent(q2, basis, o))
                except ZeroProbabilityError:
                    continue
                kinds.add(classify2(res2).kind)
            assert len(kinds) == 1


def test_first_qudit_symmetry():
    d = 3
    for fam in ("G", "C", "P"):
        (tally,) = enumerate_paths([family_tableau(fam, d)])
        firsts = [tally.first_counts(q) for q in range(4)]
        pairs = [tally.pair_counts(q) for q in range(4)]
        assert all(fc == firsts[0] for fc in firsts)
        assert all(pc == pairs[0] for pc in pairs)
        if fam == "C":
            assert firsts[0][SNB] == 1  # the special case shows up once per qudit


def test_ghz_vulnerable_basis_is_z_on_every_qudit():
    d = 3
    (tally,) = enumerate_paths([family_tableau("G", d)])
    bases = all_bases(d)
    for q in range(4):
        product_bases = [bases[b] for b in np.flatnonzero(tally.first[q].all(axis=-1))]
        assert product_bases == [MeasurementBasis.z()]


def test_p_has_no_vulnerable_first_basis():
    d = 3
    (tally,) = enumerate_paths([family_tableau("P", d)])
    assert not tally.first.any()  # no pure residue site: every first move is GHZ3
    assert tally.first_counts() == {PRODUCT: 0, SNB: 0, GHZ3: 4 * (d + 1)}


@pytest.mark.parametrize("d", [3, 5])
def test_p_every_basis_appears_vulnerable_to_second_measurements(d):
    pure = per_line_second_level(family_tableau("P", d))
    bases = all_bases(d)
    vulnerable = {bases[b] for b in np.flatnonzero(pure.any(axis=(0, 1, 2)))}
    assert vulnerable == set(bases)


def test_n_ave_monotone_and_below_three():
    for fam in ("G", "C", "P"):
        values = [
            persistency_stats(family_tableau(fam, d)).n_ave for d in (3, 5, 7, 11)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 3 for v in values)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_bell_fractions(d):
    (tally,) = enumerate_paths([family_tableau("G", d)])
    g_pairs = tally.pair_counts()
    total = 12 * (d + 1) ** 2
    assert Fraction(g_pairs[BELL], total) == Fraction(d * d, (d + 1) ** 2)
    for fam in ("C", "P"):
        (tally,) = enumerate_paths([family_tableau(fam, d)])
        pairs = tally.pair_counts()
        assert Fraction(pairs[BELL], total) > Fraction(d * d, (d + 1) ** 2)


def test_unprimed_graph_states_give_same_tallies():
    # the tallies are invariant under the local Fourier reduction
    d = 3
    for fam, graph_fn in (("G", ghz_graph), ("C", cluster_graph), ("P", p_graph)):
        (raw,) = enumerate_paths([stabilizer_tableau(graph_fn(d), ())])
        (reduced,) = enumerate_paths([family_tableau(fam, d)])
        assert raw.first_counts() == reduced.first_counts()
        assert raw.pair_counts() == reduced.pair_counts()


def test_persistency_histogram_totals():
    d = 3
    (tally,) = enumerate_paths([family_tableau("G", d)])
    hist = tally.persistency_histogram()
    assert hist == {1: 48, 2: 36, 3: 108}
    assert sum(hist.values()) == 12 * (d + 1) ** 2


def test_branch_tree_marginals_match_tallies():
    d = 3
    for fam in ("G", "C", "P"):
        (tally,) = enumerate_paths([family_tableau(fam, d)])
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
    res, _ = project(gp, MeasurementEvent(3, MeasurementBasis.xz(0), 0))
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
        res, _ = project(cp, MeasurementEvent(1, MeasurementBasis.z(), outcome))
        assert verify_eigen(res, [[0, 1], [0, 1], [0, 0]]) == outcome
        assert verify_eigen(res, [[1, 0], [d - 1, 0], [0, 0]]) == 0
        assert verify_eigen(res, [[0, 0], [0, 0], [0, 1]]) == outcome


def reference_paths(s):
    """Single-projection form of ``enumerate_paths``, as a tally's ``first``
    and ``pure`` arrays: one ``project`` call per outcome tried, lowest
    outcome of nonzero probability first, each residue classed by
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
            c3 = classify3(res3)
            first[q1, i1] = [c3.kind == PRODUCT or c3.separated == site for site in range(3)]
            for q2 in range(3):
                for i2, b2 in enumerate(bases):
                    pure[q1, i1, q2, i2] = classify2(first_valid(res3, q2, b2)).kind == PRODUCT
    return first, pure


def rule_product_lines(first):
    """Per residue site, how many of its d+1 second measurements leave a
    product pair, by the module docstring's rule applied to a tally's
    ``first`` (4 q1, d+1 b1, 3 sites): d+1 on every site of a residue with
    three pure sites, d+1 on each mixed site and 0 on the pure one of a
    residue with one, and exactly 1 on every site of a residue with none."""
    n = first.shape[1]
    n_pure = first.sum(-1, keepdims=True)
    return np.where(n_pure == 3, n, np.where(n_pure == 1, n * ~first, 1))


def matches_reference(tally, s):
    first, pure = reference_paths(s)
    return (np.array_equal(tally.first, first)
            and np.array_equal(pure.sum(-1), rule_product_lines(tally.first)))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("family", ["G", "C", "P"])
def test_batched_paths_match_reference_families(d, family):
    s = family_reduced_state(family, d)
    (tally,) = enumerate_paths([family_tableau(family, d)])
    assert matches_reference(tally, s)


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
        grid = np.zeros((4, 4), dtype=int)
        grid[np.triu_indices(4, 1)] = w
        g = AdjacencyMatrix.from_array(grid + grid.T, d)
        (tally,) = enumerate_paths([stabilizer_tableau(g, ())])
        assert matches_reference(tally, build_state(g))
        if d <= 5:  # the same graph with the Fourier gate on random sites
            sites = tuple(np.flatnonzero(rng.integers(0, 2, size=4)))
            state = apply_local_fourier(build_state(g), sites)
            (tally,) = enumerate_paths([stabilizer_tableau(g, sites)])
            assert matches_reference(tally, state)


def test_batched_paths_match_reference_basis_state():
    # outcome 0 has zero probability for most Z measurements here, so the
    # reference tries later outcomes at both levels; the tableau holds the
    # same state as the rows Z_n
    s = StateVector.basis_state(3, (1, 2, 0, 1))
    (tally,) = enumerate_paths([z_tableau(3)])
    assert matches_reference(tally, s)
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
    return _measure(_qudit_first(t)[..., None, :, :], lines, d)


def per_line_second_level(t):
    """Per-line form of the second level of ``enumerate_paths``: every
    first-level residue measured along every line by one elimination per first
    qudit, each pair classed by its first site's entropy. Shape (4 q1, d+1 b1,
    3 q2, d+1 b2), True for a product pair."""
    d = t.d
    res3 = _measure_each(t.xz.reshape(4, 8), d)  # (q1, b1, rows, 6)
    pure = [tableau_entropy(_measure_each(res3[q1], d), ((0,),), d)[..., 0] == 0
            for q1 in range(4)]  # each (q2, b1, b2)
    return np.stack(pure).transpose(0, 2, 1, 3)


def random_graph_tableau(rng, d, w=None):
    """A graph's tableau in a frame with the Fourier gate on random sites, its
    rows mixed by a random invertible matrix mod d. The edge weights ``w``
    default to random ones, one graph in three keeping a random subset."""
    if w is None:
        w = rng.integers(0, d, size=6)
        w = w * (rng.integers(0, 2, size=6) if rng.random() < 1 / 3 else 1)
    grid = np.zeros((4, 4), dtype=int)
    grid[np.triu_indices(4, 1)] = w
    g = AdjacencyMatrix.from_array(grid + grid.T, d)
    xz = stabilizer_tableau(g, tuple(np.flatnonzero(rng.integers(0, 2, size=4)))).xz
    mix = rng.integers(0, d, size=(4, 4))
    while rank_mod(mix, d) < 4:
        mix = rng.integers(0, d, size=(4, 4))
    return Tableau(d, np.einsum("mn,nqk->mqk", mix, xz) % d)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31, 101])
def test_second_level_rule_matches_per_line_oracle(d):
    # the purity-pattern rule of enumerate_paths against one elimination per
    # second measurement, over tableaux whose residues take every pattern
    rng = np.random.default_rng(2000 + d)
    kinds = set()
    for _ in range(12 if d > 13 else 24):
        t = random_graph_tableau(rng, d)
        (tally,) = enumerate_paths([t])
        pure = per_line_second_level(t)
        assert np.array_equal(pure.sum(-1), rule_product_lines(tally.first))
        kinds |= {k for k, n in tally.first_counts().items() if n}
    assert kinds == {PRODUCT, SNB, GHZ3}


def test_mixed_d_batch_matches_one_call_per_tableau():
    # one enumerate_paths call over random graph tableaux of shuffled primes,
    # in random Fourier frames with their rows mixed, eliminated as one slice
    rng = np.random.default_rng(2500)
    d_values = rng.permutation(np.repeat([2, 3, 5, 7, 11, 13, 31, 101], 3)).tolist()
    tableaux = [random_graph_tableau(rng, d) for d in d_values]
    assert sum(4 * (d + 1) for d in d_values) <= steering._GROUP_ROWS
    batch = enumerate_paths(tableaux)
    assert [tally.d for tally in batch] == d_values
    for t, tally in zip(tableaux, batch):
        (alone,) = enumerate_paths([t])
        assert tally == alone


def test_row_slices_cut_through_tableaux(monkeypatch):
    # 4(d+1) first-measurement rows per tableau; slices of 7 rows cut through
    # most tableaux, and d = 1009 spans hundreds of them, yet each tally
    # equals the one of a call of its own
    rng = np.random.default_rng(2600)
    d_values = [13, 1009, 11, 7, 3, 2, 5]
    tableaux = [random_graph_tableau(rng, d) for d in d_values]
    alone = [enumerate_paths([t])[0] for t in tableaux]
    sizes, classify_rows = [], steering._classify_rows
    monkeypatch.setattr(steering, "_GROUP_ROWS", 7)
    monkeypatch.setattr(steering, "_classify_rows",
                        lambda g, line, d: sizes.append(len(d)) or classify_rows(g, line, d))
    assert enumerate_paths(tableaux) == alone
    rows = sum(4 * (d + 1) for d in d_values)
    assert sizes == [min(7, rows - start) for start in range(0, rows, 7)]


def test_two_pure_site_residue_raises():
    # no stabilizer residue has exactly two pure sites
    first = np.zeros((4, 4, 3), dtype=bool)
    first[2, 1, :2] = True
    with pytest.raises(ClassificationError):
        PathTally(3, first)


def looped_readers(tally, pure, qudit):
    """first_counts, pair_counts, persistency_histogram and branch_tree of a
    tally, by a plain loop over its ``first`` array and the per-line oracle's
    pairs ``pure``."""
    d = tally.d
    first, pairs, hist = {PRODUCT: 0, SNB: 0, GHZ3: 0}, {PRODUCT: 0, BELL: 0}, {1: 0, 2: 0, 3: 0}
    branches = {}
    for q1 in range(4) if qudit is None else (qudit,):
        for b1 in range(d + 1):
            kind = {3: PRODUCT, 1: SNB, 0: GHZ3}[int(tally.first[q1, b1].sum())]
            first[kind] += 1
            node = branches.setdefault(
                kind, {"first_class": kind, "first_count": 0, "pairs": {PRODUCT: 0, BELL: 0}})
            node["first_count"] += 1
            for q2 in range(3):
                for b2 in range(d + 1):
                    pair = PRODUCT if pure[q1, b1, q2, b2] else BELL
                    pairs[pair] += 1
                    node["pairs"][pair] += 1
                    hist[1 if kind == PRODUCT else 2 if pair == PRODUCT else 3] += 1
    return first, pairs, hist, [branches[k] for k in (PRODUCT, SNB, GHZ3) if k in branches]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tally_readers_match_loop_over_arrays(d):
    rng = np.random.default_rng(3000 + d)
    tableaux = [family_tableau(f, d) for f in ("G", "C", "P")] + [z_tableau(d)]
    tableaux += [random_graph_tableau(rng, d) for _ in range(6)]
    for t in tableaux:
        (tally,) = enumerate_paths([t])
        pure = per_line_second_level(t)
        for qudit in (None, 0, 1, 2, 3):
            readers = (tally.first_counts(qudit), tally.pair_counts(qudit),
                       tally.persistency_histogram(qudit), tally.branch_tree(qudit))
            assert readers == looped_readers(tally, pure, qudit)
            assert all(type(n) is int for reader in readers[:3] for n in reader.values())


def test_path_tally_arrays_are_read_only_and_checked():
    (tally,) = enumerate_paths([family_tableau("C", 3)])
    with pytest.raises(ValueError):
        tally.first[0, 0, 0] = True
    assert tally == PathTally(3, tally.first.copy())
    ghz = ~tally.first.any(-1)  # the moves that leave no pure site
    assert tally != PathTally(3, tally.first | ghz[..., None])  # now leave a product
    with pytest.raises(ValueError):
        PathTally(5, tally.first)
    with pytest.raises(ValueError):
        PathTally(3, tally.first[:, :3])


@pytest.mark.parametrize("qudit", [-1, 4, 7, 9])
def test_tally_readers_reject_a_bad_qudit(qudit):
    (tally,) = enumerate_paths([family_tableau("C", 3)])
    for reader in (tally.first_counts, tally.pair_counts,
                   tally.persistency_histogram, tally.branch_tree):
        with pytest.raises(ValueError, match="qudit"):
            reader(qudit)


def test_enumerate_paths_eliminates_once_per_row_slice(monkeypatch):
    # the 18 tableaux of the tables bundle at d = 2..13 fit one row slice
    tableaux = [family_tableau(f, d) for d in (2, 3, 5, 7, 11, 13) for f in ("G", "C", "P")]
    assert sum(4 * (t.d + 1) for t in tableaux) <= steering._GROUP_ROWS
    calls, eliminate = [], steering.eliminate_mod
    monkeypatch.setattr(steering, "eliminate_mod",
                        lambda *args: calls.append(1) or eliminate(*args))
    enumerate_paths(tableaux)
    assert len(calls) == 1


def test_build_report_eliminates_nine_times(monkeypatch):
    # at d = 2..13 the 18 family tableaux are checked by one rank_mod call (4
    # eliminations), their pair purities taken by one entropy call (4) and
    # their first measurements eliminated as one row slice (1); checking each
    # tableau on its own took 4 apiece, 77 in all
    calls = []
    for module in (pauli, steering):
        monkeypatch.setattr(module, "eliminate_mod", lambda *args, eliminate=module.eliminate_mod:
                            calls.append(1) or eliminate(*args))
    report.build_report([2, 3, 5, 7, 11, 13])
    assert len(calls) == 9


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_tally_moves_table_matches_per_move_counts(d):
    # the readers are closed forms of the per-qudit table of first moves by
    # pure residue sites; check them against sums over the moves themselves
    rng = np.random.default_rng(4100 + d)
    n = d + 1
    for tally in enumerate_paths([random_graph_tableau(rng, d) for _ in range(40)]):
        n_pure = tally.first.sum(-1)  # (4 q1, d+1 b1)
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
    tableaux = [random_graph_tableau(rng, d, w) for w in weights]
    all_pure = np.array([tally.first.all() for tally in enumerate_paths(tableaux)])
    entropy = tableau_entropy(np.stack([t.xz.reshape(4, 8) for t in tableaux]),
                              [(i,) for i in range(4)], d)
    product = (entropy == 0).all(-1)
    assert np.array_equal(all_pure, product)
    assert 0 < product.sum() < len(tableaux)


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
    stats = persistency_stats(family_tableau(family, d))
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
    (tally,) = enumerate_paths([family_tableau(family, d)])
    assert tally.first_counts() == EXPECTED_FIRST[_family_effective(family, d)](d)
    assert tally.pair_counts() == EXPECTED_PAIRS[_family_effective(family, d)](d)


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
