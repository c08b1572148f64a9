"""Graph-state construction, tableau generators, stabilizers, and reduced forms."""

from itertools import combinations, permutations, product

import numpy as np
import pytest

from quditgraph import (
    AdjacencyMatrix,
    Tableau,
    cluster_graph,
    gamma_graph,
    ghz_graph,
    p_graph,
    path_graph,
    pauli_mul,
    stabilizer_group,
)
from quditgraph.measures import all_subsystems, purity_profile
from quditgraph.pauli import eliminate_mod, omega_powers, rank_mod
from quditgraph.states import (
    StateVector,
    apply_local_fourier,
    build_state,
    family_fourier_sites,
    family_graph,
    family_reduced_state,
    phase_exponents,
    stabilizer_exponents,
    stabilizer_tableau,
    tableau_entropy,
)

from conftest import (
    family_tableau,
    fourier_gate,
    random_graph,
    random_state_amps,
    random_word,
    reference_phase_exponents,
    same_word,
    z_tableau,
)
from dense import (
    apply_pauli,
    dense_matrix,
    equals_up_to_phase,
    permute_qudits,
    psi_gamma,
    verify_eigen,
)


def state_from_phase_fn(d, phase_fn):
    """Direct construction from an index -> phase-exponent function."""
    arr = np.zeros((d,) * 4, dtype=complex)
    for idx in product(range(d), repeat=4):
        arr[idx] = omega_powers(d)[phase_fn(*idx) % d] / d**2
    return StateVector(d, 4, arr.reshape(-1))


def test_adjacency_validation():
    with pytest.raises(ValueError):
        AdjacencyMatrix(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        AdjacencyMatrix(3, ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        AdjacencyMatrix(3, tuple((0,) * 3 for _ in range(3)))
    with pytest.raises(ValueError):
        AdjacencyMatrix.from_edges(6, {(0, 1): 1})


def test_builders_keep_weights_beyond_int64_exact():
    # a prime above 2**63: numpy reads a list that mixes such ints with
    # smaller ones as float64, which rounded the P graph's d - 1 to 10**19
    d = 10000000000000000051
    assert p_graph(d)[1, 2] == d - 1 and gamma_graph(d - 2, d)[0, 3] == d - 2
    rows = [[0, d - 1, 2, 3], [d - 1, 0, 0, d - 4], [2, 0, 0, 0], [3, d - 4, 0, 0]]
    assert AdjacencyMatrix.from_array(rows, d).entries == tuple(map(tuple, rows))
    assert AdjacencyMatrix.from_array(np.array(rows, dtype=object), d).entries == tuple(map(tuple, rows))


@pytest.mark.parametrize("build", [
    lambda: AdjacencyMatrix.from_edges(5, {(0, 1): 1.5, (1, 2): 2.9}),
    lambda: AdjacencyMatrix.from_edges(5, {(0, 1): True}),
    lambda: AdjacencyMatrix.from_array([[0, 1.5, 0, 0], [1.5, 0, 0, 0], [0] * 4, [0] * 4], 5),
    lambda: AdjacencyMatrix.from_array(np.zeros((4, 4)), 5),
], ids=["float-edges", "bool-edges", "float-list", "float-array"])
def test_builders_refuse_weights_that_are_not_integers(build):
    # a float used to be truncated: edges 1.5 and 2.9 read as weights 1 and 2
    with pytest.raises(ValueError, match="is not an integer"):
        build()


def test_build_state_zero_index_amplitude():
    for d in (2, 3, 5):
        s = build_state(ghz_graph(d))
        amp = s.amps[0]
        assert abs(amp - 1.0 / d**2) < 1e-12 and amp.imag == pytest.approx(0.0)


def test_build_state_ghz_phases():
    # star graph carries omega^(i(j+k+l)) on |i,j,k,l>
    d = 3
    expected = state_from_phase_fn(d, lambda i, j, k, l: i * (j + k + l))
    np.testing.assert_allclose(build_state(ghz_graph(d)).amps, expected.amps, atol=1e-12)
    assert np.all(np.abs(np.abs(expected.amps) - 1 / 9) < 1e-12)


def test_build_state_cluster_phases():
    d = 3
    expected = state_from_phase_fn(d, lambda i, j, k, l: j * (i + k) + l * (k + i))
    np.testing.assert_allclose(build_state(cluster_graph(d)).amps, expected.amps, atol=1e-12)


def test_build_state_p_phases():
    d = 3
    expected = state_from_phase_fn(d, lambda i, j, k, l: j * (i - k) + l * (i + k))
    np.testing.assert_allclose(build_state(p_graph(d)).amps, expected.amps, atol=1e-12)


def word(x_powers, z_powers):
    """The (x, z) rows of the word prod_site X^x Z^z, as lists."""
    return [list(xz) for xz in zip(x_powers, z_powers)]


def generators(g):
    """The graph-frame generators X_n Z^Gamma_n of g: its tableau rows."""
    return stabilizer_tableau(g, ()).xz


def group_element(g, powers):
    """The stabilizer g_1^p1 g_2^p2 g_3^p3 g_4^p4 of ``stabilizer_group``: (rows, phase)."""
    _, rows, phases = stabilizer_group(g)
    k = np.ravel_multi_index(tuple(np.mod(powers, g.d)), (g.d,) * 4)
    return rows[k], int(phases[k])




def test_generators_ghz():
    d = 3
    g = ghz_graph(d)
    assert stabilizer_exponents(phase_exponents(g), stabilizer_tableau(g, ())) == [0, 0, 0, 0]
    assert generators(g).tolist() == [
        word([1, 0, 0, 0], [0, 1, 1, 1]),  # X Z Z Z
        word([0, 1, 0, 0], [1, 0, 0, 0]),  # Z X I I
        word([0, 0, 1, 0], [1, 0, 0, 0]),  # Z I X I
        word([0, 0, 0, 1], [1, 0, 0, 0]),  # Z I I X
    ]


def test_generators_p():
    d = 3
    assert generators(p_graph(d)).tolist() == [
        word([1, 0, 0, 0], [0, 1, 0, 1]),       # X Z I Z
        word([0, 1, 0, 0], [1, 0, d - 1, 0]),   # Z X Z^-1 I
        word([0, 0, 1, 0], [0, d - 1, 0, 1]),   # I Z^-1 X Z
        word([0, 0, 0, 1], [1, 0, 1, 0]),       # Z I Z X
    ]


@pytest.mark.parametrize("d,gm", [(3, 2), (5, 3)])
def test_generators_gamma_family(d, gm):
    assert generators(gamma_graph(gm, d)).tolist() == [
        word([1, 0, 0, 0], [0, 1, 0, gm]),  # X Z I Z^gamma
        word([0, 1, 0, 0], [1, 0, 1, 0]),   # Z X Z I
        word([0, 0, 1, 0], [0, 1, 0, 1]),   # I Z X Z
        word([0, 0, 0, 1], [gm, 0, 1, 0]),  # Z^gamma I Z X
    ]


def test_stabilizer_zero_powers_is_identity():
    # only the first element, p = 0, of the group is the identity word
    g = cluster_graph(3)
    powers, rows, phases = stabilizer_group(g)
    assert powers.shape == (3**4, 4) and rows.shape == (3**4, 4, 2) and phases.shape == (3**4,)
    assert same_word(group_element(g, (0, 0, 0, 0)), (np.zeros((4, 2), dtype=int), 0))
    assert np.flatnonzero(~rows.any(axis=(1, 2)) & (phases == 0)).tolist() == [0]


def test_stabilizer_cluster_two_identity_factor_words():
    # the square graph hides stabilizers acting on only two sites
    d = 3
    g = cluster_graph(d)
    s1, _ = group_element(g, (1, 0, -1, 0))
    assert s1.tolist() == word([1, 0, d - 1, 0], [0, 0, 0, 0])
    s2, _ = group_element(g, (0, 1, 0, -1))
    assert s2.tolist() == word([0, 1, 0, d - 1], [0, 0, 0, 0])
    # in the Fourier frame of the reduced state the second becomes I Z^-1 I Z,
    # which fixes the reduced state
    assert verify_eigen(family_reduced_state("C", d), word([0, 0, 0, 0], [0, d - 1, 0, 1])) == 0


def test_stabilizer_equals_generator_product():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        for g in (ghz_graph(d), p_graph(d), gamma_graph(2, d)):
            gens = generators(g)
            for _ in range(25):
                p = [int(v) for v in rng.integers(0, d, size=4)]
                prod_word = (np.zeros((4, 2), dtype=int), 0)
                for w, k in zip(gens, p):
                    for _ in range(k):
                        prod_word = pauli_mul(d, prod_word, (w, 0))
                assert same_word(prod_word, group_element(g, p))


def test_stabilizer_power_map_is_homomorphism():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        g = p_graph(d)
        for _ in range(40):
            p = rng.integers(0, d, size=4)
            q = rng.integers(0, d, size=4)
            combined = group_element(g, p + q)
            assert same_word(combined, pauli_mul(d, group_element(g, p), group_element(g, q)))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_graph_states_stabilized(d):
    rng = np.random.default_rng(d)
    for g in (ghz_graph(d), cluster_graph(d), p_graph(d), gamma_graph(2, d)):
        s = build_state(g)
        for rows in generators(g):
            assert verify_eigen(s, rows) == 0
        _, rows, phases = stabilizer_group(g)
        for k in rng.integers(0, d**4, size=50):
            assert verify_eigen(s, rows[k], phases[k]) == 0


def test_generators_commute_and_are_independent():
    for d in (2, 3, 5):
        for g in (ghz_graph(d), p_graph(d)):
            words = [(rows, 0) for rows in generators(g)]
            for a in words:
                for b in words:
                    assert same_word(pauli_mul(d, a, b), pauli_mul(d, b, a))
            # x powers of S(p) equal p, so only p = 0 gives the identity
            powers, rows, _ = stabilizer_group(g)
            assert np.array_equal(rows[..., 0], powers)
            assert np.array_equal(rows.any(axis=(1, 2)), powers.any(axis=1))


def test_verify_eigen_non_eigenstate():
    d = 3
    gp = family_reduced_state("G", d)
    z1 = word([0, 0, 0, 0], [1, 0, 0, 0])
    assert verify_eigen(gp, z1) is None


def test_verify_eigen_identity_word():
    s = build_state(p_graph(3))
    assert verify_eigen(s, np.zeros((4, 2), dtype=int)) == 0


def test_verify_eigen_nonzero_exponent():
    # omega^r scalar multiples are detected with the right exponent
    d = 3
    s = build_state(ghz_graph(d))
    rows, phase = group_element(ghz_graph(d), (1, 0, 0, 0))
    assert verify_eigen(s, rows, phase + 2) == 2


def test_apply_pauli_matches_dense(rng):
    for d in (2, 3):
        for _ in range(20):
            s = StateVector(d, 2, random_state_amps(rng, d**2))
            rows, phase = random_word(rng, d, 2)
            np.testing.assert_allclose(
                apply_pauli(s, rows, phase).amps, dense_matrix(d, rows, phase) @ s.amps, atol=1e-12
            )
    with pytest.raises(ValueError, match="dimensions"):
        apply_pauli(s, np.zeros((3, 2), dtype=int))


def psi_state(d, label_fn):
    """(1/d) sum_{i,k} |label_fn(i,k)> built directly."""
    arr = np.zeros((d,) * 4, dtype=complex)
    for i in range(d):
        for k in range(d):
            arr[tuple(v % d for v in label_fn(i, k))] = 1.0 / d
    return StateVector(d, 4, arr.reshape(-1))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_psi_gamma_one_is_reduced_cluster(d):
    expected = psi_state(d, lambda i, k: (i, i + k, k, i + k))
    np.testing.assert_allclose(psi_gamma(1, d).amps, expected.amps, atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_psi_gamma_minus_one_is_reduced_p(d):
    expected = psi_state(d, lambda i, k: (i, i - k, k, i + k))
    np.testing.assert_allclose(psi_gamma(-1, d).amps, expected.amps, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_psi_gamma_zero_is_permuted_three_sided_form(d):
    # reduced open chain gives (1/d) sum |i, i+k, k, k>; swapping the pairs
    # (qudits 0,1) <-> (qudits 2,3) turns it into psi(0)
    reduced = apply_local_fourier(build_state(path_graph(d)), (1, 3))
    expected = psi_state(d, lambda i, k: (i, i + k, k, k))
    np.testing.assert_allclose(reduced.amps, expected.amps, atol=1e-12)
    np.testing.assert_allclose(
        permute_qudits(expected, (2, 3, 0, 1)).amps, psi_gamma(0, d).amps, atol=1e-12
    )


def test_local_fourier_reduces_ghz():
    for d in (2, 3, 5):
        reduced = apply_local_fourier(build_state(ghz_graph(d)), (1, 2, 3))
        arr = np.zeros((d,) * 4, dtype=complex)
        for i in range(d):
            arr[i, i, i, i] = 1 / np.sqrt(d)
        expected = StateVector(d, 4, arr.reshape(-1))
        assert equals_up_to_phase(reduced, expected)


def test_local_fourier_empty_site_set_is_identity():
    s = build_state(p_graph(3))
    np.testing.assert_allclose(apply_local_fourier(s, ()).amps, s.amps, atol=1e-14)


def test_local_fourier_reduces_cluster_and_p():
    for d in (3, 5):
        cp = apply_local_fourier(build_state(cluster_graph(d)), (1, 3))
        assert equals_up_to_phase(cp, psi_gamma(1, d))
        pp = apply_local_fourier(build_state(p_graph(d)), (1, 3))
        assert equals_up_to_phase(pp, psi_gamma(-1, d))


def test_reduced_generators_match_fourier_frame():
    # reduced-frame tableau rows stabilize the reduced states with unit eigenvalue,
    # and are the graph-frame rows conjugated by the dense Fourier gate at no phase
    for d in (2, 3, 5):
        for family in ("G", "C", "P"):
            state = family_reduced_state(family, d)
            reduced = family_tableau(family, d).xz
            for rows in reduced:
                assert verify_eigen(state, rows) == 0
            f = fourier_gate(d, family_fourier_sites(family))
            for graph_rows, rows in zip(generators(family_graph(family, d)), reduced):
                np.testing.assert_allclose(
                    f @ dense_matrix(d, graph_rows) @ f.conj().T, dense_matrix(d, rows),
                    atol=1e-10)


def test_reduced_generator_words_ghz():
    # X X X X, Z Z^-1 I I, Z I Z^-1 I, Z I I Z^-1
    d = 3
    words = family_tableau("G", d).xz.tolist()
    assert words == [
        word([1, 1, 1, 1], [0, 0, 0, 0]),
        word([0, 0, 0, 0], [1, d - 1, 0, 0]),
        word([0, 0, 0, 0], [1, 0, d - 1, 0]),
        word([0, 0, 0, 0], [1, 0, 0, d - 1]),
    ]


def test_reduced_generator_words_p():
    # X X I X, Z Z^-1 Z^-1 I, I X^-1 X X, Z I Z Z^-1
    d = 3
    words = family_tableau("P", d).xz.tolist()
    assert words == [
        word([1, 1, 0, 1], [0, 0, 0, 0]),
        word([0, 0, 0, 0], [1, d - 1, d - 1, 0]),
        word([0, d - 1, 1, 1], [0, 0, 0, 0]),
        word([0, 0, 0, 0], [1, 0, 1, d - 1]),
    ]


def test_cluster_equals_p_at_d2():
    # with only one nonzero weight the negated edge changes nothing
    np.testing.assert_allclose(
        build_state(cluster_graph(2)).amps, build_state(p_graph(2)).amps, atol=1e-14
    )


def test_ghz_reduced_permutation_invariant():
    d = 3
    gp = family_reduced_state("G", d)
    for axes in permutations(range(4)):
        assert equals_up_to_phase(permute_qudits(gp, axes), gp)


def test_p_reduced_profile_permutation_invariant():
    d = 3
    pp = family_reduced_state("P", d)
    base = sorted(purity_profile(pp).values.values())
    for axes in permutations(range(4)):
        vals = sorted(purity_profile(permute_qudits(pp, axes)).values.values())
        np.testing.assert_allclose(vals, base, atol=1e-9)


def test_graph_permutation_consistent_with_state_permutation(rng):
    d = 3
    for _ in range(10):
        entries = np.zeros((4, 4), dtype=int)
        for n in range(4):
            for m in range(n + 1, 4):
                entries[n, m] = entries[m, n] = int(rng.integers(0, d))
        g = AdjacencyMatrix.from_array(entries, d)
        axes = tuple(int(a) for a in rng.permutation(4))
        left = build_state(g.permuted(axes))
        right = permute_qudits(build_state(g), axes)
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-12)


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(3, 1, np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_phase_exponents_match_loop_reference(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(10):
        g = random_graph(rng, d)
        exps = phase_exponents(g)
        assert exps.shape == (d,) * 4
        np.testing.assert_array_equal(exps, reference_phase_exponents(g))


def _unjoined(g, sites) -> bool:
    return not any(g.entries[s][t] for s, t in combinations(sites, 2))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_fourier_phase_exponents_match_dense_route(d):
    # the empty graph and random graphs with about half their edges, so
    # unjoined site sets of every size occur; each set against the dense
    # Fourier transform
    rng = np.random.default_rng(2000 + d)
    sizes = set()
    for k in range(12):
        w = random_graph(rng, d).as_array() * np.triu(rng.random((4, 4)) < 0.5 * (k > 0), 1)
        g = AdjacencyMatrix.from_array(w + w.T, d)
        for sites in (s for r in range(5) for s in combinations(range(4), r)):
            if not _unjoined(g, sites):
                continue
            sizes.add(len(sites))
            exps = phase_exponents(g, sites)
            assert exps.shape == (d,) * 4 and exps.min() >= -1 and exps.max() < d
            amps = np.where(exps >= 0, omega_powers(d)[exps] * d ** (len(sites) / 2 - 2), 0)
            dense = apply_local_fourier(build_state(g), sites).reshaped()
            np.testing.assert_allclose(amps, dense, atol=1e-12, err_msg=str((g.entries, sites)))
    assert sizes == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("d", [3, 5, 7])
def test_stabilizer_exponents_match_dense_route(d):
    # the exact check against verify_eigen on the dense state, row by row, on
    # random graphs in the graph frame and in a random unjoined Fourier frame,
    # and on G, C and P in their reduced frames: every tableau row, each X and
    # each Z row on one qudit (an X row can move a reduced support off itself
    # at one phase throughout), and a product of two joined generators, whose
    # phase-free row has the exponent -w_nm in the graph frame
    rng = np.random.default_rng(3000 + d)
    cases = [(family_graph(f, d), family_fourier_sites(f)) for f in ("G", "C", "P")]
    for _ in range(8):
        w = random_graph(rng, d).as_array() * np.triu(rng.random((4, 4)) < 0.6, 1)
        g = AdjacencyMatrix.from_array(w + w.T, d)
        frames = [s for r in range(1, 5) for s in combinations(range(4), r) if _unjoined(g, s)]
        cases += [(g, ()), (g, frames[rng.integers(len(frames))])]
    x_rows = Tableau(d, np.stack([np.eye(4, dtype=int), np.zeros((4, 4), dtype=int)], axis=-1))
    for g, sites in cases:
        t = stabilizer_tableau(g, sites)
        tableaux = [t, x_rows, z_tableau(d)]
        edges = np.argwhere(np.triu(g.as_array()))
        if len(edges):
            n, m = edges[rng.integers(len(edges))]
            xz = t.xz.copy()
            xz[n] += t.xz[m]
            tableaux.append(Tableau(d, xz))
        e = phase_exponents(g, sites)
        state = apply_local_fourier(build_state(g), sites)
        for tab in tableaux:
            exact = stabilizer_exponents(e, tab)
            dense = [verify_eigen(state, rows) for rows in tab.xz]
            assert exact == dense, (g.entries, sites, tab.xz)
        if len(edges) and not sites:
            assert exact[n] == -g.entries[n][m] % d != 0


def test_fourier_phase_exponents_reject_joined_sites():
    g = p_graph(5)
    for sites in (s for r in (2, 3, 4) for s in combinations(range(4), r)):
        if _unjoined(g, sites):
            exps = phase_exponents(g, sites)
            np.testing.assert_array_equal(exps, phase_exponents(g, sites[::-1]))
        else:
            with pytest.raises(ValueError, match="unjoined"):
                phase_exponents(g, sites)
    with pytest.raises(ValueError, match="unjoined vertices"):
        phase_exponents(g, (4,))


def random_row_mix(rng, d):
    """A random invertible 4x4 matrix over GF(d)."""
    while True:
        m = rng.integers(0, d, size=(4, 4))
        if rank_mod(m, d) == 4:
            return m


def test_tableau_entropy_array_modulus_matches_per_d_calls():
    # random graph tableaux over mixed primes in shuffled order, rows mixed,
    # each with its own modulus, against one scalar-modulus call per tableau;
    # both the lone-site minor rule and the rank route, over one batch axis
    # and over two
    rng = np.random.default_rng(2100)
    d = rng.permutation(np.repeat([2, 3, 5, 7, 11, 13, 31, 101], 3))
    batch = []
    for di in d.tolist():
        g = random_graph(rng, di)
        sites = tuple(np.flatnonzero(rng.integers(0, 2, size=4)))
        batch.append((random_row_mix(rng, di) @ stabilizer_tableau(g, sites).xz.reshape(4, 8)) % di)
    batch = np.array(batch)
    for site_sets in (all_subsystems(4, 1), all_subsystems(4, 2)):
        expected = [tableau_entropy(t, site_sets, int(di)).tolist() for t, di in zip(batch, d)]
        assert tableau_entropy(batch, site_sets, d).tolist() == expected
        two_axes = tableau_entropy(batch.reshape(4, -1, 4, 8), site_sets, d.reshape(4, -1))
        assert two_axes.reshape(len(d), -1).tolist() == expected
        assert len({tuple(row) for row in expected}) > 1


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_tableau_entropy_batch_matches_per_set_rank(d):
    # random graph tableaux, every third with some edges removed (often
    # disconnected), in random Fourier frames, with their rows mixed by a
    # random invertible matrix; plus their residuals after measuring qudit 0
    # along a random line, which have a zero row. Every site set of the batch,
    # and the lone sites through the minor rule, must match one rank_mod per set.
    rng = np.random.default_rng(2000 + d)
    full, residual = [], []
    for n in range(30):
        weights = np.zeros((4, 4), dtype=int)
        weights[np.triu_indices(4, 1)] = rng.integers(0, d, size=6) * (
            rng.integers(0, 2, size=6) if n % 3 == 0 else 1)
        g = AdjacencyMatrix.from_array(weights + weights.T, d)
        sites = tuple(np.flatnonzero(rng.integers(0, 2, size=4)))
        t = (random_row_mix(rng, d) @ stabilizer_tableau(g, sites).xz.reshape(4, 8)) % d
        full.append(t)
        a, b = [(0, 1), (1, int(rng.integers(d)))][int(rng.integers(2))]
        col = (t[:, 0] * b - t[:, 1] * a) % d
        residual.append(eliminate_mod(t, col, d)[:, 2:])
    for batch, n_sites in ((np.array(full), 4), (np.array(residual), 3)):
        singles = all_subsystems(n_sites, 1)
        for site_sets in (singles, all_subsystems(n_sites, n_sites)):
            got = tableau_entropy(batch, site_sets, d)
            assert got.shape == (len(batch), len(site_sets))
            assert set(got[:, :n_sites].ravel().tolist()) == {0, 1}  # pure and mixed lone sites
            for t, row in zip(batch, got.tolist()):
                expected = [int(rank_mod(t[:, [c for i in s for c in (2 * i, 2 * i + 1)]], d)) - len(s)
                            for s in site_sets]
                assert row == expected
