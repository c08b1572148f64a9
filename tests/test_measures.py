"""Reduced states, purities, k-MM, concurrence, wedge product, and bounds."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from quditgraph import (
    AdjacencyMatrix,
    cluster_graph,
    family_graph,
    gamma_graph,
    ghz_graph,
    graph_entropies,
    is_k_mm,
    max_identity_factors,
    p_graph,
    schmidt_bounds,
    stabilizer_group,
    stabilizer_tableau,
)
from quditgraph.measures import (
    PurityProfile,
    all_subsystems,
    partial_trace,
    purity,
    purity_profile,
    subsystem_label,
)
from quditgraph.states import StateVector, apply_local_fourier, build_state, family_reduced_state

from conftest import family_tableau, random_graph, random_state_amps
from dense import (
    basis_state,
    checked_density,
    concurrence,
    is_k_mm_float,
    reduced_from_stabilizers,
    reduced_state,
    site_matrix,
    wedge_measure,
)
from engine import tableau_entropies

CANONICAL_GRAPHS = {
    "G": ghz_graph,
    "C": cluster_graph,
    "P": p_graph,
}


def test_subsystem_labels():
    assert subsystem_label((0,)) == "1"
    assert subsystem_label((0, 2)) == "13"
    assert subsystem_label((1, 3)) == "24"
    assert [subsystem_label(k) for k in all_subsystems()] == [
        "1", "2", "3", "4", "12", "13", "14", "23", "24", "34",
    ]


def test_partial_trace_ghz_single_site_maximally_mixed():
    for d in (3, 5):
        gp = family_reduced_state("G", d)
        r = reduced_state(gp, (0,))
        np.testing.assert_allclose(r, np.eye(d) / d, atol=1e-10)


def test_partial_trace_p_pair_maximally_mixed():
    d = 3
    pp = family_reduced_state("P", d)
    r = reduced_state(pp, (0, 2))
    np.testing.assert_allclose(r, np.eye(d * d) / d**2, atol=1e-10)


def test_partial_trace_cluster_diagonal_pair_structure():
    # the (2,4) pair of the reduced square state lives on the repeated-index
    # subspace: <jj|rho|j'j'> = delta/d, all other entries zero
    d = 3
    cp = family_reduced_state("C", d)
    r = reduced_state(cp, (1, 3))
    expected = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        expected[j * d + j, j * d + j] = 1.0 / d
    np.testing.assert_allclose(r, expected, atol=1e-10)


def test_partial_trace_matches_contraction_oracle(rng):
    # independent oracle: contract the outer product with an explicit einsum
    d = 3
    for keep in [(0,), (2,), (0, 1), (1, 3), (0, 2, 3)]:
        s = StateVector(d, 4, random_state_amps(rng, d**4))
        arr = s.reshaped()
        rho4 = np.einsum("ijkl,mnop->ijklmnop", arr, arr.conj())
        axes_in = list("ijkl")
        axes_out = list("mnop")
        spec_in, spec_out = "", ""
        for site in range(4):
            if site in keep:
                spec_in += axes_in[site]
                spec_out += axes_out[site]
            else:
                spec_in += axes_in[site]
                spec_out += axes_in[site]
        target = "".join(axes_in[s_] for s_ in keep) + "".join(
            axes_out[s_] for s_ in keep
        )
        dim = d ** len(keep)
        oracle = np.einsum(f"{spec_in}{spec_out}->{target}", rho4).reshape(dim, dim)
        np.testing.assert_allclose(reduced_state(s, keep), oracle, atol=1e-10)


def test_reduced_state_validation():
    with pytest.raises(ValueError):
        checked_density(np.array([[1.0, 0.5], [0.1, 0.0]]), 2, 1)  # not hermitian
    with pytest.raises(ValueError):
        checked_density(np.eye(2), 2, 1)  # trace 2
    with pytest.raises(ValueError):
        checked_density(np.diag([1.5, -0.5]), 2, 1)  # negative eigenvalue
    with pytest.raises(ValueError):
        checked_density(np.eye(3) / 3, 3, 2)  # wrong shape


def test_purity_of_maximally_mixed():
    for d in (3, 7):
        r = checked_density(np.eye(d) / d, d, 1)
        assert purity(r) == pytest.approx(1.0 / d, abs=1e-12)


def test_purity_values_cluster():
    d = 3
    cp = family_reduced_state("C", d)
    assert purity(reduced_state(cp, (0, 1))) == pytest.approx(1 / 9, abs=1e-9)
    assert purity(reduced_state(cp, (1, 3))) == pytest.approx(1 / 3, abs=1e-9)


def test_purity_values_ghz_pairs():
    d = 3
    gp = family_reduced_state("G", d)
    for pair in combinations(range(4), 2):
        assert purity(reduced_state(gp, pair)) == pytest.approx(1 / 3, abs=1e-9)


def test_profile_ghz_d5():
    prof = purity_profile(family_reduced_state("G", 5))
    for keep, v in prof.values.items():
        assert v == pytest.approx(1 / 5, abs=1e-9)


def test_profile_p_d3():
    prof = purity_profile(family_reduced_state("P", 3))
    for keep, v in prof.values.items():
        expected = 1 / 3 if len(keep) == 1 else 1 / 9
        assert v == pytest.approx(expected, abs=1e-9)


def test_profile_product_state():
    prof = purity_profile(basis_state(3, (0, 0, 0, 0)))
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in prof.values.values())
    assert not is_k_mm_float(prof, 1)


def test_is_k_mm_flags():
    for d in (3, 5, 7):
        flags = {
            fam: (
                is_k_mm_float(purity_profile(family_reduced_state(fam, d)), 1),
                is_k_mm_float(purity_profile(family_reduced_state(fam, d)), 2),
            )
            for fam in ("G", "C", "P")
        }
        assert flags == {"G": (True, False), "C": (True, False), "P": (True, True)}


@pytest.mark.parametrize("d", [3, 5, 1009])
def test_is_k_mm_is_exact_on_entropies(d):
    # an exact profile is maximally mixed or not, however close its purities:
    # one entropy off by one breaks 2-MM, and breaks 1-MM too when it is a
    # site's; only the dense test route compares purities within a tolerance
    exact = graph_entropies(family_graph("P", d))
    assert is_k_mm(exact, 1) and is_k_mm(exact, 2)
    for keep in exact:
        off = {**exact, keep: exact[keep] - 1}
        assert not is_k_mm(off, 2)
        assert is_k_mm(off, 1) == (len(keep) == 2)
    near = PurityProfile(d, 4, {k: d ** -float(s) + 1e-12 for k, s in exact.items()})
    assert is_k_mm_float(near, 1) and is_k_mm_float(near, 2)
    with pytest.raises(ValueError, match="k must be 1 or 2"):
        is_k_mm(exact, 3)


def test_p_collapses_to_cluster_at_d2():
    prof = purity_profile(family_reduced_state("P", 2))
    assert is_k_mm_float(prof, 1)
    assert not is_k_mm_float(prof, 2)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_table_of_purities(d):
    # pattern columns: single site, diagonal pairs (0,2)/(1,3), adjacent pairs
    expected = {
        "G": (1 / d, 1 / d, 1 / d),
        "C": (1 / d, 1 / d, 1 / d**2),
        "P": (1 / d, 1 / d**2, 1 / d**2),
    }
    if d == 2:
        expected["P"] = expected["C"]
    for fam, (e_single, e_diag, e_adj) in expected.items():
        prof = purity_profile(family_reduced_state(fam, d))
        for i in range(4):
            assert prof[(i,)] == pytest.approx(e_single, abs=1e-9)
        for pair in ((0, 2), (1, 3)):
            assert prof[pair] == pytest.approx(e_diag, abs=1e-9)
        for pair in ((0, 1), (1, 2), (2, 3), (0, 3)):
            assert prof[pair] == pytest.approx(e_adj, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_complementary_bipartition_purities_agree(d):
    for fam in ("G", "C", "P"):
        s = family_reduced_state(fam, d)
        for keep in [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]:
            comp = tuple(i for i in range(4) if i not in keep)
            pa = purity(reduced_state(s, keep))
            pb = purity(reduced_state(s, comp))
            assert pa == pytest.approx(pb, abs=1e-9)


def test_concurrence_product_state():
    s = basis_state(3, (0, 0, 0, 0))
    assert concurrence(s, (0,)) == pytest.approx(0.0, abs=1e-9)


def test_concurrence_values():
    d = 3
    pp = family_reduced_state("P", d)
    assert concurrence(pp, (0, 1)) == pytest.approx(np.sqrt(8) / 3, abs=1e-9)
    gp = family_reduced_state("G", d)
    assert concurrence(gp, (0,)) == pytest.approx(np.sqrt(2 / 3), abs=1e-9)


def test_wedge_product_state_vanishes():
    s = basis_state(3, (0, 1, 2, 0))
    for keep in [(0,), (0, 1)]:
        assert wedge_measure(s, keep) == pytest.approx(0.0, abs=1e-12)


def test_wedge_p_pair_value():
    pp = family_reduced_state("P", 3)
    assert wedge_measure(pp, (0, 1)) == pytest.approx(4 / 9, abs=1e-9)


def test_wedge_identity_random_states(rng):
    # 2 E_A = 1 - purity = concurrence^2 across all bipartition types
    d = 3
    keeps = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]
    for _ in range(30):
        s = StateVector(d, 4, random_state_amps(rng, d**4))
        for keep in keeps:
            pi_a = purity(reduced_state(s, keep))
            two_e = 2 * wedge_measure(s, keep)
            assert two_e == pytest.approx(1 - pi_a, abs=1e-9)
            assert concurrence(s, keep) ** 2 == pytest.approx(1 - pi_a, abs=1e-9)


def test_stabilizer_trace_ghz_pair_form():
    # leaf pair of the star centered at vertex 3: d^-2 sum_a X^a (x) X^-a
    from quditgraph.classify import ghz_canonical_graph

    d = 3
    expected = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        expected += np.kron(site_matrix(d, a, 0), site_matrix(d, (-a) % d, 0))
    expected /= d**2
    r = reduced_from_stabilizers(ghz_canonical_graph(d), (0, 1))
    np.testing.assert_allclose(r, expected, atol=1e-10)


def test_stabilizer_trace_gamma2_pair_maximally_mixed():
    d = 5
    r = reduced_from_stabilizers(gamma_graph(2, d), (1, 2))
    np.testing.assert_allclose(r, np.eye(d * d) / d**2, atol=1e-10)


def test_stabilizer_trace_gamma1_diagonal_pair_not_mixed():
    d = 3
    r = reduced_from_stabilizers(gamma_graph(1, d), (0, 2))
    assert np.max(np.abs(r - np.eye(d * d) / d**2)) > 0.01


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stabilizer_trace_equals_partial_trace(d):
    graphs = [fn(d) for fn in CANONICAL_GRAPHS.values()]
    graphs += [gamma_graph(gm, d) for gm in range(d)]
    for g in graphs:
        s = build_state(g)
        for keep in all_subsystems(4, 2):
            left = reduced_from_stabilizers(g, keep)
            right = reduced_state(s, keep)
            np.testing.assert_allclose(left, right, atol=1e-9)


def test_max_identity_factors_values():
    assert max_identity_factors(gamma_graph(2, 3)) == 1
    assert max_identity_factors(gamma_graph(1, 3)) == 2
    assert max_identity_factors(gamma_graph(0, 3)) == 2
    assert max_identity_factors(ghz_graph(3)) == 2


def _enumerated_identity_factors(g) -> int:
    """Most identity site factors of a non-identity stabilizer of the graph
    state of g, over all d^4 of ``stabilizer_group``: the oracle."""
    powers, rows, _ = stabilizer_group(g)
    id_counts = (~rows.any(axis=2)).sum(axis=1)
    return int(id_counts[powers.any(axis=1)].max())


def _edges(d, *edges):
    weights = np.zeros((4, 4), dtype=int)
    for n, m in edges:
        weights[n, m] = weights[m, n] = 1
    return AdjacencyMatrix.from_array(weights, d)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_max_identity_factors_matches_stabilizer_group(d):
    # the entropy rule against the enumeration of all d^4 stabilizers, on
    # random graphs and on the product, Bell x Bell and GHZ3 x 1 states
    rng = np.random.default_rng(3300 + d)
    cases = [(_edges(d), 3), (_edges(d, (0, 1), (2, 3)), 2), (_edges(d, (0, 1), (0, 2)), 3)]
    cases += [(random_graph(rng, d), None) for _ in range(40)]
    for g, expected in cases:
        rule = max_identity_factors(g)
        assert rule == _enumerated_identity_factors(g), g.entries
        if expected is not None:
            assert rule == expected, g.entries


def test_max_identity_factors_at_d1009_stays_small():
    # the d^4 enumeration would hold 1e12 stabilizers; the rule reads ten ranks
    graphs = [family_graph(family, 1009) for family in ("G", "C", "P")]
    tracemalloc.start()
    try:
        counts = [max_identity_factors(g) for g in graphs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [2, 2, 1] and peak < 256 * 1024


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_two_mm_iff_single_identity_factors(d):
    for gm in range(d):
        g = gamma_graph(gm, d)
        two_mm = is_k_mm_float(purity_profile(build_state(g)), 2)
        assert two_mm == (max_identity_factors(g) <= 1)
        assert two_mm == (gm not in (0, 1))


def test_schmidt_bounds_canonical():
    # the lower bound is a GF(d) rank: both bounds are exact ints
    for family, bounds in (("G", (1, 1)), ("P", (2, 2)), ("C", (2, 2))):
        lower, upper = schmidt_bounds(family_graph(family, 3))
        assert (lower, upper) == bounds and type(lower) is int and type(upper) is int


def test_schmidt_bounds_product():
    lower, upper = schmidt_bounds(_edges(3))  # no edge: a product state
    assert (lower, upper) == (0, 0) and type(lower) is int and type(upper) is int


def _assert_profiles_agree(entropy, dense):
    assert entropy.keys() == dense.values.keys()
    for keep, s in entropy.items():
        assert type(s) is int and abs(dense.d ** -float(s) - dense[keep]) <= 1e-12, keep
    assert is_k_mm(entropy, 1) == is_k_mm_float(dense, 1)
    assert is_k_mm(entropy, 2) == is_k_mm_float(dense, 2)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("family", ["G", "C", "P"])
def test_tableau_profile_matches_dense_on_families(family, d):
    # the closed form on the graph and the oracle on the reduced frame's tableau
    dense = purity_profile(family_reduced_state(family, d))
    _assert_profiles_agree(graph_entropies(family_graph(family, d)), dense)
    _assert_profiles_agree(tableau_entropies([family_tableau(family, d)])[0], dense)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_tableau_profile_matches_dense_on_random_graphs(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(20):
        g = random_graph(rng, d)
        sites = tuple(int(q) for q in np.flatnonzero(rng.integers(0, 2, size=4)))
        dense = purity_profile(apply_local_fourier(build_state(g), sites))
        _assert_profiles_agree(graph_entropies(g), dense)
        _assert_profiles_agree(tableau_entropies([stabilizer_tableau(g, sites)])[0], dense)


def test_tableau_profiles_mixed_d_match_one_call_per_tableau():
    # one batched oracle call over random graph tableaux of shuffled primes,
    # in random Fourier frames, against one call per tableau and the closed form
    rng = np.random.default_rng(1100)
    d_values = rng.permutation(np.repeat([2, 3, 5, 7, 11, 13, 31, 101], 3)).tolist()
    graphs = [random_graph(rng, d) for d in d_values]
    tableaux = [stabilizer_tableau(g, np.flatnonzero(rng.integers(0, 2, size=4))) for g in graphs]
    batch = tableau_entropies(tableaux)
    assert batch == [tableau_entropies([t])[0] for t in tableaux]
    assert batch == [graph_entropies(g) for g in graphs]
    assert [list(e) for e in batch] == [list(all_subsystems())] * len(tableaux)


def test_tableau_profile_is_exact():
    # the entropies are ints in units of log d: the purities 1/5, 1/25, 1/5
    for entropy in (graph_entropies(family_graph("C", 5)),
                    tableau_entropies([family_tableau("C", 5)])[0]):
        assert (entropy[(0,)], entropy[(0, 1)], entropy[(0, 2)]) == (1, 2, 1)
        assert list(entropy) == list(all_subsystems())
        assert all(type(s) is int for s in entropy.values())
