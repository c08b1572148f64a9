"""Local-equivalence operations, canonicalization, and the exhaustive sweep."""

from itertools import product

import numpy as np
import pytest

from quditgraph import (
    AdjacencyMatrix,
    ScaleOp,
    StarOp,
    apply_scale,
    apply_star,
    apply_swap,
    build_state,
    canonicalize,
    census_random,
    classify_exhaustive,
    cluster_graph,
    cut_rank_classes,
    gamma_graph,
    ghz_graph,
    inv_mod,
    p_graph,
    path_graph,
    profile_class,
    purity_class,
    purity_profile,
    replay,
)
from quditgraph.classify import CLASS_C, CLASS_G, CLASS_P, DISCONNECTED, ghz_canonical_graph

# Vertex pairs in the order of the weight columns cut_rank_classes takes.
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def all_ones_graph(d):
    return AdjacencyMatrix.from_array(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int), d)


def random_graph(rng, d):
    a = np.zeros((4, 4), dtype=int)
    for n in range(4):
        for m in range(n + 1, 4):
            a[n, m] = a[m, n] = int(rng.integers(0, d))
    return AdjacencyMatrix.from_array(a, d)


def test_scale_identity_factor():
    g = p_graph(5)
    assert apply_scale(g, 2, 1) == g


def test_scale_star_vertex():
    # scaling the hub of the unit star multiplies every edge
    d = 3
    g = ghz_canonical_graph(d)
    scaled = apply_scale(g, 3, 2)
    assert scaled == AdjacencyMatrix.from_edges(d, {(0, 3): 2, (1, 3): 2, (2, 3): 2})


def test_scale_inverse_restores(rng):
    d = 5
    for _ in range(20):
        g = random_graph(rng, d)
        f = int(rng.integers(1, d))
        v = int(rng.integers(0, 4))
        assert apply_scale(apply_scale(g, v, f), v, inv_mod(f, d)) == g


def test_scale_rejects_zero_factor():
    with pytest.raises(ValueError):
        apply_scale(p_graph(3), 0, 0)


def test_star_zero_factor_is_identity():
    g = all_ones_graph(3)
    assert apply_star(g, 1, 0) == g


def test_star_removes_targeted_edge():
    # with unit weights everywhere, a star at vertex 2 with factor -1 clears
    # the 1-3 edge while keeping the matrix symmetric and zero-diagonal
    d = 3
    g = all_ones_graph(d)
    h = apply_star(g, 2, (-1) % d)
    assert h[1, 3] == 0
    assert h[3, 1] == 0
    assert all(h[i, i] == 0 for i in range(4))


def test_star_preserves_purity_profile(rng):
    # the operation realizes a local unitary, so every subsystem purity survives
    for d in (3, 5):
        for _ in range(15):
            g = random_graph(rng, d)
            v = int(rng.integers(0, 4))
            f = int(rng.integers(0, d))
            before = purity_profile(build_state(g)).values
            after = purity_profile(build_state(apply_star(g, v, f))).values
            for keep in before:
                assert after[keep] == pytest.approx(before[keep], abs=1e-9)


def test_scale_preserves_purity_profile(rng):
    for d in (3, 5):
        for _ in range(15):
            g = random_graph(rng, d)
            v = int(rng.integers(0, 4))
            f = int(rng.integers(1, d))
            before = purity_profile(build_state(g)).values
            after = purity_profile(build_state(apply_scale(g, v, f))).values
            for keep in before:
                assert after[keep] == pytest.approx(before[keep], abs=1e-9)


def test_swap_consistent_with_profile_relabel(rng):
    d = 3
    for _ in range(10):
        g = random_graph(rng, d)
        a, b = 1, 3
        before = sorted(purity_profile(build_state(g)).values.values())
        after = sorted(purity_profile(build_state(apply_swap(g, a, b))).values.values())
        np.testing.assert_allclose(after, before, atol=1e-9)


def test_canonicalize_star_graph_is_g():
    res = canonicalize(ghz_graph(3))
    assert res.cls == CLASS_G
    assert res.gamma_tilde is None
    assert res.canonical == ghz_canonical_graph(3)


def test_canonicalize_all_ones_is_g():
    # six edges with unit weights: both reduced chord parameters vanish
    res = canonicalize(all_ones_graph(3))
    assert res.cls == CLASS_G


def test_canonicalize_cluster_and_path():
    res_c = canonicalize(cluster_graph(3))
    assert (res_c.cls, res_c.gamma_tilde) == (CLASS_C, 1)
    res_p = canonicalize(path_graph(3))
    assert (res_p.cls, res_p.gamma_tilde) == (CLASS_C, 0)


def test_canonicalize_gamma_minus_one_is_p():
    for d in (3, 5, 7):
        res = canonicalize(gamma_graph(d - 1, d))
        assert (res.cls, res.gamma_tilde) == (CLASS_P, d - 1)


def test_canonicalize_p_graph():
    res = canonicalize(p_graph(3))
    assert (res.cls, res.gamma_tilde) == (CLASS_P, 2)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_gamma_family_classes(d):
    for gm in range(d):
        res = canonicalize(gamma_graph(gm, d))
        expected = CLASS_C if gm in (0, 1) else CLASS_P
        assert res.cls == expected
        assert res.gamma_tilde == gm


def test_three_edged_stars_are_g():
    d = 3
    for center in range(4):
        edges = {(min(center, v), max(center, v)): 1 for v in range(4) if v != center}
        res = canonicalize(AdjacencyMatrix.from_edges(d, edges))
        assert res.cls == CLASS_G


def test_triangle_plus_isolated_vertex_disconnected():
    g = AdjacencyMatrix.from_edges(3, {(0, 1): 1, (1, 2): 2, (0, 2): 1})
    res = canonicalize(g)
    assert res.cls == DISCONNECTED
    assert res.trace == ()


def test_empty_and_sparse_graphs_disconnected():
    assert canonicalize(AdjacencyMatrix.from_edges(3, {})).cls == DISCONNECTED
    assert canonicalize(AdjacencyMatrix.from_edges(3, {(0, 1): 1, (2, 3): 2})).cls == DISCONNECTED


def test_gamma_tilde_formula_six_edged(rng):
    # for six-edged graphs with af != bd the chord parameter is
    # (ce - bd) / (af - bd) in the labeling a=01, b=02, c=03, d=13, e=12, f=23
    d = 5
    found = 0
    while found < 25:
        w = {k: int(rng.integers(1, d)) for k in "abcdef"}
        alpha_num = (w["a"] * w["f"] - w["b"] * w["d"]) % d
        if alpha_num == 0:
            continue
        g = AdjacencyMatrix.from_edges(
            d,
            {
                (0, 1): w["a"],
                (0, 2): w["b"],
                (0, 3): w["c"],
                (1, 3): w["d"],
                (1, 2): w["e"],
                (2, 3): w["f"],
            },
        )
        expected = (w["c"] * w["e"] - w["b"] * w["d"]) * inv_mod(alpha_num, d) % d
        res = canonicalize(g)
        assert res.gamma_tilde == expected
        assert res.cls == (CLASS_C if expected in (0, 1) else CLASS_P)
        found += 1


def test_five_edged_gamma_tilde_nonzero(rng):
    # no five-edged graph reduces to the G class, and the chord never vanishes
    d = 5
    for _ in range(40):
        w = [int(v) for v in rng.integers(1, d, size=5)]
        edges = dict(zip([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], w))
        res = canonicalize(AdjacencyMatrix.from_edges(d, edges))
        assert res.cls in (CLASS_C, CLASS_P)
        assert res.gamma_tilde != 0


def test_four_edged_shared_zeros_give_class_c(rng):
    # triangle with a pendant vertex always lands on the open chain
    d = 5
    for _ in range(20):
        w = [int(v) for v in rng.integers(1, d, size=4)]
        edges = dict(zip([(0, 1), (0, 2), (1, 2), (2, 3)], w))
        res = canonicalize(AdjacencyMatrix.from_edges(d, edges))
        assert (res.cls, res.gamma_tilde) == (CLASS_C, 0)


def test_trace_replay_random(rng):
    for d in (3, 5):
        for _ in range(50):
            g = random_graph(rng, d)
            res = canonicalize(g)
            assert replay(g, res.trace) == res.canonical


def test_trace_json_round_trip():
    res = canonicalize(all_ones_graph(3))
    payload = res.to_json_dict()
    assert payload["class"] == CLASS_G
    assert payload["gamma_tilde"] is None
    assert all(op["op"] in ("scale", "star", "swap") for op in payload["trace"])


def test_class_invariance_under_random_operations(rng):
    # 200 random (graph, operation) pairs at d in {3, 5}
    for d in (3, 5):
        for _ in range(100):
            g = random_graph(rng, d)
            kind = int(rng.integers(0, 3))
            if kind == 0:
                op = ScaleOp(int(rng.integers(0, 4)), int(rng.integers(1, d)))
                h = apply_scale(g, op.vertex, op.factor)
            elif kind == 1:
                op = StarOp(int(rng.integers(0, 4)), int(rng.integers(0, d)))
                h = apply_star(g, op.vertex, op.factor)
            else:
                a, b = rng.choice(4, size=2, replace=False)
                h = apply_swap(g, int(a), int(b))
            cls_before = profile_class(purity_profile(build_state(g)))
            cls_after = profile_class(purity_profile(build_state(h)))
            assert cls_before == cls_after
            assert canonicalize(g).cls == canonicalize(h).cls


def test_exhaustive_census_d3():
    census = classify_exhaustive(3)
    assert census.total == 729
    assert census.mismatches == 0
    # counts fixed by the dual-route sweep (canonicalization vs purity oracle)
    assert census.counts == {CLASS_G: 48, CLASS_C: 456, CLASS_P: 120, DISCONNECTED: 105}


def test_exhaustive_census_d2_has_no_p_class():
    census = classify_exhaustive(2)
    assert census.total == 64
    assert census.counts[CLASS_P] == 0
    assert census.counts == {CLASS_G: 5, CLASS_C: 33, CLASS_P: 0, DISCONNECTED: 26}


def test_exhaustive_rejects_large_d():
    with pytest.raises(ValueError):
        classify_exhaustive(11)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_exhaustive_census_closed_forms(d):
    # G and P are closed forms in x = d - 1; the disconnected count follows
    # independently from the 38 labelled connected 4-vertex graphs (16, 15, 6
    # and 1 with 3, 4, 5 and 6 edges), each edge taking one of x nonzero weights
    x = d - 1
    disconnected = d**6 - (16 * x**3 + 15 * x**4 + 6 * x**5 + x**6)
    g = x**3 * (d + 3)
    p = d * x**3 * (d - 2) * (d + 2)
    census = classify_exhaustive(d)
    assert census.total == d**6
    assert census.counts == {
        CLASS_G: g,
        CLASS_C: d**6 - g - p - disconnected,
        CLASS_P: p,
        DISCONNECTED: disconnected,
    }


def _weights_graph(d, weights):
    return AdjacencyMatrix.from_edges(d, dict(zip(PAIRS, weights)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cut_rank_oracle_matches_dense_route_exhaustively(d):
    weights = list(product(range(d), repeat=6))
    expected = [purity_class(_weights_graph(d, w)) for w in weights]
    assert cut_rank_classes(d, np.array(weights)) == expected


@pytest.mark.parametrize("d", [7, 11])
def test_cut_rank_oracle_matches_dense_route_sampled(d):
    weights = np.random.default_rng(1000 + d).integers(0, d, size=(300, 6))
    expected = [purity_class(_weights_graph(d, map(int, w))) for w in weights]
    assert cut_rank_classes(d, weights) == expected
    assert set(expected) >= {CLASS_C, CLASS_P}


def test_cut_rank_oracle_exact_beyond_int64_products(rng):
    # d**2 overflows int64. Random scales and stars of the three class
    # representatives keep their vanishing cut determinants only mod d.
    d = 2**32 + 15
    graphs = []
    for base in (ghz_graph(d), cluster_graph(d), p_graph(d)):
        for _ in range(10):
            g = base
            for v in range(4):
                g = apply_scale(g, v, int(rng.integers(1, d)))
            graphs.append(apply_star(g, int(rng.integers(0, 4)), int(rng.integers(0, d))))
    graphs.append(AdjacencyMatrix.from_edges(d, {(0, 1): d - 1, (2, 3): d - 2}))
    weights = np.array([[g[n, m] for n, m in PAIRS] for g in graphs])
    expected = [canonicalize(g).cls for g in graphs]
    assert cut_rank_classes(d, weights) == expected
    assert expected == [CLASS_G] * 10 + [CLASS_C] * 10 + [CLASS_P] * 10 + [DISCONNECTED]


def test_census_random_d7():
    census = census_random(7, 150, seed=11)
    assert census.total == 150
    assert census.mismatches == 0
    assert sum(census.counts.values()) == 150


def test_three_and_four_sided_cluster_same_class():
    # the open chain and the square share the class fingerprint; their reduced
    # states are not related by a qudit permutation alone for d >= 3
    d = 3
    assert canonicalize(path_graph(d)).cls == canonicalize(cluster_graph(d)).cls == CLASS_C
    prof_chain = purity_profile(build_state(path_graph(d)))
    prof_square = purity_profile(build_state(cluster_graph(d)))
    assert sorted(prof_chain.values.values()) == pytest.approx(
        sorted(prof_square.values.values()), abs=1e-9
    )


def test_profile_class_fingerprints():
    d = 3
    assert profile_class(purity_profile(build_state(ghz_graph(d)))) == CLASS_G
    assert profile_class(purity_profile(build_state(cluster_graph(d)))) == CLASS_C
    assert profile_class(purity_profile(build_state(p_graph(d)))) == CLASS_P
