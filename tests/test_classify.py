"""Local-equivalence operations, canonicalization, and the exhaustive sweep."""

import random
from itertools import product
from operator import itemgetter

import numpy as np
import pytest

from quditgraph import (
    AdjacencyMatrix,
    LCOperation,
    ScaleOp,
    StarOp,
    SwapOp,
    canonicalize,
    census_random,
    classify_exhaustive,
    cluster_graph,
    cut_rank_classes,
    cut_ranks,
    gamma_graph,
    ghz_graph,
    graph_entropies,
    inv_mod,
    is_prime,
    p_graph,
    path_graph,
    replay,
)
from quditgraph import classify
from quditgraph.classify import (
    CLASS_C,
    CLASS_G,
    CLASS_P,
    DISCONNECTED,
    VerificationFailure,
    ghz_canonical_graph,
    profile_class,
)
from quditgraph.graphs import N_VERTICES, PAIRS
from quditgraph.measures import purity_profile
from quditgraph.states import build_state

from dense import purity_class

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
    assert replay(g, (ScaleOp(2, 1),)) == g


def test_scale_star_vertex():
    # scaling the hub of the unit star multiplies every edge
    d = 3
    g = ghz_canonical_graph(d)
    scaled = replay(g, (ScaleOp(3, 2),))
    assert scaled == AdjacencyMatrix.from_edges(d, {(0, 3): 2, (1, 3): 2, (2, 3): 2})


def test_scale_inverse_restores(rng):
    d = 5
    for _ in range(20):
        g = random_graph(rng, d)
        f = int(rng.integers(1, d))
        v = int(rng.integers(0, 4))
        assert replay(g, (ScaleOp(v, f), ScaleOp(v, inv_mod(f, d)))) == g


def test_scale_rejects_zero_factor():
    for factor in (0, 3, -6):  # zero mod d = 3
        with pytest.raises(ValueError):
            replay(p_graph(3), (ScaleOp(0, factor),))


@pytest.mark.parametrize(
    "op", [ScaleOp(4, 1), ScaleOp(-1, 1), StarOp(4, 1), SwapOp(0, 4), SwapOp(-1, 2)]
)
def test_operations_reject_vertex_out_of_range(op):
    with pytest.raises(ValueError):
        replay(p_graph(3), (op,))


def test_replay_rejects_unknown_operation():
    with pytest.raises(TypeError):
        replay(p_graph(3), ((0, 1),))


def test_star_zero_factor_is_identity():
    g = all_ones_graph(3)
    assert replay(g, (StarOp(1, 0),)) == g


def test_star_removes_targeted_edge():
    # with unit weights everywhere, a star at vertex 2 with factor -1 clears
    # the 1-3 edge while keeping the matrix symmetric and zero-diagonal
    d = 3
    g = all_ones_graph(d)
    h = replay(g, (StarOp(2, (-1) % d),))
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
            after = purity_profile(build_state(replay(g, (StarOp(v, f),)))).values
            for keep in before:
                assert after[keep] == pytest.approx(before[keep], abs=1e-9)


def test_scale_preserves_purity_profile(rng):
    for d in (3, 5):
        for _ in range(15):
            g = random_graph(rng, d)
            v = int(rng.integers(0, 4))
            f = int(rng.integers(1, d))
            before = purity_profile(build_state(g)).values
            after = purity_profile(build_state(replay(g, (ScaleOp(v, f),)))).values
            for keep in before:
                assert after[keep] == pytest.approx(before[keep], abs=1e-9)


def test_swap_consistent_with_profile_relabel(rng):
    d = 3
    for _ in range(10):
        g = random_graph(rng, d)
        a, b = 1, 3
        before = sorted(purity_profile(build_state(g)).values.values())
        after = sorted(purity_profile(build_state(replay(g, (SwapOp(a, b),)))).values.values())
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
            elif kind == 1:
                op = StarOp(int(rng.integers(0, 4)), int(rng.integers(0, d)))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                op = SwapOp(int(a), int(b))
            h = replay(g, (op,))
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
        classify_exhaustive(17)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
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


def _index_order_chunks(d):
    """The sweep's former row order: row r holds the base-d digits of r, w01
    the most significant, in chunks of the sweep's size and column type."""
    n, rows = d**6, classify._chunk_rows(d)
    for start in range(0, n, rows):
        index = np.arange(start, min(start + rows, n), dtype=np.int64)
        yield [(index // d**k % d).astype(classify._dtype(d)) for k in range(5, -1, -1)]


def _exhaustive_chunks(monkeypatch, d):
    """The chunks of weight columns classify_exhaustive hands to the sweep."""
    chunks = []
    monkeypatch.setattr(classify, "_sweep", lambda d, stream: chunks.extend(stream))
    classify_exhaustive(d)
    return chunks


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_exhaustive_rows_run_in_support_pattern_order(monkeypatch, d):
    chunks = _exhaustive_chunks(monkeypatch, d)
    assert all(len(c) == len(w[0]) <= classify._chunk_rows(d) for w in chunks for c in w)
    assert all(c.dtype == classify._dtype(d) for w in chunks for c in w)
    rows = np.concatenate([np.stack(w, axis=1) for w in chunks])
    # every matrix exactly once
    assert np.array_equal(np.sort(rows @ d ** np.arange(5, -1, -1)), np.arange(d**6))
    # one run of rows per support pattern
    support = (rows != 0) @ (1 << np.arange(6))
    runs = support[np.r_[0, np.flatnonzero(np.diff(support)) + 1]]
    assert sorted(runs.tolist()) == list(range(64))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_exhaustive_census_independent_of_row_order(d):
    # index-order chunks mix every support pattern, so each shape's group
    # relabels rows of many patterns at once
    reference = classify._sweep(d, _index_order_chunks(d))
    assert classify_exhaustive(d).to_json_dict() == reference.to_json_dict()


def test_plan_table_shapes():
    # 26 disconnected supports; the 38 connected ones (16, 15, 6 and 1 with
    # 3, 4, 5 and 6 edges) split into 4 stars, 33 chain-program supports
    # (12 open chains, 3 four-cycles, 12 triangles with a pendant, 6 five-edged)
    # and the complete graph
    counts = np.bincount(classify._SHAPE, minlength=4)
    assert counts[classify._UNREDUCED] == 26
    assert counts[classify._STAR] == 4
    assert counts[classify._CHAIN] == 33
    assert counts[classify._SIX_EDGED] == 1
    # disconnected and six-edged rows are not relabelled
    for support, shape in enumerate(classify._SHAPE):
        if shape in (classify._UNREDUCED, classify._SIX_EDGED):
            assert classify._SWAPS[support] == ()
    # every connected support, relabelled, is one its program takes: the star
    # at vertex 3, the chain 0-1-2-3 with any chords but 1-3, or all six edges
    star, chain = {(0, 3), (1, 3), (2, 3)}, {(0, 1), (1, 2), (2, 3)}
    g = AdjacencyMatrix.from_edges(7, {pair: k + 1 for k, pair in enumerate(PAIRS)})
    for support, shape in enumerate(classify._SHAPE):
        relabel = classify._RELABEL[support]
        edges = {pair for pair, k in zip(PAIRS, relabel) if support >> int(k) & 1}
        if shape == classify._STAR:
            assert edges == star
        elif shape == classify._CHAIN:
            assert chain <= edges <= chain | {(0, 2), (0, 3)}
        elif shape == classify._SIX_EDGED:
            assert len(edges) == 6
        # the swaps move each weight to where the column map reads it from
        h = replay(g, classify._SWAPS[support])
        assert list(h.weights) == [int(k) + 1 for k in relabel]


def test_reduce_runs_one_group_per_program_shape():
    # all 729 matrices at d = 3 in one call: one disconnected, one star, one
    # chain and one six-edged group, which together hold each row once
    d = 3
    w = list(np.array(list(product(range(d), repeat=6))).T)
    groups = list(classify._reduce(w, d, classify._inverter(d)))
    shapes = [set(classify._SHAPE[g.support].tolist()) for g in groups]
    assert shapes == [{classify._UNREDUCED}, {classify._STAR}, {classify._CHAIN},
                      {classify._SIX_EDGED}]
    assert sorted(int(r) for g in groups for r in g.rows) == list(range(d**6))


def test_sweep_gathers_only_groups_of_mixed_relabellings(monkeypatch):
    # one chunk at d = 3 of every row whose support is not relabelled, which
    # mixes supports within the disconnected, star, chain and six-edged
    # groups, plus the stars at vertex 0, relabelled onto the star at 3: only
    # the star group gathers, once to reduce and once to replay
    d, star_at_0 = 3, 0b000111
    rows = np.array(list(product(range(d), repeat=6)))
    support = (rows != 0) @ (1 << np.arange(6))
    keep = np.array([not classify._SWAPS[s] or s == star_at_0 for s in support])
    shapes = classify._SHAPE[support[keep]]
    for shape in (classify._UNREDUCED, classify._STAR, classify._CHAIN):
        assert len(set(support[keep][shapes == shape].tolist())) > 1
    calls = []
    concatenate = np.concatenate

    def counted(*args, **kwargs):  # a gather lays the six columns end to end once
        calls.append(args)
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    census = classify._sweep(d, [list(rows[keep].T)])
    assert census.total == keep.sum()
    assert len(calls) == 2


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
                g = replay(g, (ScaleOp(v, int(rng.integers(1, d))),))
            graphs.append(replay(g, (StarOp(int(rng.integers(0, 4)), int(rng.integers(0, d))),)))
    graphs.append(AdjacencyMatrix.from_edges(d, {(0, 1): d - 1, (2, 3): d - 2}))
    weights = np.array([g.weights for g in graphs])
    expected = [canonicalize(g).cls for g in graphs]
    assert cut_rank_classes(d, weights) == expected
    assert expected == [CLASS_G] * 10 + [CLASS_C] * 10 + [CLASS_P] * 10 + [DISCONNECTED]


# A prime between 2**63 and 2**64, where numpy reads an int as uint64 or float64.
D_BEYOND_INT64 = 10000000000000000051


def test_cut_rank_oracle_exact_beyond_int64_weights():
    d = D_BEYOND_INT64
    row = [9733044862419154824, 6377047045578648634, 7677164818041690486,
           1844679518563690324, 5467437777444762814, 9238123869591611896]
    assert cut_rank_classes(d, [row]) == [canonicalize(_weights_graph(d, row)).cls] == [CLASS_P]
    # Uniform rows are nearly all class P, so scaled G, C and P representatives
    # and a disconnected row, each with a weight >= 2**63, tell the classes apart.
    rng = random.Random(d)
    rows = []
    for base in (ghz_graph(d), cluster_graph(d), p_graph(d)):
        scaled = []
        while len(scaled) < 10:
            g = replay(base, tuple(ScaleOp(v, rng.randrange(1, d)) for v in range(4)))
            w = list(g.weights)
            if max(w) >= 2**63:
                scaled.append(w)
        rows += scaled
    rows.append([d - 1, 0, 0, 0, 0, d - 2])
    rows += [[rng.randrange(d) for _ in PAIRS] for _ in range(200)]
    graphs = [_weights_graph(d, w) for w in rows]
    assert [list(g.weights) for g in graphs] == rows
    expected = [canonicalize(g).cls for g in graphs]
    assert expected[:31] == [CLASS_G] * 10 + [CLASS_C] * 10 + [CLASS_P] * 10 + [DISCONNECTED]
    assert cut_rank_classes(d, rows) == expected


@pytest.mark.parametrize("weights", [
    [[1.5, 2.9, 1, 0, 0, 0]],
    np.array([[1.0, 1, 1, 0, 0, 0]]),
    [[True, 1, 1, 0, 0, 0]],
    np.ones((1, 6), dtype=bool),
], ids=["float-list", "float-array", "bool-list", "bool-array"])
def test_cut_rank_classes_rejects_weights_that_are_not_integers(weights):
    # a float used to be truncated, so [1.5, 2.9, 1, 0, 0, 0] read as class G
    with pytest.raises(ValueError, match="is not an integer"):
        cut_rank_classes(5, weights)


def test_census_random_refuses_a_d_beyond_int64_draws():
    for d in (2**63 + 29, D_BEYOND_INT64):
        with pytest.raises(ValueError, match=rf"^random census supports d < 2\*\*63, got {d}$"):
            census_random(d, 3, 0)
    assert census_random(2**63 - 25, 20, 0).total == 20  # the largest prime below


def test_census_random_d7():
    census = census_random(7, 150, seed=11)
    assert census.total == 150
    assert census.mismatches == 0
    assert sum(census.counts.values()) == 150


def test_census_random_draws_per_chunk(monkeypatch):
    # a sweep that stops after the first chunk: only that chunk's weights
    # may have been drawn, however many samples are asked for; a chunk holds
    # 32 KiB per column of its type (8 bytes per Python-int reference)
    monkeypatch.setattr(classify, "_sweep", lambda d, stream: next(iter(stream)))
    for d, rows in [(3, 32768), (7, 16384), (37, 8192), (1291, 4096), (2097169, 4096)]:
        first = census_random(d, 10**13, 0)
        assert classify._chunk_rows(d) == rows
        assert len(first) == len(PAIRS)
        assert all(len(c) == rows and c.dtype == classify._dtype(d) for c in first)


@pytest.mark.parametrize("d, dtype", [(2, np.int8), (5, np.int8), (7, np.int16),
                                      (31, np.int16), (37, np.int32), (1289, np.int32),
                                      (1291, np.int64), (2097143, np.int64),
                                      (2097169, object)])
def test_dtype_is_narrowest_holding_d_cubed(d, dtype):
    assert classify._dtype(d) == dtype
    # the largest value a kernel forms, a star term (d-1)**3 + (d-1), fits
    if dtype is not object:
        assert (d - 1) ** 3 + (d - 1) <= np.iinfo(dtype).max


@pytest.mark.parametrize("d", [5, 31, 1289, 2097143, 2**61 - 1])
def test_mod_matches_python_remainder(d):
    # every value a kernel can reduce at d, negative ones included, in the
    # column type of d: the extremes and a random sample between them
    dtype = classify._dtype(d)
    lo, hi = -2 * (d - 1) ** 2, (d - 1) ** 3 + (d - 1)
    rng = np.random.default_rng(d % 1000)
    values = [lo, lo + 1, -d, -d + 1, -1, 0, 1, d - 1, d, hi - 1, hi]
    values += [lo + int(x) for x in rng.integers(0, min(hi - lo, 2**62), size=500)]
    x = np.array(values, dtype=dtype)
    reduced = classify._mod(x, d)
    assert reduced.dtype == x.dtype
    assert [int(v) for v in reduced] == [v % d for v in values]


@pytest.mark.parametrize("d", [5, 7, 1291, 2**32 + 15])
@pytest.mark.parametrize("bad", [lambda d: -1, lambda d: d, lambda d: 256 * d, lambda d: 2**64],
                         ids=["-1", "d", "256d", "2**64"])
def test_cut_rank_classes_rejects_weights_outside_the_field(d, bad):
    # multiples of d would otherwise be read as zero weights, and a cast to a
    # narrow column type would wrap 256 * d to 0
    weight = bad(d)
    with pytest.raises(ValueError):
        cut_rank_classes(d, [[weight, weight, weight, 0, 0, 0]])
    with pytest.raises(ValueError):
        cut_rank_classes(d, np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, weight]]))


@pytest.mark.parametrize("weights", [
    [[1, 1, 1], [0, 0, 0]],
    np.ones((1, 12), dtype=int),
    np.ones((2, 7), dtype=int),
    [1, 1, 1, 0, 0, 0],
    [[[1, 1, 1, 0, 0, 0]]],
    [],
], ids=["2x3", "1x12", "2x7", "flat", "1x1x6", "empty-list"])
def test_cut_rank_classes_refuses_weights_that_are_not_n_rows_of_six(weights):
    # such input used to be reshaped: [[1, 1, 1], [0, 0, 0]] read as one class G
    # graph, and a (1, 12) array as two graphs
    with pytest.raises(ValueError, match=r"must be an \(N, 6\) array, got shape"):
        cut_rank_classes(3, weights)
    assert cut_rank_classes(3, np.zeros((0, 6), dtype=int)) == []


def _entropy_class(entropy):
    """The class of a ``graph_entropies`` profile: disconnected if a site or a
    pair is pure, else by the count of pairs of entropy 1, 6, 2 or 0."""
    if 0 in entropy.values():
        return DISCONNECTED
    loose = sum(s == 1 for keep, s in entropy.items() if len(keep) == 2)
    return {6: CLASS_G, 2: CLASS_C, 0: CLASS_P}[loose]


@pytest.mark.parametrize("d", [p for p in range(2, 32) if is_prime(p)] + [D_BEYOND_INT64])
def test_cut_rank_kernel_int_and_column_forms_agree_on_every_support(d):
    # cut_ranks per graph in Python ints (graph_entropies) and over weight
    # columns (cut_rank_classes) give the same class, on random nonzero
    # weights over each of the 64 edge supports
    rng = random.Random(d)
    rows = [[rng.randrange(1, d) if support >> k & 1 else 0 for k in range(len(PAIRS))]
            for support in range(2 ** len(PAIRS)) for _ in range(3)]
    entropies = [graph_entropies(_weights_graph(d, w)) for w in rows]
    assert all(type(s) is int for entropy in entropies for s in entropy.values())
    assert cut_rank_classes(d, rows) == [_entropy_class(entropy) for entropy in entropies]
    # and the column form's flags and ranks, row by row, are the int form's
    columns = [np.array(col, dtype=np.int64 if d < 2**31 else object) for col in zip(*rows)]
    flags, ranks = cut_ranks(columns, d)
    assert [([*map(bool, f)], [*map(int, r)]) for f, r in zip(zip(*flags), zip(*ranks))] \
        == [cut_ranks(w, d) for w in rows]


@pytest.mark.parametrize("d", [4, 9, 1, 0, True, 3.0])
def test_cut_rank_classes_rejects_a_d_that_is_not_prime(d):
    # over Z_4 the weights below have no class, yet would be labelled G
    with pytest.raises(ValueError, match="prime"):
        cut_rank_classes(d, [[2, 0, 2, 2, 2, 0]])


def test_oracle_mismatch_is_a_verification_failure(monkeypatch):
    # a canonical class that disagrees with the cut-rank oracle stops the sweep
    # with a message naming the matrix and both classes
    monkeypatch.setattr(classify, "_cut_rank_codes",
                        lambda d, w: np.full(len(w[0]), classify._P, dtype=np.int64))
    zero = ((0, 0, 0, 0),) * 4
    message = (f"class mismatch for matrix {zero}: "
               "canonicalization says disconnected, cut-rank oracle says P")
    with pytest.raises(VerificationFailure) as info:
        classify_exhaustive(2)
    assert str(info.value) == message and type(info.value) is VerificationFailure


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


# Tuple reference reducer: the per-matrix reduction on plain 4x4 int tuples
# that the batched, column-wise reducer of quditgraph.classify replaced, kept
# unchanged as the reference the batched reducer is held to.

_PAIRS = tuple(PAIRS)
_G_FORM = ((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 1), (1, 1, 1, 0))


def _scale(e, d: int, vertex: int, factor: int):
    factor %= d
    if factor == 0:
        raise ValueError("scale factor must be nonzero")
    rows = [list(row) for row in e]
    for m in range(N_VERTICES):
        rows[vertex][m] = rows[m][vertex] = e[vertex][m] * factor % d
    return tuple(map(tuple, rows))


def _star(e, d: int, vertex: int, factor: int):
    # Rows n with Gamma_n,vertex = 0 (vertex itself included) are unchanged.
    col = e[vertex]
    rows = []
    for n, (row, c) in enumerate(zip(e, col)):
        if c:
            new = [(w + factor * c * cm) % d for w, cm in zip(row, col)]
            new[n] = 0
            row = tuple(new)
        rows.append(row)
    return tuple(rows)


def _swap(e, a: int, b: int):
    axes = list(range(N_VERTICES))
    axes[a], axes[b] = axes[b], axes[a]
    pick = itemgetter(*axes)
    return tuple([pick(e[n]) for n in axes])


def _apply(e, d: int, op: LCOperation):
    if isinstance(op, ScaleOp):
        return _scale(e, d, op.vertex, op.factor)
    if isinstance(op, StarOp):
        return _star(e, d, op.vertex, op.factor)
    if isinstance(op, SwapOp):
        return _swap(e, op.a, op.b)
    raise TypeError(f"unknown operation {op!r}")


def _replay(e, d: int, trace):
    for op in trace:
        e = _apply(e, d, op)
    return e


class _Reducer:
    """Mutable canonicalization state: current entries plus recorded trace."""

    def __init__(self, e, d: int):
        self.h = e
        self.d = d
        self.ops: list[LCOperation] = []

    def scale(self, vertex: int, factor: int) -> None:
        factor %= self.d
        if factor != 1:
            self.h = _scale(self.h, self.d, vertex, factor)
            self.ops.append(ScaleOp(vertex, factor))

    def star(self, vertex: int, factor: int) -> None:
        factor %= self.d
        if factor != 0:
            self.h = _star(self.h, self.d, vertex, factor)
            self.ops.append(StarOp(vertex, factor))

    def permute(self, axes) -> None:
        """Relabel so that new vertex i is old vertex axes[i], as a sequence of swaps."""
        cur = list(range(N_VERTICES))
        for r in range(N_VERTICES):
            if cur[r] != axes[r]:
                s = cur.index(axes[r])
                self.h = _swap(self.h, r, s)
                self.ops.append(SwapOp(r, s))
                cur[r], cur[s] = cur[s], cur[r]

    def normalize_edge(self, vertex: int, other: int) -> None:
        """Scale ``vertex`` so the edge to ``other`` gets unit weight."""
        self.scale(vertex, inv_mod(self.h[vertex][other], self.d))


def _is_connected(e) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        n = stack.pop()
        for m in range(N_VERTICES):
            if e[n][m] != 0 and m not in seen:
                seen.add(m)
                stack.append(m)
    return len(seen) == N_VERTICES


def _canonical(e, d: int):
    """(class, gamma_tilde, trace, canonical entries) of the entries ``e``."""
    if not _is_connected(e):
        return DISCONNECTED, None, (), e

    r = _Reducer(e, d)
    n_edges = sum(1 for n, m in _PAIRS if e[n][m] != 0)
    if n_edges == 6:
        _reduce_six_edged(r)
    elif n_edges == 5:
        _reduce_five_edged(r)
    elif n_edges == 4:
        _reduce_four_edged(r)
    else:
        _reduce_three_edged(r)

    h = r.h
    if h == _G_FORM:
        return CLASS_G, None, tuple(r.ops), h
    gamma = h[0][3]
    # the gamma_graph form: chain 0-1-2-3 of unit weights plus the 0-3 chord
    if h != ((0, 1, 0, gamma), (1, 0, 1, 0), (0, 1, 0, 1), (gamma, 0, 1, 0)):
        raise VerificationFailure(f"reduction left a non-canonical matrix {h}")
    return (CLASS_C if gamma in (0, 1) else CLASS_P), gamma, tuple(r.ops), h


def _reduce_six_edged(r: _Reducer) -> None:
    d = r.d
    # Kill the 1-3 edge with a star at 2, then normalize the 1-2 and 2-3 edges.
    r.star(2, -r.h[1][3] * inv_mod(r.h[1][2], d) * inv_mod(r.h[2][3], d))
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)
    alpha, gamma = r.h[0][1], r.h[0][3]
    if alpha == 0 and gamma == 0:
        # Remaining graph is a star at vertex 2 with one non-unit edge.
        r.permute((0, 1, 3, 2))
        r.normalize_edge(0, 3)
        return
    if alpha == 0:
        r.permute((0, 3, 2, 1))  # exchange the roles of the 0-1 and 0-3 edges
    # Kill the 0-2 edge with a star at 1, then normalize the 0-1 edge.
    r.star(1, -r.h[0][2] * inv_mod(r.h[0][1], d))
    r.normalize_edge(0, 1)


def _reduce_five_edged(r: _Reducer) -> None:
    (zero_pair,) = [(n, m) for n, m in _PAIRS if r.h[n][m] == 0]
    others = [v for v in range(N_VERTICES) if v not in zero_pair]
    r.permute((others[0], zero_pair[0], others[1], zero_pair[1]))
    # Kill the 0-2 chord, leaving the 4-cycle 0-1-2-3-0; normalizing its chain
    # edges turns the 0-3 edge into gamma_tilde.
    r.star(1, -r.h[0][2] * inv_mod(r.h[0][1] * r.h[1][2], r.d))
    _normalize_chain(r)


def _reduce_four_edged(r: _Reducer) -> None:
    (z1, z2) = [(n, m) for n, m in _PAIRS if r.h[n][m] == 0]
    shared = set(z1) & set(z2)
    if not shared:
        # Diagonally placed gaps: the graph is already a 4-cycle.
        r.permute((z1[0], z2[0], z1[1], z2[1]))
        _normalize_chain(r)
        return
    v = shared.pop()
    i, j = sorted((set(z1) | set(z2)) - {v})
    (k,) = set(range(N_VERTICES)) - {v, i, j}
    r.permute((i, j, k, v))
    # Triangle 0-1-2 with a pendant 3; kill the 0-2 edge to leave the chain.
    r.star(1, -r.h[0][2] * inv_mod(r.h[0][1] * r.h[1][2], r.d))
    _normalize_chain(r)


def _reduce_three_edged(r: _Reducer) -> None:
    degrees = [sum(1 for w in row if w != 0) for row in r.h]
    if 3 in degrees:
        center = degrees.index(3)
        leaves = [v for v in range(N_VERTICES) if v != center]
        r.permute((*leaves, center))
        for v in range(3):
            r.normalize_edge(v, 3)
        return
    # A connected 3-edged graph without a degree-3 vertex is an open chain.
    first = min(v for v in range(N_VERTICES) if degrees[v] == 1)
    order = [first]
    while len(order) < N_VERTICES:
        nxt = [m for m in range(N_VERTICES) if r.h[order[-1]][m] != 0 and m not in order]
        order.append(nxt[0])
    r.permute(tuple(order))
    _normalize_chain(r)


def _normalize_chain(r: _Reducer) -> None:
    r.normalize_edge(1, 0)
    r.normalize_edge(2, 1)
    r.normalize_edge(3, 2)


def _batched_results(d, weights):
    """(row, result) of every row of an (N, 6) weight array, through the batched
    reducer, whose columns and factors must all keep the sweep's column type."""
    dtype = classify._dtype(d)
    w = list(np.ascontiguousarray(np.asarray(weights).T, dtype=dtype))
    for group in classify._reduce(w, d, classify._inverter(d)):
        assert all(c.dtype == dtype for c in group.w)
        assert all(op.factor.dtype == dtype for op, _ in group.ops if not isinstance(op, SwapOp))
        for i, row in enumerate(group.rows):
            yield int(row), group.result(i)


def _assert_batched_matches_reference(d, weights):
    rows = []
    for row, result in _batched_results(d, weights):
        a, b, c, x, y, z = map(int, weights[row])
        e = ((0, a, b, c), (a, 0, x, y), (b, x, 0, z), (c, y, z, 0))
        assert result == _canonical(e, d), e
        rows.append(row)
    assert sorted(rows) == list(range(len(weights)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batched_reducer_matches_reference_exhaustively(d):
    # (class, gamma_tilde, trace, canonical) of every matrix
    _assert_batched_matches_reference(d, np.array(list(product(range(d), repeat=6))))


@pytest.mark.parametrize("d, n", [(5, 2000), (7, 2000), (11, 2000), (13, 2000), (31, 2000),
                                  (37, 2000), (1289, 1000), (1291, 1000), (1000003, 200),
                                  (2**61 - 1, 50)])
def test_batched_reducer_matches_reference_sampled(d, n):
    # Each side of every column type's bound: int8 at d = 5, int16 at 7 and
    # 31, int32 at 37 and 1289, int64 at 1291; inverse tables up to d = 1291,
    # pow per entry on int64 columns at d = 1000003 and on Python-int columns
    # at d = 2**61 - 1. A third of the weights are zero, so sparse patterns
    # show up at every d, and 64 more rows put d - 1, which makes every
    # product largest, on each support pattern.
    rng = np.random.default_rng(n + d % 1000)
    weights = rng.integers(1, d, size=(n, 6)) * (rng.random((n, 6)) > 1 / 3)
    largest = (d - 1) * (np.arange(64)[:, None] >> np.arange(6) & 1)
    _assert_batched_matches_reference(d, np.concatenate([largest, weights]))


def test_canonicalize_matches_reference_d3():
    # the one-graph call drops the scales by 1 and stars by 0 of its group
    for w in product(range(3), repeat=6):
        g = _weights_graph(3, w)
        res = canonicalize(g)
        assert (res.cls, res.gamma_tilde, res.trace, res.canonical.entries) == _canonical(
            g.entries, 3
        )


@pytest.mark.parametrize("d", [5, 2**32 + 15])
def test_public_operations_match_tuple_kernels(rng, d):
    # int64 columns at d = 5, Python-int columns at d = 2**32 + 15
    for _ in range(40):
        g = _weights_graph(d, map(int, rng.integers(0, d, size=6)))
        v, f = int(rng.integers(0, 4)), int(rng.integers(1, d))
        a, b = map(int, rng.choice(4, size=2, replace=False))
        assert replay(g, (ScaleOp(v, f),)).entries == _scale(g.entries, d, v, f)
        assert replay(g, (StarOp(v, f),)).entries == _star(g.entries, d, v, f)
        assert replay(g, (SwapOp(a, b),)).entries == _swap(g.entries, a, b)
        trace = (StarOp(v, -f), SwapOp(a, b), ScaleOp(b, f + d), StarOp(a, f << 70))
        assert replay(g, trace).entries == _replay(g.entries, d, trace)
