"""Graph builders, thresholds, access/delivery composition, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbscache.geometry import PointSet, sample_binomial_disk
from sbscache.netgraph import (
    CoverageRanges,
    SimpleGraph,
    access_pairs,
    build_class_graph,
    build_sbs_weighted_graph,
    graph_to_edge_list,
    individual_thresholds,
    threshold_graph,
    universal_threshold,
)
from sbscache.placement import Placement, placement_matrix, placement_to_csv

import oracles
from oracles import AccessMap, access_matrix, build_access_map, build_delivery_map, random_simple_graph


def ptset(coords, radius=1000.0):
    return PointSet(np.array(coords, dtype=float).reshape(-1, 2), radius)


def test_weighted_graph_single_sbs():
    w = build_sbs_weighted_graph(ptset([(0, 0)]))
    assert w.tolist() == [[0.0]]


def test_weighted_graph_pair_distance():
    w = build_sbs_weighted_graph(ptset([(0, 0), (0, 80)]))
    assert w[0, 1] == 80.0


def test_weighted_graph_symmetric_zero_diagonal():
    w = build_sbs_weighted_graph(sample_binomial_disk(20, 350.0, seed=2))
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)


def test_individual_thresholds_uniform_ranges():
    tr = individual_thresholds(CoverageRanges(np.full(4, 80.0)))
    assert np.all(tr == 80.0)


def test_individual_thresholds_min_rule():
    tr = individual_thresholds(CoverageRanges(np.array([50.0, 100.0])))
    assert tr[0, 1] == 50.0 and tr[1, 0] == 50.0


def test_individual_thresholds_symmetric():
    rng = np.random.default_rng(3)
    tr = individual_thresholds(CoverageRanges(rng.uniform(50, 100, 12)))
    assert np.array_equal(tr, tr.T)


def test_universal_threshold_examples():
    assert universal_threshold(CoverageRanges(np.array([50.0, 80.0, 100.0]))) == 50.0
    assert universal_threshold(CoverageRanges(np.full(5, 80.0))) == 80.0


def test_universal_threshold_matches_pair_scan():
    rng = np.random.default_rng(4)
    ranges = CoverageRanges(rng.uniform(50, 100, 10))
    tr = individual_thresholds(ranges)
    brute = min(tr[i, j] for i in range(10) for j in range(10) if i != j)
    assert universal_threshold(ranges) == brute


def test_universal_threshold_empty_network():
    with pytest.raises(ValueError):
        universal_threshold(CoverageRanges(np.array([])))


def test_threshold_graph_far_apart_no_edge():
    g = build_sbs_weighted_graph(ptset([(0, 0), (200, 0)]))
    assert not threshold_graph(g, 80.0).adjacency[0, 1]


def test_threshold_graph_nearby_edge():
    g = build_sbs_weighted_graph(ptset([(0, 0), (60, 0)]))
    assert threshold_graph(g, 80.0).adjacency[0, 1]


def test_threshold_graph_boundary_inclusive():
    g = build_sbs_weighted_graph(ptset([(0, 0), (80, 0)]))
    assert threshold_graph(g, 80.0).adjacency[0, 1]


def test_threshold_graph_matches_brute_force_at_cell_scale():
    sbs = sample_binomial_disk(48, 350.0, seed=6)
    g = threshold_graph(build_sbs_weighted_graph(sbs), 80.0)
    for i in range(48):
        for j in range(48):
            d = float(np.hypot(*(sbs.xy[i] - sbs.xy[j])))
            assert g.adjacency[i, j] == (i != j and d <= 80.0)


def test_universal_edges_subset_of_individual_edges():
    sbs = sample_binomial_disk(30, 350.0, seed=8)
    ranges = CoverageRanges(np.random.default_rng(8).uniform(50, 100, 30))
    wg = build_sbs_weighted_graph(sbs)
    g_uni = threshold_graph(wg, universal_threshold(ranges))
    g_ind = threshold_graph(wg, individual_thresholds(ranges))
    assert np.all(~g_uni.adjacency | g_ind.adjacency)


def test_class_graph_singletons_edgeless():
    g = build_class_graph(np.eye(3, dtype=bool))
    assert g.edges() == []


def test_class_graph_pair():
    classes = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    g = build_class_graph(classes)
    assert g.edges() == [(0, 1)]
    assert classes.diagonal().all()  # the input is left as it was


def test_class_graph_rejects_asymmetric_membership():
    with pytest.raises(ValueError):
        build_class_graph(np.array([[1, 1], [0, 1]], dtype=bool))


def test_access_map_out_of_range_user():
    # the second user sits exactly at the range (a 48-64-80 triangle): covered
    users, sbs = ptset([(90, 0), (48, 64)]), ptset([(0, 0)])
    amap = build_access_map(users, sbs, CoverageRanges(np.array([80.0])))
    assert amap.sets[0] == frozenset()
    assert amap.sets[1] == frozenset({0})


def test_access_map_dual_coverage():
    users = ptset([(5, 0)])
    sbs = ptset([(0, 0), (10, 0)])
    amap = build_access_map(users, sbs, CoverageRanges(np.array([80.0, 80.0])))
    assert amap.sets[0] == frozenset({0, 1})


def test_access_matrix_uses_the_one_distance_kernel(monkeypatch):
    calls = []
    original = oracles.distance_matrix

    def counted(*args):
        calls.append(tuple(len(p) for p in args))
        return original(*args)

    monkeypatch.setattr(oracles, "distance_matrix", counted)
    users, sbs = ptset([(5, 0), (90, 0), (0, 0)]), ptset([(0, 0), (10, 0)])
    acc = access_matrix(users, sbs, CoverageRanges(np.array([80.0, 80.0])))
    assert acc.tolist() == [[True, True], [False, True], [True, True]]
    assert calls == [(3, 2)]


def test_access_pairs_are_the_dense_access_matrix():
    users = sample_binomial_disk(1000, 350.0, seed=12)
    sbs = sample_binomial_disk(48, 350.0, seed=13)
    ranges = CoverageRanges(np.random.default_rng(14).uniform(50.0, 100.0, 48))
    u, j = access_pairs(users, sbs, ranges)
    acc = np.zeros((1000, 48), dtype=bool)
    acc[u, j] = True
    assert u.size == acc.sum()  # no pair twice
    assert np.array_equal(acc, access_matrix(users, sbs, ranges))
    with pytest.raises(ValueError):
        access_pairs(users, sbs, CoverageRanges(np.full(47, 80.0)))


def test_access_map_matches_brute_force_at_cell_scale():
    users = sample_binomial_disk(1000, 350.0, seed=10)
    sbs = sample_binomial_disk(48, 350.0, seed=11)
    ranges = CoverageRanges(np.full(48, 80.0))
    amap = build_access_map(users, sbs, ranges)
    for u in range(0, 1000, 37):  # stride keeps the scan cheap
        expected = {
            j for j in range(48)
            if float(np.hypot(*(users.xy[u] - sbs.xy[j]))) <= 80.0
        }
        assert amap.sets[u] == expected


def test_delivery_empty_access():
    caches = (frozenset({1, 2}),)
    access = AccessMap((frozenset(),), 1)
    assert build_delivery_map(caches, access).sets[0] == frozenset()


def test_delivery_union():
    caches = (frozenset({1, 2}), frozenset({3, 4}))
    access = AccessMap((frozenset({0, 1}),), 2)
    assert build_delivery_map(caches, access).sets[0] == frozenset({1, 2, 3, 4})


@given(st.integers(0, 2**31), st.integers(1, 12), st.integers(1, 30))
@settings(max_examples=100)
def test_delivery_is_exactly_the_placement_access_composition(seed, n_sbs, n_users):
    rng = np.random.default_rng(seed)
    caches = tuple(
        frozenset(rng.choice(20, size=rng.integers(0, 6), replace=False).tolist() or [])
        for _ in range(n_sbs)
    )
    caches = tuple(frozenset(int(r) + 1 for r in c) for c in caches)
    access = AccessMap(
        tuple(
            frozenset(int(j) for j in np.flatnonzero(rng.random(n_sbs) < 0.3))
            for _ in range(n_users)
        ),
        n_sbs,
    )
    delivery = build_delivery_map(caches, access)
    for u in range(n_users):
        for f in delivery.sets[u]:
            assert any(f in caches[j] for j in access.sets[u])
        for j in access.sets[u]:
            assert caches[j] <= delivery.sets[u]


def test_placement_matrix_matches_sets():
    # color 3 with M = 4 over 10 files wraps: ranks 9, 10, 1, 2
    placement = Placement(np.array([2, 3]), 4, 10)
    mat = placement_matrix(placement)
    assert mat.shape == (2, 10)
    for j, cache in enumerate(placement.caches):
        assert (np.flatnonzero(mat[j]) + 1).tolist() == sorted(cache)
    assert placement.caches == (frozenset({5, 6, 7, 8}), frozenset({9, 10, 1, 2}))


def test_simple_graph_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        SimpleGraph(2, np.array([[False, True], [False, False]]))
    with pytest.raises(ValueError):
        SimpleGraph(1, np.array([[True]]))


def test_weighted_graph_rejects_negative_weights():
    with pytest.raises(ValueError):
        threshold_graph(np.array([[0.0, -1.0], [-1.0, 0.0]]), 10.0)


@given(st.integers(0, 2**31), st.integers(0, 12))
@settings(max_examples=100)
def test_edge_list_round_trip(seed, n):
    g = random_simple_graph(np.random.default_rng(seed), n, 0.4)
    pairs = [tuple(map(int, ln.split())) for ln in graph_to_edge_list(g).splitlines()]
    assert pairs == sorted(pairs) and all(i < j for i, j in pairs)
    back = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        back[i, j] = back[j, i] = True
    assert np.array_equal(back, g.adjacency)


def test_placement_csv_round_trip():
    placement = Placement(np.array([1, 3, 2]), 3, 8)
    lines = placement_to_csv(placement).splitlines()
    assert lines[0] == "sbs_id,file_rank"
    back = [set() for _ in range(placement.n_sbs)]
    for line in lines[1:]:
        j, rank = map(int, line.split(","))
        back[j].add(rank)
    assert tuple(map(frozenset, back)) == placement.caches
    assert placement.caches == (frozenset({1, 2, 3}), frozenset({7, 8, 1}), frozenset({4, 5, 6}))
