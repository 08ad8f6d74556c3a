"""Graph builders, thresholds, access/delivery composition, serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbscache.geometry import PointSet, pairs_within, sample_binomial_disk
from sbscache.netgraph import (
    SimpleGraph,
    access_pairs,
    build_class_graph,
    graph_to_edge_list,
    individual_thresholds,
    threshold_graph,
    universal_threshold,
)
from sbscache.placement import Placement, placement_matrix, placement_to_csv

import oracles
from oracles import (
    AccessMap,
    access_matrix,
    build_access_map,
    build_delivery_map,
    dense_adjacency,
    distance_matrix,
    random_simple_graph,
)


def ptset(coords, radius=1000.0):
    return PointSet(np.array(coords, dtype=float).reshape(-1, 2), radius)


def test_weighted_graph_single_sbs():
    # a station is never its own neighbour, even at threshold 0
    g = threshold_graph(ptset([(0, 0)]), 0.0)
    assert g.n == 1 and g.edges() == []


def test_weighted_graph_pair_distance():
    # the weight is exactly 80: an edge at threshold 80, none one ulp below
    sbs = ptset([(0, 0), (0, 80)])
    assert threshold_graph(sbs, 80.0).edges() == [(0, 1)]
    assert threshold_graph(sbs, np.nextafter(80.0, 0.0)).edges() == []


def test_weighted_graph_symmetric_zero_diagonal():
    # the station pairs of the kernel come in both orders, self-pairs included
    sbs = sample_binomial_disk(20, 350.0, seed=2)
    i, j = pairs_within(sbs, sbs, np.full(20, 120.0))
    pairs = set(zip(i.tolist(), j.tolist()))
    assert pairs == {(b, a) for a, b in pairs}
    assert {(v, v) for v in range(20)} <= pairs


def test_individual_thresholds_uniform_ranges():
    tr = individual_thresholds(np.full(4, 80.0))
    assert np.all(tr == 80.0)


def test_individual_thresholds_min_rule():
    # d = 75 lies within R_1 = 100 but not within R_0 = 50
    ranges = individual_thresholds(np.array([50.0, 100.0]))
    assert threshold_graph(ptset([(0, 0), (75, 0)]), ranges).edges() == []
    assert threshold_graph(ptset([(0, 0), (50, 0)]), ranges).edges() == [(0, 1)]


def test_individual_thresholds_symmetric():
    # relabelling the stations relabels the graph: the kept direction of a
    # pair depends on the index order only when the thresholds tie
    rng = np.random.default_rng(3)
    sbs = sample_binomial_disk(12, 150.0, seed=3)
    ranges = np.round(rng.uniform(50, 100, 12), -1)  # ties on purpose
    perm = rng.permutation(12)
    g = dense_adjacency(threshold_graph(sbs, ranges))
    relabeled = dense_adjacency(threshold_graph(PointSet(sbs.xy[perm], 150.0), ranges[perm]))
    assert np.array_equal(relabeled, g[np.ix_(perm, perm)])


def test_universal_threshold_examples():
    assert universal_threshold(np.array([50.0, 80.0, 100.0])) == 50.0
    assert universal_threshold(np.full(5, 80.0)) == 80.0


def test_universal_threshold_matches_pair_scan():
    rng = np.random.default_rng(4)
    ranges = rng.uniform(50, 100, 10)
    r = individual_thresholds(ranges)
    brute = min(min(r[i], r[j]) for i in range(10) for j in range(10) if i != j)
    assert universal_threshold(ranges) == brute


def test_universal_threshold_empty_network():
    with pytest.raises(ValueError):
        universal_threshold(np.array([]))


RANGE_READERS = {
    "individual_thresholds": individual_thresholds,
    "universal_threshold": universal_threshold,
    "access_pairs": lambda r: access_pairs(ptset([(0, 0)]), ptset([(0, 0), (10, 0), (20, 0)]), r),
}


@pytest.mark.parametrize("reader", RANGE_READERS)
@pytest.mark.parametrize("bad", [0.0, -5.0, np.nan])
def test_range_readers_reject_a_non_positive_range(reader, bad):
    with pytest.raises(ValueError, match="all coverage ranges must be positive"):
        RANGE_READERS[reader](np.array([80.0, bad, 60.0]))


def test_threshold_graph_far_apart_no_edge():
    assert threshold_graph(ptset([(0, 0), (200, 0)]), 80.0).edges() == []


def test_threshold_graph_nearby_edge():
    assert threshold_graph(ptset([(0, 0), (60, 0)]), 80.0).edges() == [(0, 1)]


def test_threshold_graph_boundary_inclusive():
    assert threshold_graph(ptset([(0, 0), (80, 0)]), 80.0).edges() == [(0, 1)]


def test_threshold_graph_matches_brute_force_at_cell_scale():
    sbs = sample_binomial_disk(48, 350.0, seed=6)
    adj = dense_adjacency(threshold_graph(sbs, 80.0))
    for i in range(48):
        for j in range(48):
            d = float(np.hypot(*(sbs.xy[i] - sbs.xy[j])))
            assert adj[i, j] == (i != j and d <= 80.0)


def test_universal_edges_subset_of_individual_edges():
    sbs = sample_binomial_disk(30, 350.0, seed=8)
    ranges = np.random.default_rng(8).uniform(50, 100, 30)
    g_uni = threshold_graph(sbs, universal_threshold(ranges))
    g_ind = threshold_graph(sbs, individual_thresholds(ranges))
    assert set(g_uni.edges()) <= set(g_ind.edges())


@st.composite
def conflict_inputs(draw):
    """Stations anywhere, on a coarse grid (exact ties) or stacked; fixed or per-station ranges."""
    n = draw(st.integers(0, 14))
    layout = draw(st.sampled_from(("disk", "grid", "stacked")))
    if layout == "disk":
        xy = draw(st.lists(st.tuples(*[st.floats(-140.0, 140.0)] * 2), min_size=n, max_size=n))
    elif layout == "grid":
        xy = draw(st.lists(st.tuples(*[st.integers(-7, 7).map(lambda k: 20.0 * k)] * 2),
                           min_size=n, max_size=n))
    else:
        xy = [(30.0, -40.0)] * n
    if draw(st.booleans()):
        ranges = np.full(n, float(draw(st.sampled_from([0.0, 20.0, 28.0, 50.0, 80.0]))))
    else:
        either = st.sampled_from([0.0, 20.0, 40.0, 50.0, 80.0, 100.0]) | st.floats(0.0, 120.0)
        ranges = np.array(draw(st.lists(either, min_size=n, max_size=n)))
    return PointSet(np.array(xy, dtype=float).reshape(-1, 2), 200.0), ranges


@given(conflict_inputs())
# d == R exactly: a 3-4-5 triangle scaled to 50, and an axis pair at 80
@example((ptset([(0, 0), (30, 40), (80, 0)], 200.0), np.array([80.0, 50.0, 80.0])))
# R_i < d <= R_j: 75 m lies within 100 but not within 50, so no edge
@example((ptset([(0, 0), (75, 0)], 200.0), np.array([50.0, 100.0])))
@example((ptset([(0, 0), (75, 0)], 200.0), np.array([100.0, 50.0])))
# equal ranges, and coincident stations
@example((ptset([(0, 0), (10, 0), (10, 0), (10, 0)], 200.0), np.full(4, 10.0)))
# threshold 0: only coincident stations conflict
@example((ptset([(0, 0), (0, 0), (1e-9, 0), (50, 50)], 200.0), np.array([0.0, 0.0, 0.0, 30.0])))
@example((ptset([], 200.0), np.array([])))
@example((ptset([(5, 5)], 200.0), np.array([30.0])))
@settings(max_examples=200, deadline=None)
def test_conflict_graph_is_the_dense_threshold(inputs):
    # both threshold modes give the dense oracle's d <= min(R_i, R_j), off the diagonal
    sbs, r = inputs
    d = distance_matrix(sbs)
    off = ~np.eye(len(sbs), dtype=bool)
    expected = {"individual": (r, d <= np.minimum(r[:, None], r[None, :]))}
    if len(sbs):
        expected["universal"] = (r.min(), d <= r.min())
    for mode, (thresholds, dense) in expected.items():
        g = threshold_graph(sbs, thresholds)
        assert np.array_equal(dense_adjacency(g), dense & off), mode
        assert g.degrees().sum() == 2 * len(g.edges())  # no edge twice


def test_conflict_graph_at_threshold_zero_joins_only_coincident_stations():
    sbs = ptset([(0, 0), (0, 0), (1e-9, 0), (50, 50)])
    assert threshold_graph(sbs, 0.0).edges() == [(0, 1)]


def test_class_graph_singletons_edgeless():
    g = build_class_graph((np.arange(3), np.arange(3)), 3)
    assert g.edges() == []


def test_class_graph_pair():
    classes = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    g = build_class_graph(np.nonzero(classes), 3)
    assert g.edges() == [(0, 1)]
    assert classes.diagonal().all()  # the input is left as it was


def test_access_map_out_of_range_user():
    # the second user sits exactly at the range (a 48-64-80 triangle): covered
    users, sbs = ptset([(90, 0), (48, 64)]), ptset([(0, 0)])
    amap = build_access_map(users, sbs, np.array([80.0]))
    assert amap.sets[0] == frozenset()
    assert amap.sets[1] == frozenset({0})


def test_access_map_dual_coverage():
    users = ptset([(5, 0)])
    sbs = ptset([(0, 0), (10, 0)])
    amap = build_access_map(users, sbs, np.array([80.0, 80.0]))
    assert amap.sets[0] == frozenset({0, 1})


def test_access_matrix_uses_the_one_distance_kernel(monkeypatch):
    calls = []
    original = oracles.distance_matrix

    def counted(*args):
        calls.append(tuple(len(p) for p in args))
        return original(*args)

    monkeypatch.setattr(oracles, "distance_matrix", counted)
    users, sbs = ptset([(5, 0), (90, 0), (0, 0)]), ptset([(0, 0), (10, 0)])
    acc = access_matrix(users, sbs, np.array([80.0, 80.0]))
    assert acc.tolist() == [[True, True], [False, True], [True, True]]
    assert calls == [(3, 2)]


def test_access_pairs_are_the_dense_access_matrix():
    users = sample_binomial_disk(1000, 350.0, seed=12)
    sbs = sample_binomial_disk(48, 350.0, seed=13)
    ranges = np.random.default_rng(14).uniform(50.0, 100.0, 48)
    u, j = access_pairs(users, sbs, ranges)
    acc = np.zeros((1000, 48), dtype=bool)
    acc[u, j] = True
    assert u.size == acc.sum()  # no pair twice
    assert np.array_equal(acc, access_matrix(users, sbs, ranges))
    with pytest.raises(ValueError):
        access_pairs(users, sbs, np.full(47, 80.0))


def test_access_map_matches_brute_force_at_cell_scale():
    users = sample_binomial_disk(1000, 350.0, seed=10)
    sbs = sample_binomial_disk(48, 350.0, seed=11)
    ranges = np.full(48, 80.0)
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
    assert [(np.flatnonzero(row) + 1).tolist() for row in mat] == [[5, 6, 7, 8], [1, 2, 9, 10]]


def test_simple_graph_rejects_loops_repeats_and_strangers():
    with pytest.raises(ValueError, match="self-loops"):
        SimpleGraph.from_pairs(1, [0], [0])
    with pytest.raises(ValueError, match="twice"):
        SimpleGraph.from_pairs(2, [0, 1], [1, 0])
    for stranger in (2, -1):
        with pytest.raises(ValueError):
            SimpleGraph.from_pairs(2, [0], [stranger])
    g = SimpleGraph.from_pairs(3, [2, 0], [1, 1])
    assert g.indptr.tolist() == [0, 1, 3, 4] and g.indices.tolist() == [1, 0, 2, 1]


def test_threshold_graph_rejects_negative_thresholds():
    sbs = ptset([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        threshold_graph(sbs, -1.0)
    with pytest.raises(ValueError):
        threshold_graph(sbs, np.array([10.0, -1.0]))


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
    back = [set() for _ in range(len(placement.colors))]
    for line in lines[1:]:
        j, rank = map(int, line.split(","))
        back[j].add(rank)
    assert tuple(map(frozenset, back)) == (
        frozenset({1, 2, 3}), frozenset({7, 8, 1}), frozenset({4, 5, 6})
    )
