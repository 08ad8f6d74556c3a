"""Disk sampling and Matern thinning behavior."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbscache.classify import matern_type_i, matern_type_ii
from sbscache.geometry import PointSet, pairs_within, sample_binomial_disk
from sbscache.netgraph import SimpleGraph

from oracles import distance_matrix, hard_core_matrix, matern_reference, min_pairwise_distance


def ptset(coords, radius=1000.0):
    return PointSet(np.array(coords, dtype=float).reshape(-1, 2), radius)


def near(pts, hard):
    """The hard-core graph of ``pts``: an edge (i, j), i != j, wherever d <= hard."""
    i, j = pairs_within(pts, pts, np.full(len(pts), hard))
    return SimpleGraph.from_pairs(len(pts), i[i < j], j[i < j])


def thin_i(pts, hard):
    return matern_type_i(near(pts, hard))


def test_binomial_disk_empty():
    assert len(sample_binomial_disk(0, 350.0, seed=1)) == 0


def test_binomial_disk_inside_cell():
    pts = sample_binomial_disk(1000, 350.0, seed=3)
    assert len(pts) == 1000
    assert np.all((pts.xy**2).sum(axis=1) <= 350.0**2)


def test_binomial_disk_area_uniform():
    # P(r <= 50) on a 100 m disk is the area ratio (50/100)^2 = 0.25
    pts = sample_binomial_disk(10_000, 100.0, seed=11)
    frac = float(np.mean((pts.xy**2).sum(axis=1) <= 50.0**2))
    assert frac == pytest.approx(0.25, abs=0.02)


def test_binomial_disk_deterministic_per_seed():
    a = sample_binomial_disk(100, 350.0, seed=42)
    b = sample_binomial_disk(100, 350.0, seed=42)
    assert np.array_equal(a.xy, b.xy)


@pytest.mark.parametrize("n", [1000, 10_000])
def test_binomial_disk_keep_is_the_full_draw_indexed(n):
    # the measure stage places only live user-rounds: it draws the stream for
    # all n and transforms the kept draws alone. That gives the full draw's
    # positions only while numpy's sqrt/cos/sin give an element the same bits
    # wherever it sits in the array, which numpy does not promise. A user-round
    # that several colors cache is kept once per color, so keep may repeat.
    rng = np.random.default_rng(n)
    subsets = [np.arange(0), np.arange(n), rng.permutation(n)[: n // 3]]
    subsets.append(rng.integers(0, n, n // 2))  # unsorted and repeating
    subsets += [np.flatnonzero(rng.random(n) < p) for p in (0.01, 0.3, 0.55, 0.9)]
    for seed in range(3):
        full = sample_binomial_disk(n, 350.0, seed).xy
        for keep in subsets:
            kept = sample_binomial_disk(n, 350.0, seed, keep).xy
            assert kept.shape == (keep.size, 2)
            assert kept.tobytes() == full[keep].tobytes()


def test_binomial_disk_over_streams_is_the_concatenated_draws():
    # the measure stage draws every round's users in one call, one stream per
    # round, and keeps one point per (live user-round, caching color) query
    n, streams = 500, [np.random.SeedSequence(7, spawn_key=(0, 3, r, 0)) for r in range(4)]
    full = np.concatenate([sample_binomial_disk(n, 350.0, s).xy for s in streams])
    rng = np.random.default_rng(0)
    live = np.flatnonzero(rng.random(full.shape[0]) < 0.3)
    keeps = {
        "sorted": live,
        "unsorted": rng.permutation(live),
        "repeating": np.repeat(live, rng.integers(1, 4, live.size)),
        "unsorted repeating": rng.integers(0, full.shape[0], 2 * n),
    }
    assert sample_binomial_disk(n, 350.0, streams).xy.tobytes() == full.tobytes()
    assert sample_binomial_disk(n, 350.0, tuple(streams)).xy.tobytes() == full.tobytes()
    for name, keep in keeps.items():
        kept = sample_binomial_disk(n, 350.0, streams, keep).xy
        assert kept.tobytes() == full[keep].tobytes(), name
    for seed in (streams[0], 5):
        one = sample_binomial_disk(n, 350.0, [seed]).xy
        assert one.tobytes() == sample_binomial_disk(n, 350.0, seed).xy.tobytes()
    assert len(sample_binomial_disk(n, 350.0, [])) == 0
    assert len(sample_binomial_disk(0, 350.0, streams)) == 0


def test_binomial_disk_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_binomial_disk(-1, 100.0, seed=0)
    with pytest.raises(ValueError):
        sample_binomial_disk(5, 0.0, seed=0)


def test_matern_i_single_point_survives():
    assert thin_i(ptset([(0, 0)]), 5.0).tolist() == [0]


def test_matern_i_close_pair_mutually_eliminates():
    # the test is inclusive: a pair at exactly the hard distance also goes
    for gap in (0.5, 1.0):
        pts = ptset([(0, 0), (gap, 0)])
        assert thin_i(pts, 1.0).tolist() == []


def test_matern_i_spaced_chain_survives():
    # spacing 1.1h: pairwise distances 1.1h and 2.2h both exceed h; every
    # prefix of the chain survives whole, down to the empty (0, 0) matrix
    chain = [(0, 0), (1.1, 0), (2.2, 0)]
    for k in range(len(chain) + 1):
        assert thin_i(ptset(chain[:k]), 1.0).tolist() == list(range(k))


def test_matern_ii_single_point_survives():
    # a lone point survives, and no points leave no survivors
    assert matern_type_ii(near(ptset([(0, 0)]), 2.0), np.array([0.4])).tolist() == [0]
    assert matern_type_ii(near(ptset([]), 2.0), np.empty(0)).tolist() == []


def test_matern_ii_smaller_mark_wins():
    pts = ptset([(0, 0), (0.5, 0)])
    assert matern_type_ii(near(pts, 1.0), np.array([0.2, 0.7])).tolist() == [0]


def test_matern_ii_chain_middle_wins():
    # d(A,B) = d(B,C) = 0.8h, d(A,C) = 1.6h; B holds the smallest mark, so A
    # and C both lose to B while B survives
    pts = ptset([(0, 0), (0.8, 0), (1.6, 0)])
    assert matern_type_ii(near(pts, 1.0), np.array([0.3, 0.1, 0.2])).tolist() == [1]


def test_matern_ii_rejects_tied_marks():
    # ties are rejected whether or not the tied points are neighbours
    for coords in ([(0, 0), (3, 0)], [(0, 0), (0.5, 0)]):
        with pytest.raises(ValueError):
            matern_type_ii(near(ptset(coords), 1.0), np.array([0.5, 0.5]))


def test_distance_matrix_single():
    assert distance_matrix(ptset([(0, 0)])).tolist() == [[0.0]]


def test_distance_matrix_3_4_5():
    d = distance_matrix(ptset([(0, 0), (3, 4)]))
    assert d[0, 1] == 5.0 and d[1, 0] == 5.0


def test_distance_matrix_exactly_symmetric():
    pts = sample_binomial_disk(10, 50.0, seed=9)
    d = distance_matrix(pts)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


coords_lists = st.lists(
    st.tuples(*[st.floats(-500.0, 500.0, allow_nan=False)] * 2), min_size=0, max_size=25
)


@given(coords_lists, coords_lists)
@settings(max_examples=60, deadline=None)
def test_distance_matrix_is_the_per_pair_formula(a_coords, b_coords):
    a, b = ptset(a_coords), ptset(b_coords)
    d = distance_matrix(a, b)
    assert d.shape == (len(a_coords), len(b_coords))
    for i, (ax, ay) in enumerate(a_coords):
        for j, (bx, by) in enumerate(b_coords):
            dx, dy = ax - bx, ay - by
            assert d[i, j] == math.sqrt(dx * dx + dy * dy)  # bit for bit
    assert np.array_equal(distance_matrix(a), distance_matrix(a, a))


def assert_dense_pairs(a, b, radius):
    """``pairs_within`` gives exactly the ordered pairs of the dense threshold, none twice."""
    i, j = pairs_within(a, b, radius)
    ei, ej = np.nonzero(distance_matrix(a, b) <= radius[None, :])
    assert sorted(zip(i.tolist(), j.tolist())) == list(zip(ei.tolist(), ej.tolist()))


@st.composite
def pair_kernel_inputs(draw):
    """Users, stations and per-station ranges placed where a cell list can go wrong.

    Stations come from one of four layouts: anywhere in the disk, all in one
    small bin, on or one ulp off the kernel's grid-bin edges
    (-region_radius + k*h with h the largest range), or on the cell rim.
    Ranges are fixed or drawn from an interval. Users are anywhere, near bin
    edges or on the rim, plus some at exactly the range of a few stations:
    along the axes (exact for integer coordinates) and on a 3-4-5 diagonal.
    """
    region = draw(st.sampled_from([100.0, 350.0]))
    n_sbs = draw(st.integers(0, 12))
    if draw(st.booleans()):
        ranges = np.full(n_sbs, float(draw(st.integers(5, 60)) * 5 * region / 350.0))
    else:
        ranges = np.array(draw(st.lists(st.floats(0.05 * region, 0.6 * region),
                                        min_size=n_sbs, max_size=n_sbs)))
    h = float(ranges.max()) * (1.0 + 1e-9) if n_sbs else region

    def layout(n, kind):
        if kind == "disk":
            rho = np.sqrt(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
            theta = np.array(draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n)))
            return region * np.column_stack((rho * np.cos(theta), rho * np.sin(theta)))
        if kind == "bin":
            corner = draw(st.integers(0, int(region // h))) * h - region
            frac = draw(st.lists(st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)),
                                 min_size=n, max_size=n))
            return corner + h * np.array(frac).reshape(-1, 2)
        if kind == "edges":
            k = draw(st.lists(st.tuples(st.integers(0, int(2 * region // h) + 1),
                                        st.integers(0, int(2 * region // h) + 1)),
                              min_size=n, max_size=n))
            xy = np.array(k, dtype=float).reshape(-1, 2) * h - region
            # one ulp either side of an edge flips the bin
            nudge = draw(st.lists(st.sampled_from([-np.inf, 0.0, np.inf]), min_size=2 * n,
                                  max_size=2 * n))
            return np.nextafter(xy, np.array(nudge).reshape(-1, 2) + xy)
        theta = np.array(draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n)))
        return region * np.column_stack((np.cos(theta), np.sin(theta)))

    kinds = ("disk", "bin", "edges", "rim")
    sbs_xy = layout(n_sbs, draw(st.sampled_from(kinds)))
    if draw(st.booleans()):  # integer station coordinates, so axis offsets stay exact
        sbs_xy = np.round(sbs_xy)
    users_xy = layout(draw(st.integers(0, 30)), draw(st.sampled_from(("disk", "edges", "rim"))))
    at_range = []
    for j in draw(st.lists(st.integers(0, max(n_sbs - 1, 0)), max_size=4 if n_sbs else 0)):
        r = ranges[j]
        at_range += [sbs_xy[j] + (r, 0.0), sbs_xy[j] - (r, 0.0), sbs_xy[j] - (0.0, r),
                     sbs_xy[j] + (0.6 * r, 0.8 * r)]
    users_xy = np.vstack([users_xy.reshape(-1, 2)] + [np.array(at_range).reshape(-1, 2)])

    def inside(xy):
        return xy[:, 0] ** 2 + xy[:, 1] ** 2 <= region * region

    on = inside(sbs_xy)
    users = PointSet(users_xy[inside(users_xy)], region)
    return users, PointSet(sbs_xy[on], region), ranges[on]


@given(pair_kernel_inputs())
@example((ptset([(0.0, 0.0)], 100.0), ptset([], 100.0), np.empty(0)))
@example((ptset([], 100.0), ptset([(0.0, 0.0)], 100.0), np.array([10.0])))
@example((ptset([(80.0, 0.0), (48.0, 64.0), (57.0, 57.0)], 350.0), ptset([(0.0, 0.0)], 350.0),
          np.array([80.0])))
@settings(max_examples=300, deadline=None)
def test_pairs_within_is_the_dense_threshold(inputs):
    a, b, radius = inputs
    assert_dense_pairs(a, b, radius)


def bin_edge_layouts(region, radii):
    """``(users, stations, r)`` per range r: stations on each grid-bin edge and one
    ulp either side, for bins of side r and r * (1 + 1e-9), and users at exactly
    the range along x."""
    for r in radii:
        k = np.arange(int(2 * region // r) + 2)
        edges = np.concatenate([k * r, k * (r * (1.0 + 1e-9))]) - region
        xs = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        xs = xs[np.abs(xs) <= region]
        xu = np.concatenate([xs - r, xs + r])
        xu = xu[np.abs(xu) <= region]
        a = PointSet(np.column_stack((xu, np.zeros_like(xu))), region)
        b = PointSet(np.column_stack((xs, np.zeros_like(xs))), region)
        yield a, b, r


@pytest.mark.parametrize("region", [100.0, 350.0])
def test_pairs_within_finds_pairs_at_exactly_the_range_across_bin_edges(region):
    # rounding must not push a pair two bins apart
    for a, b, r in bin_edge_layouts(region, np.arange(5, 61) * 5 * region / 350):
        assert_dense_pairs(a, b, np.full(len(b), r))


def assert_grouped_pairs(a, b, radius, a_group, b_group):
    """Grouped pairs are the ungrouped pairs whose two points carry the same label, none twice."""
    i, j = pairs_within(a, b, radius, a_group, b_group)
    ui, uj = pairs_within(a, b, radius)
    same = a_group[ui] == b_group[uj]
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(zip(ui[same].tolist(), uj[same].tolist()))


@given(pair_kernel_inputs(), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_grouped_pairs_are_the_ungrouped_pairs_with_equal_labels(inputs, groups, data):
    # a's labels run one past b's, so some points of a may be in a group no
    # point of b has; groups == 1 puts every point of b in group 0
    a, b, radius = inputs
    a_group = np.array(data.draw(st.lists(st.integers(0, groups), min_size=len(a), max_size=len(a))), int)
    b_group = np.array(data.draw(st.lists(st.integers(0, groups - 1), min_size=len(b), max_size=len(b))), int)
    assert_grouped_pairs(a, b, radius, a_group, b_group)


@given(pair_kernel_inputs())
@settings(max_examples=50, deadline=None)
def test_one_group_is_the_ungrouped_kernel(inputs):
    a, b, radius = inputs
    grouped = pairs_within(a, b, radius, np.zeros(len(a), int), np.zeros(len(b), np.uint8))
    ungrouped = pairs_within(a, b, radius)
    assert all(g.tolist() == u.tolist() for g, u in zip(grouped, ungrouped))


@pytest.mark.parametrize("region", [100.0, 350.0])
def test_grouped_pairs_at_exactly_the_range_across_bin_edges(region):
    # labels cycle, so each group's grid holds pairs at exactly the range
    for a, b, r in bin_edge_layouts(region, np.arange(5, 61, 5) * 5 * region / 350):
        for a_mod, b_mod in ((1, 1), (2, 3), (3, 2)):
            assert_grouped_pairs(a, b, np.full(len(b), r), np.arange(len(a)) % a_mod,
                                 np.arange(len(b)) % b_mod)


@pytest.mark.parametrize("labels", [[-1, 0], [0.0, 1.0], [0.5, 1], [True, False], [0], [[0, 1]]])
def test_pairs_within_rejects_bad_group_labels(labels):
    a = ptset([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        pairs_within(a, a, np.full(2, 5.0), a_group=labels)
    with pytest.raises(ValueError):
        pairs_within(a, a, np.full(2, 5.0), b_group=labels)


def test_pairs_within_key_table_scales_with_the_points_not_the_range():
    # bins of side 1 m would key 703^2 slots (4 MB) for a 350 m cell; bins
    # are widened instead, since a range far below the point spacing is a
    # valid config (sbs_range > 0 is all that validate() asks)
    a = sample_binomial_disk(100, 350.0, seed=3)
    b = sample_binomial_disk(50, 350.0, seed=4)
    tracemalloc.start()
    try:
        assert_dense_pairs(a, b, np.full(50, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pairs_within_rejects_a_range_count_mismatch():
    with pytest.raises(ValueError):
        pairs_within(ptset([(0, 0)]), ptset([(1, 0), (2, 0)]), np.array([5.0]))


def test_point_set_rejects_outside_points():
    with pytest.raises(ValueError):
        ptset([(200, 0)], radius=100.0)


@st.composite
def disk_point_sets(draw, max_points=40, radius=100.0):
    n = draw(st.integers(min_value=0, max_value=max_points))
    rs = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    ts = draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n))
    xy = np.array(
        [(radius * math.sqrt(r) * math.cos(t), radius * math.sqrt(r) * math.sin(t))
         for r, t in zip(rs, ts)],
        dtype=float,
    ).reshape(-1, 2)
    return PointSet(xy, radius)


@given(disk_point_sets(), st.floats(min_value=1.0, max_value=60.0))
@settings(max_examples=150)
def test_matern_i_respects_hard_distance(pts, hard):
    kept = thin_i(pts, hard)
    assert min_pairwise_distance(pts.xy[kept]) > hard


@given(disk_point_sets(), st.floats(min_value=1.0, max_value=60.0), st.integers(0, 2**31))
@settings(max_examples=150)
def test_matern_ii_respects_hard_distance_and_contains_type_i(pts, hard, seed):
    marks = np.random.default_rng(seed).permutation(len(pts)) / max(len(pts), 1)
    kept_ii = matern_type_ii(near(pts, hard), marks)
    assert min_pairwise_distance(pts.xy[kept_ii]) > hard
    kept_i = thin_i(pts, hard)
    assert set(kept_i.tolist()) <= set(kept_ii.tolist())


@given(disk_point_sets())
@settings(max_examples=50)
def test_matern_outputs_deterministic(pts):
    assert thin_i(pts, 10.0).tolist() == thin_i(pts, 10.0).tolist()



@given(disk_point_sets(), st.floats(min_value=1.0, max_value=60.0), st.integers(0, 2**31))
@example(ptset([]), 5.0, 0)
@example(ptset([(0, 0)]), 5.0, 0)
# an isolated point beside a pair at exactly the hard distance (3-4-5)
@example(ptset([(0, 0), (3, 4), (40, 0)]), 5.0, 1)
@example(ptset([(0, 0), (3, 4), (40, 0)]), 5.0, 2)
# coincident points, one of them with a third point in range
@example(ptset([(7, 7), (7, 7), (7, 9), (50, 50), (50, 50)]), 3.0, 3)
@settings(max_examples=150)
def test_csr_thinnings_match_the_dense_oracle(pts, hard, seed):
    # eliminated iff a neighbour within the hard distance has a smaller mark;
    # type I keeps the points with no such neighbour at all
    marks = np.random.default_rng(seed).permutation(len(pts)) / max(len(pts), 1)
    kept_i, kept_ii = matern_reference(hard_core_matrix(pts, hard), marks)
    csr = near(pts, hard)
    assert matern_type_i(csr).tolist() == kept_i
    assert matern_type_ii(csr, marks).tolist() == kept_ii

