"""Disk sampling and Matern thinning behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbscache.geometry import (
    PointSet,
    distance_matrix,
    hard_core_neighbours,
    matern_type_i,
    matern_type_ii,
    sample_binomial_disk,
)

from oracles import min_pairwise_distance


def ptset(coords, radius=1000.0):
    return PointSet(np.array(coords, dtype=float).reshape(-1, 2), radius)


def near(pts, hard):
    return hard_core_neighbours(distance_matrix(pts), hard)


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


def test_binomial_disk_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_binomial_disk(-1, 100.0, seed=0)
    with pytest.raises(ValueError):
        sample_binomial_disk(5, 0.0, seed=0)


def test_matern_i_single_point_survives():
    assert matern_type_i(near(ptset([(0, 0)]), 5.0)).tolist() == [0]


def test_matern_i_close_pair_mutually_eliminates():
    # the test is inclusive: a pair at exactly the hard distance also goes
    for gap in (0.5, 1.0):
        pts = ptset([(0, 0), (gap, 0)])
        assert matern_type_i(near(pts, 1.0)).tolist() == []


def test_matern_i_spaced_chain_survives():
    # spacing 1.1h: pairwise distances 1.1h and 2.2h both exceed h; every
    # prefix of the chain survives whole, down to the empty (0, 0) matrix
    chain = [(0, 0), (1.1, 0), (2.2, 0)]
    for k in range(len(chain) + 1):
        assert matern_type_i(near(ptset(chain[:k]), 1.0)).tolist() == list(range(k))


def test_matern_ii_single_point_survives():
    # a lone point survives, and no points leave no survivors
    assert matern_type_ii(near(ptset([(0, 0)]), 2.0), np.array([0.4])).tolist() == [0]
    assert matern_type_ii(np.zeros((0, 0), dtype=bool), np.empty(0)).tolist() == []


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
    kept = matern_type_i(near(pts, hard))
    assert min_pairwise_distance(pts.xy[kept]) > hard


@given(disk_point_sets(), st.floats(min_value=1.0, max_value=60.0), st.integers(0, 2**31))
@settings(max_examples=150)
def test_matern_ii_respects_hard_distance_and_contains_type_i(pts, hard, seed):
    marks = np.random.default_rng(seed).permutation(len(pts)) / max(len(pts), 1)
    kept_ii = matern_type_ii(near(pts, hard), marks)
    assert min_pairwise_distance(pts.xy[kept_ii]) > hard
    kept_i = matern_type_i(near(pts, hard))
    assert set(kept_i.tolist()) <= set(kept_ii.tolist())


@given(disk_point_sets())
@settings(max_examples=50)
def test_matern_outputs_deterministic(pts):
    assert matern_type_i(near(pts, 10.0)).tolist() == matern_type_i(near(pts, 10.0)).tolist()

