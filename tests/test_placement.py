"""Color-block cache filling and the most-popular baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbscache.coloring import Coloring
from sbscache.placement import (
    Placement,
    place_by_coloring,
    place_most_popular,
    placement_matrix,
    placement_to_csv,
)
from sbscache.popularity import Catalog

from oracles import block_caches_reference


def cached_ranks(placement):
    """Each station's cached ranks, read from its row of ``placement_matrix``."""
    rows = placement_matrix(placement)
    return tuple(frozenset((np.flatnonzero(row) + 1).tolist()) for row in rows)


def test_single_color_class_degenerates_to_baseline():
    cat = Catalog(1000, 0.6)
    by_color = place_by_coloring(Coloring([1, 1, 1]), cat, 50)
    baseline = place_most_popular(3, cat, 50)
    assert cached_ranks(by_color) == cached_ranks(baseline)
    assert cached_ranks(by_color)[0] == frozenset(range(1, 51))


def test_blocks_are_consecutive_and_disjoint():
    cat = Catalog(1000, 0.6)
    pmap = place_by_coloring(Coloring([1, 2]), cat, 2)
    assert cached_ranks(pmap)[0] == frozenset({1, 2})
    assert cached_ranks(pmap)[1] == frozenset({3, 4})


def test_block_wraps_to_head_of_catalog():
    # color 21 with M=50 starts at rank 1001, wrapping back to 1..50
    cat = Catalog(1000, 0.6)
    colors = np.arange(1, 22)
    pmap = place_by_coloring(Coloring(colors), cat, 50)
    assert cached_ranks(pmap)[20] == frozenset(range(1, 51))
    assert cached_ranks(pmap)[19] == frozenset(range(951, 1001))


def test_small_catalog_collapses_duplicates():
    cat = Catalog(3, 0.0)
    pmap = place_by_coloring(Coloring([1]), cat, 5)
    assert cached_ranks(pmap)[0] == frozenset({1, 2, 3})


def test_most_popular_fills_head():
    cat = Catalog(1000, 0.6)
    pmap = place_most_popular(4, cat, 50)
    assert all(c == frozenset(range(1, 51)) for c in cached_ranks(pmap))


def test_most_popular_full_catalog():
    cat = Catalog(10, 0.6)
    pmap = place_most_popular(2, cat, 10)
    assert all(c == frozenset(range(1, 11)) for c in cached_ranks(pmap))


def test_most_popular_empty_network():
    assert cached_ranks(place_most_popular(0, Catalog(10, 0.6), 5)) == ()


def test_most_popular_rejects_memory_above_catalog():
    with pytest.raises(ValueError):
        place_most_popular(2, Catalog(10, 0.6), 11)


def test_place_by_coloring_requires_memory():
    with pytest.raises(ValueError):
        place_by_coloring(Coloring([1]), Catalog(10, 0.6), 0)


def test_placement_matrix_empty_network():
    assert placement_matrix(Placement([], 5, 10)).shape == (0, 10)


def test_placement_csv_lists_sorted_ranks_per_station():
    text = placement_to_csv(Placement(np.array([1, 3]), 2, 5))
    assert text == "sbs_id,file_rank\n0,1\n0,2\n1,1\n1,5\n"


def test_placement_rejects_color_zero():
    with pytest.raises(ValueError):
        Placement(np.array([0, 1]), 2, 10)


@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.integers(2, 60),
    st.integers(1, 10),
)
@settings(max_examples=150)
def test_cache_size_and_popularity_monotonicity(k, n, file_count, memory):
    memory = min(memory, file_count)
    colors = np.array([(i % k) + 1 for i in range(n + k)])  # every color used
    cat = Catalog(file_count, 0.6)
    pmap = place_by_coloring(Coloring(colors), cat, memory)
    for cache in cached_ranks(pmap):
        assert len(cache) <= memory
    # while q * M fits the catalog, block q is exactly the q-th slice, so its
    # minimum rank strictly increases with q and sibling blocks are disjoint
    mins = []
    for q in range(1, k + 1):
        if q * memory <= file_count:
            cache = cached_ranks(pmap)[list(colors).index(q)]
            assert len(cache) == memory
            mins.append(min(cache))
    assert all(a < b for a, b in zip(mins, mins[1:]))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 20))
@settings(max_examples=150)
def test_unwrapped_distinct_colors_cache_disjoint_sets(q1, q2, memory):
    file_count = 200
    if max(q1, q2) * memory > file_count or q1 == q2:
        return
    cat = Catalog(file_count, 0.6)
    colors = np.array(sorted({q1, q2, 1} | set(range(1, max(q1, q2) + 1))))
    pmap = place_by_coloring(Coloring(colors), cat, memory)
    c1 = cached_ranks(pmap)[list(colors).index(q1)]
    c2 = cached_ranks(pmap)[list(colors).index(q2)]
    assert not (c1 & c2)


@given(
    st.lists(st.integers(1, 30), max_size=12),
    st.integers(1, 40),
    st.integers(1, 100),
)
@settings(max_examples=150)
def test_placement_matches_loop_reference(colors, memory, file_count):
    # wrap-around (q * M > F) and memory above the catalog size included
    placement = Placement(np.array(colors, dtype=int), memory, file_count)
    expected = block_caches_reference(colors, memory, file_count)
    mat = placement_matrix(placement)
    assert mat.shape == (len(colors), file_count)
    for j, cache in enumerate(expected):
        assert (np.flatnonzero(mat[j]) + 1).tolist() == sorted(cache)
    rows = [tuple(map(int, ln.split(","))) for ln in placement_to_csv(placement).splitlines()[1:]]
    assert rows == [(j, rank) for j, cache in enumerate(expected) for rank in sorted(cache)]
