"""Greedy orders, the exact solver, and the chromatic bound oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbscache.coloring import (
    EXACT_SOLVER_LIMIT,
    CapacityError,
    Coloring,
    coloring_to_csv,
    exact_min_coloring,
    greedy_color_by_degree,
    greedy_color_by_weight,
)
from oracles import (
    chromatic_number_enumeration,
    clique_number,
    clique_number_enumeration,
    dense_adjacency,
    graph_from_edges,
    graph_from_matrix,
    independence_number,
    independence_number_enumeration,
    is_proper,
    max_degree,
    random_simple_graph,
)


def complete_graph(n):
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return graph_from_matrix(adj)


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless(n):
    return graph_from_matrix(np.zeros((n, n), dtype=bool))


def test_is_proper_edgeless_single_color():
    g = edgeless(3)
    assert is_proper(g, Coloring(np.ones(3, dtype=int)))


def test_is_proper_detects_conflict():
    g = graph_from_edges(2, [(0, 1)])
    assert not is_proper(g, Coloring(np.array([1, 1])))


def test_is_proper_triangle():
    g = complete_graph(3)
    assert is_proper(g, Coloring(np.array([1, 2, 3])))


def test_is_proper_rejects_size_mismatch():
    with pytest.raises(ValueError):
        is_proper(complete_graph(3), Coloring(np.array([1, 2])))


def test_greedy_degree_complete_graph():
    c = greedy_color_by_degree(complete_graph(4))
    assert c.k == 4 and is_proper(complete_graph(4), c)


def test_greedy_degree_edgeless():
    c = greedy_color_by_degree(edgeless(5))
    assert c.k == 1 and c.colors.tolist() == [1] * 5


def test_greedy_degree_star():
    # center has degree 4 so it is colored first with 1; each leaf then takes 2
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    c = greedy_color_by_degree(g)
    assert c.colors.tolist() == [1, 2, 2, 2, 2] and c.k == 2


def test_greedy_weight_heavier_vertex_first():
    g = graph_from_edges(2, [(0, 1)])
    assert greedy_color_by_weight(g, np.array([5, 1])).colors.tolist() == [1, 2]
    assert greedy_color_by_weight(g, np.array([1, 5])).colors.tolist() == [2, 1]


def test_greedy_weight_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    c = greedy_color_by_weight(g, np.array([1, 9, 1]))
    assert c.colors.tolist() == [2, 1, 2] and c.k == 2


def test_greedy_weight_rejects_length_mismatch():
    with pytest.raises(ValueError):
        greedy_color_by_weight(edgeless(3), np.array([1, 2]))


def test_greedy_weight_rejects_a_negative_weight():
    with pytest.raises(ValueError, match="weights must be non-negative"):
        greedy_color_by_weight(edgeless(3), np.array([1, -1, 2]))


def test_exact_odd_cycle_needs_three():
    assert exact_min_coloring(cycle_graph(5)).k == 3


def test_exact_complete_bipartite_needs_two():
    g = graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert exact_min_coloring(g).k == 2


def test_exact_empty_graph():
    c = exact_min_coloring(edgeless(0))
    assert c.k == 0 and len(c) == 0


def test_exact_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        g = random_simple_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        c = exact_min_coloring(g)
        assert is_proper(g, c)
        assert c.k == chromatic_number_enumeration(g)


def test_exact_respects_capacity_limit():
    with pytest.raises(CapacityError):
        exact_min_coloring(edgeless(EXACT_SOLVER_LIMIT + 1))
    assert exact_min_coloring(edgeless(EXACT_SOLVER_LIMIT)).k == 1


def test_bounds_complete_graph():
    g = complete_graph(4)
    assert (max_degree(g), clique_number(g), independence_number(g)) == (3, 4, 1)


def test_bounds_five_cycle():
    g = cycle_graph(5)
    assert (max_degree(g), clique_number(g), independence_number(g)) == (2, 2, 2)


def test_bounds_match_unpruned_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_simple_graph(rng, 8, float(rng.uniform(0.1, 0.9)))
        assert clique_number(g) == clique_number_enumeration(g)
        assert independence_number(g) == independence_number_enumeration(g)


def test_bound_oracles_respect_capacity_limit():
    with pytest.raises(CapacityError):
        clique_number(edgeless(30))
    with pytest.raises(CapacityError):
        independence_number(edgeless(30))


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    seed = draw(st.integers(0, 2**31))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    return random_simple_graph(np.random.default_rng(seed), n, p)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_greedy_colorings_proper_and_bounded(g):
    weights = np.arange(g.n)[::-1].copy()
    for c in (greedy_color_by_degree(g), greedy_color_by_weight(g, weights)):
        assert is_proper(g, c)
        if g.n:
            assert c.k <= max_degree(g) + 1


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_exact_k_within_classical_bounds(g):
    c = exact_min_coloring(g)
    assert is_proper(g, c)
    if g.n:
        assert clique_number(g) <= c.k <= max_degree(g) + 1
        assert c.k >= math.ceil(g.n / independence_number(g))
        assert greedy_color_by_degree(g).k >= c.k


@given(graphs(max_n=8), st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_exact_k_invariant_under_relabeling(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    relabeled = graph_from_matrix(dense_adjacency(g)[np.ix_(perm, perm)])
    assert exact_min_coloring(relabeled).k == exact_min_coloring(g).k


@given(st.integers(1, 8))
def test_exact_complete_graph_uses_n(n):
    assert exact_min_coloring(complete_graph(n)).k == n


@given(st.integers(1, 4), st.integers(1, 4))
def test_exact_bipartite_with_edges_uses_two(a, b):
    g = graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    assert exact_min_coloring(g).k == 2


def test_coloring_requires_dense_colors():
    with pytest.raises(ValueError):
        Coloring(np.array([1, 3]))  # color 2 unused
    with pytest.raises(ValueError):
        Coloring(np.array([0, 1]))  # colors start at 1


def test_coloring_csv():
    text = coloring_to_csv(Coloring(np.array([1, 2, 1])))
    assert text == "vertex_id,color\n0,1\n1,2\n2,1\n"
