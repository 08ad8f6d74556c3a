"""Proximity classification and Matern-based weighting."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbscache import classify
from sbscache.classify import (
    SURVIVOR_COUNTINGS,
    ClassWeights,
    ConvergenceError,
    classify_and_weigh,
    classweights_to_csv,
)
from sbscache.coloring import VertexWeights
from sbscache.geometry import PointSet
from sbscache.netgraph import build_class_graph

from oracles import class_matrix, class_weights_reference


def ptset(coords, radius=1000.0):
    return PointSet(np.array(coords, dtype=float).reshape(-1, 2), radius)


def members(cw):
    return class_matrix(cw.classes, len(cw.weights))


R_CLASS = 10.0


def test_single_station():
    # the lone point survives both thinnings; default counting credits one
    # increment per survivor set, so its weight is 2 after one iteration
    cw = classify_and_weigh(ptset([(0, 0)]), R_CLASS, seed=1)
    assert members(cw).tolist() == [[True]]
    assert cw.iterations_used == 1
    assert cw.weights.tolist() == [2]


def test_single_station_single_counting():
    cw = classify_and_weigh(ptset([(0, 0)]), R_CLASS, seed=1, survivor_counting="single")
    assert cw.weights.tolist() == [1]


def test_far_pair_double_counted():
    # distance 5 * r_class: singleton classes, both points survive both
    # thinnings, so each class is credited once per survivor set
    cw = classify_and_weigh(ptset([(0, 0), (5 * R_CLASS, 0)]), R_CLASS, seed=1)
    assert members(cw).tolist() == [[True, False], [False, True]]
    assert cw.iterations_used == 1
    assert cw.weights.tolist() == [2, 2]


def test_close_pair_shares_class_and_converges_first_iteration():
    # distance 0.5 * r_class: one shared class; type I removes both, type II
    # keeps the smaller mark, whose class increment covers both stations
    cw = classify_and_weigh(ptset([(0, 0), (0.5 * R_CLASS, 0)]), R_CLASS, seed=3)
    assert members(cw).tolist() == [[True, True], [True, True]]
    assert cw.iterations_used == 1
    assert cw.weights.tolist() == [1, 1]


def test_mid_pair_needs_multiple_iterations():
    # r_class < d <= 2 r_class: singleton classes but mutual hard-core
    # competitors, so only the per-iteration mark winner gains weight
    pts = ptset([(0, 0), (1.5 * R_CLASS, 0)])
    cw = classify_and_weigh(pts, R_CLASS, seed=5)
    assert members(cw).tolist() == [[True, False], [False, True]]
    assert cw.iterations_used >= 2
    assert np.all(cw.weights >= 1)


def test_distances_computed_once_per_classification(monkeypatch):
    # classes and both thinnings take their pairs from two pair-kernel
    # calls, however many Matern iterations the network needs
    calls = []
    original = classify.distance_matrix

    def counted(a, b, radius):
        calls.append((len(a), len(b)))
        return original(a, b, radius)

    monkeypatch.setattr(classify, "distance_matrix", counted)
    rng = np.random.default_rng(17)
    pts = PointSet(rng.uniform(-100, 100, size=(30, 2)), 200.0)
    cw = classify_and_weigh(pts, 30.0, seed=7)
    assert cw.iterations_used >= 3
    assert calls == [(30, 30)] * 2


def test_convergence_error_reports_zero_weight_indices():
    pts = ptset([(0, 0), (1.5 * R_CLASS, 0)])
    with pytest.raises(ConvergenceError) as err:
        classify_and_weigh(pts, R_CLASS, seed=5, max_iterations=1)
    assert len(err.value.zero_weight_indices) == 1


@pytest.mark.parametrize(
    "clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy], ids=["pickle", "copy"]
)
def test_convergence_error_survives_pickle_and_copy(clone):
    err = ConvergenceError(np.array([3, 1]))
    back = clone(err)
    assert type(back) is ConvergenceError
    assert back.zero_weight_indices == (3, 1)
    assert str(back) == str(err) == "weights still zero after iteration budget: indices (3, 1)"


def test_empty_network():
    cw = classify_and_weigh(ptset([]), R_CLASS, seed=1)
    assert members(cw).shape == (0, 0)
    assert cw.weights.tolist() == [] and cw.iterations_used == 0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        classify_and_weigh(ptset([(0, 0)]), 0.0, seed=1)
    with pytest.raises(ValueError):
        classify_and_weigh(ptset([(0, 0)]), R_CLASS, seed=1, max_iterations=0)
    with pytest.raises(ValueError):
        classify_and_weigh(ptset([(0, 0)]), R_CLASS, seed=1, survivor_counting="triple")


def test_deterministic_per_seed():
    rng = np.random.default_rng(11)
    pts = PointSet(rng.uniform(-100, 100, size=(20, 2)), 200.0)
    a = classify_and_weigh(pts, 30.0, seed=7)
    b = classify_and_weigh(pts, 30.0, seed=7)
    assert np.array_equal(members(a), members(b))
    assert np.array_equal(a.weights, b.weights)
    assert a.iterations_used == b.iterations_used


def test_classes_depend_only_on_geometry():
    rng = np.random.default_rng(13)
    pts = PointSet(rng.uniform(-100, 100, size=(15, 2)), 200.0)
    a = classify_and_weigh(pts, 40.0, seed=1)
    b = classify_and_weigh(pts, 40.0, seed=999)
    assert np.array_equal(members(a), members(b))


@given(st.integers(0, 2**31), st.integers(1, 25))
@settings(max_examples=60, deadline=None)
def test_invariants_on_random_instances(seed, n):
    rng = np.random.default_rng(seed)
    pts = PointSet(rng.uniform(-150, 150, size=(n, 2)), 400.0)
    cw = classify_and_weigh(pts, 40.0, seed=seed)
    assert np.all(cw.weights >= 1)
    assert members(cw).diagonal().all()
    assert np.array_equal(members(cw), members(cw).T)
    # the matrix and its row sums agree with per-station sets and a
    # survivor-by-member loop, under both survivor countings
    for counting in SURVIVOR_COUNTINGS:
        cw = classify_and_weigh(pts, 40.0, seed=seed, survivor_counting=counting)
        classes, weights, iterations = class_weights_reference(pts, 40.0, seed, counting)
        assert tuple(frozenset(np.flatnonzero(row).tolist()) for row in members(cw)) == classes
        assert cw.weights.tolist() == weights
        assert cw.iterations_used == iterations


def test_class_graph_input_round_trip():
    cw = classify_and_weigh(ptset([(0, 0), (4, 0), (100, 100)]), R_CLASS, seed=2)
    weights = VertexWeights(cw.weights)
    assert np.array_equal(weights.weights, cw.weights)
    g = build_class_graph(cw.classes, 3)
    assert g.adjacency[0, 1] and not g.adjacency[0, 2]


def test_singleton_network_adapter():
    cw = classify_and_weigh(ptset([(0, 0)]), R_CLASS, seed=1)
    assert build_class_graph(cw.classes, 1).edges() == []
    assert VertexWeights(cw.weights).weights.tolist() == [2]


def test_csv_format():
    cw = ClassWeights(np.nonzero(np.ones((2, 2), dtype=bool)), np.array([3, 2]), 2)
    text = classweights_to_csv(cw)
    assert text == "sbs_id,weight,class_members\n0,3,0;1\n1,2,0;1\n"


def test_class_weights_rejects_malformed_classes():
    with pytest.raises(ValueError, match="index the n weighted stations"):
        ClassWeights(np.nonzero(np.ones((2, 3), dtype=bool)), np.array([1, 1]), 1)
    with pytest.raises(ValueError, match="own station"):
        ClassWeights(np.nonzero(np.array([[1, 1], [1, 0]], dtype=bool)), np.array([1, 1]), 1)
