"""Proximity classes and Matern-derived integer weights for SBSs.

Stations within ``r_class`` of each other share a class. Weights accumulate
over repeated type-I / type-II thinnings (hard-core distance 2 * r_class,
fresh uniform marks each round) until every station's weight is positive:
stations that keep surviving, or sit near survivors, end up heavier and are
colored (hence cache-filled) first. One pair-kernel query at 2 * r_class
per classification gives both the hard-core graph and, by the kernel's
distance formula, the class pairs. The thinnings read the hard-core graph's
neighbour lists: type I keeps the points without neighbours, type II the
points whose mark is below their neighbours' minimum.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, pair_distances, pairs_within
from .netgraph import SimpleGraph

# perfbench/spans.py times the station pair kernel as ``classify.distance_matrix``.
distance_matrix = pairs_within


class ConvergenceError(RuntimeError):
    """Some station still had zero weight when the iteration budget ran out."""

    def __init__(self, zero_weight_indices):
        self.zero_weight_indices = tuple(int(i) for i in zero_weight_indices)
        super().__init__(
            f"weights still zero after iteration budget: indices {self.zero_weight_indices}"
        )

    def __reduce__(self):
        return type(self), (self.zero_weight_indices,)


@dataclass
class ClassWeights:
    """Per-SBS positive integer weight; ``classes`` = pairs (i, j), j in i's class, i in its own."""

    classes: tuple[np.ndarray, np.ndarray]
    weights: np.ndarray
    iterations_used: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=int).reshape(-1)
        n = self.weights.size
        i, j = self.classes = tuple(np.asarray(a, dtype=np.intp) for a in self.classes)
        if i.shape != j.shape or np.any((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)):
            raise ValueError("class pairs must index the n weighted stations")
        if not np.all(np.bincount(i[i == j], minlength=n) > 0):
            raise ValueError("each class must contain its own station")


def matern_type_i(near: SimpleGraph) -> np.ndarray:
    """Type-I thinning: keep the points with no hard-core neighbour.

    ``near`` is the graph of the points within the hard distance of each
    other (the pairs of ``pairs_within`` at the hard distance, self-pairs
    dropped), so a competitor at exactly the hard distance eliminates both
    points. Returns sorted indices.
    """
    return np.flatnonzero(near.degrees() == 0)


def matern_type_ii(near: SimpleGraph, marks: np.ndarray) -> np.ndarray:
    """Type-II thinning: keep the points whose mark is strictly smallest locally.

    Point i is eliminated iff some hard-core neighbour j of ``near`` (as in
    ``matern_type_i``) has ``marks[j] <= marks[i]``: i is kept iff its mark
    is below the minimum over its neighbour list, and a point without
    neighbours is kept. Two neighbours with tied marks both go, as two
    points at exactly the hard distance both go in type I, so the survivors
    are pairwise farther apart than the hard distance for any marks.
    Returns sorted indices.
    """
    indptr = near.indptr
    keep = np.ones(marks.size, dtype=bool)
    has = np.flatnonzero(indptr[1:] > indptr[:-1])
    if has.size:
        keep[has] = marks[has] < np.minimum.reduceat(marks[near.indices], indptr[has])
    return np.flatnonzero(keep)


def classify_and_weigh(
    sbs: PointSet, r_class: float, seed, max_iterations: int | None = None
) -> ClassWeights:
    """Build classes by distance and accumulate weights until all are positive.

    One pair-kernel call gives the station pairs within 2 * r_class: the
    edges of both thinnings' hard-core graph. The classes are the pairs
    among them within r_class, by the kernel's own distance formula, so
    they are exactly the kernel's pairs at r_class. Every survivor bumps
    the weight of every member of its class: a class's credit is the
    number of survivors among its members. The type-I survivors depend on
    geometry only, so their credit is counted once and earned every
    iteration; each iteration adds the credit of the type-II survivors
    under fresh marks, one ``random(n)`` draw from the seeded generator
    (tied neighbours both lose, as ``matern_type_ii`` says). A station in
    both survivor sets credits its class twice, once per set.

    Raises ConvergenceError, reporting the still-zero indices, if the budget
    (default 10 * station count) runs out first.
    """
    if not r_class > 0:
        raise ValueError("r_class must be positive")
    n = len(sbs)
    if max_iterations is None:
        max_iterations = 10 * max(n, 1)
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")

    hi, hj = distance_matrix(sbs, sbs, np.full(n, 2.0 * r_class))
    x, y = sbs.xy[:, 0], sbs.xy[:, 1]
    in_class = pair_distances(x, y, hi, x, y, hj) <= r_class
    ci, cj = classes = hi[in_class], hj[in_class]
    if n == 0:
        return ClassWeights(classes, np.zeros(0, dtype=int), 0)
    upper = hi < hj
    near = SimpleGraph.from_pairs(n, hi[upper], hj[upper])

    rng = np.random.default_rng(seed)
    survives_i = np.zeros(n, dtype=bool)
    survives_i[matern_type_i(near)] = True
    credit_i = np.bincount(cj[survives_i[ci]], minlength=n)
    credit_ii = np.zeros(n, dtype=int)
    for iteration in range(1, max_iterations + 1):
        survives_ii = np.zeros(n, dtype=bool)
        survives_ii[matern_type_ii(near, rng.random(n))] = True
        credit_ii += np.bincount(cj[survives_ii[ci]], minlength=n)
        weights = iteration * credit_i + credit_ii
        if np.all(weights > 0):
            return ClassWeights(classes, weights, iteration)
    raise ConvergenceError(np.flatnonzero(weights == 0))


def classweights_to_csv(cw: ClassWeights) -> str:
    i, j = cw.classes
    order = np.lexsort((j, i))
    members = np.split(j[order], np.cumsum(np.bincount(i, minlength=len(cw.weights)))[:-1])
    buf = io.StringIO()
    buf.write("sbs_id,weight,class_members\n")
    for v, row in enumerate(members):
        buf.write(f"{v},{int(cw.weights[v])},{';'.join(map(str, row.tolist()))}\n")
    return buf.getvalue()
