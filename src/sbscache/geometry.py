"""Point configurations in a disk cell and Matern thinnings on a hard-core neighbour matrix.

Everything here is a pure function of its inputs; randomness enters only
through explicit seeds, so any sample is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Anything accepted by numpy's default_rng: an int seed, a SeedSequence,
# or an already-constructed Generator (used as-is).
RngSeed = int | np.random.SeedSequence | np.random.Generator


@dataclass
class PointSet:
    """Ordered points inside the disk of radius ``region_radius`` centred at the origin.

    Index i is the identity of station/user i; the ordering never changes
    after construction. Coordinates are meters.
    """

    xy: np.ndarray  # shape (n, 2) float64
    region_radius: float

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=float).reshape(-1, 2)
        if not self.region_radius > 0:
            raise ValueError("region_radius must be positive")
        if not np.all(np.isfinite(self.xy)):
            raise ValueError("coordinates must be finite")
        x, y = self.xy[:, 0], self.xy[:, 1]
        if np.any(x * x + y * y > self.region_radius**2 * (1.0 + 1e-12)):
            raise ValueError("all points must lie inside the region disk")

    def __len__(self) -> int:
        return self.xy.shape[0]


def sample_binomial_disk(n: int, region_radius: float, seed: RngSeed) -> PointSet:
    """Draw exactly ``n`` i.i.d. area-uniform points in the disk.

    The radius is drawn via the square-root transform (r = R * sqrt(u)) so
    the distribution is uniform in area, and the result is deterministic
    for a fixed seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not region_radius > 0:
        raise ValueError("region_radius must be positive")
    rng = np.random.default_rng(seed)
    r = region_radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    xy = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return PointSet(xy, region_radius)


def distance_matrix(a: PointSet, b: PointSet | None = None) -> np.ndarray:
    """Euclidean distances from each point of ``a`` to each point of ``b`` (default: ``a``)."""
    b = a if b is None else b
    dx = a.xy[:, 0, None] - b.xy[None, :, 0]
    dy = a.xy[:, 1, None] - b.xy[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def hard_core_neighbours(d: np.ndarray, hard_distance: float) -> np.ndarray:
    """From a distance matrix: ``near[i, j]`` iff i != j and ``d[i, j] <= hard_distance``."""
    if not hard_distance > 0:
        raise ValueError("hard_distance must be positive")
    near = d <= hard_distance
    np.fill_diagonal(near, False)
    return near


def matern_type_i(near: np.ndarray) -> np.ndarray:
    """Type-I thinning: keep the points with no hard-core neighbour.

    ``near`` comes from ``hard_core_neighbours``, so a competitor at exactly
    the hard distance eliminates both points. Returns sorted indices.
    """
    return np.flatnonzero(~near.any(axis=1))


def matern_type_ii(near: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Type-II thinning: keep the points whose mark is strictly smallest locally.

    A point survives iff its mark is strictly below the mark of every
    hard-core neighbour in ``near``. Marks must be pairwise distinct so the
    comparison is never ambiguous.
    """
    if marks.shape != near.shape[:1]:
        raise ValueError("need one mark per point")
    if np.unique(marks).size != marks.size:
        raise ValueError("marks must be pairwise distinct")
    return np.flatnonzero(~(near & (marks[None, :] < marks[:, None])).any(axis=1))
