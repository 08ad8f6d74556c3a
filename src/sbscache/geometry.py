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


def pairs_within(a: PointSet, b: PointSet, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of every pair with ``d(a_i, b_j) <= radius[j]``.

    The distance is ``distance_matrix``'s formula in the same operand order,
    so the pair set equals ``np.nonzero(distance_matrix(a, b) <= radius)``
    bit for bit, without building the dense matrix. Both point sets are
    binned on a grid anchored at -region_radius whose side is at least
    max(radius) (a cell list), so a pair within range lies in the same or an
    adjacent bin. Keys run column-major with one padding bin on each side:
    a point's three y-neighbour bins in each x-column are one contiguous
    slice of the key-sorted ``b``, bounded through a prefix-sum table. Each
    x-column's candidates are filtered before the next column's are built.
    Pairs come out grouped by x-column, not sorted.
    """
    radius = np.asarray(radius, dtype=float)
    if radius.shape != (len(b),):
        raise ValueError("need one radius per point of b")
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    span = 2.0 * max(a.region_radius, b.region_radius)
    # The margin keeps pairs at exactly max(radius) in adjacent bins despite
    # rounding; the floor on the side keeps the key table at a few entries
    # per point when the ranges are far below the point spacing.
    side = max(float(radius.max()) * (1.0 + 1e-9), span / (2 * math.isqrt(len(a) + len(b)) + 1))
    nbins = int(span // side) + 1
    width = nbins + 2

    def keys(xy: np.ndarray) -> np.ndarray:
        # truncation is a monotone floor here: points lie at most a rounding
        # error below the grid's origin
        cell = ((xy + span / 2.0) * (1.0 / side)).astype(np.intp)
        np.minimum(cell, nbins - 1, out=cell)
        return (cell[:, 0] + 1) * width + cell[:, 1] + 1

    kb = keys(b.xy)
    order = np.argsort(kb, kind="stable")
    starts = np.zeros(width * width + 1, dtype=np.intp)
    np.cumsum(np.bincount(kb, minlength=width * width), out=starts[1:])
    bx, by, br = b.xy[order, 0], b.xy[order, 1], radius[order]
    ax, ay = a.xy[:, 0], a.xy[:, 1]
    ka = keys(a.xy)
    out_i, out_j = [], []
    for shift in (-width, 0, width):
        lo = starts[ka + shift - 1]
        counts = starts[ka + shift + 2] - lo
        i = np.repeat(np.arange(len(a)), counts)
        # position in the sorted b: the slice start of the pair's point plus
        # the pair's rank within that slice
        lo -= np.cumsum(counts) - counts
        pos = lo[i]
        pos += np.arange(pos.size)
        dx = ax[i]
        dx -= bx[pos]
        dy = ay[i]
        dy -= by[pos]
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        near = np.flatnonzero(dx <= br[pos])
        out_i.append(i[near])
        out_j.append(order[pos[near]])
    return np.concatenate(out_i), np.concatenate(out_j)


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
