"""Point configurations in a disk cell and the pair kernel.

``pairs_within`` gives every pair of points within range of each other, as
index arrays, optionally only the pairs whose two points carry the same
group label; station relations and user access both read it.
``pair_distances`` is its distance formula, for callers that refine the
pairs of one query to a smaller range.

Everything here is a pure function of its inputs; randomness enters only
through explicit seeds, so any sample is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def sample_binomial_disk(n: int, region_radius: float, seed, keep=None) -> PointSet:
    """Draw exactly ``n`` i.i.d. area-uniform points in the disk from each stream.

    ``seed`` is anything ``np.random.default_rng`` accepts (an int, a
    ``SeedSequence``, or a ``Generator``, used as it is), or a list or tuple
    of them, whose draws are concatenated; each stream is consumed as a
    single-seed call consumes it.
    The radius is drawn via the square-root transform (r = R * sqrt(u)) so
    the distribution is uniform in area. Given ``keep``, an index array into
    the draws that may be unsorted and repeat, only those points are
    returned, in ``keep``'s order: the transforms run on the kept draws alone.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not region_radius > 0:
        raise ValueError("region_radius must be positive")
    streams = seed if isinstance(seed, (list, tuple)) else [seed]
    u, theta = np.empty((2, len(streams), n))
    for k, rng in enumerate(map(np.random.default_rng, streams)):
        u[k], theta[k] = rng.random(n), rng.uniform(0.0, 2.0 * math.pi, n)
    u, theta = u.reshape(-1), theta.reshape(-1)
    if keep is not None:
        u, theta = u[keep], theta[keep]
    r = region_radius * np.sqrt(u)
    xy = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return PointSet(xy, region_radius)


def pair_distances(ax, ay, i, bx, by, j) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` of each pair (a_i, b_j), ``dx = ax[i] - bx[j]``, ``dy = ay[i] - by[j]``.

    The pair kernel's one distance formula: a caller that recomputes the
    distance of a pair the kernel returned gets the kernel's value bit for bit.
    """
    dx = ax[i]
    dx -= bx[j]
    dy = ay[i]
    dy -= by[j]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _group_labels(group, n: int) -> np.ndarray:
    """A point set's group labels as an intp vector, all 0 when ``group`` is None."""
    if group is None:
        return np.zeros(n, dtype=np.intp)
    group = np.asarray(group)
    if group.shape != (n,):
        raise ValueError("need one group label per point")
    if group.dtype.kind not in "iu" or np.any(group < 0):
        raise ValueError("group labels must be non-negative integers")
    return group.astype(np.intp, copy=False)


def pairs_within(
    a: PointSet, b: PointSet, radius: np.ndarray, a_group=None, b_group=None
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of every pair with ``d(a_i, b_j) <= radius[j]`` and equal labels.

    ``a_group`` and ``b_group`` label each point of ``a`` and ``b`` with a
    non-negative integer group, all 0 by default; only pairs with
    ``a_group[i] == b_group[j]`` are returned. The distance is
    ``sqrt(dx*dx + dy*dy)`` with ``dx = a_x - b_x`` and ``dy = a_y - b_y``,
    so the pair set is that of the dense per-pair threshold bit for bit,
    and ``pairs_within(a, a, r)`` is symmetric when ``r`` is uniform:
    (x - y)**2 == (y - x)**2. Both point sets are binned on a grid anchored
    at -region_radius whose side is at least max(radius) (a cell list), so
    a pair within range lies in the same or an adjacent bin. Keys run
    column-major with one padding bin on each side, and each group has its
    own padded grid: a point's key is offset by ``group * width**2``. So a
    point's three y-neighbour bins in each x-column are one contiguous slice
    of the key-sorted ``b`` holding only its own group, bounded through a
    prefix-sum table sized by the number of groups; a group that no ``b``
    point has gives no pairs. Each x-column's candidates are filtered
    before the next column's are built. Pairs come out grouped by x-column,
    not sorted.
    """
    radius = np.asarray(radius, dtype=float)
    if radius.shape != (len(b),):
        raise ValueError("need one radius per point of b")
    a_group, b_group = _group_labels(a_group, len(a)), _group_labels(b_group, len(b))
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
    groups = 1 + max(int(a_group.max()), int(b_group.max()))

    def keys(xy: np.ndarray, group: np.ndarray) -> np.ndarray:
        # truncation is a monotone floor here: points lie at most a rounding
        # error below the grid's origin
        cell = ((xy + span / 2.0) * (1.0 / side)).astype(np.intp)
        np.minimum(cell, nbins - 1, out=cell)
        return (cell[:, 0] + 1) * width + cell[:, 1] + 1 + group * (width * width)

    kb = keys(b.xy, b_group)
    order = np.argsort(kb, kind="stable")
    starts = np.zeros(groups * width * width + 1, dtype=np.intp)
    np.cumsum(np.bincount(kb, minlength=groups * width * width), out=starts[1:])
    bx, by, br = b.xy[order, 0], b.xy[order, 1], radius[order]
    ax, ay = a.xy[:, 0], a.xy[:, 1]
    ka = keys(a.xy, a_group)
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
        d = pair_distances(ax, ay, i, bx, by, pos)
        near = np.flatnonzero(d <= br[pos])
        out_i.append(i[near])
        out_j.append(order[pos[near]])
    return np.concatenate(out_i), np.concatenate(out_j)
