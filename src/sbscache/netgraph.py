"""The network's graph structures as neighbour lists.

The conflict graph that the SBS-to-SBS distances give under a threshold,
the proximity-class graph, and the user-to-SBS access pairs, optionally
within groups: every relation comes from the sparse pair kernel
``geometry.pairs_within``. Every station relation is a ``SimpleGraph``,
the Matern hard-core graph in ``classify`` too. Coverage ranges are a
plain float vector, one radius R_i per station; each function that reads
one checks that every range is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, pairs_within


@dataclass
class SimpleGraph:
    """Undirected simple graph as CSR neighbour lists, built by ``from_pairs``.

    The neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``, ascending.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(cls, n: int, i, j) -> SimpleGraph:
        """The graph on n vertices with edges (i[k], j[k]), each given once in either order."""
        rows = np.concatenate((i, j)).astype(np.intp)
        cols = np.concatenate((j, i)).astype(np.intp)
        if np.any(rows == cols):
            raise ValueError("self-loops are not allowed")
        if rows.size and not 0 <= rows.min() <= rows.max() < n:
            raise ValueError(f"vertices must lie in 0..{n - 1}")
        keys = rows * n + cols  # one per directed edge: a repeated edge repeats its key
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("an edge is given twice")
        rows, cols = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (i, j), i < j, ascending."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        upper = rows < self.indices
        return list(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    @property
    def adjacency(self) -> np.ndarray:
        """Dense boolean n x n adjacency, built on each call. perfbench's edge count is its
        only reader; it goes once perfbench counts edges from ``indices``."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[np.repeat(np.arange(self.n), self.degrees()), self.indices] = True
        return adj


def _positive_ranges(ranges) -> np.ndarray:
    """Per-SBS coverage radii R_i in meters as a 1-D float vector; each must be positive."""
    ranges = np.asarray(ranges, dtype=float).reshape(-1)
    if not np.all(ranges > 0):
        raise ValueError("all coverage ranges must be positive")
    return ranges


def individual_thresholds(ranges) -> np.ndarray:
    """Per-station thresholds t_i = R_i; pair (i, j) is thresholded at min(t_i, t_j)."""
    return _positive_ranges(ranges)


def universal_threshold(ranges) -> float:
    """The single threshold applied to every pair: the minimum coverage range."""
    ranges = _positive_ranges(ranges)
    if ranges.size == 0:
        raise ValueError("universal threshold is undefined for an empty network")
    return float(ranges.min())


def threshold_graph(sbs: PointSet, thresholds) -> SimpleGraph:
    """Conflict graph: edge (i, j) iff d(S_i, S_j) <= min(t_i, t_j), boundary inclusive.

    Nearby stations are the ones that can serve a common user and therefore
    must not cache the same block. ``thresholds`` is the per-station vector
    t or one scalar for every station; it must be non-negative. The kernel
    finds the pairs with d <= t[j]; pair (i, j) is kept for the station j
    with the smaller threshold (the smaller index on a tie), so each edge
    comes once, and d(S_i, S_j) == d(S_j, S_i) bit for bit.
    """
    n = len(sbs)
    t = np.broadcast_to(np.asarray(thresholds, dtype=float), (n,))
    if not np.all(t >= 0.0):
        raise ValueError("thresholds must be non-negative")
    i, j = pairs_within(sbs, sbs, t)
    keep = (t[j] < t[i]) | ((t[j] == t[i]) & (i < j))
    return SimpleGraph.from_pairs(n, i[keep], j[keep])


def build_class_graph(classes: tuple[np.ndarray, np.ndarray], n: int) -> SimpleGraph:
    """Edge (i, j), i != j, iff j belongs to i's proximity class.

    ``classes`` holds the symmetric membership pairs of ``ClassWeights``;
    each edge is read from its pair with i < j.
    """
    i, j = classes
    upper = i < j
    return SimpleGraph.from_pairs(n, i[upper], j[upper])


def access_pairs(
    users: PointSet, sbs: PointSet, ranges, user_group=None, sbs_group=None
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(u, j)`` of every user u that can reach SBS j: d(u, S_j) <= R_j.

    Given group labels (``pairs_within``'s), only the pairs of one group are returned.
    """
    ranges = _positive_ranges(ranges)
    if ranges.size != len(sbs):
        raise ValueError("ranges length must equal SBS count")
    return pairs_within(users, sbs, ranges, user_group, sbs_group)


def graph_to_edge_list(g: SimpleGraph) -> str:
    """One ``i j`` line per edge, 0-based, i < j, ascending."""
    return "".join(f"{i} {j}\n" for i, j in g.edges())
