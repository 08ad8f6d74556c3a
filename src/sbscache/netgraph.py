"""The network's graph structures in adjacency form.

The conflict graph that the SBS-to-SBS distances give under a threshold,
the proximity-class graph, and the user-to-SBS access matrix, all from
``geometry.distance_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, distance_matrix


@dataclass
class SimpleGraph:
    """Boolean adjacency matrix, symmetric and irreflexive."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        if self.adjacency.shape != (self.n, self.n):
            raise ValueError("adjacency must be n x n")
        if self.n and not np.array_equal(self.adjacency, self.adjacency.T):
            raise ValueError("adjacency must be symmetric")
        if self.n and np.any(np.diag(self.adjacency)):
            raise ValueError("adjacency diagonal must be false")

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(iu.tolist(), ju.tolist()))


@dataclass
class CoverageRanges:
    """Per-SBS coverage radius R_i in meters."""

    ranges: np.ndarray

    def __post_init__(self):
        self.ranges = np.asarray(self.ranges, dtype=float).reshape(-1)
        if self.ranges.size and not np.all(self.ranges > 0):
            raise ValueError("all coverage ranges must be positive")

    def __len__(self) -> int:
        return self.ranges.shape[0]


def build_sbs_weighted_graph(sbs: PointSet) -> np.ndarray:
    """Complete weighted graph over SBSs as its weight matrix, w[i][j] = d(S_i, S_j)."""
    return distance_matrix(sbs)


def individual_thresholds(ranges: CoverageRanges) -> np.ndarray:
    """Pairwise threshold matrix Tr(i,j) = min(R_i, R_j)."""
    r = ranges.ranges
    return np.minimum(r[:, None], r[None, :])


def universal_threshold(ranges: CoverageRanges) -> float:
    """The single threshold applied to every pair: the minimum coverage range."""
    if len(ranges) == 0:
        raise ValueError("universal threshold is undefined for an empty network")
    return float(ranges.ranges.min())


def threshold_graph(w: np.ndarray, thresholds) -> SimpleGraph:
    """Conflict graph: edge (i, j) iff the SBSs are within threshold of each other.

    ``w`` is the SBS distance matrix. Nearby stations (w[i][j] <= Tr(i,j),
    boundary inclusive) are the ones that can serve a common user and
    therefore must not cache the same block.
    ``thresholds`` may be a full matrix or a scalar (universal threshold); it
    must be symmetric and non-negative, and so must the weights.
    """
    n = w.shape[0]
    if n and np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    tr = np.broadcast_to(np.asarray(thresholds, dtype=float), (n, n))
    if n and not np.array_equal(tr, tr.T):
        raise ValueError("threshold matrix must be symmetric")
    if n and np.any(tr < 0.0):
        raise ValueError("thresholds must be non-negative")
    adj = w <= tr
    np.fill_diagonal(adj, False)
    return SimpleGraph(n, adj)


def build_class_graph(classes: np.ndarray) -> SimpleGraph:
    """Edge (i, j), i != j, iff j belongs to i's proximity class.

    ``classes`` is the boolean class-membership matrix. Membership must be
    symmetric (it comes from a distance test); asymmetric input is rejected.
    """
    adj = np.array(classes, dtype=bool)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj.shape[0], adj)


def access_matrix(users: PointSet, sbs: PointSet, ranges: CoverageRanges) -> np.ndarray:
    """Boolean (n_users, n_sbs) matrix: user u can reach SBS j iff d(u, S_j) <= R_j."""
    if len(ranges) != len(sbs):
        raise ValueError("ranges length must equal SBS count")
    return distance_matrix(users, sbs) <= ranges.ranges[None, :]


def graph_to_edge_list(g: SimpleGraph) -> str:
    """One ``i j`` line per edge, 0-based, i < j, ascending."""
    return "".join(f"{i} {j}\n" for i, j in g.edges())
