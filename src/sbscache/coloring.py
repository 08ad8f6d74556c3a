"""Proper vertex coloring of conflict graphs.

Two greedy priority orders: static degree (Welsh & Powell, 1967) and vertex
weight. Color indices start at 1 and are dense; they double as cache-fill
priorities downstream. Vertex weights are a plain integer vector, checked by
the function that reads them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .netgraph import SimpleGraph


@dataclass
class Coloring:
    """Per-vertex color in 1..k, every color used at least once; k is the largest color."""

    colors: np.ndarray

    def __post_init__(self):
        self.colors = np.asarray(self.colors, dtype=int).reshape(-1)
        if self.colors.size and self.colors.min() < 1:
            raise ValueError("colors must be dense in 1..k")
        if np.unique(self.colors).size != self.k:
            raise ValueError("every color in 1..k must be used")

    @property
    def k(self) -> int:
        return int(self.colors.max(initial=0))

    def __len__(self) -> int:
        return self.colors.shape[0]


def _greedy_in_order(g: SimpleGraph, order) -> Coloring:
    """Smallest feasible color along the given vertex order."""
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    colors = [0] * g.n
    for v in order:
        banned = {colors[u] for u in nbr[ptr[v] : ptr[v + 1]]}
        c = 1
        while c in banned:
            c += 1
        colors[v] = c
    return Coloring(np.array(colors, dtype=int))


def greedy_color_by_degree(g: SimpleGraph) -> Coloring:
    """Color in descending static-degree order, ties broken by vertex index."""
    # a stable sort keeps equal degrees in index order
    return _greedy_in_order(g, np.argsort(-g.degrees(), kind="stable").tolist())


def greedy_color_by_weight(g: SimpleGraph, weights) -> Coloring:
    """Color in descending order of the non-negative integer weights, ties by vertex index."""
    weights = np.asarray(weights, dtype=int).reshape(-1)
    if weights.size != g.n:
        raise ValueError("weights length must equal vertex count")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    return _greedy_in_order(g, np.argsort(-weights, kind="stable").tolist())


def coloring_to_csv(c: Coloring) -> str:
    buf = io.StringIO()
    buf.write("vertex_id,color\n")
    for v, col in enumerate(c.colors):
        buf.write(f"{v},{int(col)}\n")
    return buf.getvalue()
