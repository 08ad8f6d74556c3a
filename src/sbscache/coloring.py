"""Proper vertex coloring of conflict graphs.

Two greedy priority orders (static degree, vertex weight) and an exact
minimum-coloring solver for small instances. Color indices start at 1 and
are dense; they double as cache-fill priorities downstream. Vertex weights
are a plain integer vector, checked by the function that reads them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .netgraph import SimpleGraph

# Minimum coloring is NP-hard; the exact solver refuses instances above this
# size, and ``coloring_mode = exact`` falls back to the degree greedy there.
EXACT_SOLVER_LIMIT = 25


class CapacityError(RuntimeError):
    """Instance too large for an exact combinatorial solver."""


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


def _adjacency_bits(g: SimpleGraph) -> list[int]:
    """Row v as an int whose bit u is set iff u is a neighbour of v."""
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    return [sum(1 << u for u in nbr[ptr[v] : ptr[v + 1]]) for v in range(g.n)]


def _components(g: SimpleGraph) -> list[list[int]]:
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in nbr[ptr[v] : ptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _greedy_clique_size(adj: list[int], order: list[int]) -> int:
    """Cheap clique lower bound: extend greedily along the order."""
    best = 0
    for start in order:
        clique = 1
        cand = adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique += 1
            cand &= adj[v]
        best = max(best, clique)
    return best


def _k_colorable(adj: list[int], order: list[int], k: int) -> list[int] | None:
    """Backtracking k-colorability with symmetry breaking.

    The first vertex is fixed to color 1 and a new color may only be opened
    in index order, so each color class pattern is tried once. Returns the
    per-position color assignment, or None once the search space is exhausted.
    """
    n = len(order)
    assignment = [0] * n
    class_bits = [0] * k

    def solve(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        for c in range(min(used + 1, k)):
            if adj[v] & class_bits[c] == 0:
                class_bits[c] |= bit
                assignment[i] = c + 1
                if solve(i + 1, max(used, c + 1)):
                    return True
                class_bits[c] &= ~bit
        return False

    return assignment if solve(0, 0) else None


def exact_min_coloring(g: SimpleGraph) -> Coloring:
    """A proper coloring with the minimum possible number of colors.

    Branch-and-bound backtracking over color classes, run per connected
    component: k-colorability is searched upward from a greedy-clique lower
    bound, so the returned k is certified optimal by the exhausted search at
    k - 1 (or by the clique when it already meets k). Raises CapacityError
    above ``EXACT_SOLVER_LIMIT`` vertices.
    """
    if g.n > EXACT_SOLVER_LIMIT:
        raise CapacityError(f"exact solver limited to {EXACT_SOLVER_LIMIT} vertices, got {g.n}")
    colors = np.zeros(g.n, dtype=int)
    adj = _adjacency_bits(g)
    deg = g.degrees()
    for comp in _components(g):
        order = sorted(comp, key=lambda v: (-int(deg[v]), v))
        lb = max(1, _greedy_clique_size(adj, order))
        for k in range(lb, len(comp) + 1):
            assignment = _k_colorable(adj, order, k)
            if assignment is not None:
                for pos, v in enumerate(order):
                    colors[v] = assignment[pos]
                break
    return Coloring(colors)


def coloring_to_csv(c: Coloring) -> str:
    buf = io.StringIO()
    buf.write("vertex_id,color\n")
    for v, col in enumerate(c.colors):
        buf.write(f"{v},{int(col)}\n")
    return buf.getvalue()
