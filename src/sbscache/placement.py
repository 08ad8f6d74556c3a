"""Turn a coloring of the conflict graph into per-SBS cache contents.

The catalog is sorted by popularity, so color q maps to the q-th block of M
consecutive ranks: color 1 gets the most popular block, and two conflicting
SBSs (which always have different colors) cache disjoint blocks as long as no
wrap-around occurs. When q * M exceeds the catalog, the block wraps back to
rank 1 so no cache is left underfilled.

A placement is therefore fully described by its color vector, M and the
catalog size; everything else is derived from them. The measure stage reads
the per-color block table (``color_table``): row q - 1 marks color q's
block, so station j holds rank r iff ``table[colors[j] - 1, r - 1]``, and a
rank that no row marks is a miss wherever it is requested. The per-station
matrix, cached sets and CSV are for inspection.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .coloring import Coloring
from .popularity import Catalog


@dataclass
class Placement:
    """SBS j caches the block of ``memory`` ranks that its color selects."""

    colors: np.ndarray
    memory: int
    file_count: int

    def __post_init__(self):
        self.colors = np.asarray(self.colors, dtype=int).reshape(-1)
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if self.file_count < 1:
            raise ValueError("file_count must be at least 1")
        if self.colors.size and self.colors.min() < 1:
            raise ValueError("colors start at 1")

    @property
    def n_sbs(self) -> int:
        return self.colors.shape[0]

    def columns(self) -> np.ndarray:
        """(n_sbs, memory) 0-based catalog columns: ((q-1)*M + t) mod F."""
        return _blocks(self.colors, self.memory, self.file_count)

    @property
    def caches(self) -> tuple[frozenset[int], ...]:
        """Per-SBS set of cached 1-based ranks."""
        return tuple(frozenset((row + 1).tolist()) for row in self.columns())


def _blocks(colors: np.ndarray, memory: int, file_count: int) -> np.ndarray:
    """(len(colors), memory) 0-based catalog columns of each color's block."""
    start = (colors[:, None] - 1) * memory
    return (start + np.arange(memory)) % file_count


def place_by_coloring(c: Coloring, catalog: Catalog, memory: int) -> Placement:
    """SBS with color q caches ranks (q-1)*M+1 .. q*M, wrapped modulo the catalog."""
    return Placement(c.colors, memory, catalog.file_count)


def place_most_popular(n_sbs: int, catalog: Catalog, memory: int) -> Placement:
    """Every SBS caches ranks 1..M: the conventional most-popular-everywhere policy."""
    if n_sbs < 0:
        raise ValueError("n_sbs must be non-negative")
    if memory > catalog.file_count:
        raise ValueError("memory cannot exceed the catalog size")
    return Placement(np.ones(n_sbs, dtype=int), memory, catalog.file_count)


def color_table(placement: Placement) -> np.ndarray:
    """Boolean (colors_used, file_count) table: entry (q - 1, f) iff color q caches rank f + 1."""
    k = int(placement.colors.max(initial=0))
    table = np.zeros((k, placement.file_count), dtype=bool)
    colors = np.arange(1, k + 1)
    table[colors[:, None] - 1, _blocks(colors, placement.memory, placement.file_count)] = True
    return table


def placement_matrix(placement: Placement) -> np.ndarray:
    """Boolean (n_sbs, file_count) matrix: entry (j, f) iff SBS j caches rank f + 1."""
    return color_table(placement)[placement.colors - 1]


def placement_to_csv(placement: Placement) -> str:
    buf = io.StringIO()
    buf.write("sbs_id,file_rank\n")
    for j, cache in enumerate(placement.caches):
        for rank in sorted(cache):
            buf.write(f"{j},{rank}\n")
    return buf.getvalue()
