"""Zipf file popularity over a ranked catalog, and request sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Guide-table bins per catalog file. On 10^4 uniforms over 1000 files, 4
# bins per file took 140-170 us at alpha 0.2-1.2, 1 bin per file 340-880 us,
# and binary search 640-1140 us; 8 bins gained little more.
GUIDE_BINS_PER_FILE = 4


@dataclass
class Catalog:
    """Ranked file catalog; rank 1 is the most popular file.

    The probability of rank f is f^(-alpha) / sum_i i^(-alpha). The pmf and
    its cumulative table are precomputed once. Sampling inverts the
    cumulative table through a guide table (Chen & Asau, 1974), which is
    built on the first draw, so a catalog that is never sampled never pays
    for it.
    """

    file_count: int
    alpha: float
    _pmf: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _guide: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.file_count < 1:
            raise ValueError("file_count must be at least 1")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        ranks = np.arange(1, self.file_count + 1, dtype=float)
        weights = ranks ** (-float(self.alpha))
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)


def zipf_pmf(catalog: Catalog, rank: int) -> float:
    """Probability that a request asks for the file of the given rank."""
    if not 1 <= rank <= catalog.file_count:
        raise ValueError(f"rank must be in 1..{catalog.file_count}, got {rank}")
    return float(catalog._pmf[rank - 1])


def top_mass(catalog: Catalog, k: int) -> float:
    """Total request probability carried by the k most popular files."""
    if not 0 <= k <= catalog.file_count:
        raise ValueError(f"k must be in 0..{catalog.file_count}, got {k}")
    return float(catalog._pmf[:k].sum())


def _guide_table(catalog: Catalog) -> tuple[int, np.ndarray, np.ndarray]:
    """``(T, guide, cdf)``: ``guide[b]`` counts the cdf entries in bins 0..b-2 of T.

    A uniform u in bin b = floor(u * T) lies above every entry of bins below
    b - 1, whatever the rounding of u * T, so ``guide[b]`` never exceeds the
    number of entries <= u. ``cdf`` ends in +inf, which stops a forward step.
    """
    if catalog._guide is None:
        t = GUIDE_BINS_PER_FILE * catalog.file_count
        bins = np.minimum((catalog._cdf * t).astype(np.intp), t)
        guide = np.zeros(t + 1, dtype=np.intp)
        np.cumsum(np.bincount(bins, minlength=t + 1)[: t - 1], out=guide[2:])
        # one tuple, so a concurrent first draw sees all of it or none
        catalog._guide = t, guide, np.append(catalog._cdf, np.inf)
    return catalog._guide


def sample_requests(catalog: Catalog, size: int, rng) -> np.ndarray:
    """``size`` requested ranks: the stream's uniforms through ``lookup_ranks``.

    Mutates only the caller's stream.
    """
    rng = np.random.default_rng(rng)
    return lookup_ranks(catalog, rng.random(size))


def lookup_ranks(catalog: Catalog, u: np.ndarray) -> np.ndarray:
    """The rank each uniform in [0, 1) selects by inverse CDF: r when r - 1 cdf entries are <= u.

    Each u starts at its guide-table entry and steps forward once; the few
    that a bin dense with cdf entries leaves unresolved take a binary search.
    A loop of forward steps instead lost to binary search at alpha 2, where
    the tail bins hold hundreds of entries.
    """
    t, guide, cdf = _guide_table(catalog)
    idx = guide[(u * t).astype(np.intp)]
    pending = np.flatnonzero(cdf[idx] <= u)
    idx[pending] += 1
    pending = pending[cdf[idx[pending]] <= u[pending]]
    idx[pending] = np.searchsorted(catalog._cdf, u[pending], side="right")
    # u can land at or beyond the last cumulative value through rounding
    return np.minimum(idx, catalog.file_count - 1) + 1
