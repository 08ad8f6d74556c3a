"""Zipf file popularity over a ranked catalog, and request sampling by inverse CDF."""

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

    The probability of rank f is f^(-alpha) / sum_i i^(-alpha). The catalog
    keeps only the cumulative table of that pmf and the guide table through
    which sampling inverts it (Chen & Asau, 1974). Both are built with the
    catalog and never written afterwards, so one catalog serves every
    replication of a scenario, on any number of threads.
    """

    file_count: int
    alpha: float
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _guide: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.file_count < 1:
            raise ValueError("file_count must be at least 1")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        ranks = np.arange(1, self.file_count + 1, dtype=float)
        weights = ranks ** (-float(self.alpha))
        cdf = np.cumsum(weights / weights.sum())
        # guide[b] counts the cdf entries in bins 0..b-2 of T = guide.size - 1.
        # A uniform u in bin b = floor(u * T) lies above every entry of bins
        # below b - 1, whatever the rounding of u * T, so guide[b] never
        # exceeds the number of entries <= u. _cdf ends in +inf, which stops a
        # forward step and exceeds every u in a binary search.
        t = GUIDE_BINS_PER_FILE * self.file_count
        bins = np.minimum((cdf * t).astype(np.intp), t)
        self._guide = np.zeros(t + 1, dtype=np.intp)
        np.cumsum(np.bincount(bins, minlength=t + 1)[: t - 1], out=self._guide[2:])
        self._cdf = np.append(cdf, np.inf)


def sample_requests(catalog: Catalog, size: int, rng) -> np.ndarray:
    """``size`` requested ranks per stream: the uniforms through ``lookup_ranks``.

    ``rng`` is a seed or Generator or a list or tuple of them, whose ranks are
    concatenated; each stream is consumed as a single-stream call consumes it.
    """
    streams = rng if isinstance(rng, (list, tuple)) else [rng]
    u = np.array([np.random.default_rng(stream).random(size) for stream in streams])
    return lookup_ranks(catalog, u.reshape(-1))


def lookup_ranks(catalog: Catalog, u: np.ndarray) -> np.ndarray:
    """The rank each uniform in [0, 1) selects by inverse CDF: r when r - 1 cdf entries are <= u.

    Each u starts at its guide-table entry and steps forward once; the few
    that a bin dense with cdf entries leaves unresolved take a binary search.
    A loop of forward steps instead lost to binary search at alpha 2, where
    the tail bins hold hundreds of entries.
    """
    guide, cdf = catalog._guide, catalog._cdf
    idx = guide[(u * (guide.size - 1)).astype(np.intp)]
    pending = np.flatnonzero(cdf[idx] <= u)
    idx[pending] += 1
    pending = pending[cdf[idx[pending]] <= u[pending]]
    idx[pending] = np.searchsorted(cdf, u[pending], side="right")
    # u can land at or beyond the last cumulative value through rounding
    return np.minimum(idx, catalog.file_count - 1) + 1
