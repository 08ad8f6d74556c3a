"""Zipf file popularity over a ranked catalog, and request sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Catalog:
    """Ranked file catalog; rank 1 is the most popular file.

    The probability of rank f is f^(-alpha) / sum_i i^(-alpha). The pmf and
    its cumulative table are precomputed once so sampling is a binary search.
    """

    file_count: int
    alpha: float
    _pmf: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

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


def sample_requests(catalog: Catalog, size: int, rng) -> np.ndarray:
    """``size`` requested ranks by inverse-CDF lookup; mutates only the caller's stream."""
    rng = np.random.default_rng(rng)
    u = rng.random(size)
    idx = np.searchsorted(catalog._cdf, u, side="right")
    # u can land at or beyond the last cumulative value through rounding
    return np.minimum(idx, catalog.file_count - 1) + 1
