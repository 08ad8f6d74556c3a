"""The catalog's tables and request sampling."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbscache.popularity import (
    GUIDE_BINS_PER_FILE,
    Catalog,
    lookup_ranks,
    sample_requests,
)

from oracles import rank_lookup_reference, top_mass, zipf_pmf_table


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError, match="file_count must be at least 1"):
        Catalog(0, 0.6)
    # NaN fails the same check by name, before the pmf is built
    for alpha in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            Catalog(10, alpha)


def test_single_file_always_rank_one():
    rng = np.random.default_rng(0)
    cat = Catalog(1, 0.7)
    assert sample_requests(cat, 100, rng).tolist() == [1] * 100


def test_sampling_frequency_matches_pmf():
    rng = np.random.default_rng(123)
    cat = Catalog(2, 1.0)
    draws = sample_requests(cat, 100_000, rng)
    assert float(np.mean(draws == 1)) == pytest.approx(2 / 3, abs=0.01)


def test_sampling_top50_mass():
    rng = np.random.default_rng(7)
    cat = Catalog(1000, 0.6)
    draws = sample_requests(cat, 100_000, rng)
    assert float(np.mean(draws <= 50)) == pytest.approx(top_mass(cat, 50), abs=0.01)


def test_sample_requests_over_streams_is_the_concatenated_draws():
    # the measure stage draws every round's requests in one call, one stream per round
    cat = Catalog(1000, 0.6)
    streams = [np.random.SeedSequence(7, spawn_key=(0, 3, r, 1)) for r in range(4)]
    expected = np.concatenate([sample_requests(cat, 300, s) for s in streams])
    assert sample_requests(cat, 300, streams).tobytes() == expected.tobytes()
    assert sample_requests(cat, 300, tuple(streams)).tobytes() == expected.tobytes()
    for seed in (streams[0], 5):
        one = sample_requests(cat, 300, [seed])
        assert one.tobytes() == sample_requests(cat, 300, seed).tobytes()
    assert sample_requests(cat, 0, streams).size == sample_requests(cat, 300, []).size == 0


@pytest.mark.parametrize("file_count", [1, 10, 1000, 10**6])
def test_normalization_across_catalog_sizes(file_count):
    cat = Catalog(file_count, 0.6)
    assert abs(float(cat._cdf[-2]) - 1.0) <= 1e-12


def _edge_uniforms(cat: Catalog) -> np.ndarray:
    """Uniforms where a lookup can go wrong: at, just below and just above every
    cdf entry and guide-table bin edge k/T, 0, and the largest double below 1."""
    t = GUIDE_BINS_PER_FILE * cat.file_count
    points = np.concatenate((cat._cdf[:-1], np.arange(t) / t))
    u = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]))
    return u[(u >= 0.0) & (u < 1.0)]


def test_catalog_is_complete_when_built_and_lookups_never_write_it():
    cat = Catalog(1000, 0.6)
    assert cat._guide.shape == (GUIDE_BINS_PER_FILE * cat.file_count + 1,)
    assert cat._cdf.shape == (cat.file_count + 1,) and cat._cdf[-1] == np.inf
    assert cat._cdf[:-1].tolist() == np.cumsum(zipf_pmf_table(1000, 0.6)).tolist()
    fields = dict(vars(cat))
    frozen = pickle.dumps(fields)
    rng = np.random.default_rng(4)
    lookup_ranks(cat, rng.random(10_000))
    sample_requests(cat, 10_000, rng)
    assert vars(cat).keys() == fields.keys()
    assert all(vars(cat)[name] is value for name, value in fields.items())
    assert pickle.dumps(vars(cat)) == frozen


@given(
    file_count=st.integers(1, 2000),
    alpha=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(file_count=1, alpha=0.0, seed=0)
@example(file_count=1000, alpha=0.6, seed=1)
@example(file_count=1000, alpha=1.2, seed=2)
@example(file_count=2000, alpha=3.0, seed=3)
@settings(max_examples=60, deadline=None)
def test_guide_table_lookup_matches_binary_search(file_count, alpha, seed):
    cat = Catalog(file_count, alpha)
    u = _edge_uniforms(cat)
    assert lookup_ranks(cat, u).tolist() == rank_lookup_reference(cat, u).tolist()
    # sampling is the lookup of the stream's uniforms; a second draw reuses the table
    for _ in range(2):
        drawn = sample_requests(cat, 2000, np.random.default_rng(seed))
        uniforms = np.random.default_rng(seed).random(2000)
        assert drawn.tolist() == rank_lookup_reference(cat, uniforms).tolist()
