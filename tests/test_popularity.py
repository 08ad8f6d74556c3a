"""Zipf pmf, sampling, and head-mass behavior."""

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

from oracles import rank_lookup_reference, top_mass, zipf_pmf, zipf_pmf_reference, zipf_pmf_table


def test_uniform_when_alpha_zero():
    cat = Catalog(4, 0.0)
    assert [zipf_pmf(cat, r) for r in range(1, 5)] == [0.25] * 4


def test_two_file_catalog_hand_normalized():
    # 1 / (1 + 1/2) = 2/3
    assert zipf_pmf(Catalog(2, 1.0), 1) == pytest.approx(2 / 3, abs=1e-15)


def test_pmf_sums_to_one():
    cat = Catalog(1000, 0.6)
    assert abs(sum(zipf_pmf(cat, r) for r in range(1, 1001)) - 1.0) <= 1e-12


def test_pmf_matches_direct_normalization():
    cat = Catalog(50, 0.9)
    for rank in (1, 7, 50):
        assert zipf_pmf(cat, rank) == pytest.approx(zipf_pmf_reference(rank, 0.9, 50), rel=1e-12)


def test_pmf_rejects_out_of_range_rank():
    cat = Catalog(10, 0.6)
    for rank in (0, 11, -3):
        with pytest.raises(ValueError):
            zipf_pmf(cat, rank)


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Catalog(0, 0.6)
    with pytest.raises(ValueError):
        Catalog(10, -0.1)


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


def test_top_mass_bounds():
    cat = Catalog(1000, 0.6)
    assert top_mass(cat, 0) == 0.0
    assert top_mass(cat, 1000) == pytest.approx(1.0, abs=1e-12)


def test_top_mass_equals_direct_sum():
    cat = Catalog(1000, 0.6)
    direct = sum(zipf_pmf(cat, r) for r in range(1, 51))
    assert top_mass(cat, 50) == pytest.approx(direct, rel=1e-12)


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=100)
def test_pmf_non_increasing_in_rank(file_count, alpha):
    cat = Catalog(file_count, alpha)
    pmf = [zipf_pmf(cat, r) for r in range(1, file_count + 1)]
    assert all(a >= b for a, b in zip(pmf, pmf[1:]))
    # strict decrease needs alpha large enough for rank**-alpha to move a float64
    if alpha >= 1e-6:
        assert all(a > b for a, b in zip(pmf, pmf[1:]))


@pytest.mark.parametrize("file_count", [1, 10, 1000, 10**6])
def test_normalization_across_catalog_sizes(file_count):
    cat = Catalog(file_count, 0.6)
    assert abs(float(cat._cdf[-2]) - 1.0) <= 1e-12


@given(
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=100)
def test_top_mass_monotone(file_count, alpha, alpha_bump):
    cat = Catalog(file_count, alpha)
    masses = [top_mass(cat, k) for k in range(file_count + 1)]
    assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
    # for fixed 1 <= k < |F|, raising alpha concentrates mass in the head
    k = max(1, file_count // 3)
    assert top_mass(Catalog(file_count, alpha + alpha_bump), k) >= top_mass(cat, k) - 1e-12


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
