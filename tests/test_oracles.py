"""Checks of the expected-hit oracle that acceptance criteria 6 and 7 rely on, of the
baseline closed form against the fig3 sweep, and of the Zipf oracles against each other
and against the simulator's catalog table."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbscache.popularity import Catalog
from sbscache.sim import POLICIES, ScenarioConfig, replication_seeds, sweep

from oracles import (
    baseline_hit_closed_form,
    expected_hit_oracle,
    grid_coverage,
    lens_area,
    reachable_files,
    top_mass,
    zipf_pmf,
    zipf_pmf_reference,
    zipf_pmf_table,
)


def test_one_station_covering_the_cell_serves_the_top_block():
    # a 700 m range reaches every point of a 350 m cell from anywhere inside it
    cfg = ScenarioConfig(n_sbs=1, sbs_range=700.0, file_count=1000, memory=50)
    alphas = (0.0, 0.6, 1.2)
    hits, ceilings = expected_hit_oracle(cfg, 11, POLICIES, alphas)
    for a in alphas:
        expected = top_mass(Catalog(1000, a), 50)
        assert ceilings[a] == pytest.approx(expected, rel=1e-12)
        for policy in POLICIES:
            assert hits[(policy, a)] == pytest.approx(expected, rel=1e-12)


def test_no_stations_serve_nothing():
    cfg = ScenarioConfig(n_sbs=0)
    hits, ceilings = expected_hit_oracle(cfg, 3, POLICIES, (0.6,))
    assert ceilings == {0.6: 0.0}
    assert all(h == 0.0 for h in hits.values())


def test_two_distant_stations_give_the_area_weighted_block_masses():
    cell, memory = 350.0, 50
    xy = [(-300.0, 0.0), (250.0, 0.0)]
    ranges = [40.0, 90.0]
    blocks = (frozenset(range(1, memory + 1)), frozenset(range(memory + 1, 2 * memory + 1)))
    pmf = zipf_pmf_table(1000, 0.8)
    cover = grid_coverage(cell, 1.0, xy, ranges)
    assert cover.sum(axis=1).max() == 1  # the two disks are disjoint
    files, share = reachable_files(cover, blocks, 1000)
    block_mass = [pmf[:memory].sum(), pmf[memory : 2 * memory].sum()]
    expected = sum(r * r * m for r, m in zip(ranges, block_mass)) / (cell * cell)
    # the grid counts each disk's area to within its rim squares
    assert float(share @ (files @ pmf)) == pytest.approx(expected, rel=1e-3)
    assert math.isclose(share.sum(), 1.0)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(n_sbs=48),
    ScenarioConfig(n_sbs=64, sbs_range=None, sbs_range_min=50.0, sbs_range_max=100.0),
    ScenarioConfig(n_sbs=40, memory=300, threshold_mode="universal"),
])
def test_ceiling_bounds_every_policy(cfg):
    alphas = (0.2, 0.8, 1.4)
    for seed in replication_seeds(5, 3):
        hits, ceilings = expected_hit_oracle(cfg, seed, POLICIES, alphas)
        for (policy, a), hit in hits.items():
            # both sides are float sums over the same grid; allow their rounding
            assert 0.0 < hit <= ceilings[a] + 1e-12, (policy, a)


def test_lens_area_limits():
    # a disk inside the other, disjoint disks, and two unit disks 1 apart
    assert lens_area(350.0, 80.0, [0.0, 270.0]).tolist() == [math.pi * 80.0**2] * 2
    assert lens_area(350.0, 80.0, [430.0, 500.0]).tolist() == [0.0, 0.0]
    assert lens_area(1.0, 1.0, [1.0])[0] == pytest.approx(2 * math.pi / 3 - math.sqrt(3) / 2)


def test_baseline_closed_form_under_full_coverage_is_the_head_mass():
    # a 700 m range reaches every point of a 350 m cell from anywhere inside it
    cfg = ScenarioConfig(n_sbs=1, sbs_range=700.0, file_count=1000, memory=50, alpha=0.6)
    assert baseline_hit_closed_form(cfg) == pytest.approx(top_mass(Catalog(1000, 0.6), 50))


@pytest.mark.parametrize("master_seed", [1, 3])
def test_fig3_baseline_agrees_with_the_closed_form(master_seed):
    # the fig3 recipe on the cell350 scenario, baseline only; the networks
    # vary between replications, so the SE comes from their spread
    cfg = ScenarioConfig(master_seed=master_seed, alpha=0.6, policy="baseline")
    for cell in sweep(cfg, "n_sbs", [16, 32, 48, 64], ["baseline"]):
        result = cell.result
        expected = baseline_hit_closed_form(dataclasses.replace(cfg, n_sbs=cell.axis_value))
        se = result.std_hit_rate / math.sqrt(cfg.replications)
        assert abs(result.mean_hit_rate - expected) <= 3 * se, (cell.axis_value, expected)


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


@pytest.mark.parametrize("file_count, alpha", [(1, 0.6), (10, 1.2), (1000, 0.0), (1000, 0.2),
                                               (1000, 0.6), (1000, 1.2)])
def test_catalog_cdf_steps_are_the_zipf_pmf_table(file_count, alpha):
    # the simulator samples through Catalog._cdf; its steps are the oracles' pmf.
    # cumsum rounds each step by at most half an ulp of the running sum (5.6e-17
    # below 1), and the least pmf entry of these catalogs is 8.1e-5 (1000 files, 1.2)
    steps = np.diff(Catalog(file_count, alpha)._cdf[:-1], prepend=0.0)
    table = zipf_pmf_table(file_count, alpha)
    assert np.all(np.abs(steps - table) <= 1e-12 * table)
