"""Checks of the expected-hit oracle that acceptance criteria 6 and 7 rely on, and of the
baseline closed form against the fig3 sweep."""

import dataclasses
import math

import pytest

from sbscache.popularity import Catalog
from sbscache.sim import POLICIES, ScenarioConfig, replication_seeds, sweep

from oracles import (
    baseline_hit_closed_form,
    expected_hit_oracle,
    grid_coverage,
    lens_area,
    reachable_files,
    top_mass,
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
