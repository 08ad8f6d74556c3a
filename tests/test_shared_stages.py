"""A sweep's shared stages: drawn once per replication seed, identical to fresh cells.

``sim.sweep`` keeps each replication's network, users, requests and access
pairs in a ``SharedStages`` store so that the cells after the first at an
axis value read them back. These tests pin that every cell still equals an
independent ``run_scenario`` of its config, what the store key covers, and
that the store lives exactly as long as its sweep.
"""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sbscache import cli, sim
from sbscache.sim import ReplicationError, ScenarioConfig, run_scenario, sweep, sweep_to_csv

ROOT = Path(__file__).resolve().parents[1]
CELL350 = ROOT / "configs" / "cell350.cfg"

SMALL = ScenarioConfig(
    n_sbs=12, n_users=200, n_rounds=3, replications=4, master_seed=99,
    file_count=200, memory=20,
)
# threshold modes differ only in the placement, over interval ranges, with
# the exact solver and several requests per user
CUSTOM = (
    dataclasses.replace(
        SMALL, cell_radius=150.0, sbs_range=None, sbs_range_min=40.0, sbs_range_max=90.0,
        coloring_mode="exact", requests_per_round=3, replications=3,
    ),
    "n_sbs", [0, 9, 16], ["baseline", "threshold_individual", "threshold_universal"],
)


def _recipe(name):
    axis, values, policies, presets = cli.RECIPES[name]
    cfg = dataclasses.replace(cli.parse_config_file(str(CELL350)), replications=3, **presets)
    return cfg, axis, values, policies


def _recorded_sweep(monkeypatch, cfg, axis, values, policies, workers, after_cell=None):
    """Run a sweep, recording each run_scenario call's config in order."""
    calls = []
    original = sim.run_scenario

    def recording(cfg_cell, workers=1):
        calls.append(cfg_cell)
        result = original(cfg_cell, workers=workers)
        if after_cell is not None:
            after_cell(cfg_cell)
        return result

    monkeypatch.setattr(sim, "run_scenario", recording)
    cells = sweep(cfg, axis, values, policies, workers=workers)
    monkeypatch.setattr(sim, "run_scenario", original)
    return cells, calls


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["fig3", "fig4", "fig5", "custom"])
def test_sweep_cells_equal_independent_runs(monkeypatch, case, workers):
    cfg, axis, values, policies = CUSTOM if case == "custom" else _recipe(case)
    cells, calls = _recorded_sweep(monkeypatch, cfg, axis, values, policies, workers)
    # one run_scenario call per cell, in CSV order
    assert len(calls) == len(cells) == len(values) * len(policies)
    for cell, cfg_cell in zip(cells, calls):
        assert getattr(cfg_cell, axis) == cell.axis_value
        assert sim.POLICY_TOKENS[cell.policy][0] == cfg_cell.policy
        fresh = run_scenario(cfg_cell, workers=workers)
        assert cell.result.per_replication == fresh.per_replication
        assert cell.result.colors_used == fresh.colors_used


def _other_value(cfg, name):
    kind, _ = sim.CONFIG_FIELDS[name]
    value = getattr(cfg, name)
    if value is None:
        return kind(1)
    return value + "_other" if kind is str else value + 1


def test_placement_only_fields_are_config_fields():
    assert set(sim.PLACEMENT_ONLY_FIELDS) <= set(sim.CONFIG_FIELDS)


@pytest.mark.parametrize("name", list(sim.CONFIG_FIELDS))
def test_store_key_covers_every_shared_input(name):
    other = dataclasses.replace(SMALL, **{name: _other_value(SMALL, name)})
    same = sim.shared_stage_key(SMALL) == sim.shared_stage_key(other)
    assert same == (name in sim.PLACEMENT_ONLY_FIELDS)


def test_runs_outside_a_sweep_pack_nothing(monkeypatch):
    # narrowing costs time; only a sweep, whose later cells read the store, may pay it
    def refuse(*args):
        raise AssertionError("narrowed or stored outside a sweep")

    monkeypatch.setattr(sim, "_narrow", refuse)
    monkeypatch.setattr(sim.SharedStages, "fetch", refuse)
    run_scenario(dataclasses.replace(SMALL, policy="matern_coloring"), workers=2)
    sbs, ranges = sim.build_network(SMALL, sim.replication_seeds(SMALL.master_seed, 1)[0])
    assert sbs.xy.flags.writeable and ranges.ranges.flags.writeable


def test_store_is_dropped_after_a_sweep_and_runs_stay_fresh():
    before = run_scenario(SMALL)
    sweep(SMALL, "alpha", [0.4, 0.8], ["baseline", "matern"])
    assert sim._sweep_store is None
    assert run_scenario(SMALL) == before


def test_store_is_dropped_after_a_failed_sweep():
    # a mid-distance pair cannot converge in one Matern iteration
    dense = ScenarioConfig(
        n_sbs=2, cell_radius=30.0, sbs_range=80.0, r_class=25.0, max_matern_iterations=1,
        n_users=10, n_rounds=1, replications=3, master_seed=2,
    )
    before = run_scenario(dense)
    with pytest.raises(ReplicationError):
        sweep(dense, "n_sbs", [2], ["baseline", "matern"])
    assert sim._sweep_store is None
    assert run_scenario(dense) == before


def test_store_holds_one_key_in_minimal_dtypes(monkeypatch):
    seen = []

    def inspect_store(cfg_cell):
        store = sim._sweep_store
        assert store is not None
        seen.append(len(store._entries))
        assert len(store._entries) <= cfg_cell.replications
        for entry in store._entries.values():
            assert set(entry) == {"network", "rounds"}
            u, j, ranks = entry["rounds"]
            for a in (u, j, ranks):
                assert a.dtype == np.min_scalar_type(a.max(initial=0))
                assert not a.flags.writeable
            assert u.size == j.size
            assert ranks.shape == (
                cfg_cell.n_rounds * cfg_cell.n_users, cfg_cell.requests_per_round
            )

    cfg = dataclasses.replace(SMALL, requests_per_round=2)
    _recorded_sweep(monkeypatch, cfg, "n_sbs", [6, 30], ["baseline", "threshold"], 2, inspect_store)
    assert seen == [cfg.replications] * 4


def test_concurrent_sweeps_match_sequential_ones():
    jobs = [
        (SMALL, "alpha", [0.4, 0.8], ["baseline", "threshold", "matern"]),
        (CUSTOM[0], "n_sbs", [9, 16], ["threshold_individual", "threshold_universal"]),
    ]
    sequential = [sweep_to_csv(sweep(*job, workers=2)) for job in jobs]
    concurrent = [None] * len(jobs)

    def run(k):
        concurrent[k] = sweep_to_csv(sweep(*jobs[k], workers=2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert concurrent == sequential
    assert sim._sweep_store is None


# The report printed when the script ran each policy through its own
# run_scenario call, before it ran them as one sweep.
LOAD_REDUCTION_REPORT_3 = """\
n_sbs=48 alpha=0.6 replications=3
  baseline            hit 0.2347  load 0.7653
  threshold_coloring  hit 0.2909  load 0.7091  load reduction +7.34%
  matern_coloring     hit 0.2908  load 0.7092  load reduction +7.33%
"""


def test_load_reduction_report_is_unchanged_as_a_sweep():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "load_reduction_report.py"),
         "--replications", "3", "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == LOAD_REDUCTION_REPORT_3
