"""A sweep's shared stages: drawn once per replication seed, identical to fresh cells.

``sim.sweep`` keeps each replication's network, users, requests and access
pairs in a store that only the sweeping thread reaches, so that the cells
after the first at an axis value read them back. These tests pin that every
cell still equals an independent ``run_scenario`` of its config, that only
the cell the sweep is running reads the store, and that the store lives
exactly as long as its sweep and holds one axis value at a time.
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

# colors x memory exceeds the 60-file catalog, so coloring blocks wrap
# around, and each user makes two requests a round
WRAP = (
    dataclasses.replace(
        SMALL, cell_radius=150.0, file_count=60, memory=20, requests_per_round=2, replications=3,
    ),
    "n_sbs", [9, 16], ["baseline", "threshold", "matern"],
)
# every sweep token over interval ranges: a token that overrode an input of
# the shared stages would read another cell's draws and differ from its run
TOKENS = (
    dataclasses.replace(
        SMALL, cell_radius=150.0, sbs_range=None, sbs_range_min=40.0, sbs_range_max=90.0,
        requests_per_round=2, replications=3,
    ),
    "n_sbs", [6, 14], list(sim.POLICY_TOKENS),
)
CASES = {"custom": CUSTOM, "wrap": WRAP, "tokens": TOKENS}


def _store():
    """The store of the sweep this thread is running, or None."""
    return getattr(sim._sweeping, "store", None)


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
@pytest.mark.parametrize("case", ["fig3", "fig4", "fig5", "custom", "wrap", "tokens"])
def test_sweep_cells_equal_independent_runs(monkeypatch, case, workers):
    # a cell reads the stored pairs of every user-round; an independent run
    # draws the pairs of its live user-rounds only
    cfg, axis, values, policies = CASES[case] if case in CASES else _recipe(case)
    cells, calls = _recorded_sweep(monkeypatch, cfg, axis, values, policies, workers)
    # one run_scenario call per cell, in CSV order
    assert len(calls) == len(cells) == len(values) * len(policies)
    for cell, cfg_cell in zip(cells, calls):
        assert getattr(cfg_cell, axis) == cell.axis_value
        assert sim.POLICY_TOKENS[cell.policy][0] == cfg_cell.policy
        fresh = run_scenario(cfg_cell, workers=workers)
        assert cell.result.per_replication == fresh.per_replication
        assert cell.result.colors_used == fresh.colors_used
    if case == "wrap":
        assert max(max(c.result.colors_used) for c in cells) * cfg.memory > cfg.file_count


def test_runs_outside_a_sweep_pack_nothing(monkeypatch):
    # narrowing costs time; only a sweep, whose later cells read the store, may pay it
    def refuse(*args):
        raise AssertionError("narrowed or stored outside a sweep")

    monkeypatch.setattr(sim, "_narrow", refuse)
    monkeypatch.setattr(sim, "_read_only", refuse)
    run_scenario(dataclasses.replace(SMALL, policy="matern_coloring"), workers=2)
    sbs, ranges = sim.build_network(SMALL, sim.replication_seeds(SMALL.master_seed, 1)[0])
    assert sbs.xy.flags.writeable and ranges.ranges.flags.writeable


def test_store_is_dropped_after_a_sweep_and_runs_stay_fresh():
    before = run_scenario(SMALL)
    sweep(SMALL, "alpha", [0.4, 0.8], ["baseline", "matern"])
    assert _store() is None and sim._sweeping.cell is None
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
    assert _store() is None and sim._sweeping.cell is None
    assert run_scenario(dense) == before


def test_store_holds_one_key_in_minimal_dtypes(monkeypatch):
    # one axis value's replications at a time, each entry narrowed and read-only
    seen = []

    def inspect_store(cfg_cell):
        store = _store()
        assert store is not None and sim._sweeping.cell is cfg_cell
        seen.append((cfg_cell.n_sbs, store, sorted(store)))
        for entry in store.values():
            assert set(entry) == {"network", "rounds"}
            sbs, ranges = entry["network"]
            assert not sbs.xy.flags.writeable and not ranges.ranges.flags.writeable
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
    rows = list(range(cfg.replications))
    assert [(n, r) for n, _, r in seen] == [(6, rows), (6, rows), (30, rows), (30, rows)]
    # the cells at a value share a store; the next value starts a new one
    stores = [store for _, store, _ in seen]
    assert stores[0] is stores[1] and stores[2] is stores[3] and stores[1] is not stores[2]


def test_only_the_running_cell_reads_the_store(monkeypatch):
    # perfbench times each cell through a (cfg, workers) wrapper. Before each
    # cell, this one runs another config on the sweeping thread and the
    # cell's own config on a second thread: neither may store or read
    narrowed = []
    narrow = sim._narrow
    monkeypatch.setattr(sim, "_narrow", lambda a: narrowed.append(a) or narrow(a))
    other = dataclasses.replace(SMALL, n_users=150, policy="threshold_coloring")
    original = sim.run_scenario
    side = []

    def timed(cfg, workers=1):
        count = len(narrowed)
        here = original(other, workers=workers)
        there = []
        thread = threading.Thread(target=lambda: there.append(original(cfg, workers=workers)))
        thread.start()
        thread.join(timeout=60)
        assert len(narrowed) == count
        side.append((other, here))
        side.append((dataclasses.replace(cfg), there[0]))
        return original(cfg, workers=workers)

    monkeypatch.setattr(sim, "run_scenario", timed)
    cells = sweep(SMALL, "n_sbs", [6, 30], ["baseline", "matern"])
    monkeypatch.setattr(sim, "run_scenario", original)
    assert narrowed, "the sweep's own cells stored nothing"
    assert len(side) == 2 * len(cells)
    for cfg_side, result in side:
        assert result == run_scenario(cfg_side)
    alone = sweep(SMALL, "n_sbs", [6, 30], ["baseline", "matern"])
    assert sweep_to_csv(cells) == sweep_to_csv(alone)


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
    assert _store() is None


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
