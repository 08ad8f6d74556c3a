"""A sweep's shared stages: drawn once per replication seed, identical to fresh cells.

``sim.sweep`` keeps each replication's users, ranks, network, placements
and access pairs in a store: in the sweeping thread on one worker, and with
several in the worker process that runs that seed for the whole sweep. Each
stage is drawn once per seed and per value of the axis fields it reads, and
the cells after read it back. These tests pin that every cell still equals
an independent ``run_scenario`` of its config, that only the cell the sweep
is running reads the store, that each stage is drawn once per seed and
value, and that the store lives exactly as long as its sweep and holds one
value of each stage's axis fields at a time. What happens in a worker
process is written to a ``process_log`` and checked in the test's process.

A failure in a worker reaches the caller as it does on one worker, and no
worker process outlives its sweep or run.
"""

import dataclasses
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from multiprocessing.context import ForkProcess
from pathlib import Path

import numpy as np
import pytest

from sbscache import cli, sim
from sbscache.classify import ConvergenceError
from sbscache.placement import color_table
from sbscache.popularity import Catalog
from sbscache.sim import ReplicationError, ScenarioConfig, run_scenario, sweep, sweep_to_csv

ROOT = Path(__file__).resolve().parents[1]
CELL350 = ROOT / "configs" / "cell350.cfg"

SMALL = ScenarioConfig(
    n_sbs=12, n_users=200, n_rounds=3, replications=4, master_seed=99,
    file_count=200, memory=20,
)
# threshold modes differ only in the placement, over interval ranges, with
# several requests per user
CUSTOM = (
    dataclasses.replace(
        SMALL, cell_radius=150.0, sbs_range=None, sbs_range_min=40.0, sbs_range_max=90.0,
        requests_per_round=3, replications=3,
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

# a mid-distance pair cannot converge in one Matern iteration, so under the
# ``one_matern_iteration`` fixture replication 2 of the Matern placement fails
DENSE = ScenarioConfig(
    n_sbs=2, cell_radius=30.0, sbs_range=80.0, r_class=25.0,
    n_users=10, n_rounds=1, replications=3, master_seed=2,
)


def _store():
    """The store of the sweep this thread is running, or None."""
    return getattr(sim._sweeping, "store", None)


def _recipe(name):
    axis, values, policies, presets = cli.RECIPES[name]
    cfg = dataclasses.replace(cli.parse_config_file(str(CELL350)), replications=3, **presets)
    return cfg, axis, values, policies


def _recorded_sweep(monkeypatch, cfg, axis, values, policies, workers):
    """Run a sweep, recording each run_scenario call's config in order."""
    calls = []
    original = sim.run_scenario

    def recording(cfg_cell, workers=1):
        calls.append(cfg_cell)
        return original(cfg_cell, workers=workers)

    monkeypatch.setattr(sim, "run_scenario", recording)
    cells = sweep(cfg, axis, values, policies, workers=workers)
    monkeypatch.setattr(sim, "run_scenario", original)
    return cells, calls


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["fig3", "fig4", "fig5", "custom", "wrap", "tokens"])
def test_sweep_cells_equal_independent_runs(monkeypatch, case, workers):
    # a cell reads the stored pairs of the user-rounds with a rank that some
    # cell caches, from one ungrouped call, and its placement, built by the
    # first cell at its n_sbs; an independent run queries each live
    # user-round once per color that caches one of its ranks, against that
    # color's stations only
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
    assert sbs.xy.flags.writeable and ranges.flags.writeable


def test_store_is_dropped_after_a_sweep_and_runs_stay_fresh():
    before = run_scenario(SMALL)
    sweep(SMALL, "alpha", [0.4, 0.8], ["baseline", "matern"])
    assert _store() is None and sim._sweeping.cell is None
    assert run_scenario(SMALL) == before


def test_store_is_dropped_after_a_failed_sweep(one_matern_iteration):
    before = run_scenario(DENSE)
    for workers in (1, 2):
        # the baseline cell builds the Matern placement, and the error names it
        with pytest.raises(ReplicationError, match="matern_coloring placement") as err:
            sweep(DENSE, "n_sbs", [2], ["baseline", "matern"], workers=workers)
        assert isinstance(err.value.__cause__.__cause__, ConvergenceError)
        assert _store() is None and sim._sweeping.cell is None
        assert multiprocessing.active_children() == []
        assert run_scenario(DENSE) == before


def test_store_holds_one_key_in_minimal_dtypes(monkeypatch, process_log):
    # one store for the whole sweep; each stage holds one value of the axis
    # fields it reads, in its smallest dtype, read-only. The check runs after
    # each replication, in the process that ran it and holds its seed's
    # entry; a failed check raises from the sweep as the replication's error
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # fork on any host
    original = sim.run_replication
    first = {}  # seed index -> its entry, users and network at the first cell, per process

    def inspect_entry(cfg_cell, rep_seed, catalog, entry):
        result = original(cfg_cell, rep_seed, catalog, entry)
        assert set(entry) == {"policies", "users", "ranks", "network", "pairs"}
        assert entry["policies"] == [("baseline", "individual"), ("threshold_coloring", "individual")]
        key, network = entry["network"]
        sbs, ranges, placements, cached = network
        assert key == cfg_cell.n_sbs
        assert not sbs.xy.flags.writeable and not ranges.flags.writeable
        assert set(placements) == set(entry["policies"])
        tables = [color_table(p) for p in placements.values()]
        assert cached.tolist() == np.any([t.any(axis=0) for t in tables], axis=0).tolist()
        # 16 B per user-round, whatever the axis value
        key, xy = entry["users"]
        assert xy.shape == (cfg_cell.n_rounds * cfg_cell.n_users, 2) and xy.dtype == np.float64
        assert not xy.flags.writeable
        key, ranks = entry["ranks"]
        assert key == cfg_cell.alpha
        assert ranks.shape == (xy.shape[0], cfg_cell.requests_per_round)
        # only the pairs of the value the cell runs at
        key, (u, j) = entry["pairs"]
        assert key == (cfg_cell.n_sbs, cfg_cell.alpha)
        for a in (u, j, ranks):
            assert a.dtype == np.min_scalar_type(a.max(initial=0))
            assert not a.flags.writeable
        assert u.size == j.size
        assert set(u.tolist()) <= set(np.flatnonzero(cached[ranks - 1].any(axis=1)).tolist())
        i = rep_seed.spawn_key[-1]
        seen = first.setdefault(i, (entry, xy, network))
        same = (entry is seen[0], xy is seen[1], network is seen[2])
        process_log.write(f"{i} {os.getpid()} {' '.join(map(str, same))}")
        return result

    monkeypatch.setattr(sim, "run_replication", inspect_entry)
    cfg = dataclasses.replace(SMALL, requests_per_round=2)
    sweeps = (("n_sbs", [6, 30]), ("alpha", [0.4, 0.8]))
    for workers, (axis, values) in itertools.product((1, 2), sweeps):
        first.clear()
        start = len(process_log.lines())
        sweep(cfg, axis, values, ["baseline", "threshold"], workers=workers)
        pids, same = defaultdict(set), defaultdict(list)
        for line in process_log.lines()[start:]:
            i, pid, *flags = line.split()
            pids[int(i)].add(int(pid))
            same[int(i)].append(flags)
        assert sorted(same) == list(range(cfg.replications))
        # one process holds each seed's entry for the whole sweep: this one
        # on one worker, and worker i mod 2 on two
        assert all(len(p) == 1 for p in pids.values())
        owner = [pids[i].pop() for i in range(cfg.replications)]
        if workers == 1:
            assert owner == [os.getpid()] * cfg.replications
        else:
            assert os.getpid() not in owner and owner[0] != owner[1]
            assert owner == [owner[i % 2] for i in range(cfg.replications)]
        for flags in same.values():
            entries, users, networks = zip(*flags)
            # one store entry and one user draw per seed serve every cell
            assert entries == users == ("True",) * 4
            # a network per n_sbs value, shared by the cells at it
            expected = ["True", "True", "False", "False"] if axis == "n_sbs" else ["True"] * 4
            assert list(networks) == expected


# Per seed in a 3-replication sweep: (networks, classifications, rank
# draws, user draws). fig4's six alpha values share one network, Matern
# classification and user draw per seed; fig3's four station counts share
# the user and rank draws.
STAGE_CALLS = {"fig4": (1, 1, 6, 1), "fig3": (4, 4, 1, 1)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("recipe", list(STAGE_CALLS))
def test_each_stage_is_drawn_once_per_seed_and_value(monkeypatch, process_log, recipe, workers):
    def counting(name):
        original = getattr(sim, name)

        def wrapper(*args, **kwargs):
            process_log.write(name)  # from whichever process draws the stage
            return original(*args, **kwargs)

        monkeypatch.setattr(sim, name, wrapper)

    stages = ("build_network", "classify_and_weigh", "sample_requests", "sample_binomial_disk")
    for name in stages:
        counting(name)
    cfg, axis, values, policies = _recipe(recipe)
    sweep(cfg, axis, values, policies, workers=workers)
    counts = Counter(process_log.lines())
    # build_network draws its stations through sample_binomial_disk
    counts["sample_binomial_disk"] -= counts["build_network"]
    assert tuple(counts[name] for name in stages) == tuple(
        cfg.replications * n for n in STAGE_CALLS[recipe]
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_builds_one_catalog_per_file_count_and_alpha(monkeypatch, process_log, workers):
    def counting_catalog(*args):
        process_log.write(repr(args))
        return Catalog(*args)

    monkeypatch.setattr(sim, "Catalog", counting_catalog)
    for recipe in ("fig3", "fig4"):
        cfg, axis, values, policies = _recipe(recipe)
        start = len(process_log.lines())
        sweep(cfg, axis, values, policies, workers=workers)
        alphas = values if axis == "alpha" else [cfg.alpha]
        assert process_log.lines()[start:] == [repr((cfg.file_count, a)) for a in alphas]


def _chain(exc):
    """Each exception of a ``__cause__`` chain as (type, message, index)."""
    out = []
    while exc is not None:
        out.append((type(exc), str(exc), getattr(exc, "index", None)))
        exc = exc.__cause__
    return out


def test_worker_errors_arrive_as_on_one_worker(monkeypatch, one_matern_iteration):
    # the sweep succeeds without the Matern cell; with it, the sweep and a
    # run outside a sweep raise the same error, cause chain and index on 1
    # and 2 workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    runs = [sweep(DENSE, "n_sbs", [2], ["baseline", "threshold"], workers=w) for w in (1, 2)]
    assert sweep_to_csv(runs[0]) == sweep_to_csv(runs[1])
    assert multiprocessing.active_children() == []
    calls = (
        lambda w: sweep(DENSE, "n_sbs", [2], ["baseline", "matern"], workers=w),
        lambda w: run_scenario(dataclasses.replace(DENSE, policy="matern_coloring"), workers=w),
    )
    for call in calls:
        errors = []
        for workers in (1, 2):
            with pytest.raises(ReplicationError) as err:
                call(workers)
            errors.append(_chain(err.value))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]
        assert errors[0][0][0] is ReplicationError and errors[0][0][2] == 2
        assert errors[0][-1][0] is ConvergenceError


def test_the_lowest_failed_replication_raises(monkeypatch):
    # on 2 workers, worker 0 fails at replication 2 and worker 1 at 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    original = sim.run_replication

    def failing(cfg, rep_seed, catalog, stored=None):
        i = rep_seed.spawn_key[-1]
        if i in (1, 2):
            raise ValueError(f"planted failure in replication {i}")
        return original(cfg, rep_seed, catalog, stored)

    monkeypatch.setattr(sim, "run_replication", failing)
    for workers in (1, 2):
        with pytest.raises(ReplicationError, match="planted failure in replication 1") as err:
            run_scenario(DENSE, workers=workers)
        assert err.value.index == 1 and isinstance(err.value.__cause__, ValueError)
        assert multiprocessing.active_children() == []


def test_a_dead_worker_names_its_replications(monkeypatch):
    # worker 1 of 2 runs replication 1 alone and exits in the middle of it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    original = sim.run_replication

    def dying(cfg, rep_seed, catalog, stored=None):
        if os.getpid() != parent and rep_seed.spawn_key[-1] == 1:
            os._exit(7)
        return original(cfg, rep_seed, catalog, stored)

    monkeypatch.setattr(sim, "run_replication", dying)
    for run in (lambda: sweep(DENSE, "n_sbs", [2, 3], ["baseline"], workers=2),
                lambda: run_scenario(DENSE, workers=2)):
        lost = r"replications 1 \(master_seed=2\) were lost"
        with pytest.raises(ReplicationError, match=lost) as err:
            run()
        assert err.value.index == 1 and "exited with code 7" in str(err.value)
        assert multiprocessing.active_children() == []


def test_forks_at_most_one_worker_per_cpu_and_replication(monkeypatch, capsys):
    # a huge --workers forks min(replications, CPUs) processes per run and
    # per sweep; the counter fails the second run before it starts more
    cfg = dataclasses.replace(SMALL, replications=3)
    cap = min(cfg.replications, len(os.sched_getaffinity(0)))
    started = []
    start = ForkProcess.start

    def counting_start(self):
        started.append(self)
        assert len(started) <= 2 * cap, "forked more workers than replications or CPUs"
        start(self)

    monkeypatch.setattr(ForkProcess, "start", counting_start)
    huge = str(10**9)
    args = ["run", str(CELL350), "--replications", "3", "--n_users", "200"]
    outputs = []
    for workers in ("1", huge):
        assert cli.main(args + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    serial = sweep(cfg, "alpha", [0.4, 0.8], ["baseline", "matern"])
    wide = sweep(cfg, "alpha", [0.4, 0.8], ["baseline", "matern"], workers=10**9)
    assert sweep_to_csv(wide) == sweep_to_csv(serial)
    assert len(started) == (2 * cap if cap > 1 else 0)
    assert multiprocessing.active_children() == []


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
