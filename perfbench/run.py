#!/usr/bin/env python3
"""Benchmark of the sbscache simulator: timed per policy, traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk_fig3 --seed 1 --seconds 25 --trace 0

It drives the simulator from ``src/`` through its public entry points
(``cli.main``, ``cli.parse_config_file`` and ``sim.run_scenario``), repeats
the workload in passes until ``--seconds`` are used, and checks every
pass's results. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs traced passes (see ``spans.py``) and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON object ``{"detail": ...}`` with the result digests and the
trace's bookkeeping. Metric definitions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

# Policy names as the simulator reports them -> short metric suffix, in the
# order each pass runs them.
POLICIES = {"baseline": "baseline", "threshold_coloring": "threshold", "matern_coloring": "matern"}

FIG3_REPLICATIONS = 20
SETUP_SAMPLES = 21
# A workload is skipped when its dense access arrays would need more than
# this share of the memory available; the rest is left for the arrays each
# round derives from them.
MEMORY_SHARE = 0.5
# A traced pass fails when its replications take less than this share of
# its wall time: the rest is time no span accounts for.
MIN_COVERAGE = 0.95
# Stop starting passes once one more could end past this many seconds, so
# that a run ends well within its 180 s limit whatever --seconds says.
HARD_LIMIT_S = 120.0

# Prints the wall clock once sbscache is imported and the config parsed.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from sbscache import cli\n"
    "cli.parse_config_file(sys.argv[2], {'master_seed': sys.argv[3]})\n"
    "print(repr(time.time()))\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    workers: int  # replication threads of a timed pass
    sweep: bool  # run as `sbscache sweep --recipe fig3`; else each policy via run_scenario


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_fig3", "configs/cell350.cfg", workers=2, sweep=True),
        Workload("dense_placement", "perfbench/configs/dense_placement.cfg", workers=1, sweep=False),
        Workload("metro", "perfbench/configs/metro.cfg", workers=1, sweep=False),
    )
}


@dataclass
class Pass:
    """One execution of a workload and what it produced."""

    kind: str  # "plain" or "traced"
    wall: float = 0.0
    seconds: dict = field(default_factory=dict)  # policy suffix -> s in run_scenario
    reps: dict = field(default_factory=dict)  # policy suffix -> replications done
    rows: list = field(default_factory=list)  # (hit_rate, colors_used), replication order
    csv: str | None = None
    cells: int = 0  # sweep cells, so CSV rows expected
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    tracer: spans.Tracer | None = None
    absent: list = field(default_factory=list)  # names the tracer found missing

    def add(self, policy: str, seconds: float, result) -> None:
        key = POLICIES.get(policy, policy)
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.reps[key] = self.reps.get(key, 0) + len(result.per_replication)
        self.rows.extend(zip(result.per_replication, result.colors_used))

    def digest(self) -> dict:
        text = "\n".join(f"{float(h)!r},{int(c)!r}" for h, c in self.rows)
        out = {"reps": hashlib.sha256(text.encode()).hexdigest()}
        if self.csv is not None:
            out["csv"] = hashlib.sha256(self.csv.encode()).hexdigest()
        return out


def fig3_cells(cli) -> int:
    _, values, policies, _ = cli.RECIPES["fig3"]
    return len(values) * len(policies)


def sweep_pass(p: Pass, wl: Workload, seed: int, workers: int, sim, cli) -> None:
    """The fig3 sweep through the CLI, timing each run_scenario call it makes."""
    run_scenario = sim.run_scenario

    def timed(cfg, workers=1):
        t0 = time.perf_counter()
        result = run_scenario(cfg, workers=workers)
        p.add(cfg.policy, time.perf_counter() - t0, result)
        return result

    argv = [
        "sweep", str(ROOT / wl.config), "--recipe", "fig3",
        "--replications", str(FIG3_REPLICATIONS), "--master_seed", str(seed),
        "--workers", str(workers),
    ]
    out = io.StringIO()
    p.cells = fig3_cells(cli)
    p.attempted = p.cells * FIG3_REPLICATIONS
    sim.run_scenario = timed
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        p.wall = time.perf_counter() - t0
    finally:
        sim.run_scenario = run_scenario
    p.csv = out.getvalue()
    if rc != 0:
        p.errors.append(f"sbscache sweep exited with {rc}")
        p.failed = p.attempted - sum(p.reps.values())


def scenario_pass(p: Pass, wl: Workload, seed: int, workers: int, sim, cli) -> None:
    """Each policy in turn: parse the config through the CLI, then run_scenario."""
    t_start = time.perf_counter()
    for policy in POLICIES:
        cfg = cli.parse_config_file(str(ROOT / wl.config), {"policy": policy, "master_seed": str(seed)})
        p.attempted += cfg.replications
        t0 = time.perf_counter()
        try:
            result = sim.run_scenario(cfg, workers=workers)
        except sim.ReplicationError as exc:
            p.errors.append(f"{policy}: {exc}")
            p.failed += cfg.replications
            continue
        p.add(policy, time.perf_counter() - t0, result)
    p.wall = time.perf_counter() - t_start


def check_pass(p: Pass) -> None:
    """Invariants any correct result meets, whatever the seed."""
    for i, (hit, colors) in enumerate(p.rows):
        if not 0.0 <= hit <= 1.0 or colors < 1:
            p.errors.append(f"replication {i}: hit rate {hit!r}, colors {colors!r} out of range")
            break
    if p.csv is not None and not p.failed:
        lines = p.csv.splitlines()
        if len(lines) != p.cells + 1:
            p.errors.append(f"sweep CSV has {len(lines) - 1} rows, expected {p.cells}")
            return
        for line, start in zip(lines[1:], range(0, len(p.rows), FIG3_REPLICATIONS)):
            cols = line.split(",")
            hits = [h for h, _ in p.rows[start:start + FIG3_REPLICATIONS]]
            if abs(float(cols[3]) - statistics.fmean(hits)) > 1e-12 or int(cols[7]) != len(hits):
                p.errors.append(f"sweep CSV row {line!r} disagrees with its replications")
                return


def run_pass(kind: str, wl: Workload, seed: int, workers: int, modules: dict) -> Pass:
    p = Pass(kind)
    undo = []
    if kind == "traced":
        p.tracer = spans.Tracer()
        undo, p.absent = p.tracer.install(modules)
    try:
        runner = sweep_pass if wl.sweep else scenario_pass
        runner(p, wl, seed, workers, modules["sim"], modules["cli"])
    finally:
        spans.Tracer.uninstall(undo)
    check_pass(p)
    return p


def run_passes(kinds, min_passes: int, seconds: float, make_pass) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    for kind in kinds:
        passes.append(make_pass(kind))
        next_end = time.perf_counter() - start + passes[-1].wall
        if len(passes) >= min_passes and (next_end > seconds or next_end > HARD_LIMIT_S):
            return passes
    return passes


def measure_setup(wl: Workload, seed: int) -> float:
    """Time from spawning a fresh interpreter until it has imported sbscache
    and parsed the config, as the lower quartile of SETUP_SAMPLES spawns.

    The child's exit is not timed. Host noise only ever adds time, so the
    lower quartile is steadier than the median and still not a lucky best.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(ROOT / wl.config), str(seed)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        ).stdout
        samples.append(float(out.split()[-1]) - t0)
    return statistics.quantiles(samples, n=4)[0]


def memory_guard(wl: Workload, cfg, cli) -> str | None:
    """Reason to skip the workload, or None when its access arrays fit."""
    n_sbs = max(cli.RECIPES["fig3"][1]) if wl.sweep else cfg.n_sbs
    need = cfg.n_users * n_sbs * spans.ACCESS_BYTES_PER_PAIR * wl.workers
    avail = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > MEMORY_SHARE * avail:
        return f"dense access arrays need {need} B, over {MEMORY_SHARE} of {avail} B available"
    return None


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it, as (label, value)."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 11
    if 2 * (k + 1) < n:  # no percentile from the median up has ten samples above it
        return f"max of n={n}", xs[-1]
    return f"p{100.0 * (k + 1) / n:.1f} of n={n}", xs[k]


def verify_digests(wl: Workload, seed: int, passes: list[Pass]) -> tuple[dict, str]:
    """Every pass must give the first pass's digest, and the recorded one if any."""
    recorded = {}
    if DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(seed), {})
    good = [p for p in passes if not p.failed and not p.errors]
    if not good:
        return {}, "no pass completed"
    reference = good[0].digest()
    if not recorded:
        status = "unrecorded"
    else:
        status = "match" if reference == recorded else "mismatch"
    for p in good:
        if status == "mismatch" or p.digest() != reference:
            p.errors.append(f"digest {p.digest()} differs from {recorded or reference}")
    return reference, status


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seed: int, seconds: float, modules: dict) -> tuple[list[Pass], dict]:
    setup_s = measure_setup(wl, seed)
    passes = run_passes(
        itertools.repeat("plain"), 1, seconds,
        lambda kind: run_pass(kind, wl, seed, wl.workers, modules),
    )
    ok = [p for p in passes if not p.failed and not p.errors] or passes
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(p.wall for p in ok), "s"),
    }
    for key in POLICIES.values():
        # Throughput over all passes: one policy's share of a pass can be a
        # fraction of a second, too short to be steady on its own.
        busy = sum(p.seconds.get(key, 0.0) for p in ok)
        if busy:
            metrics[f"reps_per_s.{key}"] = metric(sum(p.reps.get(key, 0) for p in ok) / busy, "1/s")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return passes, metrics


def per_layer(wl: Workload, seed: int, seconds: float, modules: dict) -> tuple[list[Pass], dict, dict]:
    # Untraced and traced passes alternate, all on one thread, so that each
    # traced pass compares with the untraced pass just before it.
    kinds = itertools.cycle(["plain", "traced"])
    passes = run_passes(kinds, 4, seconds, lambda kind: run_pass(kind, wl, seed, 1, modules))
    traced = [p for p in passes if p.kind == "traced"]
    counts = [dict(p.tracer.counts) for p in traced]
    if any(c != counts[0] for c in counts):
        raise SystemExit(f"perfbench: traced passes disagree on exact counts: {counts}")
    coverage = [p.tracer.replication_total_s() / p.wall for p in traced]
    timed_reps = "sim.run_replication" in traced[0].tracer.installed
    if timed_reps and min(coverage) < MIN_COVERAGE:
        # The spans account for a replication's time by construction; what
        # they can miss is time spent outside sim.run_replication.
        raise SystemExit(
            f"perfbench: replications cover only {min(coverage):.3f} of a traced pass's wall time, "
            f"under {MIN_COVERAGE}"
        )

    metrics = {}
    ms_by_pass = [p.tracer.per_rep_ms() for p in traced]
    for name in ms_by_pass[0]:
        metrics[name] = metric(statistics.median(m[name] for m in ms_by_pass), "ms")
    rep_ms = [s * 1000.0 for p in traced for s in p.tracer.rep_s]
    tail_label = "no replications traced"
    if rep_ms:
        tail_label, tail_ms = tail(rep_ms)
        metrics["sim.rep_ms.p50"] = metric(statistics.median(rep_ms), "ms")
        metrics["sim.rep_ms.tail"] = metric(tail_ms, "ms")
    if "cli.parse_config_text" in traced[0].tracer.installed:
        metrics[spans.PARSE] = metric(statistics.median(p.tracer.parse_ms() for p in traced), "ms")
    for name, (value, unit) in traced[0].tracer.count_metrics().items():
        metrics[name] = metric(value, unit)
    pairs = zip(passes[0::2], passes[1::2])  # (untraced, traced)
    metrics["trace.overhead"] = metric(statistics.median(t.wall / p.wall - 1.0 for p, t in pairs), "ratio")
    if timed_reps:
        metrics["trace.coverage"] = metric(statistics.median(coverage), "ratio")
    last = traced[-1].tracer
    detail = {
        "wrapped": spans.wrapped_names(),
        "absent": traced[0].absent,
        "hook_errors": sorted({e for p in traced for e in p.tracer.hook_errors}),
        "rep_ms_tail": tail_label,
        spans.WRAPAROUND: counts[0].get(spans.WRAPAROUND, 0),
        "policy_shares": last.policy_shares(),
    }
    return passes, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    for needed in (SRC / "sbscache" / "__init__.py", ROOT / wl.config):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    sys.path.insert(0, str(SRC))
    from sbscache import classify, cli, sim

    modules = {"sim": sim, "classify": classify, "cli": cli}
    cfg = cli.parse_config_file(str(ROOT / wl.config), {"master_seed": str(args.seed)})
    detail = {"workload": wl.name, "seed": args.seed}
    skipped = memory_guard(wl, cfg, cli)
    if skipped:
        # Count one pass's replications as skipped instead of exhausting memory.
        if wl.sweep:
            attempted = fig3_cells(cli) * FIG3_REPLICATIONS
        else:
            attempted = cfg.replications * len(POLICIES)
        detail.update(skipped=skipped, failed_share=1.0)
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 0

    if args.trace:
        passes, metrics, trace_detail = per_layer(wl, args.seed, args.seconds, modules)
        detail.update(trace_detail)
    else:
        passes, metrics = end_to_end(wl, args.seed, args.seconds, modules)
    digest, status = verify_digests(wl, args.seed, passes)

    attempted = sum(p.attempted for p in passes)
    failed = 0
    for p in passes:
        # A pass whose results fail a check counts all its replications as failed.
        failed += p.attempted if p.errors else p.failed
    errors = sorted({e for p in passes for e in p.errors})
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    detail.update(
        digest=digest,
        digest_status=status,
        passes=[[p.kind, p.wall] for p in passes],
        failed_share=failed / attempted,
        errors=errors,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not errors and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
