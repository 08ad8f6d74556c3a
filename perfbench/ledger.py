#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep the numbers as a ledger.

From the repository root:

    python3 perfbench/ledger.py --tag seed --seeds 1-10 --trace-seeds 1-3

It calls ``perfbench/run.py`` once per workload and seed, with the
run length from BENCHMARK.json, and writes ``perfbench/BENCH_<tag>.json``:
every value, the median and quartiles of each metric, the end-to-end
spread (quartile distance over median) against the metric's bound, and
the per-policy layer shares of the traced runs. ``--record-digests`` adds
the result digests of seeds not yet in ``perfbench/digests.json``; a seed
already there is checked by run.py itself and never rewritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = BENCH / "digests.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summary(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def aggregate(runs: list[dict], kind: str) -> dict:
    specs = {m["name"]: m for m in SPEC[kind]}
    out = {}
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not values:
            continue
        entry = {"unit": spec["unit"], "better": spec["better"], **summary(values)}
        if "bound" in spec:
            entry["bound"] = spec["bound"]
            if entry.get("spread") is not None:
                entry["spread_within_bound"] = entry["spread"] <= spec["bound"]
        out[name] = entry
    return out


def policy_shares(traced: list[dict]) -> dict:
    """Median over seeds of each policy's share of replication time per metric."""
    collected: dict = {}
    for r in traced:
        for policy, shares in r["detail"].get("policy_shares", {}).items():
            for name, share in shares.items():
                collected.setdefault(policy, {}).setdefault(name, []).append(share)
    return {p: {m: statistics.median(v) for m, v in sorted(by.items())} for p, by in collected.items()}


def run(ns) -> int:
    ledger = {
        "tag": ns.tag,
        "command": SPEC["command"],
        "run_seconds": SPEC["run_seconds"],
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "workloads": {},
    }
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for w in (w["name"] for w in SPEC["workloads"]):
        timed, traced = [], []
        for trace, seeds, into in ((0, parse_seeds(ns.seeds), timed), (1, parse_seeds(ns.trace_seeds), traced)):
            for seed in seeds:
                r = run_once(w, seed, trace)
                into.append(r)
                d = r["detail"]
                print(f"{w} seed={seed} trace={trace} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} digest={d['digest_status']}", file=sys.stderr)
                if ns.record_digests and r["correct"] and d["digest_status"] == "unrecorded":
                    digests.setdefault(w, {})[str(seed)] = d["digest"]
        ledger["workloads"][w] = {
            "runs": [{"seed": r["detail"]["seed"], "trace": t, "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "digest": r["detail"]["digest"], "digest_status": r["detail"]["digest_status"]}
                     for t, rs in ((0, timed), (1, traced)) for r in rs],
            "end_to_end": aggregate(timed, "end_to_end"),
            "per_layer": aggregate(traced, "per_layer"),
            "policy_shares": policy_shares(traced),
        }
    out = Path(ns.out) if ns.out else BENCH / f"BENCH_{ns.tag}.json"
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    if ns.record_digests:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    for w, entry in ledger["workloads"].items():
        for name, m in entry["end_to_end"].items():
            spread = m.get("spread")
            flag = "" if m.get("spread_within_bound", True) else "  SPREAD OVER BOUND"
            print(f"{w:16s} {name:22s} median {m['median']:.6g} {m['unit']:5s} "
                  f"spread {spread if spread is None else round(spread, 4)} bound {m['bound']}{flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10", help="seeds of the timed runs, e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace-seeds", default="1-3", help="seeds of the traced runs")
    parser.add_argument("--out", help="ledger path (default: perfbench/BENCH_<tag>.json)")
    parser.add_argument("--record-digests", action="store_true")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
