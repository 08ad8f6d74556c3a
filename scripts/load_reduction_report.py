#!/usr/bin/env python3
"""Measure how much macro-station load the coloring policies save.

Runs baseline, threshold coloring, and Matern-class coloring on paired seeds
at the default cell scale and prints hit rates, loads, and the relative load
reduction of each policy. The three policies run as one sweep over a single
station count, so each replication's network, users and requests are drawn
once and shared by the three.
"""

import argparse

from sbscache.sim import ScenarioConfig, mbs_load_reduction, sweep

POLICIES = ("baseline", "threshold_coloring", "matern_coloring")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-sbs", type=int, default=48)
    ap.add_argument("--alpha", type=float, default=0.6)
    ap.add_argument("--replications", type=int, default=60)
    ap.add_argument("--workers", type=int, default=8)
    ap.add_argument("--master-seed", type=int, default=20260808)
    args = ap.parse_args()

    cfg = ScenarioConfig(
        alpha=args.alpha,
        replications=args.replications,
        master_seed=args.master_seed,
    )
    cells = sweep(cfg, "n_sbs", [args.n_sbs], POLICIES, workers=args.workers)
    base, *colored = (c.result for c in cells)
    print(f"n_sbs={args.n_sbs} alpha={args.alpha} replications={args.replications}")
    print(f"  baseline            hit {base.mean_hit_rate:.4f}  load {base.mbs_load:.4f}")
    for policy, res in zip(POLICIES[1:], colored):
        cut = mbs_load_reduction(res, base)
        print(
            f"  {policy:<19} hit {res.mean_hit_rate:.4f}  load {res.mbs_load:.4f}  "
            f"load reduction {cut:+.2%}"
        )


if __name__ == "__main__":
    main()
