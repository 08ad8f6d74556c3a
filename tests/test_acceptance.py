"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is seeded, so reruns are bit-identical. Criteria 5-7 run the
full cell-scale experiment (350 m cell, 80 m ranges, 1000 users, 1000 files,
50-file caches) once per figure and share the tables across criteria.
Criteria 6 and 7 check those tables against an exact expected-hit oracle
computed on the same networks and placements.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from sbscache.cli import main
from sbscache.coloring import greedy_color_by_degree, greedy_color_by_weight
from sbscache.classify import matern_type_i, matern_type_ii
from sbscache.geometry import pairs_within, sample_binomial_disk
from sbscache.netgraph import SimpleGraph, threshold_graph
from sbscache.placement import place_by_coloring, place_most_popular, placement_matrix
from sbscache.popularity import Catalog, sample_requests
from sbscache.sim import (
    ScenarioConfig,
    build_network,
    mbs_load_reduction,
    replication_seeds,
    run_scenario,
    sweep,
)

from oracles import (
    chromatic_number_enumeration,
    clique_number,
    exact_min_coloring,
    expected_hit_oracle,
    independence_number,
    is_proper,
    max_degree,
    min_pairwise_distance,
    random_simple_graph,
    top_mass,
    zipf_pmf,
)

ACCEPT_SEED = 20260808
WORKERS = 2
POLICY_LABELS = ("baseline", "threshold_coloring", "matern_coloring")
FIG4_ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
PAPER_LOAD_REDUCTION = 0.25  # the paper's figure for "a typical considered SBSs network"

CELL_SCALE = ScenarioConfig(
    cell_radius=350.0,
    sbs_range=80.0,
    n_users=1000,
    file_count=1000,
    memory=50,
    alpha=0.6,
    n_rounds=10,
    requests_per_round=1,
    replications=60,
    master_seed=ACCEPT_SEED,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fig3_table():
    t0 = time.perf_counter()
    cells = sweep(
        CELL_SCALE, "n_sbs", [16, 32, 48, 64],
        ["baseline", "threshold_coloring", "matern_coloring"], workers=WORKERS,
    )
    table = {}
    for c in cells:
        table.setdefault(c.axis_value, {})[c.policy] = c.result
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig4_table():
    t0 = time.perf_counter()
    cfg = dataclasses.replace(CELL_SCALE, n_sbs=48)
    cells = sweep(cfg, "alpha", FIG4_ALPHAS, POLICY_LABELS, workers=WORKERS)
    table = {}
    for c in cells:
        table.setdefault(c.axis_value, {})[c.policy] = c.result
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def oracle_table():
    """Oracle hit rates and coverage ceilings at 48 SBSs, averaged over replications.

    fig3 at 48 SBSs and fig4 at every alpha run the same networks (same
    config and master seed), so one pass serves both figures.
    """
    cfg = dataclasses.replace(CELL_SCALE, n_sbs=48)
    per_rep = [
        expected_hit_oracle(cfg, seed, POLICY_LABELS, FIG4_ALPHAS)
        for seed in replication_seeds(cfg.master_seed, cfg.replications)
    ]
    hits = {key: float(np.mean([h[key] for h, _ in per_rep])) for key in per_rep[0][0]}
    ceilings = {a: float(np.mean([c[a] for _, c in per_rep])) for a in FIG4_ALPHAS}
    return hits, ceilings


def _oracle_z(result, expected: float, cfg: ScenarioConfig) -> float:
    """Simulated mean hit rate minus the oracle's, in binomial standard errors.

    Given the networks, every request is an independent Bernoulli draw, so
    sqrt(p(1-p)/N) over the N requests of all replications bounds the SE.
    """
    n_requests = cfg.replications * cfg.n_rounds * cfg.n_users * cfg.requests_per_round
    return (result.mean_hit_rate - expected) / math.sqrt(expected * (1 - expected) / n_requests)


def _paired_margin(policy, base) -> float:
    return float(np.mean(np.array(policy.per_replication) - np.array(base.per_replication)))


def test_criterion_1_coloring_correctness():
    """Greedy properness and bounds, exact chromatic numbers vs enumeration."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    probabilities = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    graphs = 0
    brute_checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        g = random_simple_graph(rng, n, float(rng.choice(probabilities)))
        graphs += 1
        delta = max_degree(g)

        c_deg = greedy_color_by_degree(g)
        c_wgt = greedy_color_by_weight(g, rng.integers(0, 10, n))
        assert is_proper(g, c_deg) and c_deg.k <= delta + 1
        assert is_proper(g, c_wgt) and c_wgt.k <= delta + 1

        c_exact = exact_min_coloring(g)
        assert is_proper(g, c_exact)
        omega, alpha_g = clique_number(g), independence_number(g)
        assert omega <= c_exact.k <= delta + 1
        assert c_exact.k >= math.ceil(n / alpha_g)
        assert c_deg.k >= c_exact.k and c_wgt.k >= c_exact.k

        if n <= 9:
            assert c_exact.k == chromatic_number_enumeration(g)
            brute_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    _report(
        1, True,
        f"{graphs} random graphs, {brute_checked} brute-force chromatic checks, "
        f"zero violations in {elapsed:.1f}s",
    )


def test_criterion_2_matern_suite():
    """Hard-core separation of both thinnings; type I inside type II."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    for i in range(1000):
        n = int(rng.integers(0, 60))
        pts = sample_binomial_disk(n, 200.0, rng)
        hard = float(rng.uniform(5.0, 50.0))
        pi, pj = pairs_within(pts, pts, np.full(n, hard))
        near = SimpleGraph.from_pairs(n, pi[pi < pj], pj[pi < pj])
        kept_i = matern_type_i(near)
        marks = rng.permutation(max(n, 1))[:n] / max(n, 1)
        kept_ii = matern_type_ii(near, marks)
        assert min_pairwise_distance(pts.xy[kept_i]) > hard
        assert min_pairwise_distance(pts.xy[kept_ii]) > hard
        assert set(kept_i.tolist()) <= set(kept_ii.tolist())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 30s"
    _report(2, True, f"1000 point sets, separation and subset invariants hold in {elapsed:.1f}s")


def test_criterion_3_zipf_suite():
    """Normalization at four catalog sizes; sampling matches pmf within 3 sigma."""
    for file_count in (1, 10, 1000, 10**6):
        cat = Catalog(file_count, 0.6)
        assert abs(float(cat._cdf[-2]) - 1.0) <= 1e-12, f"|F|={file_count}"

    draws = 100_000
    # small catalog: every rank individually within its binomial 3 sigma band
    cat = Catalog(10, 0.8)
    sample = sample_requests(cat, draws, np.random.default_rng(ACCEPT_SEED + 2))
    for rank in range(1, 11):
        p = zipf_pmf(cat, rank)
        freq = float(np.mean(sample == rank))
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / draws), f"rank {rank}"
    # cell-scale catalog: head ranks and the cached-block mass
    cat = Catalog(1000, 0.6)
    sample = sample_requests(cat, draws, np.random.default_rng(ACCEPT_SEED + 3))
    for rank in range(1, 11):
        p = zipf_pmf(cat, rank)
        freq = float(np.mean(sample == rank))
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / draws), f"rank {rank}"
    p50 = top_mass(cat, 50)
    freq50 = float(np.mean(sample <= 50))
    assert abs(freq50 - p50) <= 3 * math.sqrt(p50 * (1 - p50) / draws)
    _report(3, True, "normalization within 1e-12 up to |F|=1e6; frequencies within 3 sigma")


def test_criterion_4_analytic_hit_rate():
    """Full-coverage single-SBS baseline reproduces the analytic head mass."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        n_sbs=1, sbs_range=700.0, n_users=1000, n_rounds=5, replications=3,
        alpha=0.6, file_count=1000, memory=50, policy="baseline",
        master_seed=ACCEPT_SEED,
    )
    result = run_scenario(cfg)
    expected = top_mass(Catalog(1000, 0.6), 50)
    n_requests = cfg.n_users * cfg.n_rounds * cfg.replications
    sigma = math.sqrt(expected * (1 - expected) / n_requests)
    gap = abs(result.mean_hit_rate - expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 4 runtime {elapsed:.1f}s exceeds 10s"
    ok = gap <= 3 * sigma
    _report(
        4, ok,
        f"hit {result.mean_hit_rate:.4f} vs analytic {expected:.4f} "
        f"(gap {gap:.4f} <= 3 sigma = {3 * sigma:.4f}) in {elapsed:.1f}s",
    )


def test_criterion_5_density_trend(fig3_table):
    """Both policies beat baseline at every SBS count, bands apart from 32 up."""
    table, elapsed = fig3_table
    assert elapsed < 300.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 5 min"
    lines = []
    ok = True
    for n in (16, 32, 48, 64):
        base = table[n]["baseline"]
        for label in ("threshold_coloring", "matern_coloring"):
            policy = table[n][label]
            margin = _paired_margin(policy, base)
            separation = (policy.mean_hit_rate - policy.std_hit_rate) - (
                base.mean_hit_rate + base.std_hit_rate
            )
            ok &= margin > 0.0
            if n >= 32:
                ok &= separation > 0.0
            lines.append(f"n={n} {label}: margin {margin:+.4f} band-sep {separation:+.4f}")
    print()
    for line in lines:
        print("   ", line)
    _report(5, ok, f"paired margins positive at all axis points ({elapsed:.0f}s)")


def test_criterion_6_alpha_trend(fig4_table, oracle_table):
    """Baseline monotone in alpha; every point matches the oracle and stays
    under the coverage ceiling; both policies beat the baseline for alpha <= 0.6.

    Above alpha 0.6 the baseline may win: as alpha grows the requests crowd
    onto the first block, which the baseline serves to every covered user and
    a coloring only where a color-1 station covers. Those margins are printed.
    """
    table, elapsed = fig4_table
    assert elapsed < 300.0, f"criterion 6 runtime {elapsed:.1f}s exceeds 5 min"
    hits, ceilings = oracle_table
    base_rates = [table[a]["baseline"].mean_hit_rate for a in FIG4_ALPHAS]
    monotone = all(a < b for a, b in zip(base_rates, base_rates[1:]))
    worst_z = 0.0
    under_ceiling = True
    dominance = True
    print()
    for a in FIG4_ALPHAS:
        base = table[a]["baseline"]
        row = [f"alpha={a}: base {base.mean_hit_rate:.4f} ceiling {ceilings[a]:.4f}"]
        for label in POLICY_LABELS:
            result = table[a][label]
            z = _oracle_z(result, hits[(label, a)], CELL_SCALE)
            worst_z = max(worst_z, abs(z))
            under_ceiling &= result.mean_hit_rate <= ceilings[a]
            if label == "baseline":
                row.append(f"z {z:+.2f}")
                continue
            margin = _paired_margin(result, base)
            if a <= 0.6:
                dominance &= margin > 0.0
            row.append(f"{label} {margin:+.4f} (z {z:+.2f})")
        print("   ", " ".join(row))
    agree = worst_z <= 3.0
    detail = (
        f"baseline monotone: {monotone}; oracle agreement (max |z| {worst_z:.2f} <= 3): "
        f"{agree}; under ceiling: {under_ceiling}; dominance at alpha <= 0.6: {dominance} "
        f"({elapsed:.0f}s)"
    )
    _report(6, monotone and agree and under_ceiling and dominance, detail)


def test_criterion_7_load_reduction_band(fig3_table, oracle_table):
    """Macro-station load saved by the threshold policy at 48 SBSs, alpha 0.6.

    Both hit rates must match the oracle, and the saving must be positive and
    within the coverage ceiling's saving, which no placement can beat.
    """
    table, _ = fig3_table
    hits, ceilings = oracle_table
    base, threshold = table[48]["baseline"], table[48]["threshold_coloring"]
    reduction = mbs_load_reduction(threshold, base)
    matern_reduction = mbs_load_reduction(table[48]["matern_coloring"], base)
    z_base = _oracle_z(base, hits[("baseline", 0.6)], CELL_SCALE)
    z_threshold = _oracle_z(threshold, hits[("threshold_coloring", 0.6)], CELL_SCALE)
    oracle_load = 1.0 - hits[("baseline", 0.6)]
    oracle_reduction = (hits[("threshold_coloring", 0.6)] - hits[("baseline", 0.6)]) / oracle_load
    ceiling_reduction = (ceilings[0.6] - hits[("baseline", 0.6)]) / oracle_load
    print(
        f"\n    achieved MBS load reduction at 48 SBSs, alpha=0.6: "
        f"{reduction:.4f} (threshold), {matern_reduction:.4f} (matern)"
        f"\n    oracle {oracle_reduction:.4f}, coverage ceiling {ceiling_reduction:.4f}, "
        f"paper {PAPER_LOAD_REDUCTION:.2f} (unverified at this geometry)"
    )
    agree = abs(z_base) <= 3.0 and abs(z_threshold) <= 3.0
    ok = agree and 0.0 < reduction <= ceiling_reduction
    _report(
        7, ok,
        f"threshold-policy load reduction {reduction:.4f} in (0, {ceiling_reduction:.4f}]; "
        f"oracle z: baseline {z_base:+.2f}, threshold {z_threshold:+.2f}",
    )


def test_criterion_8_degenerate_equivalence():
    """An edgeless conflict graph reduces the coloring policy to the baseline."""
    catalog = Catalog(1000, 0.6)
    sbs = sample_binomial_disk(12, 350.0, ACCEPT_SEED)
    # threshold 0 keeps no edge (all stations distinct), forcing one color
    graph = threshold_graph(sbs, 0.0)
    assert graph.edges() == []
    coloring = greedy_color_by_degree(graph)
    assert coloring.k == 1
    assert np.array_equal(
        placement_matrix(place_by_coloring(coloring, catalog, 50)),
        placement_matrix(place_most_popular(12, catalog, 50)),
    )

    # a cell so large that the 80 m conflict graph is empty in every
    # replication: paired seeds must then give identical hit rates
    cfg = ScenarioConfig(
        n_sbs=8, cell_radius=3500.0, sbs_range=80.0, n_users=400, n_rounds=3,
        replications=5, master_seed=23,
    )
    for seed in replication_seeds(cfg.master_seed, cfg.replications):
        net, _ = build_network(cfg, seed)
        assert threshold_graph(net, 80.0).edges() == []
    base = run_scenario(dataclasses.replace(cfg, policy="baseline"))
    colored = run_scenario(dataclasses.replace(cfg, policy="threshold_coloring"))
    ok = colored.per_replication == base.per_replication and colored.colors_used == (1,) * 5
    _report(8, ok, "1-coloring placement equals most-popular; paired hit rates identical")


def test_criterion_9_byte_determinism(tmp_path, capsys):
    """run and sweep outputs are byte-identical across reruns and worker counts."""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "n_sbs = 10\nn_users = 120\nn_rounds = 2\nreplications = 4\n"
        "file_count = 300\nmemory = 30\npolicy = matern_coloring\nmaster_seed = 5\n"
    )
    assert main(["run", str(cfg_path)]) == 0
    first = capsys.readouterr().out
    assert main(["run", str(cfg_path)]) == 0
    second = capsys.readouterr().out

    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    sweep_args = [
        "sweep", str(cfg_path), "--axis", "n_sbs", "--values", "4,10",
        "--policies", "baseline,threshold,matern",
    ]
    assert main(sweep_args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(sweep_args + ["--out", str(out2), "--workers", "4"]) == 0

    ok = first == second and out1.read_bytes() == out2.read_bytes()
    _report(9, ok, "byte-identical run output and sweep files (serial vs 4 workers)")
