"""Metamorphic relations of the whole pipeline, on random valid configs.

The golden test pins exact bytes on a few configs, and the kernel properties
check each kernel against its oracle. These properties check relations the
model satisfies on every config (metamorphic testing: Chen, Cheung & Yiu,
1998), each exactly, bit for bit:

- scaling every length by a power of two changes no hit rate and no color:
  the products are exact in binary floating point, so every comparison keeps
  its outcome;
- a quarter turn of the plane, (x, y) -> (-y, x), keeps every station and
  user relation, the conflict graph and the Matern weights;
- when every cache holds the whole catalog, a request hits iff its user is
  covered, so every policy scores the same;
- with one station or none, every policy places the same caches.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbscache.classify import classify_and_weigh
from sbscache.geometry import PointSet, pairs_within, sample_binomial_disk
from sbscache.netgraph import (
    individual_thresholds,
    threshold_graph,
    universal_threshold,
)
from sbscache.popularity import Catalog
from sbscache.sim import (
    COLORING_MODES,
    POLICIES,
    THRESHOLD_MODES,
    ScenarioConfig,
    build_network,
    build_policy_artifacts,
    replication_seeds,
    run_scenario,
)

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def configs(draw):
    """A small valid scenario with a fixed range or a range interval."""
    file_count = draw(st.integers(1, 120))
    low = draw(st.floats(10.0, 150.0))
    if draw(st.booleans()):
        ranges = {"sbs_range": None, "sbs_range_min": low,
                  "sbs_range_max": low + draw(st.floats(0.0, 100.0))}
    else:
        ranges = {"sbs_range": low}
    return ScenarioConfig(
        cell_radius=draw(st.floats(60.0, 400.0)),
        n_sbs=draw(st.integers(0, 20)),
        n_users=draw(st.integers(0, 60)),
        file_count=file_count,
        memory=draw(st.integers(1, file_count)),
        alpha=draw(st.floats(0.0, 2.0)),
        n_rounds=draw(st.integers(1, 3)),
        requests_per_round=draw(st.integers(1, 3)),
        threshold_mode=draw(st.sampled_from(THRESHOLD_MODES)),
        coloring_mode=draw(st.sampled_from(COLORING_MODES)),
        r_class=draw(st.floats(10.0, 150.0)),
        replications=draw(st.integers(1, 3)),
        master_seed=draw(SEEDS),
        **ranges,
    )


def scaled(cfg: ScenarioConfig, factor: float) -> ScenarioConfig:
    """``cfg`` with the cell, the ranges and r_class multiplied by ``factor``."""
    lengths = ("cell_radius", "sbs_range", "sbs_range_min", "sbs_range_max", "r_class")
    return dataclasses.replace(cfg, **{
        name: getattr(cfg, name) * factor for name in lengths if getattr(cfg, name) is not None
    })


def per_policy(cfg: ScenarioConfig) -> dict[str, tuple]:
    return {p: run_scenario(dataclasses.replace(cfg, policy=p)).per_replication for p in POLICIES}


SCALE_EXAMPLE = ScenarioConfig(n_sbs=20, n_users=40, n_rounds=2, replications=2)


@given(cfg=configs(), power=st.sampled_from((1, -1, 40, -40)))
@example(cfg=SCALE_EXAMPLE, power=1)
@example(cfg=SCALE_EXAMPLE, power=-40)
@settings(max_examples=20, deadline=None)
def test_scaling_every_length_by_a_power_of_two_changes_nothing(cfg, power):
    # shrinking the cell to below a nanometre also exposes an absolute
    # tolerance in a length comparison, which doubling alone leaves unseen
    factor = 2.0**power
    big = scaled(cfg, factor)
    catalog = Catalog(cfg.file_count, cfg.alpha)
    for policy in POLICIES:
        cfg_p, big_p = (dataclasses.replace(c, policy=policy) for c in (cfg, big))
        for seed in replication_seeds(cfg.master_seed, cfg.replications):
            sbs, ranges = build_network(cfg_p, seed)
            sbs_big, ranges_big = build_network(big_p, seed)
            assert sbs_big.xy.tolist() == (sbs.xy * factor).tolist()
            assert ranges_big.tolist() == (ranges * factor).tolist()
            art = build_policy_artifacts(cfg_p, sbs, ranges, seed, catalog)
            art_big = build_policy_artifacts(big_p, sbs_big, ranges_big, seed, catalog)
            assert art_big.placement.colors.tolist() == art.placement.colors.tolist()
        assert run_scenario(big_p) == run_scenario(cfg_p)


def pair_set(pairs) -> set[tuple[int, int]]:
    i, j = pairs
    return set(zip(i.tolist(), j.tolist()))


def quarter_turn(points: PointSet) -> PointSet:
    x, y = points.xy[:, 0], points.xy[:, 1]
    return PointSet(np.column_stack((-y, x)), points.region_radius)


@given(
    seed=SEEDS,
    n=st.integers(0, 200),
    low=st.floats(20.0, 100.0),
    spread=st.floats(0.0, 50.0),
    r_class=st.floats(10.0, 100.0),
)
@example(seed=0, n=200, low=50.0, spread=50.0, r_class=80.0)
@settings(max_examples=25, deadline=None)
def test_a_quarter_turn_keeps_every_station_relation(seed, n, low, spread, r_class):
    rng = np.random.default_rng(seed)
    sbs = sample_binomial_disk(n, 350.0, rng)
    users = sample_binomial_disk(100, 350.0, rng)
    ranges = rng.uniform(low, low + spread, n)
    sbs_t, users_t = quarter_turn(sbs), quarter_turn(users)
    assert pair_set(pairs_within(sbs_t, sbs_t, ranges)) == pair_set(
        pairs_within(sbs, sbs, ranges)
    )
    assert pair_set(pairs_within(users_t, sbs_t, ranges)) == pair_set(
        pairs_within(users, sbs, ranges)
    )
    picks = (individual_thresholds, universal_threshold) if n else (individual_thresholds,)
    for pick in picks:
        g, g_t = threshold_graph(sbs, pick(ranges)), threshold_graph(sbs_t, pick(ranges))
        assert g_t.indptr.tolist() == g.indptr.tolist()
        assert g_t.indices.tolist() == g.indices.tolist()
    cw = classify_and_weigh(sbs, r_class, seed)
    cw_t = classify_and_weigh(sbs_t, r_class, seed)
    assert cw_t.weights.tolist() == cw.weights.tolist()
    assert cw_t.iterations_used == cw.iterations_used
    assert pair_set(cw_t.classes) == pair_set(cw.classes)


@given(cfg=configs())
@settings(max_examples=15, deadline=None)
def test_full_caches_make_every_policy_score_the_coverage(cfg):
    rates = per_policy(dataclasses.replace(cfg, memory=cfg.file_count))
    assert len(set(rates.values())) == 1, rates


@given(cfg=configs(), n_sbs=st.integers(0, 1))
@settings(max_examples=15, deadline=None)
def test_one_station_or_none_makes_every_policy_the_baseline(cfg, n_sbs):
    rates = per_policy(dataclasses.replace(cfg, n_sbs=n_sbs))
    assert len(set(rates.values())) == 1, rates
