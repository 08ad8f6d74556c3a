"""Replication pipeline, aggregation, sweeps, and their invariants."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbscache import sim
from sbscache.classify import ConvergenceError
from sbscache.geometry import sample_binomial_disk
from sbscache.netgraph import threshold_graph
from sbscache.popularity import Catalog, sample_requests
from sbscache.sim import (
    POLICIES,
    ReplicationError,
    ScenarioConfig,
    SimResult,
    SWEEP_CSV_HEADER,
    build_network,
    build_policy_artifacts,
    mbs_load_reduction,
    measure_hit_rate,
    replication_seeds,
    run_scenario,
    sweep,
    sweep_to_csv,
)

from oracles import (
    block_caches_reference,
    build_access_map,
    build_delivery_map,
    rank_lookup_reference,
    top_mass,
)

SMALL = ScenarioConfig(
    n_sbs=12, n_users=200, n_rounds=3, replications=4, master_seed=99,
    file_count=200, memory=20,
)


def spawned(seed, path) -> np.random.SeedSequence:
    """The stream at ``path`` by numpy's own nested spawns.

    ``seed`` is an int, or ``(master_seed, i)`` for replication i. Spawning
    advances the parent, so every call starts again from a fresh root.
    """
    if isinstance(seed, int):
        node = np.random.SeedSequence(seed)
    else:
        master_seed, i = seed
        node = np.random.SeedSequence(master_seed).spawn(i + 1)[i]
    for k in path:
        node = node.spawn(k + 1)[k]
    return node


@pytest.mark.parametrize("seed", [(SMALL.master_seed, 0), (SMALL.master_seed, 3), 5])
def test_stream_layout_matches_nested_spawns(seed):
    rep_seed = seed if isinstance(seed, int) else replication_seeds(seed[0], seed[1] + 1)[seed[1]]
    n_rounds = 4
    paths = [(0,), (1,), (2,)] + [(3, r, k) for r in range(n_rounds) for k in (0, 1)]
    for path in paths:
        expected = spawned(seed, path).generate_state(4)
        assert sim._stream(rep_seed, *path).generate_state(4).tolist() == expected.tolist()
    # the network stage draws positions from (0,) and interval ranges from (1,)
    cfg = dataclasses.replace(SMALL, sbs_range=None, sbs_range_min=40.0, sbs_range_max=90.0)
    sbs, ranges = build_network(cfg, rep_seed)
    expected_sbs = sample_binomial_disk(cfg.n_sbs, cfg.cell_radius, spawned(seed, (0,)))
    assert sbs.xy.tolist() == expected_sbs.xy.tolist()
    rng = np.random.default_rng(spawned(seed, (1,)))
    assert ranges.tolist() == rng.uniform(40.0, 90.0, cfg.n_sbs).tolist()


def test_stages_leave_the_callers_seed_unspawned():
    cfg = dataclasses.replace(SMALL, policy="matern_coloring")
    rep_seed = replication_seeds(cfg.master_seed, 1)[0]
    catalog = Catalog(cfg.file_count, cfg.alpha)
    sbs, ranges = build_network(cfg, rep_seed)
    placement = build_policy_artifacts(cfg, sbs, ranges, rep_seed, catalog).placement
    measure_hit_rate(cfg, sbs, ranges, placement, rep_seed, catalog)
    assert rep_seed.n_children_spawned == 0


def test_no_sbs_means_no_hits():
    cfg = dataclasses.replace(SMALL, n_sbs=0, replications=2)
    result = run_scenario(cfg)
    assert result.per_replication == (0.0, 0.0)
    assert result.colors_used == (0, 0)
    assert result.mbs_load == 1.0


def test_full_coverage_extreme_alpha_hits_everything():
    # one SBS whose range spans the cell from anywhere; at alpha=50 rank 1
    # carries essentially all mass and it is cached
    cfg = dataclasses.replace(
        SMALL, n_sbs=1, sbs_range=700.0, alpha=50.0, replications=2, policy="baseline"
    )
    result = run_scenario(cfg)
    assert result.mean_hit_rate > 0.99


def test_full_coverage_baseline_matches_top_mass():
    cfg = ScenarioConfig(
        n_sbs=1, sbs_range=700.0, n_users=1000, n_rounds=5, replications=3,
        alpha=0.6, file_count=1000, memory=50, policy="baseline", master_seed=5,
    )
    result = run_scenario(cfg)
    expected = top_mass(Catalog(1000, 0.6), 50)
    sigma = (expected * (1 - expected) / (1000 * 5 * 3)) ** 0.5
    assert abs(result.mean_hit_rate - expected) <= 3 * sigma


def test_same_master_seed_reproduces_bitwise():
    a = run_scenario(SMALL)
    b = run_scenario(SMALL)
    assert a == b


def test_parallel_replications_match_serial():
    a = run_scenario(SMALL, workers=1)
    b = run_scenario(SMALL, workers=4)
    assert a == b


@pytest.mark.parametrize("workers", [1, 2])
def test_scenario_builds_one_catalog_for_all_replications(monkeypatch, workers):
    built = []

    def counting_catalog(*args):
        built.append(args)
        return Catalog(*args)

    monkeypatch.setattr(sim, "Catalog", counting_catalog)
    for policy in POLICIES:
        built.clear()
        run_scenario(dataclasses.replace(SMALL, policy=policy), workers=workers)
        assert built == [(SMALL.file_count, SMALL.alpha)]


def test_policies_share_network_and_requests_per_seed():
    base_cfg = dataclasses.replace(SMALL, policy="baseline")
    thr_cfg = dataclasses.replace(SMALL, policy="threshold_coloring")
    seed = replication_seeds(SMALL.master_seed, 1)[0]
    assert np.array_equal(
        build_network(base_cfg, seed)[0].xy, build_network(thr_cfg, seed)[0].xy
    )


def test_policy_dominance_under_full_overlap():
    # every user reaches every SBS, chi * M <= |F|: the coloring delivery set
    # contains the baseline block, so dominance holds replication by
    # replication on the shared seeds
    cfg = ScenarioConfig(
        n_sbs=4, sbs_range=700.0, n_users=300, n_rounds=3, replications=5,
        file_count=1000, memory=50, alpha=0.6, master_seed=31,
    )
    base = run_scenario(dataclasses.replace(cfg, policy="baseline"))
    colored = run_scenario(dataclasses.replace(cfg, policy="threshold_coloring"))
    assert colored.colors_used == (4,) * 5  # full overlap forces all-distinct colors
    for policy_rate, base_rate in zip(colored.per_replication, base.per_replication):
        assert policy_rate >= base_rate


def test_one_coloring_degenerates_to_baseline_on_shared_seeds():
    # stations so sparse that the conflict graph is edgeless: the coloring
    # placement collapses to most-popular and paired hit rates are identical
    cfg = ScenarioConfig(
        n_sbs=8, cell_radius=3500.0, sbs_range=80.0, n_users=400, n_rounds=3,
        replications=5, master_seed=23,
    )
    for seed in replication_seeds(cfg.master_seed, cfg.replications):
        sbs, _ = build_network(cfg, seed)
        g = threshold_graph(sbs, 80.0)
        assert g.edges() == []
    base = run_scenario(dataclasses.replace(cfg, policy="baseline"))
    colored = run_scenario(dataclasses.replace(cfg, policy="threshold_coloring"))
    assert colored.per_replication == base.per_replication
    assert colored.colors_used == (1,) * 5


@given(
    seed=st.integers(0, 2**31),
    q=st.integers(1, 4),
    n_sbs=st.integers(0, 8),
    n_users=st.integers(0, 30),
    interval=st.booleans(),
    memory=st.integers(1, 20),
    policy=st.sampled_from(POLICIES),
)
@example(seed=0, q=3, n_sbs=0, n_users=20, interval=False, memory=5, policy="baseline")
@example(seed=0, q=2, n_sbs=5, n_users=0, interval=True, memory=5, policy="matern_coloring")
@example(seed=1, q=2, n_sbs=6, n_users=20, interval=False, memory=15, policy="threshold_coloring")
@example(seed=9, q=2, n_sbs=4, n_users=3, interval=False, memory=1, policy="threshold_coloring")
@settings(max_examples=40, deadline=None)
def test_vectorized_hits_match_delivery_map_semantics(
    seed, q, n_sbs, n_users, interval, memory, policy
):
    # replay every round by hand through the set-based delivery map; with 20
    # files, color blocks wrap around once colors x memory exceeds 20 (the
    # third example: 3 colors x 15). In the last example two colors cache
    # ranks 1 and 2 and no request asks for either, so no user-round is live.
    ranges = {"sbs_range": None, "sbs_range_min": 40.0, "sbs_range_max": 120.0} if interval else {}
    cfg = dataclasses.replace(
        SMALL, cell_radius=100.0, n_sbs=n_sbs, n_users=n_users, requests_per_round=q,
        n_rounds=2, replications=1, master_seed=seed, file_count=20, memory=memory,
        policy=policy, r_class=40.0, **ranges,
    )
    rep_seed = replication_seeds(cfg.master_seed, 1)[0]
    sbs, sbs_ranges = build_network(cfg, rep_seed)
    catalog = Catalog(cfg.file_count, cfg.alpha)
    placement = build_policy_artifacts(cfg, sbs, sbs_ranges, rep_seed, catalog).placement
    measured = measure_hit_rate(cfg, sbs, sbs_ranges, placement, rep_seed, catalog)
    caches = block_caches_reference(placement.colors, placement.memory, placement.file_count)

    hits = total = 0
    for r in range(cfg.n_rounds):
        users = sample_binomial_disk(n_users, cfg.cell_radius, spawned((seed, 0), (3, r, 0)))
        rng = np.random.default_rng(spawned((seed, 0), (3, r, 1)))
        ranks = sample_requests(catalog, n_users * q, rng)
        delivery = build_delivery_map(caches, build_access_map(users, sbs, sbs_ranges))
        # request i belongs to user i // q
        hits += sum(int(rank) in delivery.sets[i // q] for i, rank in enumerate(ranks))
        total += len(ranks)
    assert measured == (hits / total if total else 0.0)


# Access-call cases: color blocks of 20 ranks in a 200-file catalog, and in a
# 30-file one, where color 2's block (ranks 21-30 and 1-10) wraps around.
ACCESS_CALL_CASES = {
    "blocks": dict(requests_per_round=2),
    "wrap-around": dict(requests_per_round=3, file_count=30, memory=20),
}


@pytest.mark.parametrize("n_rounds", [1, 3, 10])
def test_measure_stage_makes_one_access_call_per_replication(monkeypatch, n_rounds):
    """All rounds' live user-rounds go through one grouped ``access_pairs`` call.

    A user-round is live when one of its requests asks for a rank that some
    station caches. It is queried once per color that caches one of its
    ranks, labelled by that color, against the stations labelled by theirs.
    A sweep stores one replication's pairs for every cell at an axis value,
    so there the call covers every user-round, all in one group.

    Keep the batching. A per-round loop over the same kernel was faster on
    one thread (61 -> 68 replications/s at 48 SBS), but under the fig3
    sweep's 2-thread pool it doubled the sweep's wall time, from 2.0-2.3 s
    to 3.7-4.5 s on a 2-core host: its ~25 short numpy calls per round
    convoy on the GIL. The draws are batched for the same reason. Counted
    from the code, drawing each round's ranks and positions apart took
    about 50 numpy operations per round (the rank lookup, the sqrt/cos/sin
    transform, a PointSet check, buffer copies); one call per replication
    over the rounds' streams leaves 9 per round (two streams, two
    generators, three draws, two row copies).
    """
    calls = []
    original = sim.access_pairs

    def recorded(users, sbs, ranges, user_group, sbs_group):
        calls.append((users.xy, user_group, sbs_group))
        return original(users, sbs, ranges, user_group, sbs_group)

    monkeypatch.setattr(sim, "access_pairs", recorded)
    for case, fields in ACCESS_CALL_CASES.items():
        calls.clear()
        cfg = dataclasses.replace(
            SMALL, n_rounds=n_rounds, replications=2, policy="threshold_coloring", **fields
        )
        _check_access_calls(cfg, run_scenario(cfg), calls, wraps=case == "wrap-around")
        calls.clear()
        sweep(cfg, "alpha", [cfg.alpha], ["baseline", "threshold", "matern"])
        assert len(calls) == cfg.replications
        for xy, user_group, sbs_group in calls:
            assert len(xy) == n_rounds * cfg.n_users
            assert not user_group.any() and not sbs_group.any()


def _check_access_calls(cfg, result, calls, wraps: bool) -> None:
    """Each replication's one call queries exactly its (live user-round, caching color) pairs.

    Also checks each replication's hit rate against the set-based delivery map.
    """
    assert len(calls) == cfg.replications
    n_rounds, n_users, q = cfg.n_rounds, cfg.n_users, cfg.requests_per_round
    for i, rep_seed in enumerate(replication_seeds(cfg.master_seed, cfg.replications)):
        catalog = Catalog(cfg.file_count, cfg.alpha)
        sbs, ranges = build_network(cfg, rep_seed)
        p = build_policy_artifacts(cfg, sbs, ranges, rep_seed, catalog).placement
        k = int(p.colors.max())
        assert k > 1
        assert (k * p.memory > p.file_count) == wraps
        color_caches = block_caches_reference(range(1, k + 1), p.memory, p.file_count)
        station_caches = block_caches_reference(p.colors, p.memory, p.file_count)
        points, colors, live, hits = [], [], 0, 0
        for r in range(n_rounds):
            users = sample_binomial_disk(n_users, cfg.cell_radius, spawned((cfg.master_seed, i), (3, r, 0)))
            rng = np.random.default_rng(spawned((cfg.master_seed, i), (3, r, 1)))
            ranks = rank_lookup_reference(catalog, rng.random(n_users * q)).reshape(n_users, q)
            for u, user_ranks in enumerate(ranks.tolist()):
                caching = [c for c, cached in enumerate(color_caches) if cached.intersection(user_ranks)]
                points += [users.xy[u].tolist()] * len(caching)
                colors += caching
                live += bool(caching)
            delivery = build_delivery_map(station_caches, build_access_map(users, sbs, ranges))
            hits += sum(f in delivery.sets[u] for u, user_ranks in enumerate(ranks.tolist()) for f in user_ranks)
        xy, user_group, sbs_group = calls[i]
        assert xy.tolist() == points
        assert user_group.tolist() == colors
        assert sbs_group.tolist() == (p.colors - 1).tolist()
        assert 0 < live <= n_rounds * n_users
        if not wraps:  # some user-round asks only for ranks no color caches
            assert live < n_rounds * n_users
        # several colors cache some user-round's ranks: one query point each
        assert len(colors) > live
        assert result.per_replication[i] == hits / (n_rounds * n_users * q)


def test_measure_stage_builds_no_dense_user_station_array():
    # one dense n_users x n_sbs float64 array is 38.4 MB here; the pair kernel
    # peaks at a few MB. Not run at city scale (4800 x 10^5): a dense
    # regression there would try to allocate ~15 GB instead of failing.
    cfg = ScenarioConfig(
        cell_radius=1106.797181058933, n_sbs=480, n_users=10_000, n_rounds=1,
        replications=1, policy="baseline",
    )
    rep_seed = replication_seeds(cfg.master_seed, 1)[0]
    catalog = Catalog(cfg.file_count, cfg.alpha)
    sbs, ranges = build_network(cfg, rep_seed)
    placement = build_policy_artifacts(cfg, sbs, ranges, rep_seed, catalog).placement
    tracemalloc.start()
    try:
        measure_hit_rate(cfg, sbs, ranges, placement, rep_seed, catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.n_users * cfg.n_sbs * 8


@pytest.mark.parametrize("policy", ["threshold_coloring", "matern_coloring"])
def test_city_replication_builds_no_station_matrix(policy):
    # one n_sbs x n_sbs boolean matrix is 23 MB at 4800 stations, and the
    # float distance matrix 184 MB; the pair kernel and the CSR graphs peak
    # at about 10 MB for the whole replication
    cfg = ScenarioConfig(
        n_sbs=4800, cell_radius=3500.0, n_users=300, n_rounds=1, replications=1,
        policy=policy,
    )
    tracemalloc.start()
    try:
        catalog = Catalog(cfg.file_count, cfg.alpha)
        sim.run_replication(cfg, replication_seeds(cfg.master_seed, 1)[0], catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.n_sbs**2


@pytest.mark.parametrize(
    "clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy], ids=["pickle", "copy"]
)
def test_replication_error_survives_pickle_and_copy(clone):
    err = ReplicationError(4, "replication 4 (master_seed=1) failed: boom")
    back = clone(err)
    assert type(back) is ReplicationError
    assert back.index == 4
    assert str(back) == str(err) == "replication 4 (master_seed=1) failed: boom"


def test_replication_errors_carry_context():
    # a mid-distance pair cannot converge in one iteration
    cfg = ScenarioConfig(
        n_sbs=2, cell_radius=30.0, sbs_range=80.0, r_class=25.0,
        max_matern_iterations=1, policy="matern_coloring",
        n_users=10, n_rounds=1, replications=3, master_seed=2,
    )
    with pytest.raises(ReplicationError) as err:
        run_scenario(cfg)
    assert isinstance(err.value.__cause__, ConvergenceError)
    assert "replication" in str(err.value)


def test_sim_result_statistics():
    result = SimResult(per_replication=(0.2, 0.4), colors_used=(1, 3))
    assert result.mean_hit_rate == pytest.approx(0.3)
    assert result.std_hit_rate == pytest.approx(np.std([0.2, 0.4], ddof=1))
    assert result.mbs_load == pytest.approx(0.7)
    assert result.mean_colors_used == 2.0


def test_single_replication_mean():
    cfg = dataclasses.replace(SMALL, replications=1)
    result = run_scenario(cfg)
    assert result.mean_hit_rate == result.per_replication[0]
    assert result.std_hit_rate == 0.0


def test_mbs_load_reduction_arithmetic():
    a = SimResult(per_replication=(0.2,), colors_used=(1,))
    assert mbs_load_reduction(a, a) == 0.0
    policy = SimResult(per_replication=(0.4,), colors_used=(2,))
    base = SimResult(per_replication=(0.2,), colors_used=(1,))
    assert mbs_load_reduction(policy, base) == pytest.approx(0.25)


def test_mbs_load_reduction_rejects_perfect_baseline():
    perfect = SimResult(per_replication=(1.0,), colors_used=(1,))
    with pytest.raises(ValueError):
        mbs_load_reduction(perfect, perfect)


def test_sweep_shapes_and_csv():
    cfg = dataclasses.replace(SMALL, replications=2, n_users=80, n_rounds=2)
    cells = sweep(cfg, "n_sbs", [4, 8], ["baseline", "threshold", "matern"])
    assert len(cells) == 6
    labels = {c.policy for c in cells}
    assert labels == {"baseline", "threshold_coloring", "matern_coloring"}
    text = sweep_to_csv(cells)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 7
    assert all(line.count(",") == 8 for line in lines)


def test_sweep_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sweep(SMALL, "n_sbs", [4], [])
    with pytest.raises(ValueError):
        sweep(SMALL, "memory", [4], ["baseline"])
    with pytest.raises(ValueError):
        sweep(SMALL, "alpha", [], ["baseline"])
    with pytest.raises(ValueError):
        sweep(SMALL, "alpha", [0.5], ["mystery_policy"])


def test_sweep_threshold_mode_tokens():
    cfg = dataclasses.replace(
        SMALL, replications=2, n_users=60, n_rounds=2,
        sbs_range=None, sbs_range_min=50.0, sbs_range_max=100.0,
    )
    cells = sweep(cfg, "n_sbs", [6], ["threshold_individual", "threshold_universal"])
    assert [c.policy for c in cells] == ["threshold_individual", "threshold_universal"]


def test_config_validation_errors():
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, memory=0).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, memory=10**6).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, policy="nonsense").validate()
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, sbs_range_min=50.0).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, cell_radius=0.0).validate()


@pytest.mark.parametrize(
    "key,value",
    [
        ("alpha", float("nan")),
        ("n_sbs", 4.5),
        ("memory", 2.5),
        ("n_users", True),
        ("r_class", float("inf")),
        ("cell_radius", float("inf")),
    ],
)
def test_validation_rejects_bad_types_early_naming_the_key(key, value):
    # each of these used to run (nan alpha) or fail late inside a replication
    cfg = dataclasses.replace(SMALL, replications=1, **{key: value})
    with pytest.raises(ValueError, match=key) as err:
        run_scenario(cfg)
    assert not isinstance(err.value, ReplicationError)


def test_validation_accepts_numpy_scalars_and_int_floats():
    cfg = dataclasses.replace(SMALL, n_sbs=np.int64(5), alpha=np.float64(0.4), cell_radius=300)
    cfg.validate()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_scenario(SMALL, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        sweep(SMALL, "alpha", [0.4], ["baseline"], workers=workers)
