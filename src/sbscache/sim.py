"""End-to-end Monte Carlo: drop a network, place caches, measure hit rate.

One replication draws SBS positions and coverage ranges, builds the cache
placement its policy dictates, then plays ``n_rounds`` request rounds. Users
are mobile, so their positions are redrawn each round; a request is a hit
iff some SBS covering the user caches the requested file. The macro station
serves every miss, so its load is 1 - hit_rate.

All randomness flows from one master seed through named substreams, so two
policies run with the same seed see identical networks, users and requests
(paired comparisons), and results are bit-reproducible regardless of how
many worker threads execute the replications.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import SURVIVOR_COUNTINGS, ClassWeights, classify_and_weigh
from .coloring import (
    EXACT_SOLVER_LIMIT,
    Coloring,
    VertexWeights,
    exact_min_coloring,
    greedy_color_by_degree,
    greedy_color_by_weight,
)
from .geometry import PointSet, sample_binomial_disk
from .netgraph import (
    CoverageRanges,
    SimpleGraph,
    access_pairs,
    build_class_graph,
    individual_thresholds,
    threshold_graph,
    universal_threshold,
)
from .placement import Placement, place_by_coloring, place_most_popular, placement_matrix
from .popularity import Catalog, sample_requests

# perfbench/spans.py times the access stage by wrapping ``sim.access_matrix``.
# The measure stage calls ``access_pairs`` and builds no dense access matrix,
# so the wrapped name is never called and its two metrics read zero until the
# spans are remapped onto ``access_pairs``; then this alias goes.
access_matrix = access_pairs


# perfbench/spans.py times the conflict graph through this name as well; the
# weights d(S_i, S_j) of the complete SBS graph are read from the positions.
def build_sbs_weighted_graph(sbs: PointSet) -> PointSet:
    return sbs


POLICIES = ("baseline", "threshold_coloring", "matern_coloring")
THRESHOLD_MODES = ("individual", "universal")
COLORING_MODES = ("greedy", "exact")

SWEEP_AXES = ("n_sbs", "alpha")
RESULT_CSV_HEADER = (
    "policy,mean_hit_rate,std_hit_rate,mean_mbs_load,mean_colors_used,replications,master_seed"
)
SWEEP_CSV_HEADER = "axis_name,axis_value," + RESULT_CSV_HEADER

# Sweep policy tokens; threshold_individual / threshold_universal pin the
# threshold mode regardless of the base config (used by the range comparison).
POLICY_TOKENS = {
    "baseline": ("baseline", None, "baseline"),
    "threshold": ("threshold_coloring", None, "threshold_coloring"),
    "threshold_coloring": ("threshold_coloring", None, "threshold_coloring"),
    "threshold_individual": ("threshold_coloring", "individual", "threshold_individual"),
    "threshold_universal": ("threshold_coloring", "universal", "threshold_universal"),
    "matern": ("matern_coloring", None, "matern_coloring"),
    "matern_coloring": ("matern_coloring", None, "matern_coloring"),
}


class ReplicationError(RuntimeError):
    """A replication failed; carries the replication index for context."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.index, *self.args)


@dataclass
class ScenarioConfig:
    """Experiment inputs. Distances in meters; counts are totals per cell.

    Coverage is either fixed (``sbs_range``) or drawn uniformly per SBS per
    replication from [sbs_range_min, sbs_range_max]; exactly one form must be
    set. ``coloring_mode="exact"`` uses the exact solver whenever ``n_sbs``
    fits inside ``coloring.EXACT_SOLVER_LIMIT`` and falls back to the degree
    greedy above it. ``max_matern_iterations=None`` means 10 * n_sbs.
    """

    cell_radius: float = 350.0
    n_sbs: int = 48
    sbs_range: float | None = 80.0
    sbs_range_min: float | None = None
    sbs_range_max: float | None = None
    n_users: int = 1000
    file_count: int = 1000
    memory: int = 50
    alpha: float = 0.6
    n_rounds: int = 10
    requests_per_round: int = 1
    policy: str = "baseline"
    threshold_mode: str = "individual"
    coloring_mode: str = "greedy"
    r_class: float = 80.0
    replications: int = 20
    master_seed: int = 1
    max_matern_iterations: int | None = None
    survivor_counting: str = "double"

    def uses_range_interval(self) -> bool:
        return self.sbs_range_min is not None or self.sbs_range_max is not None

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name))
        if not self.cell_radius > 0:
            raise ValueError("cell_radius must be positive")
        for name in ("n_sbs", "n_users", "n_rounds", "requests_per_round"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.file_count < 1:
            raise ValueError("file_count must be at least 1")
        if not 1 <= self.memory <= self.file_count:
            raise ValueError("memory must be in 1..file_count")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.uses_range_interval():
            if self.sbs_range is not None:
                raise ValueError("set either sbs_range or the sbs_range_min/max interval, not both")
            if self.sbs_range_min is None or self.sbs_range_max is None:
                raise ValueError("sbs_range_min and sbs_range_max must be set together")
            if not 0 < self.sbs_range_min <= self.sbs_range_max:
                raise ValueError("need 0 < sbs_range_min <= sbs_range_max")
        else:
            if self.sbs_range is None or not self.sbs_range > 0:
                raise ValueError("sbs_range must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.coloring_mode not in COLORING_MODES:
            raise ValueError(f"coloring_mode must be one of {COLORING_MODES}")
        if self.survivor_counting not in SURVIVOR_COUNTINGS:
            raise ValueError(f"survivor_counting must be one of {SURVIVOR_COUNTINGS}")
        if not self.r_class > 0:
            raise ValueError("r_class must be positive")
        if self.max_matern_iterations is not None and self.max_matern_iterations < 1:
            raise ValueError("max_matern_iterations must be at least 1")


def _field_types(cls) -> dict[str, tuple[type, bool]]:
    """Each field's value type (int, float or str) and whether it may be None."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        out[f.name] = (args[0], True) if args else (hints[f.name], False)
    return out


# The config schema, in config file order; the CLI derives its keys from it.
CONFIG_FIELDS = _field_types(ScenarioConfig)


_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _check_type(name: str, value) -> None:
    """Reject a value of the wrong type, a bool for a number, or a non-finite float."""
    kind, nullable = CONFIG_FIELDS[name]
    if value is None:
        ok = nullable
    elif kind is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


@dataclass
class SimResult:
    """Replication hit rates plus their mean / sample standard deviation."""

    per_replication: tuple[float, ...]
    colors_used: tuple[int, ...]
    mean_hit_rate: float = field(init=False)
    std_hit_rate: float = field(init=False)

    def __post_init__(self):
        rates = np.asarray(self.per_replication, dtype=float)
        if rates.size == 0:
            raise ValueError("at least one replication is required")
        self.mean_hit_rate = float(rates.mean())
        self.std_hit_rate = float(rates.std(ddof=1)) if rates.size > 1 else 0.0

    @property
    def mbs_load(self) -> float:
        return 1.0 - self.mean_hit_rate

    @property
    def mean_colors_used(self) -> float:
        return float(np.mean(self.colors_used)) if self.colors_used else 0.0


@dataclass
class PolicyArtifacts:
    """Intermediates of one replication's placement stage, for inspection."""

    conflict_graph: "SimpleGraph | None"
    coloring: "Coloring | None"
    class_weights: "ClassWeights | None"
    placement: Placement

    @property
    def colors_used(self) -> int:
        return int(self.placement.colors.max(initial=0))


def replication_seeds(master_seed: int, n: int) -> list[np.random.SeedSequence]:
    """Deterministic per-replication seed sequences derived from the master seed."""
    return np.random.SeedSequence(master_seed).spawn(n)


def _substreams(seed, n: int) -> list[np.random.SeedSequence]:
    """Spawn n children without mutating the caller's SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    else:
        base = np.random.SeedSequence(seed)
    return base.spawn(n)


def build_network(cfg: ScenarioConfig, rep_seed) -> tuple[PointSet, CoverageRanges]:
    """Replication steps 1-2: SBS positions and coverage ranges, from substreams 0 and 1."""
    s_sbs, s_ranges = _substreams(rep_seed, 4)[:2]
    sbs = sample_binomial_disk(cfg.n_sbs, cfg.cell_radius, s_sbs)
    rng = np.random.default_rng(s_ranges)
    if cfg.uses_range_interval():
        ranges = rng.uniform(cfg.sbs_range_min, cfg.sbs_range_max, cfg.n_sbs)
    else:
        ranges = np.full(cfg.n_sbs, float(cfg.sbs_range))
    return sbs, CoverageRanges(ranges)


def build_policy_artifacts(
    cfg: ScenarioConfig, sbs: PointSet, ranges: CoverageRanges, rep_seed, catalog: Catalog
) -> PolicyArtifacts:
    """Replication step 3: the policy's placement pipeline; Matern marks use substream 2."""
    n = len(sbs)
    if n == 0:
        return PolicyArtifacts(None, None, None, Placement([], cfg.memory, cfg.file_count))

    if cfg.policy == "baseline":
        return PolicyArtifacts(None, None, None, place_most_popular(n, catalog, cfg.memory))

    if cfg.policy == "threshold_coloring":
        pick = individual_thresholds if cfg.threshold_mode == "individual" else universal_threshold
        graph = threshold_graph(build_sbs_weighted_graph(sbs), pick(ranges))
        if cfg.coloring_mode == "exact" and n <= EXACT_SOLVER_LIMIT:
            coloring = exact_min_coloring(graph)
        else:
            coloring = greedy_color_by_degree(graph)
        placement = place_by_coloring(coloring, catalog, cfg.memory)
        return PolicyArtifacts(graph, coloring, None, placement)

    # matern_coloring
    cw = classify_and_weigh(
        sbs,
        cfg.r_class,
        _substreams(rep_seed, 4)[2],
        max_iterations=cfg.max_matern_iterations,
        survivor_counting=cfg.survivor_counting,
    )
    graph = build_class_graph(cw.classes, n)
    coloring = greedy_color_by_weight(graph, VertexWeights(cw.weights))
    placement = place_by_coloring(coloring, catalog, cfg.memory)
    return PolicyArtifacts(graph, coloring, cw, placement)


def measure_hit_rate(
    cfg: ScenarioConfig,
    sbs: PointSet,
    ranges: CoverageRanges,
    placement: Placement,
    rep_seed,
    catalog: Catalog,
) -> float:
    """Replication steps 4-5: play the request rounds against a fixed placement.

    Per round, user positions are redrawn and each user issues
    ``requests_per_round`` Zipf requests; a request is a hit iff some
    accessible SBS caches the requested rank. The rounds split substream 3,
    each drawing its users and requests from its own substreams; the users
    of all rounds then go through one access kernel call.
    """
    n_users, q = cfg.n_users, cfg.requests_per_round
    if cfg.n_rounds * n_users * q == 0:
        return 0.0
    pmat = placement_matrix(placement)
    xy = np.empty((cfg.n_rounds, n_users, 2))
    ranks = np.empty((cfg.n_rounds, n_users * q), dtype=np.intp)
    for r, round_seed in enumerate(_substreams(_substreams(rep_seed, 4)[3], cfg.n_rounds)):
        s_users, s_requests = _substreams(round_seed, 2)
        xy[r] = sample_binomial_disk(n_users, cfg.cell_radius, s_users).xy
        ranks[r] = sample_requests(catalog, n_users * q, np.random.default_rng(s_requests))
    users = PointSet(xy.reshape(-1, 2), cfg.cell_radius)
    ranks = ranks.reshape(-1, q)  # request i of a round belongs to its user i // q
    u, j = access_pairs(users, sbs, ranges)
    pair, request = np.nonzero(pmat[j[:, None], ranks[u] - 1])
    hit = np.zeros(ranks.shape, dtype=bool)
    hit[u[pair], request] = True
    return int(hit.sum()) / ranks.size


def run_replication(cfg: ScenarioConfig, rep_seed) -> tuple[float, int]:
    """One full replication; returns (hit_rate, colors_used)."""
    catalog = Catalog(cfg.file_count, cfg.alpha)
    sbs, ranges = build_network(cfg, rep_seed)
    art = build_policy_artifacts(cfg, sbs, ranges, rep_seed, catalog)
    hit_rate = measure_hit_rate(cfg, sbs, ranges, art.placement, rep_seed, catalog)
    return hit_rate, art.colors_used


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> SimResult:
    """Run all replications (optionally on worker threads) and aggregate.

    Replication i always uses the i-th seed derived from ``master_seed`` and
    aggregation follows replication order, so the result does not depend on
    how the replications were scheduled.
    """
    cfg.validate()
    seeds = replication_seeds(cfg.master_seed, cfg.replications)

    def one(indexed) -> tuple[float, int]:
        i, seed = indexed
        try:
            return run_replication(cfg, seed)
        except Exception as exc:
            raise ReplicationError(
                i, f"replication {i} (master_seed={cfg.master_seed}) failed: {exc}"
            ) from exc

    if workers <= 1:
        results = [one(item) for item in enumerate(seeds)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, enumerate(seeds)))
    return SimResult(
        per_replication=tuple(r[0] for r in results),
        colors_used=tuple(r[1] for r in results),
    )


@dataclass
class SweepCell:
    axis_name: str
    axis_value: float | int
    policy: str
    result: SimResult
    replications: int
    master_seed: int


def sweep(
    cfg: ScenarioConfig, axis: str, values, policies, workers: int = 1
) -> list[SweepCell]:
    """One scenario per (axis value, policy), all sharing the master seed.

    Sharing the seed makes every policy see the same networks and requests at
    a given axis value, so policy columns are directly comparable. Every
    cell's config is validated before any cell runs, so a bad value raises
    ValueError at once.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    values = list(values)
    policies = list(policies)
    if not values:
        raise ValueError("axis values must be non-empty")
    if not policies:
        raise ValueError("policy list must be non-empty")
    runs = []
    for value in values:
        for token in policies:
            if token not in POLICY_TOKENS:
                raise ValueError(f"unknown policy '{token}' (choose from {sorted(POLICY_TOKENS)})")
            policy, mode_override, label = POLICY_TOKENS[token]
            overrides = {axis: value, "policy": policy}
            if mode_override is not None:
                overrides["threshold_mode"] = mode_override
            cfg_cell = dataclasses.replace(cfg, **overrides)
            cfg_cell.validate()
            runs.append((value, label, cfg_cell))
    return [
        SweepCell(axis, value, label, run_scenario(cfg_cell, workers=workers),
                  cfg.replications, cfg.master_seed)
        for value, label, cfg_cell in runs
    ]


def format_number(value) -> str:
    """A CSV number: integers as such, everything else as a Python float."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def result_row(policy: str, result: SimResult, replications: int, master_seed: int) -> str:
    """One scenario's result as a CSV row under RESULT_CSV_HEADER."""
    stats = (result.mean_hit_rate, result.std_hit_rate, result.mbs_load, result.mean_colors_used)
    return ",".join((policy, *map(format_number, stats), str(replications), str(master_seed)))


def sweep_to_csv(cells) -> str:
    lines = [SWEEP_CSV_HEADER]
    for c in cells:
        row = result_row(c.policy, c.result, c.replications, c.master_seed)
        lines.append(f"{c.axis_name},{format_number(c.axis_value)},{row}")
    return "\n".join(lines) + "\n"


def mbs_load_reduction(policy_result: SimResult, baseline_result: SimResult) -> float:
    """Relative macro-station load saved by a policy: (L_base - L_policy) / L_base."""
    load_base = baseline_result.mbs_load
    load_policy = policy_result.mbs_load
    if load_base == 0.0:
        raise ValueError("baseline load is zero (baseline already perfect)")
    return (load_base - load_policy) / load_base
