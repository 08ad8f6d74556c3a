"""End-to-end Monte Carlo: drop a network, place caches, measure hit rate.

One replication draws SBS positions and coverage ranges, builds the cache
placement its policy dictates, then plays ``n_rounds`` request rounds. Users
are mobile, so their positions are redrawn each round; a request is a hit
iff some SBS covering the user caches the requested file. The macro station
serves every miss, so its load is 1 - hit_rate.

All randomness flows from one master seed: replication i draws each stage
from a fixed path below the master seed's i-th child (``_stream`` lists the
paths), so two policies run with the same seed see identical networks, users
and requests (paired comparisons), and results are bit-reproducible
regardless of how many worker processes execute the replications.

A request for rank f can hit only at a station whose color caches f. So
the measure stage draws the ranks first, from the catalog's guide table,
and places only the live user-rounds: those with a request for a rank that
some color caches. One grouped access query per replication then tests each
live user-round once per color that caches one of its ranks, against the
stations of that color alone. Each (user-round, station) pair it gives is
scored through the placement's per-color block table. All rounds are drawn
in one pass, one call over their streams for the ranks and one for the query
points (the fig3 sweep, measured when the workers were 2 threads on a 2-core
host: 0.52 -> 0.43 s median).

A sweep keeps one store for its whole life, a dict of stages per seed. Each
stage is drawn once per seed and per value of the axis fields it reads, and
replaced when that value moves on. The users read neither axis: each
user-round's position is kept read-only, 16 B per user-round per seed for
the life of the sweep. The ranks are drawn once per ``alpha``. The network
is drawn once per ``n_sbs``, with the placement of every sweep cell, keyed
by (policy, threshold_mode), and the union of the ranks they cache. One
ungrouped access call per (``n_sbs``, ``alpha``) gives the pairs of the
user-rounds with a rank in that union; any other request is a miss in every
cell. Each replication gets its entry as an argument, so no replication
reads hidden state.

With ``workers`` > 1 the replications run on forked worker processes, at
most one per CPU and per replication. Worker w runs replication i when
i = w (mod k) for every cell, so a sweep forks its k workers once and each
worker keeps its own seeds' store entries for the whole sweep; the parent
sends each cell's config and catalog and gathers the results in seed order.
With one worker everything runs in the calling thread, which a traced run
needs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
import os
import pickle
import threading
import typing
from dataclasses import dataclass, field

import numpy as np

from .classify import ClassWeights, classify_and_weigh
from .coloring import Coloring, greedy_color_by_degree, greedy_color_by_weight
from .geometry import PointSet, sample_binomial_disk
from .netgraph import (
    SimpleGraph,
    access_pairs,
    build_class_graph,
    individual_thresholds,
    threshold_graph,
    universal_threshold,
)
from .placement import (
    Placement,
    color_table,
    place_by_coloring,
    place_most_popular,
    # perfbench/spans.py wraps ``sim.placement_matrix``; the measure stage
    # scores through ``color_table``, so that span reads zero until remapped
    placement_matrix,
)
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
# one value: the key stays only because perfbench's config files name it (ROADMAP item 1a)
COLORING_MODES = ("greedy",)

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

    Coverage is either fixed (``sbs_range``, 80 m if no form is given) or drawn
    uniformly per SBS per replication from [sbs_range_min, sbs_range_max], not
    both. ``coloring_mode`` has the one value "greedy": conflict graphs are
    colored by the degree greedy, class graphs by the vertex-weight greedy.
    """

    cell_radius: float = 350.0
    n_sbs: int = 48
    sbs_range: float | None = None
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

    def __post_init__(self):
        if self.sbs_range is None and not self.uses_range_interval():
            self.sbs_range = 80.0

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
        if not self.r_class > 0:
            raise ValueError("r_class must be positive")


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


def _narrow(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a non-negative integer array in its smallest unsigned dtype."""
    out = a.astype(np.min_scalar_type(a.max(initial=0)))
    out.flags.writeable = False
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The cell that a sweep on this thread is running (``cell``), the sweep's
# ``store`` (replication index -> that replication's stages), its worker
# ``pool`` (None when it runs in-process) and its ``catalogs`` by
# (file_count, alpha). It is thread state rather than an argument because
# perfbench times each sweep cell by replacing ``run_scenario`` with a
# wrapper that takes only ``(cfg, workers)``.
_sweeping = threading.local()


def _shared(stored: dict, stage: str, key, draw):
    """``draw()``, kept in ``stored`` while the axis fields that the stage reads are ``key``."""
    if stage not in stored or stored[stage][0] != key:
        stored[stage] = key, draw()
    return stored[stage][1]


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


def replication_seeds(master_seed: int, n: int) -> list[np.random.SeedSequence]:
    """Deterministic per-replication seed sequences derived from the master seed."""
    return np.random.SeedSequence(master_seed).spawn(n)


def _stream(rep_seed, *path: int) -> np.random.SeedSequence:
    """The child of ``rep_seed`` that nested ``spawn`` calls reach along ``path``.

    Layout: (0,) station positions, (1,) coverage ranges, (2,) Matern marks,
    (3, r, 0) round r's users and (3, r, 1) round r's requests. The child is
    built directly, so the caller's SeedSequence spawns nothing; an int seed
    is wrapped in a SeedSequence first.
    """
    if not isinstance(rep_seed, np.random.SeedSequence):
        rep_seed = np.random.SeedSequence(rep_seed)
    return np.random.SeedSequence(rep_seed.entropy, spawn_key=rep_seed.spawn_key + path)


def build_network(cfg: ScenarioConfig, rep_seed) -> tuple[PointSet, np.ndarray]:
    """Replication steps 1-2: SBS positions from stream (0,), coverage ranges from (1,)."""
    sbs = sample_binomial_disk(cfg.n_sbs, cfg.cell_radius, _stream(rep_seed, 0))
    if cfg.uses_range_interval():
        rng = np.random.default_rng(_stream(rep_seed, 1))
        ranges = rng.uniform(cfg.sbs_range_min, cfg.sbs_range_max, cfg.n_sbs)
    else:
        ranges = np.full(cfg.n_sbs, float(cfg.sbs_range))
    return sbs, ranges


def build_policy_artifacts(
    cfg: ScenarioConfig, sbs: PointSet, ranges: np.ndarray, rep_seed, catalog: Catalog
) -> PolicyArtifacts:
    """Replication step 3: the policy's placement pipeline; Matern marks use stream (2,)."""
    n = len(sbs)
    if n == 0:
        return PolicyArtifacts(None, None, None, Placement([], cfg.memory, cfg.file_count))

    if cfg.policy == "baseline":
        return PolicyArtifacts(None, None, None, place_most_popular(n, catalog, cfg.memory))

    if cfg.policy == "threshold_coloring":
        pick = individual_thresholds if cfg.threshold_mode == "individual" else universal_threshold
        graph = threshold_graph(build_sbs_weighted_graph(sbs), pick(ranges))
        coloring = greedy_color_by_degree(graph)
        placement = place_by_coloring(coloring, catalog, cfg.memory)
        return PolicyArtifacts(graph, coloring, None, placement)

    # matern_coloring
    cw = classify_and_weigh(sbs, cfg.r_class, _stream(rep_seed, 2))
    graph = build_class_graph(cw.classes, n)
    coloring = greedy_color_by_weight(graph, cw.weights)
    placement = place_by_coloring(coloring, catalog, cfg.memory)
    return PolicyArtifacts(graph, coloring, cw, placement)


def measure_hit_rate(
    cfg: ScenarioConfig,
    sbs: PointSet,
    ranges: np.ndarray,
    placement: Placement,
    rep_seed,
    catalog: Catalog,
    stored: dict | None = None,
) -> float:
    """Replication steps 4-5: play the request rounds against a fixed placement.

    Round r's requests, ``requests_per_round`` Zipf ranks per user, come
    from stream (3, r, 1) and its user positions from stream (3, r, 0). A
    user-round is live when one of its requests asks for a rank that some
    color caches. One call draws all ranks and one keeps a query point per
    (live user-round, color that caches one of its ranks): one rank lookup
    and one sqrt/cos/sin pass per replication. One access kernel call, with
    points and stations grouped by color, gives the pairs
    (u, j): station j covers user-round u and caches one of u's ranks. A
    request is a hit iff some such station caches its rank, read from the
    per-color block table. A station has one color, so a rank that several
    colors cache (wrap-around) is queried once per color, and the hit set is
    that of every covering station. A request of a user-round that is not
    live is a miss.

    Given a sweep's ``stored`` entry, the ranks and pairs are drawn into it
    once per ``alpha`` and (``n_sbs``, ``alpha``), and the users once. The
    pairs hold every covering station of each user-round with a rank that
    some placement of the network stage caches; the block table scores them.
    """
    n_users, q = cfg.n_users, cfg.requests_per_round
    if cfg.n_rounds * n_users * q == 0:
        return 0.0
    table = color_table(placement)
    rounds = range(cfg.n_rounds)

    def draw_ranks():
        ranks = sample_requests(catalog, n_users * q, [_stream(rep_seed, 3, r, 1) for r in rounds])
        return ranks.reshape(-1, q)  # request i of a round belongs to its user i // q

    def draw_users(keep=None):
        seeds = [_stream(rep_seed, 3, r, 0) for r in rounds]
        return sample_binomial_disk(n_users, cfg.cell_radius, seeds, keep)

    if stored is None:
        ranks = draw_ranks()
        live = np.flatnonzero(table.any(axis=0)[ranks - 1].any(axis=1))
        # query i * k + c: color c + 1 caches a rank of live user-round i
        query = np.flatnonzero(table.T[ranks[live] - 1].any(axis=1))
        user, color = np.divmod(query, len(table))
        u, j = access_pairs(draw_users(live[user]), sbs, ranges, color, placement.colors - 1)
        u = live[user[u]]
    else:
        ranks = _shared(stored, "ranks", cfg.alpha, lambda: _narrow(draw_ranks()))

        def draw_pairs():
            xy = _shared(stored, "users", (), lambda: _read_only(draw_users().xy))
            cached = stored["network"][1][-1]  # the ranks some cell's placement caches
            live = np.flatnonzero(cached[ranks - 1].any(axis=1))
            u, j = access_pairs(PointSet(xy[live], cfg.cell_radius), sbs, ranges)
            return _narrow(live[u]), _narrow(j)

        u, j = _shared(stored, "pairs", (cfg.n_sbs, cfg.alpha), draw_pairs)
    # flat indices into the (pair, request) grid of the requests their station caches
    cached_at = np.flatnonzero(table[(placement.colors - 1)[j, None], ranks[u] - 1])
    hit = np.zeros(ranks.shape, dtype=bool)
    hit[u[cached_at // q], cached_at % q] = True
    return int(hit.sum()) / ranks.size


def run_replication(
    cfg: ScenarioConfig, rep_seed, catalog: Catalog, stored: dict | None = None
) -> tuple[float, int]:
    """One full replication on the scenario's catalog; returns (hit_rate, colors_used).

    Given a sweep's ``stored`` entry, the first cell at an ``n_sbs`` draws the
    network into it, read-only, with the placement of each (policy,
    threshold_mode) that the entry lists and the union of the ranks they
    cache; the cells after it read their placement back. So a placement
    that fails raises in the first cell, and the error names its policy.
    """

    def draw_network():
        sbs, ranges = build_network(cfg, rep_seed)
        placements = {}
        for policy, mode in stored["policies"]:
            cell = dataclasses.replace(cfg, policy=policy, threshold_mode=mode)
            try:
                art = build_policy_artifacts(cell, sbs, ranges, rep_seed, catalog)
            except Exception as exc:
                raise RuntimeError(f"{policy} placement: {exc}") from exc
            placements[policy, mode] = art.placement
        cached = np.any([color_table(p).any(axis=0) for p in placements.values()], axis=0)
        _read_only(sbs.xy), _read_only(ranges)
        return sbs, ranges, placements, cached

    if stored is None:
        sbs, ranges = build_network(cfg, rep_seed)
        placement = build_policy_artifacts(cfg, sbs, ranges, rep_seed, catalog).placement
    else:
        sbs, ranges, placements, _ = _shared(stored, "network", cfg.n_sbs, draw_network)
        placement = placements[cfg.policy, cfg.threshold_mode]
    hit_rate = measure_hit_rate(cfg, sbs, ranges, placement, rep_seed, catalog, stored)
    return hit_rate, int(placement.colors.max(initial=0))


def _run_seeds(cfg: ScenarioConfig, catalog: Catalog, indices, store) -> list[tuple[float, int]]:
    """Replications ``indices`` of ``cfg``, in order, replication i reading ``store[i]``.

    The one place that runs replications: in the calling thread with one
    worker, and in each worker process with several.
    """
    seeds = replication_seeds(cfg.master_seed, cfg.replications)
    results = []
    for i in indices:
        try:
            results.append(run_replication(cfg, seeds[i], catalog, store[i]))
        except Exception as exc:
            raise ReplicationError(
                i, f"replication {i} (master_seed={cfg.master_seed}) failed: {exc}"
            ) from exc
    return results


def _pool_size(workers: int, replications: int) -> int:
    """How many processes ``workers`` asks for: at most one per CPU and per replication."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, replications, cpus)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` as it comes back from a pickle round trip, or a RuntimeError that names it."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _serve(conn, w: int, k: int, store: list) -> None:
    """Worker w of k: run replications i = w (mod k) of each cell sent, until None.

    A failure goes back as its ``__cause__`` chain, head first, since
    pickling drops the links; the parent joins them again.
    """
    while True:
        try:
            job = conn.recv()
        except EOFError:  # the parent is gone
            return
        if job is None:
            return
        cfg, catalog = job
        try:
            reply = True, _run_seeds(cfg, catalog, range(w, cfg.replications, k), store)
        except Exception as exc:
            chain = []
            while exc is not None:
                chain.append(_portable(exc))
                exc = exc.__cause__
            reply = False, chain
        conn.send(reply)


class _Pool:
    """k forked workers; worker w runs replications i = w (mod k) of every cell.

    Each worker inherits ``store`` at the fork and keeps its own seeds'
    entries for the pool's life. Leaving the ``with`` block stops and joins
    every worker.
    """

    STOP_TIMEOUT_S = 5.0  # then a worker that has not stopped is terminated

    def __init__(self, k: int, store: list):
        # only a run on several workers pays for the import
        from multiprocessing import connection, get_context

        self._wait = connection.wait
        ctx = get_context("fork")
        self._workers = []
        try:
            for w in range(k):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(child, w, k, store), daemon=True)
                try:
                    proc.start()
                finally:
                    child.close()
                self._workers.append((conn, proc))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _reply(self, conn, proc):
        """What the worker sent back, or None if it died first."""
        self._wait([conn, proc.sentinel])
        try:
            return conn.recv() if conn.poll() else None
        except EOFError:
            return None

    def run(self, cfg: ScenarioConfig, catalog: Catalog) -> list[tuple[float, int]]:
        """Every replication of ``cfg``, in seed order; the lowest failed index raises."""
        k = len(self._workers)
        for conn, _ in self._workers:
            conn.send((cfg, catalog))
        results = [None] * cfg.replications
        failures = []
        for w, (conn, proc) in enumerate(self._workers):
            reply = self._reply(conn, proc)
            if reply is None:
                proc.join(self.STOP_TIMEOUT_S)
                lost = ", ".join(map(str, range(w, cfg.replications, k)))
                failures.append(ReplicationError(
                    w, f"replications {lost} (master_seed={cfg.master_seed}) were lost: "
                    f"their worker process exited with code {proc.exitcode}",
                ))
            elif reply[0]:
                results[w::k] = reply[1]
            else:
                chain = reply[1]
                for exc, cause in zip(chain, chain[1:]):
                    exc.__cause__ = cause
                failures.append(chain[0])
        if failures:
            raise min(failures, key=lambda exc: getattr(exc, "index", cfg.replications))
        return results

    def close(self) -> None:
        for conn, _ in self._workers:
            try:
                conn.send(None)
            except OSError:
                pass  # its worker is gone
        for conn, proc in self._workers:
            proc.join(self.STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> SimResult:
    """Run all replications, on ``workers`` forked processes if more than one, and aggregate.

    Replication i always uses the i-th seed derived from ``master_seed`` and
    aggregation follows replication order, so the result does not depend on
    how many processes ran the replications. They share the scenario's one
    catalog, which no replication writes. When ``cfg`` is the cell that a
    sweep on this thread is running, the cell runs on the sweep's pool, or
    in this thread with entry i of the sweep's store for replication i, and
    reads the sweep's catalog for its (file_count, alpha). Any other call
    stores nothing, and forks its own workers for this call alone.
    """
    _check_workers(workers)
    cfg.validate()
    if getattr(_sweeping, "cell", None) is cfg:
        store, pool, catalogs = _sweeping.store, _sweeping.pool, _sweeping.catalogs
    else:
        store, pool, catalogs = [None] * cfg.replications, None, {}
    key = cfg.file_count, cfg.alpha
    if key not in catalogs:
        catalogs[key] = Catalog(*key)
    catalog = catalogs[key]
    if pool is not None:
        results = pool.run(cfg, catalog)
    elif (k := _pool_size(workers, cfg.replications)) > 1:
        with _Pool(k, store) as own:
            results = own.run(cfg, catalog)
    else:
        results = _run_seeds(cfg, catalog, range(cfg.replications), store)
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
    master_seed: int


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def sweep(
    cfg: ScenarioConfig, axis: str, values, policies, workers: int = 1
) -> list[SweepCell]:
    """One scenario per (axis value, policy), all sharing the master seed.

    Sharing the seed makes every policy see the same networks and requests at
    a given axis value, so policy columns are directly comparable. Every
    cell's config is validated before any cell runs, so a bad value raises
    ValueError at once.

    Cells run in order, one ``run_scenario`` call each. The sweep keeps one
    store, an entry per replication seed that lists every cell's (policy,
    threshold_mode), and one catalog per (file_count, alpha). Each stage is
    drawn into the store once per seed and per value of the axis fields it
    reads (see the module docstring); the users stay for the whole sweep, 16
    B per user-round per seed. With ``workers`` > 1 the sweep forks its
    worker processes once, before the first cell, and each worker holds the
    entries of its own seeds. The store and the workers are dropped when the
    sweep ends or fails.
    """
    _check_workers(workers)
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
    kinds = list(dict.fromkeys((c.policy, c.threshold_mode) for _, _, c in runs))
    store = [{"policies": kinds} for _ in range(cfg.replications)]
    k = _pool_size(workers, cfg.replications)
    cells = []
    with _Pool(k, store) if k > 1 else contextlib.nullcontext() as pool:
        try:
            _sweeping.store, _sweeping.pool, _sweeping.catalogs = store, pool, {}
            for value, label, cfg_cell in runs:
                _sweeping.cell = cfg_cell
                result = run_scenario(cfg_cell, workers=workers)
                cells.append(SweepCell(axis, value, label, result, cfg.master_seed))
        finally:
            _sweeping.cell = _sweeping.store = _sweeping.pool = _sweeping.catalogs = None
    return cells


def format_number(value) -> str:
    """A CSV number: integers as such, everything else as a Python float."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def result_row(policy: str, result: SimResult, master_seed: int) -> str:
    """One scenario's result as a CSV row under RESULT_CSV_HEADER."""
    stats = (result.mean_hit_rate, result.std_hit_rate, result.mbs_load, result.mean_colors_used)
    replications = len(result.per_replication)
    return ",".join((policy, *map(format_number, stats), str(replications), str(master_seed)))


def sweep_to_csv(cells) -> str:
    lines = [SWEEP_CSV_HEADER]
    for c in cells:
        row = result_row(c.policy, c.result, c.master_seed)
        lines.append(f"{c.axis_name},{format_number(c.axis_value)},{row}")
    return "\n".join(lines) + "\n"


def mbs_load_reduction(policy_result: SimResult, baseline_result: SimResult) -> float:
    """Relative macro-station load saved by a policy: (L_base - L_policy) / L_base."""
    load_base = baseline_result.mbs_load
    load_policy = policy_result.mbs_load
    if load_base == 0.0:
        raise ValueError("baseline load is zero (baseline already perfect)")
    return (load_base - load_policy) / load_base
