"""Per-layer spans and counts, recorded from outside the simulator.

A traced pass replaces module-level names in ``sbscache.sim``,
``sbscache.classify`` and ``sbscache.cli`` with timing wrappers, runs the
workload, and puts the originals back. Only the benchmark process is
affected; the simulator's sources are never modified. Wrapped calls nest:
a span's self time is its duration minus the time of the wrapped calls it
made. A name the simulator no longer has is reported as absent, and a
metric none of whose names exist is left out.

Traced passes run on one thread: the span stack is not shared between
threads.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Dense access arrays per (user, station) pair: float64 x/y differences
# (16 B), float64 distances (8 B) and the boolean result (1 B).
ACCESS_BYTES_PER_PAIR = 25

ROOT = "sim.run_replication.self_ms"
PARSE = "cli.parse_config_text.ms"

# (layer, module, name, metric): every name a traced pass wraps. Several
# names may feed one metric.
SPANS = (
    ("geometry", "sim", "sample_binomial_disk", "geometry.sample_binomial_disk.ms"),
    ("geometry", "classify", "distance_matrix", "geometry.distance_matrix.ms"),
    ("geometry", "classify", "matern_type_i", "geometry.matern_type_i.ms"),
    ("geometry", "classify", "matern_type_ii", "geometry.matern_type_ii.ms"),
    ("popularity", "sim", "sample_requests", "popularity.sample_requests.ms"),
    ("netgraph", "sim", "access_matrix", "netgraph.access_matrix.ms"),
    ("netgraph", "sim", "build_sbs_weighted_graph", "netgraph.conflict_graph.ms"),
    ("netgraph", "sim", "individual_thresholds", "netgraph.conflict_graph.ms"),
    ("netgraph", "sim", "universal_threshold", "netgraph.conflict_graph.ms"),
    ("netgraph", "sim", "threshold_graph", "netgraph.conflict_graph.ms"),
    ("netgraph", "sim", "build_class_graph", "netgraph.build_class_graph.ms"),
    ("netgraph", "sim", "placement_matrix", "netgraph.placement_matrix.ms"),
    ("coloring", "sim", "greedy_color_by_degree", "coloring.greedy.ms"),
    ("coloring", "sim", "greedy_color_by_weight", "coloring.greedy.ms"),
    ("classify", "sim", "classify_and_weigh", "classify.classify_and_weigh.self_ms"),
    ("placement", "sim", "place_by_coloring", "placement.place_by_coloring.ms"),
    ("placement", "sim", "place_most_popular", "placement.place_most_popular.ms"),
    ("sim", "sim", "measure_hit_rate", "sim.measure_hit_rate.self_ms"),
    ("sim", "sim", "run_replication", ROOT),
    ("cli", "cli", "parse_config_text", PARSE),
)

# Names that are counted but not timed: their time stays in the caller.
COUNTED = (("popularity", "sim", "Catalog", "popularity.Catalog.calls"),)

# Placements whose color blocks run past the end of the catalog. A detail,
# not a metric: it is 0 on every workload whose blocks cannot wrap.
WRAPAROUND = "placement.wraparound_reps"


def _matern_iterations(t, args, result):
    t.counts["geometry.matern_type_ii.calls"] += 1


def _access_bytes(t, args, result):
    users, sbs = args[0], args[1]
    nbytes = len(users) * len(sbs) * ACCESS_BYTES_PER_PAIR
    t.counts["netgraph.access_matrix.bytes"] = max(t.counts["netgraph.access_matrix.bytes"], nbytes)


def _edges(t, args, result):
    t.counts["netgraph.conflict_graph.edges"] += int(result.adjacency.sum()) // 2


def _colors(t, args, result):
    t.counts["coloring.colors"] += int(result.k)


def _blocks(t, args, result):
    coloring, catalog, memory = args[0], args[1], args[2]
    block_files = int(coloring.k) * int(memory)
    t.counts["placement.block_files"] += block_files
    t.counts["placement.catalog_files"] += catalog.file_count
    if block_files > catalog.file_count:
        t.counts[WRAPAROUND] += 1


# Tallies derived from a wrapped call's arguments or result, keyed by name.
HOOKS = {
    ("classify", "matern_type_ii"): _matern_iterations,
    ("sim", "access_matrix"): _access_bytes,
    ("sim", "threshold_graph"): _edges,
    ("sim", "greedy_color_by_degree"): _colors,
    ("sim", "greedy_color_by_weight"): _colors,
    ("sim", "place_by_coloring"): _blocks,
}

# Exact per-layer metrics: name -> (unit, the wrapped names they come from).
# ``placement.block_span`` is colors x memory over the catalog size, as the
# totals over a pass's coloring placements; a placement above 1 wraps around.
# ``netgraph.access_matrix.bytes`` is computed from array shapes, not
# measured: the largest single call.
COUNT_METRICS = {
    "geometry.matern_type_ii.calls": ("count", ("classify.matern_type_ii",)),
    "popularity.Catalog.calls": ("count", ("sim.Catalog",)),
    "netgraph.conflict_graph.edges": ("count", ("sim.threshold_graph",)),
    "coloring.colors": ("count", ("sim.greedy_color_by_degree", "sim.greedy_color_by_weight")),
    "netgraph.access_matrix.bytes": ("computed_B", ("sim.access_matrix",)),
    "placement.block_span": ("ratio", ("sim.place_by_coloring",)),
}


def wrapped_names() -> dict[str, list[str]]:
    """Wrapped ``module.name`` per layer, in declaration order."""
    out: dict[str, list[str]] = defaultdict(list)
    for layer, module, name, _ in SPANS + COUNTED:
        out[layer].append(f"{module}.{name}")
    return dict(out)


class Tracer:
    """Span self times, counts and replication durations of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.policy_self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.rep_s: list[float] = []
        self.parse_calls = 0
        self.hook_errors: list[str] = []
        self._stack: list[list[float]] = []
        self._policy = "-"

    def _span(self, module: str, name: str, metric: str, fn):
        hook = HOOKS.get((module, name))

        def wrapper(*args, **kwargs):
            if metric == ROOT:
                self._policy = str(getattr(args[0], "policy", "-"))
            self._stack.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()[0]
                if self._stack:
                    self._stack[-1][0] += dt
                self.self_s[metric] += dt - child
                if metric == PARSE:
                    self.parse_calls += 1
                else:
                    self.policy_self_s[self._policy][metric] += dt - child
                if metric == ROOT:
                    self.rep_s.append(dt)
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    self.hook_errors.append(f"{module}.{name}: {exc}")
            return result

        return wrapper

    def _counter(self, metric: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> tuple[list, list[str]]:
        """Wrap every listed name that exists; return (undo list, absent names)."""
        undo, absent = [], []
        for counted, table in ((False, SPANS), (True, COUNTED)):
            for _, module, name, metric in table:
                mod = modules[module]
                fn = getattr(mod, name, None)
                if fn is None:
                    absent.append(f"{module}.{name}")
                    continue
                if counted:
                    wrapper = self._counter(metric, fn)
                else:
                    wrapper = self._span(module, name, metric, fn)
                undo.append((mod, name, fn))
                setattr(mod, name, wrapper)
                self.installed.add(f"{module}.{name}")
        return undo, absent

    @staticmethod
    def uninstall(undo) -> None:
        for mod, name, fn in reversed(undo):
            setattr(mod, name, fn)

    def replication_total_s(self) -> float:
        return sum(self.rep_s)

    def per_rep_ms(self) -> dict[str, float]:
        """Self ms per replication of every span metric with a wrapped name."""
        n = max(len(self.rep_s), 1)
        metrics = {m for _, module, name, m in SPANS if m != PARSE and f"{module}.{name}" in self.installed}
        return {m: self.self_s.get(m, 0.0) * 1000.0 / n for m in sorted(metrics)}

    def count_metrics(self) -> dict[str, tuple[float, str]]:
        """Exact metrics as name -> (value, unit), for those with a wrapped name."""
        out = {}
        for metric, (unit, sources) in COUNT_METRICS.items():
            if not self.installed.intersection(sources):
                continue
            if metric == "placement.block_span":
                value = self.counts["placement.block_files"] / max(self.counts["placement.catalog_files"], 1)
            else:
                value = self.counts[metric]
            out[metric] = (value, unit)
        return out

    def parse_ms(self) -> float:
        return self.self_s.get(PARSE, 0.0) * 1000.0 / max(self.parse_calls, 1)

    def policy_shares(self) -> dict[str, dict[str, float]]:
        """Share of each policy's replication wall time spent in each metric's spans."""
        out = {}
        for policy, by_metric in self.policy_self_s.items():
            total = sum(by_metric.values())
            if total > 0:
                out[policy] = {m: v / total for m, v in sorted(by_metric.items())}
        return out
