"""The benchmark's view of the package: every name it wraps and reads still exists.

``perfbench/spans.py`` times the simulator by replacing module-level names in
``sbscache.sim``, ``sbscache.classify`` and ``sbscache.cli``; a name that goes
missing silently drops its per-layer metric as "absent". These checks load
that file read-only and fail instead.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from sbscache import classify, cli, sim

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = {"sim": sim, "classify": classify, "cli": cli}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(spans):
    missing = [
        f"{module}.{name}"
        for _, module, name, _ in spans.SPANS + spans.COUNTED
        if not callable(getattr(MODULES[module], name, None))
    ]
    assert missing == []


def test_fig3_recipe_unpacks(spans):
    axis, values, policies, presets = cli.RECIPES["fig3"]
    assert axis == "n_sbs" and values and policies and isinstance(presets, dict)


def test_traced_scenarios_feed_every_hook(spans):
    # the hooks read call arguments and results by position and attribute
    tracer = spans.Tracer()
    undo, absent = tracer.install(MODULES)
    try:
        cfg = sim.ScenarioConfig(
            n_sbs=30, cell_radius=150.0, n_users=40, n_rounds=1, replications=1,
            file_count=60, memory=20,
        )
        for policy in sim.POLICIES:
            sim.run_scenario(dataclasses.replace(cfg, policy=policy))
    finally:
        spans.Tracer.uninstall(undo)
    assert absent == []
    assert tracer.hook_errors == []
    assert set(tracer.count_metrics()) == set(spans.COUNT_METRICS)
    assert tracer.counts[spans.WRAPAROUND] >= 1
    assert len(tracer.rep_s) == len(sim.POLICIES)
