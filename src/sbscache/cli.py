"""Command-line surface: run a scenario, sweep an axis, inspect intermediates.

Configs are flat ``key = value`` text files with ``#`` comments. A flag
``--key value`` overrides the file's key, except a key that a sweep sets in
every cell and ``--policy`` under ``inspect --emit classes``, which always
shows the Matern classes; a flag for one coverage-range form replaces the
file's other form.
All output is CSV with LF line endings, reproducible byte-for-byte from the
master seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import sim
from .classify import classweights_to_csv
from .coloring import coloring_to_csv
from .netgraph import graph_to_edge_list
from .placement import placement_to_csv
from .popularity import Catalog
from .sim import ScenarioConfig

# Config file keys in canonical serialization order, and the sweep tokens
# that pin no threshold mode, which are also accepted as ``policy =`` values.
CONFIG_KEYS = tuple(sim.CONFIG_FIELDS)
_POLICY_ALIASES = {
    token: policy for token, (policy, mode, _) in sim.POLICY_TOKENS.items() if mode is None
}

RECIPES = {
    # axis, values, policy tokens, config presets
    "fig3": ("n_sbs", [16, 32, 48, 64],
             ["baseline", "threshold_coloring", "matern_coloring"],
             {"alpha": 0.6}),
    "fig4": ("alpha", [0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
             ["baseline", "threshold_coloring", "matern_coloring"],
             {"n_sbs": 48}),
    "fig5": ("n_sbs", [16, 32, 48, 64],
             ["baseline", "threshold_individual", "threshold_universal"],
             {"sbs_range": None, "sbs_range_min": 50.0, "sbs_range_max": 100.0}),
}


class ConfigError(ValueError):
    """Malformed config file or invalid key/value."""


def _cast(key: str, raw: str, where: str):
    raw = raw.strip()
    if key == "policy":
        return _POLICY_ALIASES.get(raw, raw)
    kind, _ = sim.CONFIG_FIELDS[key]
    try:
        # int() and float() would also read digit separators and non-ASCII digits
        if kind is not str and ("_" in raw or not raw.isascii()):
            raise ValueError
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {raw!r} for key '{key}'") from None


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Parse ``key = value`` lines into a validated ScenarioConfig.

    Raises ConfigError naming the offending line for unknown keys, bad
    values, duplicates, missing required keys, or constraint violations.
    """
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.rstrip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        values[key] = _cast(key, raw_value, f"line {lineno}")
    overrides = overrides or {}
    # a flag for one range form drops the other form the file sets; both
    # forms in the file, or both in the flags, still fail validation
    fixed, interval = {"sbs_range"}, {"sbs_range_min", "sbs_range_max"}
    for form, other in ((fixed, interval), (interval, fixed)):
        if form & overrides.keys() and not (other & overrides.keys() or form & values.keys()):
            for key in other:
                values.pop(key, None)
    for key, raw_value in overrides.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"override: unknown key '{key}'")
        values[key] = _cast(key, raw_value, f"override --{key}")
    if "n_sbs" not in values:
        raise ConfigError("missing required key 'n_sbs'")
    cfg = ScenarioConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def parse_config_file(path: str, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, overrides)


def config_to_text(cfg: ScenarioConfig) -> str:
    """Serialize so that parsing the result reproduces an equal config."""
    values = ((key, getattr(cfg, key)) for key in CONFIG_KEYS)
    return "".join(f"{key} = {value}\n" for key, value in values if value is not None)


def _write(text: str, out: str | None) -> None:
    """Write to the file ``out``, creating its directory, or to stdout if no path is given."""
    if not out:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _collect_overrides(ns: argparse.Namespace) -> dict[str, str]:
    return {key: getattr(ns, key) for key in CONFIG_KEYS if getattr(ns, key, None) is not None}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    for key in CONFIG_KEYS:
        group.add_argument(f"--{key}", metavar="VALUE", help=argparse.SUPPRESS)


def _check_workers(ns: argparse.Namespace) -> None:
    if ns.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {ns.workers}")


def cmd_run(ns: argparse.Namespace) -> int:
    _check_workers(ns)
    cfg = parse_config_file(ns.config, _collect_overrides(ns))
    result = sim.run_scenario(cfg, workers=ns.workers)
    row = sim.result_row(cfg.policy, result, cfg.master_seed)
    sys.stdout.write(sim.RESULT_CSV_HEADER + "\n" + row + "\n")
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    _check_workers(ns)
    overrides = _collect_overrides(ns)
    if ns.recipe:
        if ns.axis or ns.values or ns.policies:
            raise ConfigError("--recipe and explicit --axis/--values/--policies are mutually exclusive")
        axis, values, policies, presets = RECIPES[ns.recipe]
    else:
        if not (ns.axis and ns.values and ns.policies):
            raise ConfigError("either --recipe or all of --axis/--values/--policies are required")
        axis, presets = ns.axis, {}
        values = [_cast(axis, v, "--values") for v in ns.values.split(",") if v.strip()]
        policies = [p.strip() for p in ns.policies.split(",") if p.strip()]
    pinned = {axis, "policy", *presets} | {
        "threshold_mode" for p in policies if sim.POLICY_TOKENS.get(p, (None, None))[1]}
    if clash := ", ".join(key for key in overrides if key in pinned):
        sweep = f"recipe {ns.recipe}" if ns.recipe else "the sweep"
        raise ConfigError(f"{sweep} sets {clash} in every cell, which cannot also be given as flags")
    cfg = dataclasses.replace(parse_config_file(ns.config, overrides), **presets)
    try:
        cells = sim.sweep(cfg, axis, values, policies, workers=ns.workers)
    except ValueError as exc:
        # sweep checks every cell's config before running any; a failed
        # replication arrives as a ReplicationError, not a ValueError
        raise ConfigError(str(exc)) from None
    _write(sim.sweep_to_csv(cells), ns.out)
    return 0


# ``inspect --emit`` choices: the PolicyArtifacts field each prints, and how.
EMITS = {
    "graph": ("conflict_graph", graph_to_edge_list),
    "coloring": ("coloring", coloring_to_csv),
    "placement": ("placement", placement_to_csv),
    "classes": ("class_weights", classweights_to_csv),
}


def cmd_inspect(ns: argparse.Namespace) -> int:
    overrides = _collect_overrides(ns)
    if ns.emit == "classes" and "policy" in overrides:
        raise ConfigError("--emit classes always shows matern_coloring, so --policy cannot be given")
    cfg = parse_config_file(ns.config, overrides)
    if ns.emit == "classes":
        # only the Matern pipeline builds classes; it draws the same marks
        # whatever policy the config file names
        cfg = dataclasses.replace(cfg, policy="matern_coloring")
    seed0 = sim.replication_seeds(cfg.master_seed, 1)[0]
    field, to_text = EMITS[ns.emit]
    stage = "network"
    try:
        sbs, ranges = sim.build_network(cfg, seed0)
        stage = ns.emit
        catalog = Catalog(cfg.file_count, cfg.alpha)
        artifact = getattr(sim.build_policy_artifacts(cfg, sbs, ranges, seed0, catalog), field)
        if artifact is None:
            what = field.replace("_", " ")
            raise ValueError(f"policy '{cfg.policy}' on {len(sbs)} SBSs builds no {what}")
        text = to_text(artifact)
    except Exception as exc:
        raise RuntimeError(f"stage '{stage}': {exc}") from exc
    _write(text, ns.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbscache",
        description="Graph-coloring cache placement simulator for small-cell networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and print a result CSV row")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--workers", type=int, default=1, help="replication worker threads")
    _add_override_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep an axis over policies, write a CSV table")
    p_sweep.add_argument("config", help="path to a key = value config file")
    p_sweep.add_argument("--axis", choices=sim.SWEEP_AXES)
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.add_argument("--policies", help="comma-separated policy names")
    p_sweep.add_argument("--recipe", choices=sorted(RECIPES))
    p_sweep.add_argument("--out", help="output CSV path (default: stdout)")
    p_sweep.add_argument("--workers", type=int, default=1)
    _add_override_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_inspect = sub.add_parser("inspect", help="emit one replication's intermediate artifact")
    p_inspect.add_argument("config", help="path to a key = value config file")
    p_inspect.add_argument("--emit", required=True, choices=tuple(EMITS))
    p_inspect.add_argument("--out", help="output path (default: stdout)")
    _add_override_flags(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
