"""Golden outputs: exact per-replication results and output bytes, pinned.

The other tests compare reruns of the same code or allow a statistical
tolerance, so they cannot see a change that moves a hit rate by one ulp or
redraws a stream. These values were recorded once and pin the simulator's
numbers bit for bit: the ``float.hex`` of every per-replication hit rate,
every ``colors_used``, and the sha256 of sweep CSVs and ``inspect`` outputs.

A refactor must leave every value here unchanged. Only a deliberate model
change may re-record them, and must say so.
"""

import dataclasses
import hashlib

import pytest

from sbscache.cli import config_to_text, main
from sbscache.sim import ScenarioConfig, run_scenario, sweep, sweep_to_csv

SMALL = ScenarioConfig(
    n_sbs=16, n_users=120, n_rounds=3, replications=4, master_seed=5,
    file_count=200, memory=20,
)
INTERVAL = {"sbs_range": None, "sbs_range_min": 50.0, "sbs_range_max": 100.0}
# 30 stations packed in a 150 m cell need more than 3 colors, so with
# M = 20 over 60 files the color blocks run past the catalog and wrap.
WRAP = {"n_sbs": 30, "cell_radius": 150.0, "file_count": 60, "memory": 20}
# Dense enough that the degree greedy needs more colors than the exact
# solver on the first replication, the one ``inspect`` shows.
DENSE = {"n_sbs": 18, "cell_radius": 120.0, "master_seed": 7}

CASES = {
    "baseline": {"policy": "baseline"},
    "threshold_individual": {"policy": "threshold_coloring"},
    "threshold_universal_interval": {
        "policy": "threshold_coloring", "threshold_mode": "universal", **INTERVAL,
    },
    "threshold_individual_interval": {"policy": "threshold_coloring", **INTERVAL},
    "threshold_greedy_dense": {"policy": "threshold_coloring", **DENSE},
    "threshold_exact_dense": {"policy": "threshold_coloring", "coloring_mode": "exact", **DENSE},
    "matern_double": {"policy": "matern_coloring", "r_class": 60.0},
    "requests_per_round_3": {"policy": "matern_coloring", "requests_per_round": 3},
    "wrap_threshold": {"policy": "threshold_coloring", **WRAP},
    "wrap_matern": {"policy": "matern_coloring", **WRAP},
    "no_sbs": {"policy": "threshold_coloring", "n_sbs": 0},
    "one_sbs_matern": {"policy": "matern_coloring", "n_sbs": 1},
    "one_sbs_baseline": {"policy": "baseline", "n_sbs": 1},
    "no_users": {"policy": "threshold_coloring", "n_users": 0},
}

SWEEPS = {
    "alpha": (SMALL, "alpha", [0.4, 1.0],
              ["baseline", "threshold", "matern", "threshold_universal"]),
    "n_sbs_interval": (dataclasses.replace(SMALL, replications=2, **INTERVAL), "n_sbs", [0, 6],
                       ["threshold_individual", "threshold_universal", "matern_coloring"]),
}

INSPECTS = {
    "threshold_individual": ("graph", "coloring", "placement"),
    "threshold_greedy_dense": ("coloring",),
    "threshold_exact_dense": ("graph", "coloring", "placement"),
    "matern_double": ("graph", "coloring", "placement", "classes"),
    "baseline": ("placement",),
    "wrap_threshold": ("coloring", "placement"),
    "wrap_matern": ("placement", "classes"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_config(name: str) -> ScenarioConfig:
    return dataclasses.replace(SMALL, **CASES[name])


def replication_values(name: str) -> tuple[list[str], list[int]]:
    result = run_scenario(case_config(name))
    return [float.hex(h) for h in result.per_replication], list(result.colors_used)


def sweep_sha(name: str) -> str:
    cfg, axis, values, policies = SWEEPS[name]
    return _sha(sweep_to_csv(sweep(cfg, axis, values, policies)))


def inspect_sha(name: str, emit: str, tmp_path) -> str:
    cfg_path = tmp_path / f"{name}.cfg"
    out = tmp_path / f"{name}.{emit}.csv"
    cfg_path.write_text(config_to_text(case_config(name)))
    assert main(["inspect", str(cfg_path), "--emit", emit, "--out", str(out)]) == 0
    return _sha(out.read_text(encoding="utf-8"))


# Recorded before the placement, config and netgraph refactor.
GOLDEN_REPLICATIONS = {
    'baseline': (
        ['0x1.5555555555555p-3', '0x1.49f49f49f49f5p-3', '0x1.6c16c16c16c17p-3', '0x1.7d27d27d27d28p-3'],
        [1, 1, 1, 1],
    ),
    'threshold_individual': (
        ['0x1.2d82d82d82d83p-3', '0x1.5b05b05b05b06p-3', '0x1.999999999999ap-3', '0x1.5555555555555p-3'],
        [2, 2, 2, 3],
    ),
    'threshold_universal_interval': (
        ['0x1.4fa4fa4fa4fa5p-3', '0x1.3333333333333p-3', '0x1.93e93e93e93e9p-3', '0x1.38e38e38e38e4p-3'],
        [2, 2, 2, 2],
    ),
    'threshold_individual_interval': (
        ['0x1.3333333333333p-3', '0x1.38e38e38e38e4p-3', '0x1.a4fa4fa4fa4fap-3', '0x1.2d82d82d82d83p-3'],
        [2, 2, 2, 2],
    ),
    'threshold_greedy_dense': (
        ['0x1.638e38e38e38ep-1', '0x1.349f49f49f49fp-1', '0x1.4fa4fa4fa4fa5p-1', '0x1.4444444444444p-1'],
        [7, 7, 6, 5],
    ),
    'threshold_exact_dense': (
        ['0x1.6666666666666p-1', '0x1.349f49f49f49fp-1', '0x1.4fa4fa4fa4fa5p-1', '0x1.4444444444444p-1'],
        [6, 7, 6, 5],
    ),
    'matern_double': (
        ['0x1.6666666666666p-3', '0x1.6c16c16c16c17p-3', '0x1.999999999999ap-3', '0x1.4fa4fa4fa4fa5p-3'],
        [2, 2, 2, 2],
    ),
    'requests_per_round_3': (
        ['0x1.3333333333333p-3', '0x1.8888888888889p-3', '0x1.9b7f0d4629b7fp-3', '0x1.6480f2b9d6481p-3'],
        [2, 2, 2, 3],
    ),
    'wrap_threshold': (
        ['0x1.e7d27d27d27d2p-1', '0x1.eaaaaaaaaaaabp-1', '0x1.d3e93e93e93e9p-1', '0x1.ec16c16c16c17p-1'],
        [8, 7, 8, 6],
    ),
    'wrap_matern': (
        ['0x1.eeeeeeeeeeeefp-1', '0x1.f60b60b60b60bp-1', '0x1.df49f49f49f4ap-1', '0x1.f333333333333p-1'],
        [9, 7, 8, 6],
    ),
    'no_sbs': (
        ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        [0, 0, 0, 0],
    ),
    'one_sbs_matern': (
        ['0x1.1111111111111p-6', '0x1.6c16c16c16c17p-7', '0x1.1111111111111p-6', '0x1.1111111111111p-7'],
        [1, 1, 1, 1],
    ),
    'one_sbs_baseline': (
        ['0x1.1111111111111p-6', '0x1.6c16c16c16c17p-7', '0x1.1111111111111p-6', '0x1.1111111111111p-7'],
        [1, 1, 1, 1],
    ),
    'no_users': (
        ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        [2, 2, 2, 3],
    ),
}

GOLDEN_SWEEPS = {
    'alpha': '41af6c25f3cf88a535d7017df2b1c48000e5e634fa1bcb94771ca43c8bd09c34',
    'n_sbs_interval': '22044c0b1bc9e66100159946cc6ada7f24a449336951982bab1ee9077449f026',
}

GOLDEN_INSPECTS = {
    ('threshold_individual', 'graph'): '937eb0969ffbe89c651bd3cdc13407f9c48ae7b0c4d107c09d75679c7632eccc',
    ('threshold_individual', 'coloring'): '5dd1aff02bd29d6f10b35ca4f6f90bd028f06a54f1cd172b25e30f4c5bce1405',
    ('threshold_individual', 'placement'): '1b95255678b56b27f1cd53ab5dc52202d28c4d6fec2f974fae12a79625658d58',
    ('threshold_greedy_dense', 'coloring'): '54055caed3ae6bd69f56cc194f9ca24ce54bee53c2828675905a5f407531d78e',
    ('threshold_exact_dense', 'graph'): 'd9ab7b7e4e7542d3c7d6be9dae8f3b0690998e9c9e2484d3b85f6d8edc5007ac',
    ('threshold_exact_dense', 'coloring'): '27678f0f01d31360e71ffa05332fe59360b05e6c2f1f190b83ac396fcb029c38',
    ('threshold_exact_dense', 'placement'): '71c58449c14f9ea18e0a292756a4dcf710392d8952a71f1350d3c9fe9e07a39c',
    ('matern_double', 'graph'): '530530daee2fc669281efbb8b3af2b188368ac1ab4d4c660a53d3742a286e0e3',
    ('matern_double', 'coloring'): '7adc79dd956ad0abf93fa8aff8623e309f9e5f38f08b062bfbed56d68f0a5f48',
    ('matern_double', 'placement'): '33c769ec4ee2cc18c01135e71b95dccb2e0b5d6d858b6bdf92f6c8d08a6f945a',
    ('matern_double', 'classes'): 'd2b609de89c4e5dfd6fb7dfcbcbdcda0e65e9e341e44712a520200b616dccbeb',
    ('baseline', 'placement'): '89223a62afcc01e8aaaafa00786ed64dbb4b5a60a0bec4963d040b7d3a26197b',
    ('wrap_threshold', 'coloring'): '631f78c2660a853b0145d638b20cb737af4b652ecefb5b5ed9805617e12ecd4f',
    ('wrap_threshold', 'placement'): '889b5f46fc153e781123ce31b1d75818f2ef31c8dfc5d836b31a3a9320d0e285',
    ('wrap_matern', 'placement'): 'da28ddf8df45714e240409b9fd22a2941fabeddaa99dad58bc854b07edf3cfea',
    ('wrap_matern', 'classes'): 'b7ae94e9e9438c5d326393118d874d73c04d2a75c04793ca051d3e0954be7dff',
}


def test_golden_tables_cover_every_case():
    assert set(GOLDEN_REPLICATIONS) == set(CASES)
    assert set(GOLDEN_SWEEPS) == set(SWEEPS)
    assert set(GOLDEN_INSPECTS) == {(n, e) for n, emits in INSPECTS.items() for e in emits}


def test_wrap_cases_wrap():
    for name in ("wrap_threshold", "wrap_matern"):
        cfg = case_config(name)
        colors = GOLDEN_REPLICATIONS[name][1]
        assert max(colors) * cfg.memory > cfg.file_count


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_replication_results(name):
    assert replication_values(name) == GOLDEN_REPLICATIONS[name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_bytes(name):
    assert sweep_sha(name) == GOLDEN_SWEEPS[name]


@pytest.mark.parametrize(
    "name,emit", sorted((n, e) for n, emits in INSPECTS.items() for e in emits)
)
def test_inspect_bytes(name, emit, tmp_path):
    assert inspect_sha(name, emit, tmp_path) == GOLDEN_INSPECTS[(name, emit)]
