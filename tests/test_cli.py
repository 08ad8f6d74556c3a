"""Config parsing, subcommands, and output reproducibility."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sbscache import cli, sim
from sbscache.cli import (
    CONFIG_KEYS,
    ConfigError,
    build_parser,
    config_to_text,
    main,
    parse_config_file,
    parse_config_text,
)
from sbscache.sim import ScenarioConfig

BASE_CONFIG = """\
# desk-scale scenario
cell_radius = 350
n_sbs = 12
sbs_range = 80
n_users = 150
file_count = 200
memory = 20
alpha = 0.6
n_rounds = 2
requests_per_round = 1
policy = baseline
replications = 3
master_seed = 7
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def test_parse_minimal_config():
    cfg = parse_config_text("n_sbs = 48\n")
    assert cfg.n_sbs == 48
    assert cfg.policy == "baseline"


def test_parse_full_config():
    cfg = parse_config_text(BASE_CONFIG)
    assert cfg.n_sbs == 12 and cfg.master_seed == 7 and cfg.alpha == 0.6


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError, match="n_sbs"):
        parse_config_text("alpha = 0.6\n")


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2.*warp_factor"):
        parse_config_text("n_sbs = 4\nwarp_factor = 9\n")
    # survivor_counting chose a second Matern weighting rule, since deleted
    with pytest.raises(ConfigError, match="line 2: unknown key 'survivor_counting'"):
        parse_config_text("n_sbs = 4\nsurvivor_counting = double\n")


def test_malformed_value_names_line_and_key():
    with pytest.raises(ConfigError, match="line 1.*n_sbs"):
        parse_config_text("n_sbs = many\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'n_sbs'"):
        parse_config_text("n_sbs = 4\nn_sbs = 8\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("n_sbs 4\n")


def test_range_and_interval_conflict():
    text = "n_sbs = 4\nsbs_range = 80\nsbs_range_min = 50\nsbs_range_max = 100\n"
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_interval_without_fixed_range():
    cfg = parse_config_text("n_sbs = 4\nsbs_range_min = 50\nsbs_range_max = 100\n")
    assert cfg.sbs_range is None
    assert cfg.uses_range_interval()


def test_policy_aliases_canonicalized():
    cfg = parse_config_text("n_sbs = 4\npolicy = threshold\n")
    assert cfg.policy == "threshold_coloring"


def test_overrides_win():
    cfg = parse_config_text(BASE_CONFIG, overrides={"master_seed": "99", "alpha": "1.1"})
    assert cfg.master_seed == 99 and cfg.alpha == 1.1


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("\n# comment\nn_sbs = 4  # trailing\n\n")
    assert cfg.n_sbs == 4


def test_config_round_trip():
    cfg = parse_config_text(BASE_CONFIG)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_config_round_trip_with_interval():
    cfg = ScenarioConfig(n_sbs=6, sbs_range=None, sbs_range_min=50.0, sbs_range_max=100.0)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_config_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + BASE_CONFIG.encode())
    assert parse_config_file(str(path)) == parse_config_text(BASE_CONFIG)


INTERVAL_CONFIG = BASE_CONFIG.replace("sbs_range = 80\n", "sbs_range_min = 50\nsbs_range_max = 100\n")
RANGE_FLAGS = {
    "interval": ["--sbs_range_min", "50", "--sbs_range_max", "100"],
    "fixed": ["--sbs_range", "80"],
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("file_text, flags, same_as", [
    (BASE_CONFIG, RANGE_FLAGS["interval"], INTERVAL_CONFIG),
    (INTERVAL_CONFIG, RANGE_FLAGS["fixed"], BASE_CONFIG),
], ids=["fixed-file-interval-flags", "interval-file-fixed-flag"])
def test_a_range_flag_replaces_the_other_form_in_the_file(
    tmp_path, capsys, command, file_text, flags, same_as
):
    args = {"run": ["--policy", "threshold_coloring"],
            "sweep": ["--axis", "n_sbs", "--values", "4,12", "--policies", "baseline,threshold"]}
    outputs = []
    for text, extra in ((file_text, flags), (same_as, [])):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        assert main([command, str(path), *args[command], *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_both_range_forms_in_the_flags_are_a_config_error(config_path, capsys, command):
    args = [command, config_path, *RANGE_FLAGS["fixed"], *RANGE_FLAGS["interval"]]
    if command == "sweep":
        args += ["--axis", "n_sbs", "--values", "4", "--policies", "baseline"]
    assert main(args) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [{"sbs_range": "60"}, {"sbs_range_min": "40"}])
def test_both_range_forms_in_the_file_stay_an_error_under_a_range_flag(flag):
    text = "n_sbs = 4\nsbs_range = 80\nsbs_range_min = 50\nsbs_range_max = 100\n"
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(text, overrides=flag)


def test_run_outputs_one_csv_row(config_path, capsys):
    assert main(["run", config_path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("policy,mean_hit_rate")
    assert lines[1].startswith("baseline,")


def test_run_is_byte_deterministic(config_path, capsys):
    assert main(["run", config_path, "--master_seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["run", config_path, "--master_seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_run_override_changes_result(config_path, capsys):
    main(["run", config_path])
    base = capsys.readouterr().out
    main(["run", config_path, "--policy", "threshold_coloring"])
    colored = capsys.readouterr().out
    assert base != colored
    assert colored.splitlines()[1].startswith("threshold_coloring,")


def test_run_reports_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 0.6\n")
    assert main(["run", str(path)]) == 2
    assert "n_sbs" in capsys.readouterr().err


def test_run_missing_file_fails_cleanly(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2
    assert "config" in capsys.readouterr().err


def test_sweep_explicit_axis(config_path, tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "sweep", config_path, "--axis", "n_sbs", "--values", "4,8",
        "--policies", "baseline,threshold", "--out", str(out),
        "--n_users", "60", "--replications", "2",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("axis_name,axis_value,policy")
    assert len(lines) == 5


def test_sweep_recipe_flag(config_path, tmp_path):
    out = tmp_path / "fig3.csv"
    code = main([
        "sweep", config_path, "--recipe", "fig3", "--out", str(out),
        "--n_users", "40", "--replications", "2", "--n_rounds", "1",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # 4 axis points x 3 policies
    assert {ln.split(",")[2] for ln in lines[1:]} == {
        "baseline", "threshold_coloring", "matern_coloring"
    }


def test_sweep_recipe_fig5_uses_interval(config_path, tmp_path, capsys):
    path_cfg = config_path
    out = tmp_path / "fig5.csv"
    code = main([
        "sweep", path_cfg, "--recipe", "fig5", "--out", str(out),
        "--n_users", "40", "--replications", "2", "--n_rounds", "1",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert {ln.split(",")[2] for ln in lines[1:]} == {
        "baseline", "threshold_individual", "threshold_universal"
    }


@pytest.mark.parametrize("axis, values", [("alpha", "0.6,nan"), ("n_sbs", "4,-3")])
def test_sweep_rejects_bad_axis_value_before_running(
    config_path, tmp_path, capsys, monkeypatch, axis, values
):
    ran = []
    monkeypatch.setattr(sim, "run_scenario", lambda cfg, workers=1: ran.append(cfg))
    out = tmp_path / "table.csv"
    code = main([
        "sweep", config_path, "--axis", axis, "--values", values,
        "--policies", "baseline", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and axis in err
    assert ran == [] and not out.exists()


def test_sweep_out_creates_missing_directory(config_path, tmp_path):
    out = tmp_path / "new" / "table.csv"
    code = main([
        "sweep", config_path, "--axis", "n_sbs", "--values", "4",
        "--policies", "baseline", "--out", str(out),
        "--n_users", "20", "--replications", "2", "--n_rounds", "1",
    ])
    assert code == 0
    assert out.read_text().startswith("axis_name,axis_value,policy")


def test_sweep_recipe_conflicts_with_axis(config_path, capsys):
    assert main([
        "sweep", config_path, "--recipe", "fig3", "--axis", "alpha",
        "--values", "0.5", "--policies", "baseline",
    ]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("recipe, key, raw", [
    ("fig3", "alpha", "1.2"),
    ("fig4", "n_sbs", "10"),
    ("fig5", "sbs_range_min", "40"),
    ("fig5", "sbs_range", "60"),
    ("fig3", "n_sbs", "10"),
    ("fig4", "alpha", "0.3"),
    ("fig3", "policy", "baseline"),
    ("fig5", "threshold_mode", "universal"),
])
def test_sweep_rejects_a_flag_the_recipe_presets(
    config_path, tmp_path, capsys, monkeypatch, recipe, key, raw
):
    # the recipe's presets used to overwrite the flag without a word
    ran = []
    monkeypatch.setattr(sim, "run_scenario", lambda cfg, workers=1: ran.append(cfg))
    out = tmp_path / "table.csv"
    code = main(["sweep", config_path, "--recipe", recipe, f"--{key}", raw, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and recipe in err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("sweep_args, key", [
    (["--axis", "alpha", "--values", "0.2,0.4", "--policies", "baseline", "--alpha", "0.9"], "alpha"),
    (["--axis", "n_sbs", "--values", "4", "--policies", "baseline", "--policy", "matern"], "policy"),
    (["--axis", "n_sbs", "--values", "4", "--policies", "baseline,threshold_universal",
      "--threshold_mode", "individual"], "threshold_mode"),
], ids=["axis", "policy", "pinned-mode"])
def test_sweep_rejects_a_flag_for_a_key_every_cell_sets(
    config_path, tmp_path, capsys, monkeypatch, sweep_args, key
):
    ran = []
    monkeypatch.setattr(sim, "run_scenario", lambda cfg, workers=1: ran.append(cfg))
    out = tmp_path / "table.csv"
    assert main(["sweep", config_path, *sweep_args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"sets {key} in every cell" in err
    assert ran == [] and not out.exists()


def test_sweep_leaves_the_threshold_mode_to_a_flag_when_no_token_pins_it(tmp_path, capsys):
    path = tmp_path / "interval.cfg"
    path.write_text(INTERVAL_CONFIG)
    args = ["sweep", str(path), "--axis", "n_sbs", "--values", "32", "--policies", "threshold"]
    outputs = []
    for mode in ([], ["--threshold_mode", "universal"], ["--threshold_mode", "individual"]):
        assert main([*args, *mode]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2] != outputs[1]


def test_sweep_values_are_cast_like_the_axis_key(config_path, capsys):
    assert main([
        "sweep", config_path, "--axis", "alpha", "--values", "0.6,abc", "--policies", "baseline",
    ]) == 2
    assert "invalid value 'abc' for key 'alpha'" in capsys.readouterr().err


def test_sweep_requires_axis_or_recipe(config_path, capsys):
    assert main(["sweep", config_path]) == 2


def test_sweep_is_byte_deterministic_across_workers(config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", config_path, "--axis", "alpha", "--values", "0.4,0.8",
            "--policies", "baseline,matern", "--n_users", "60", "--replications", "4"]
    assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_inspect_coloring_on_overlapping_pair(tmp_path, capsys):
    # two SBSs close together must receive distinct colors
    path = tmp_path / "pair.cfg"
    path.write_text(
        "n_sbs = 2\ncell_radius = 20\nsbs_range = 80\npolicy = threshold_coloring\n"
        "n_users = 10\nfile_count = 100\nmemory = 10\nmaster_seed = 3\n"
    )
    assert main(["inspect", str(path), "--emit", "coloring"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "vertex_id,color"
    colors = {ln.split(",")[1] for ln in lines[1:]}
    assert colors == {"1", "2"}


def test_inspect_graph_matches_brute_force(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text(
        "n_sbs = 10\ncell_radius = 200\nsbs_range = 80\npolicy = threshold_coloring\n"
        "threshold_mode = universal\nn_users = 10\nmaster_seed = 11\n"
    )
    assert main(["inspect", str(path), "--emit", "graph"]) == 0
    edge_lines = capsys.readouterr().out.splitlines()

    from sbscache.cli import parse_config_file
    from sbscache.sim import build_network, replication_seeds

    cfg = parse_config_file(str(path))
    sbs, _ = build_network(cfg, replication_seeds(cfg.master_seed, 1)[0])
    expected = set()
    for i in range(10):
        for j in range(i + 1, 10):
            if float(np.hypot(*(sbs.xy[i] - sbs.xy[j]))) <= 80.0:
                expected.add(f"{i} {j}")
    assert set(edge_lines) == expected


def test_inspect_classes_all_weights_positive(tmp_path, capsys):
    path = tmp_path / "cls.cfg"
    path.write_text(
        "n_sbs = 10\ncell_radius = 300\nsbs_range = 80\npolicy = matern_coloring\n"
        "r_class = 80\nn_users = 10\nmaster_seed = 13\n"
    )
    assert main(["inspect", str(path), "--emit", "classes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sbs_id,weight,class_members"
    weights = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert len(weights) == 10 and all(w >= 1 for w in weights)


def test_inspect_placement_for_baseline(tmp_path, capsys):
    path = tmp_path / "pl.cfg"
    path.write_text("n_sbs = 3\nfile_count = 100\nmemory = 4\nmaster_seed = 1\n")
    assert main(["inspect", str(path), "--emit", "placement"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sbs_id,file_rank"
    assert len(lines) == 1 + 3 * 4


def test_inspect_graph_rejects_baseline(tmp_path, capsys):
    path = tmp_path / "pl.cfg"
    path.write_text("n_sbs = 3\nmaster_seed = 1\n")
    assert main(["inspect", str(path), "--emit", "graph"]) == 1
    err = capsys.readouterr().err
    assert "stage" in err and "baseline" in err


def test_inspect_without_stations(tmp_path, capsys):
    # no station means no classes to show; the placement is just its header
    path = tmp_path / "empty.cfg"
    path.write_text("n_sbs = 0\npolicy = matern_coloring\nmaster_seed = 1\n")
    out = tmp_path / "classes.csv"
    assert main(["inspect", str(path), "--emit", "classes", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "stage 'classes'" in captured.err and captured.out == ""
    assert not out.exists()
    assert main(["inspect", str(path), "--emit", "placement"]) == 0
    assert capsys.readouterr().out == "sbs_id,file_rank\n"


def test_inspect_writes_file(tmp_path):
    path = tmp_path / "pl.cfg"
    path.write_text("n_sbs = 3\nfile_count = 100\nmemory = 4\nmaster_seed = 1\n")
    out = tmp_path / "placement.csv"
    assert main(["inspect", str(path), "--emit", "placement", "--out", str(out)]) == 0
    assert out.read_text().startswith("sbs_id,file_rank")


def test_inspect_out_creates_missing_directory(tmp_path):
    path = tmp_path / "pl.cfg"
    path.write_text("n_sbs = 3\nfile_count = 100\nmemory = 4\nmaster_seed = 1\n")
    out = tmp_path / "new" / "placement.csv"
    assert main(["inspect", str(path), "--emit", "placement", "--out", str(out)]) == 0
    assert out.read_text().startswith("sbs_id,file_rank")


def test_inspect_is_reproducible(tmp_path, capsys):
    path = tmp_path / "cls.cfg"
    path.write_text(
        "n_sbs = 8\ncell_radius = 300\npolicy = matern_coloring\nmaster_seed = 21\n"
        "n_users = 10\n"
    )
    assert main(["inspect", str(path), "--emit", "classes"]) == 0
    first = capsys.readouterr().out
    assert main(["inspect", str(path), "--emit", "classes"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("key,raw", [("alpha", "nan"), ("r_class", "inf"), ("cell_radius", "inf")])
def test_run_rejects_non_finite_values(config_path, capsys, key, raw):
    assert main(["run", config_path, f"--{key}", raw]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_workers_below_one_is_a_config_error(config_path, tmp_path, capsys, monkeypatch, command, workers):
    # a negative count used to run serially and exit 0
    ran = []
    monkeypatch.setattr(sim, "run_scenario", lambda cfg, workers=1: ran.append(cfg))
    out = tmp_path / "table.csv"
    args = [command, config_path, "--workers", workers]
    if command == "sweep":
        args += ["--recipe", "fig3", "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "--workers" in captured.err
    assert captured.out == "" and ran == [] and not out.exists()


# The range interval by itself, from the Python API: ScenarioConfig owns the
# 80 m default, so it applies only when neither range form is given.


def test_the_range_interval_alone_is_a_valid_config():
    cfg = ScenarioConfig(n_sbs=4, sbs_range_min=50.0, sbs_range_max=100.0)
    cfg.validate()
    assert cfg.sbs_range is None
    _, ranges = sim.build_network(cfg, sim.replication_seeds(cfg.master_seed, 1)[0])
    assert ranges.shape == (4,) and np.all((ranges >= 50.0) & (ranges <= 100.0))


def test_with_neither_range_form_the_range_is_80_m():
    assert ScenarioConfig().sbs_range == 80.0
    assert ScenarioConfig(sbs_range=None).sbs_range == 80.0


def test_an_interval_config_from_the_api_runs_as_the_same_file(tmp_path, capsys):
    cfg = ScenarioConfig(
        n_sbs=12, sbs_range_min=50.0, sbs_range_max=100.0, n_users=150, file_count=200,
        memory=20, n_rounds=2, replications=3, master_seed=7, policy="threshold_coloring",
    )
    path = tmp_path / "interval.cfg"
    path.write_text(INTERVAL_CONFIG)
    assert main(["run", str(path), "--policy", "threshold_coloring"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == sim.result_row(cfg.policy, sim.run_scenario(cfg), cfg.master_seed)


# Properties over the whole schema, sim.CONFIG_FIELDS. Every key but the two
# range forms has a strategy of valid values; memory stays within the least
# file_count drawn, so any mix of these values is valid.
VALID_VALUES = {
    "cell_radius": st.floats(0.0, 1e6, exclude_min=True),
    "n_sbs": st.integers(0, 10**6),
    "n_users": st.integers(0, 10**6),
    "file_count": st.integers(50, 10**6),
    "memory": st.integers(1, 50),
    "alpha": st.floats(0.0, 1e3),
    "n_rounds": st.integers(0, 10**6),
    "requests_per_round": st.integers(0, 10**6),
    "policy": st.sampled_from(sim.POLICIES),
    "threshold_mode": st.sampled_from(sim.THRESHOLD_MODES),
    "coloring_mode": st.sampled_from(sim.COLORING_MODES),
    "r_class": st.floats(0.0, 1e6, exclude_min=True),
    "replications": st.integers(1, 10**6),
    "master_seed": st.integers(0, 2**63),
}
RANGE_FORMS = (("sbs_range",), ("sbs_range_min", "sbs_range_max"))
RANGE_VALUES = {
    "sbs_range": st.floats(0.0, 1e6, exclude_min=True),
    "sbs_range_min": st.floats(0.0, 50.0, exclude_min=True),
    "sbs_range_max": st.floats(50.0, 1e6),
}
# The text of a valid value, as a file line or a flag gives it.
VALID_TEXT = {key: values.map(str) for key, values in {**VALID_VALUES, **RANGE_VALUES}.items()}
VALID_TEXT["policy"] = st.sampled_from(sorted(cli._POLICY_ALIASES))
# Any subset of the keys, each with the text of a valid value. The range keys
# are drawn as a whole: neither form, one, both, or half the interval.
RANGE_KEYS = st.sampled_from([(), *RANGE_FORMS, sum(RANGE_FORMS, ()), ("sbs_range_max",)])
KEY_TEXTS = st.tuples(st.sets(st.sampled_from(sorted(VALID_VALUES))), RANGE_KEYS).flatmap(
    lambda keys: st.fixed_dictionaries({key: VALID_TEXT[key] for key in (*sorted(keys[0]), *keys[1])})
)


def test_the_strategies_cover_every_config_key():
    assert sorted({**VALID_VALUES, **RANGE_VALUES}) == sorted(sim.CONFIG_FIELDS)


@st.composite
def api_configs(draw, range_keys=st.sampled_from([(), *RANGE_FORMS])):
    """Any subset of the keys through the Python API; by default in one range form or neither."""
    keys = draw(st.sets(st.sampled_from(sorted(VALID_VALUES))))
    values = {key: draw(VALID_VALUES[key]) for key in sorted(keys)}
    return ScenarioConfig(**values, **{key: draw(RANGE_VALUES[key]) for key in draw(range_keys)})


@settings(max_examples=100, deadline=None)
@given(api_configs())
def test_any_valid_config_parses_back_from_its_text(cfg):
    cfg.validate()
    assert parse_config_text(config_to_text(cfg)) == cfg


@settings(max_examples=20, deadline=None)
@given(api_configs(range_keys=st.just(sum(RANGE_FORMS, ()))))
def test_both_range_forms_fail_from_the_api_and_from_a_file(cfg):
    with pytest.raises(ValueError, match="not both"):
        cfg.validate()
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(config_to_text(cfg))


def _parsed(text, overrides=None):
    try:
        return parse_config_text(text, overrides)
    except ConfigError:
        return ConfigError


def _lines(values):
    return "".join(f"{key} = {text}\n" for key, text in values.items())


@settings(max_examples=80, deadline=None)
@given(KEY_TEXTS, KEY_TEXTS)
def test_a_flag_gives_the_config_of_its_line_in_the_file(file_values, flags):
    file_values.setdefault("n_sbs", "4")
    ns = build_parser().parse_args(["run", "scenario.cfg", *(f"--{k}={v}" for k, v in flags.items())])
    got = _parsed(_lines(file_values), cli._collect_overrides(ns))
    file_forms = {form for form in RANGE_FORMS if file_values.keys() & set(form)}
    flag_forms = {form for form in RANGE_FORMS if flags.keys() & set(form)}
    if len(flag_forms) == 1 and len(file_forms) == 1 and file_forms != flag_forms:
        # a flag for one range form replaces the file's other form
        (other,) = file_forms
        file_values = {k: v for k, v in file_values.items() if k not in other}
    assert got == _parsed(_lines({**file_values, **flags}))


def _names_but(valid):
    return st.text("abcdefghijklmnopqrstuvwxyz_-0123456789", max_size=12).filter(
        lambda name: name not in valid
    )


NOT_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)
# Values out of range for BASE_CONFIG (file_count = 200) or, for the
# interval keys, INTERVAL_CONFIG (sbs_range_min = 50, sbs_range_max = 100).
OUT_OF_RANGE = {
    "cell_radius": NOT_POSITIVE,
    "n_sbs": st.integers(max_value=-1),
    "sbs_range": NOT_POSITIVE,
    "sbs_range_min": NOT_POSITIVE | st.floats(100.0, 1e6, exclude_min=True),
    "sbs_range_max": st.floats(-1e6, 50.0, exclude_max=True),
    "n_users": st.integers(max_value=-1),
    "file_count": st.integers(max_value=0),
    "memory": st.integers(max_value=0) | st.integers(201, 10**6),
    "alpha": st.floats(-1e6, 0.0, exclude_max=True),
    "n_rounds": st.integers(max_value=-1),
    "requests_per_round": st.integers(max_value=-1),
    "policy": _names_but(sim.POLICY_TOKENS),
    "threshold_mode": _names_but(sim.THRESHOLD_MODES),
    "coloring_mode": _names_but(sim.COLORING_MODES),
    "r_class": NOT_POSITIVE,
    "replications": st.integers(max_value=0),
    "master_seed": st.integers(max_value=-1),
}
# Texts that are not a value of a numeric key's type.
NOT_A_VALUE = {
    int: st.floats().map(str) | st.sampled_from(["", "abc", "None", "1e3", "0x10", "4 4"]),
    float: st.sampled_from(["", "abc", "None", "1,5", "nan", "NaN", "inf", "-inf", "1e999"]),
    str: st.nothing(),
}


def _command_args(command, path, out, key):
    if command == "run":
        return ["run", path]
    if command == "inspect":
        return ["inspect", path, "--emit", "coloring", "--out", out]
    axis, value = ("n_sbs", "4") if key == "alpha" else ("alpha", "0.6")
    return ["sweep", path, "--axis", axis, "--values", value, "--policies", "baseline", "--out", out]


@pytest.mark.parametrize("key", CONFIG_KEYS)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_bad_value_for_any_key_is_exit_2_naming_the_key(tmp_path, capsys, monkeypatch, key, data):
    kind, _ = sim.CONFIG_FIELDS[key]
    raw = data.draw(OUT_OF_RANGE[key].map(str) | NOT_A_VALUE[kind], label="raw")
    _assert_rejected_everywhere(tmp_path, capsys, monkeypatch, key, raw)


# int() and float() read these as 64, and 64 is a valid value of every numeric key
@pytest.mark.parametrize("raw", ["6_4", "\uff16\uff14", "\u0666\u0664"],
                         ids=["separator", "full-width", "arabic-indic"])
@pytest.mark.parametrize("key", [key for key, (kind, _) in sim.CONFIG_FIELDS.items() if kind is not str])
def test_digit_separators_and_non_ascii_digits_are_bad_values(tmp_path, capsys, monkeypatch, key, raw):
    _assert_rejected_everywhere(tmp_path, capsys, monkeypatch, key, raw)


# the simulator colors only greedily, and the Matern budget is not a config key
@pytest.mark.parametrize("key,line,flags", [
    ("coloring_mode", "coloring_mode = exact\n", []),
    ("coloring_mode", "", ["--coloring_mode", "exact"]),
    ("max_matern_iterations", "max_matern_iterations = 3\n", []),
], ids=["coloring_mode-file", "coloring_mode-flag", "max_matern_iterations-file"])
def test_exact_coloring_and_the_budget_key_are_exit_2(
    tmp_path, capsys, monkeypatch, key, line, flags
):
    _assert_exit_2_naming_the_key(tmp_path, capsys, monkeypatch, key, [(BASE_CONFIG + line, flags)])


def _assert_rejected_everywhere(tmp_path, capsys, monkeypatch, key, raw):
    """``raw`` for ``key``, in a file and in a flag, exits 2 naming the key under every command."""
    base = INTERVAL_CONFIG if key in RANGE_FORMS[1] else BASE_CONFIG
    kept = "".join(line for line in base.splitlines(True) if line.split(" =")[0] != key)
    inputs = [(f"{kept}{key} = {raw}\n", []), (base, [f"--{key}={raw}"])]
    _assert_exit_2_naming_the_key(tmp_path, capsys, monkeypatch, key, inputs)


def _assert_exit_2_naming_the_key(tmp_path, capsys, monkeypatch, key, inputs):
    """Each (file text, flags) of ``inputs`` exits 2 naming ``key`` under every command, running nothing."""
    ran = []
    monkeypatch.setattr(sim, "run_scenario", lambda cfg, workers=1: ran.append(cfg))
    monkeypatch.setattr(sim, "build_network", lambda cfg, seed: ran.append(cfg))
    path, out = tmp_path / "scenario.cfg", tmp_path / "out.csv"
    for text, flags in inputs:
        path.write_text(text, encoding="utf-8")
        for command in ("run", "sweep", "inspect"):
            assert main([*_command_args(command, str(path), str(out), key), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:") and key in captured.err
            assert captured.out == "" and ran == [] and not out.exists()


def test_inspect_classes_rejects_a_policy_flag(tmp_path, capsys):
    path = tmp_path / "cls.cfg"
    path.write_text("n_sbs = 10\npolicy = baseline\nmaster_seed = 13\n")
    out = tmp_path / "classes.csv"
    args = ["inspect", str(path), "--emit", "classes", "--out", str(out)]
    assert main([*args, "--policy", "baseline"]) == 2
    assert "--policy" in capsys.readouterr().err and not out.exists()
    # a file's policy line is still replaced by matern_coloring
    assert main(args) == 0
    path.write_text("n_sbs = 10\npolicy = matern_coloring\nmaster_seed = 13\n")
    assert main([*args[:-1], str(tmp_path / "matern.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "matern.csv").read_bytes()
