"""Config parsing, subcommands, and output reproducibility."""

import numpy as np
import pytest

from sbscache.cli import (
    ConfigError,
    config_to_text,
    main,
    parse_config_file,
    parse_config_text,
)
from sbscache import sim
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
    cfg = ScenarioConfig(
        n_sbs=6, sbs_range=None, sbs_range_min=50.0, sbs_range_max=100.0,
        max_matern_iterations=17,
    )
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
        "--n_users", "40", "--replications", "2", "--n_rounds", "1", "--n_sbs", "4",
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
