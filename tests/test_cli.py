"""CLI tests: config parsing/round-trip, CSV persistence, determinism,
exit codes, and subcommand wiring."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from mbgf.errors import ConfigError
from mbgf.cli import (ExperimentConfig, parse_config, validate_config,
                      run_experiment, trajectory_csv_text, iterates_csv_text,
                      main, PROBLEM_ALIASES)
from mbgf import problems
from mbgf.problems import Box, get_problem, make_problem
from mbgf.scaling import parse_scaling
from mbgf.flow import FlowConfig, integrate_first_order
from mbgf.discrete import DiscreteConfig, run_discrete


MINIMAL = '{"problem": "p2", "mode": "flow", "x0": [1, 0], "t_end": 10}'


# ---------------------------------------------------------------------------
# parse_config


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem == "strongly-convex"
    assert cfg.mode == "flow"
    assert cfg.x0 == (1.0, 0.0)
    assert cfg.t_end == 10.0
    assert cfg.dt == 1e-3
    assert cfg.scaling == "const:1,1"
    assert cfg.seed == 0
    assert cfg.rates == ()


def test_round_trip_is_identity():
    cfg = parse_config(MINIMAL)
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert parse_config(again.to_text()) == again


def test_key_value_form_equivalent_to_json():
    text = "\n".join([
        "# comment line",
        "problem = p2",
        "mode = flow",
        "x0 = 1,0",
        "t_end = 10",
        "",
    ])
    assert parse_config(text) == parse_config(MINIMAL)


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config('{"problem": "p2", "t_end": 1, "bogus": 3}')


def test_out_of_range_dt_names_dt():
    with pytest.raises(ConfigError, match="dt"):
        parse_config('{"problem": "p2", "t_end": 1, "dt": -1}')


def test_missing_problem_and_missing_t_end():
    with pytest.raises(ConfigError, match="problem"):
        parse_config('{"t_end": 1}')
    with pytest.raises(ConfigError, match="t_end"):
        parse_config('{"problem": "p2", "mode": "flow"}')
    # discrete mode does not need t_end
    cfg = parse_config('{"problem": "p2", "mode": "discrete"}')
    assert cfg.t_end is None


def test_malformed_values_name_the_key():
    with pytest.raises(ConfigError, match="t_end"):
        parse_config('{"problem": "p2", "t_end": "soon"}')
    with pytest.raises(ConfigError, match="x0"):
        parse_config('{"problem": "p2", "t_end": 1, "x0": [1, "a"]}')
    with pytest.raises(ConfigError, match="x0"):
        parse_config('{"problem": "p2", "t_end": 1, "x0": [1, 2, 3]}')
    with pytest.raises(ConfigError, match="scaling"):
        parse_config('{"problem": "p2", "t_end": 1, "scaling": "const:1,1,1"}')
    with pytest.raises(ConfigError, match="mode"):
        parse_config('{"problem": "p2", "t_end": 1, "mode": "warp"}')
    with pytest.raises(ConfigError, match="iters"):
        parse_config('{"problem": "p2", "mode": "discrete", "iters": 0}')
    with pytest.raises(ConfigError, match="safety"):
        parse_config('{"problem": "p2", "mode": "discrete", "safety": 2}')


def test_problem_aliases_resolve():
    for alias, full in PROBLEM_ALIASES.items():
        cfg = parse_config(json.dumps(
            {"problem": alias, "mode": "discrete"}))
        assert cfg.problem == full


def test_accel_requires_constant_scaling():
    with pytest.raises(ConfigError, match="scaling"):
        parse_config('{"problem": "p2", "mode": "accel", "t_end": 1, '
                     '"scaling": "gradnorm:eta=0.1"}')


def test_rate_requests_validated():
    with pytest.raises(ConfigError, match="rates"):
        parse_config('{"problem": "p2", "t_end": 2, "rates": ["nope"]}')
    with pytest.raises(ConfigError, match="rates"):
        # runmin-criticality needs gradnorm scaling
        parse_config('{"problem": "p2", "t_end": 2, '
                     '"rates": ["runmin-criticality"]}')
    with pytest.raises(ConfigError, match="rates"):
        # merit-cheap is a discrete-mode report
        parse_config('{"problem": "p2", "t_end": 2, "rates": ["merit-cheap"]}')
    cfg = parse_config('{"problem": "p3", "t_end": 2, '
                       '"scaling": "gradnorm:eta=0.2", '
                       '"rates": ["runmin-criticality"]}')
    assert cfg.rates == ("runmin-criticality",)


def test_duplicate_key_in_kv_form():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("problem = p2\nt_end = 1\ndt = 1e-3\ndt = 2e-3")


def test_config_file_and_text_read_alike(tmp_path, capsys):
    # parse_config and `run --config` share one reader: the same text gives
    # the same config either way, in both syntaxes.
    json_text = ('{"problem": "p2", "mode": "flow", "x0": [1, 0], '
                 '"t_end": 0.5, "record_every": 100}')
    kv_text = ("# comment\nproblem = p2\nmode = flow\nx0 = 1,0\n"
               "t_end = 0.5\nrecord_every = 100\n")
    assert parse_config(json_text) == parse_config(kv_text)
    for i, text in enumerate((json_text, kv_text)):
        cfgfile, summary = tmp_path / f"c{i}.cfg", tmp_path / f"s{i}.json"
        cfgfile.write_text(text)
        assert main(["run", "--config", str(cfgfile),
                     "--summary", str(summary)]) == 0
        ran = validate_config(json.loads(summary.read_text())["config"])
        assert ran == dataclasses.replace(parse_config(text),
                                          out_json=str(summary))
    capsys.readouterr()


def test_json_array_config_rejected_alike(tmp_path, capsys):
    text = '[{"problem": "p2", "t_end": 1}]'
    with pytest.raises(ConfigError, match="expected a JSON object"):
        parse_config(text)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(text)
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_x0_defaults_to_problem_start():
    cfg = parse_config('{"problem": "p3", "mode": "discrete"}')
    p = get_problem("nonconvex-bounded-grad")
    assert np.allclose(cfg.x0, p.starts[0])


# ---------------------------------------------------------------------------
# CSV persistence


def test_trajectory_csv_parses_back_exactly():
    p = get_problem("strongly-convex")
    rule = parse_scaling("const:1,1")
    tr = integrate_first_order(p, rule, np.array([1.0, 1.0]),
                               FlowConfig(t_end=1.0, record_every=50))
    rows = list(csv.reader(trajectory_csv_text(tr).splitlines()))
    assert rows[0] == ["t", "x_0", "x_1", "f_0", "f_1",
                       "speed", "crit_unscaled", "crit_scaled"]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(data[:, 0], tr.times)
    assert np.array_equal(data[:, 1:3], tr.states)
    assert np.array_equal(data[:, 3:5], tr.f_values)
    assert np.array_equal(data[:, 5], tr.speeds)
    assert np.array_equal(data[:, 6], tr.crit_unscaled)
    assert np.array_equal(data[:, 7], tr.crit_scaled)


def test_iterates_csv_parses_back_exactly():
    p = get_problem("strongly-convex")
    rule = parse_scaling("gradnorm:eta=0.1,min=0.1,max=10")
    seq = run_discrete(p, rule, np.array([1.0, 1.0]),
                       DiscreteConfig(max_iters=50))
    rows = list(csv.reader(iterates_csv_text(seq).splitlines()))
    assert rows[0] == ["k", "x_0", "x_1", "f_0", "f_1",
                       "step", "crit_unscaled", "crit_scaled"]
    ks = np.array([int(r[0]) for r in rows[1:]])
    data = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert np.array_equal(ks, seq.ks)
    assert np.array_equal(data[:, 0:2], seq.states)
    assert np.array_equal(data[:, 2:4], seq.f_values)
    assert np.array_equal(data[:, 4], seq.steps)
    assert np.array_equal(data[:, 5], seq.crit_unscaled)
    assert np.array_equal(data[:, 6], seq.crit_scaled)


# ---------------------------------------------------------------------------
# run_experiment


def _run_cfg(tmp_path, **over):
    d = {"problem": "p2", "mode": "flow", "x0": [1, 1], "t_end": 2.0,
         "record_every": 20, "seed": 5,
         "out_csv": str(tmp_path / "run.csv"),
         "out_json": str(tmp_path / "run.json")}
    d.update(over)
    return validate_config(d)


def test_run_experiment_writes_artifacts_and_summary(tmp_path):
    cfg = _run_cfg(tmp_path)
    summary = run_experiment(cfg)
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.json").exists()
    ondisk = json.loads((tmp_path / "run.json").read_text())
    assert ondisk["final"]["f"] == summary["final"]["f"]
    assert set(summary["final"]) == {"t", "x", "f", "crit_unscaled",
                                     "crit_scaled"}
    assert summary["wall_time_s"] > 0
    assert summary["config"] == cfg.to_dict()


def test_identical_config_byte_identical_outputs(tmp_path):
    cfg = _run_cfg(tmp_path)
    run_experiment(cfg)
    csv1 = (tmp_path / "run.csv").read_bytes()
    js1 = json.loads((tmp_path / "run.json").read_text())
    run_experiment(cfg)
    csv2 = (tmp_path / "run.csv").read_bytes()
    js2 = json.loads((tmp_path / "run.json").read_text())
    assert csv1 == csv2
    js1.pop("wall_time_s")
    js2.pop("wall_time_s")
    assert json.dumps(js1, sort_keys=True) == json.dumps(js2, sort_keys=True)


def test_discrete_run_with_merit_cheap_rate(tmp_path):
    cfg = validate_config({
        "problem": "p1", "mode": "discrete", "x0": [0.25, 1.5],
        "scaling": "gradnorm:eta=0.1,min=0.1,max=10", "iters": 300,
        "rates": ["merit-cheap"], "out_csv": str(tmp_path / "it.csv")})
    summary = run_experiment(cfg)
    assert summary["final"]["k"] == 300
    (rep,) = summary["rate_reports"]
    assert rep["name"] == "merit-cheap"
    assert rep["verdict"] == "pass"
    assert rep["observed_sup"] <= 1.05


def test_flow_run_with_runmin_criticality_rate(tmp_path):
    cfg = validate_config({
        "problem": "p3", "mode": "flow", "t_end": 5.0, "record_every": 50,
        "scaling": "gradnorm:eta=0.2", "rates": ["runmin-criticality"]})
    summary = run_experiment(cfg)
    (rep,) = summary["rate_reports"]
    assert rep["name"] == "runmin-criticality"
    assert rep["verdict"] == "pass"


def test_discrete_stop_at_critical_start_gives_vacuous_rate():
    # (1, 1) is Pareto critical for p1: the method stops at k = 0 and the
    # k >= 1 rate series is empty, reported as a vacuous pass.
    cfg = validate_config({
        "problem": "p1", "mode": "discrete", "x0": [1, 1],
        "scaling": "gradnorm:eta=0.1,min=0.1,max=10",
        "iters": 50, "rates": ["merit-cheap"]})
    summary = run_experiment(cfg)
    assert summary["final"]["k"] == 0
    (rep,) = summary["rate_reports"]
    assert rep["verdict"] == "pass"
    assert rep["observed_sup"] == 0.0


# ---------------------------------------------------------------------------
# main() and exit codes


def test_main_run_ok(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["run", "--problem", "p2", "--x0", "1,1", "--t-end", "1",
               "--record-every", "100", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "strongly-convex" in text


def test_main_exit_2_on_config_errors(tmp_path, capsys):
    assert main(["run", "--t-end", "1"]) == 2          # missing problem
    assert main(["run", "--problem", "p2", "--t-end", "1",
                 "--dt", "-1"]) == 2                   # bad dt
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": "p2", "t_end": 1, "bogus": 1}')
    assert main(["run", "--config", str(bad)]) == 2    # unknown key
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert main(["run", "--problem", "p1", "--x0", "9,9",
                 "--t-end", "1"]) == 2                 # x0 outside region
    err = capsys.readouterr().err
    assert "bogus" in err and "dt" in err


def test_main_exit_2_on_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_main_exit_3_on_degenerate_scaling(capsys):
    rc = main(["run", "--problem", "p4", "--x0", "1",
               "--scaling", "gradnorm:eta=0", "--t-end", "1"])
    assert rc == 3
    assert "vanishing gradient" in capsys.readouterr().err


def _register(monkeypatch, name, grads):
    # a one-dimensional problem on [-2, 2] with the given gradient
    def factory():
        return make_problem(
            name, 1, 1, lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
            grads, lipschitz=[1.0], lower_bounds=[0.0],
            convexity_class="convex", region=Box([-2.0], [2.0]),
            grad_bound=2.0, starts=[[1.0]])
    monkeypatch.setitem(problems._REGISTRY, name, factory)


@pytest.mark.parametrize("cmd", ["run", "accel"])
def test_main_exit_3_on_divergence(cmd, monkeypatch, capsys):
    # alpha = 1e-3 makes the flow 1000 times stiffer than dt = 0.1 allows
    _register(monkeypatch, "stiff-ball", lambda x: x[..., None, :])
    rc = main([cmd, "--problem", "stiff-ball", "--x0", "1",
               "--scaling", "const:0.001", "--dt", "0.1", "--t-end", "5"])
    assert rc == 3
    assert "left the region of stiff-ball" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["run", "accel"])
def test_main_exit_3_on_numeric_domain(cmd, monkeypatch, capsys):
    # an ascent field whose gradient turns NaN past |x| = 1.2
    _register(monkeypatch, "nan-ascent", lambda x: np.where(
        np.abs(x[..., None, :]) > 1.2, np.nan, -x[..., None, :]))
    rc = main([cmd, "--problem", "nan-ascent", "--x0", "1",
               "--scaling", "const:1", "--dt", "0.01", "--t-end", "3"])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_main_config_file_with_cli_override(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("problem = p2\nmode = flow\nx0 = 1,1\nt_end = 1\n"
                       "record_every = 100\n")
    rc = main(["run", "--config", str(cfgfile), "--t-end", "2"])
    assert rc == 0
    assert "t = 2" in capsys.readouterr().out


def test_main_mode_conflict_between_file_and_subcommand(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"problem": "p2", "mode": "flow", "t_end": 1}')
    assert main(["discrete", "--config", str(cfgfile)]) == 2
    assert "mode" in capsys.readouterr().err


def test_main_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("unbalanced-convex", "strongly-convex",
                 "nonconvex-bounded-grad", "scalar-pair"):
        assert name in out


def test_main_verify_single_suite(tmp_path, capsys):
    report = tmp_path / "rep.json"
    rc = main(["verify", "--suite", "problem-sanity", "--json", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["seed"] == 0
    assert payload["reports"][0]["suite"] == "problem-sanity"
    out = capsys.readouterr().out
    assert "1/1 suites passed" in out


def test_main_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_verify_json_report_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "problem-sanity", "--seed", "3",
                 "--json", str(a)]) == 0
    assert main(["verify", "--suite", "problem-sanity", "--seed", "3",
                 "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
