"""CLI tests: config parsing/round-trip, CSV persistence, determinism,
exit codes, and subcommand wiring."""

import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mbgf.errors import ConfigError
from mbgf.cli import (ExperimentConfig, parse_config, validate_config,
                      run_experiment, trajectory_csv_text, iterates_csv_text,
                      main, PROBLEM_ALIASES)
from mbgf import cli, merit_rates, problems, verify
from mbgf.problems import Box, get_problem, make_problem, quadratic_problem
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


@pytest.mark.parametrize("text", [MINIMAL, '{"problem": "p2", "mode": "discrete"}'])
def test_minimal_config_takes_the_run_config_defaults(text):
    cfg = parse_config(text)
    flow, disc = FlowConfig(t_end=1.0), DiscreteConfig(max_iters=1)
    assert (cfg.dt, cfg.r, cfg.theta, cfg.record_every) == (
        flow.dt, flow.r, flow.theta, flow.record_every)
    assert (cfg.safety, cfg.stop_tol) == (disc.safety, disc.stop_tol)
    assert cfg.iters == 1000


# each numeric key: an out-of-range value and a malformed value, with the
# exact messages they raise
NUMERIC_ERRORS = [
    ("t_end", 0, "t_end: must be > 0, got 0.0",
     "soon", "t_end: malformed number, got 'soon'"),
    ("dt", -1, "dt: must be > 0, got -1.0",
     "x", "dt: malformed number, got 'x'"),
    ("r", 0, "r: must be > 0, got 0.0",
     [1], "r: malformed number, got [1]"),
    ("theta", -1, "theta: must be > 0, got -1.0",
     "1", "theta: malformed number, got '1'"),
    ("iters", 0, "iters: must be >= 1, got 0",
     1.5, "iters: expected an integer, got 1.5"),
    ("safety", 2, "safety: must lie in (0, 1], got 2.0",
     "x", "safety: malformed number, got 'x'"),
    ("stop_tol", -1e-9, "stop_tol: must be >= 0, got -1e-09",
     None, "stop_tol: malformed number, got None"),
    ("record_every", 0, "record_every: must be >= 1, got 0",
     2.0, "record_every: expected an integer, got 2.0"),
    ("seed", -(2 ** 63) - 1,
     "seed: must be >= -9223372036854775808, got -9223372036854775809",
     "0", "seed: expected an integer, got '0'"),
]


@pytest.mark.parametrize("key,low,low_msg,bad,bad_msg", NUMERIC_ERRORS,
                         ids=[row[0] for row in NUMERIC_ERRORS])
def test_numeric_key_errors_state_the_rule(key, low, low_msg, bad, bad_msg):
    for value, msg in ((low, low_msg), (bad, bad_msg)):
        with pytest.raises(ConfigError) as err:
            validate_config({"problem": "p2", "t_end": 1, key: value})
        assert str(err.value) == msg


def test_first_offending_numeric_key_is_reported_in_schema_order():
    # the bad keys are inserted in reverse; the error follows the schema
    for i, row in enumerate(NUMERIC_ERRORS):
        raw = {"problem": "p2", "mode": "discrete"}
        raw.update((key, low) for key, low, *_ in reversed(NUMERIC_ERRORS[i:]))
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert str(err.value) == row[2]


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
    with pytest.raises(ConfigError, match="x0"):  # JSON stays typed: no list
        parse_config('{"problem": "p4", "t_end": 1, "x0": 2}')
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


@pytest.mark.parametrize("problem, x0, expected", [
    ("p4", "2", [2.0]),          # a bare number
    ("p4", "2,", [2.0]),         # a trailing comma
    ("p2", "[1,1]", [1.0, 1.0]),  # a JSON list
])
def test_x0_flag_and_key_value_file_read_alike(problem, x0, expected,
                                               tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"problem = {problem}\nmode = discrete\niters = 5\n"
                       f"x0 = {x0}\n")
    configs = []
    for i, args in enumerate((["--config", str(cfgfile)],
                              ["--problem", problem, "--iters", "5",
                               "--x0", x0])):
        summary = tmp_path / f"s{i}.json"
        assert main(["discrete", *args, "--summary", str(summary)]) == 0
        configs.append(json.loads(summary.read_text())["config"])
        configs[-1].pop("out_json")
    assert configs[0] == configs[1] and configs[0]["x0"] == expected
    capsys.readouterr()


def test_json_array_config_rejected_alike(tmp_path, capsys):
    text = '[{"problem": "p2", "t_end": 1}]'
    with pytest.raises(ConfigError, match="expected a JSON object"):
        parse_config(text)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(text)
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["t_end", "dt", "x0"])
def test_config_file_integer_beyond_the_float_range_exits_2(key, tmp_path,
                                                           capsys):
    # a JSON integer of 401 digits has no float; the error names its key
    huge = "1" + "0" * 400
    value = f"[{huge}, 0]" if key == "x0" else huge
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(f'{{"problem": "p2", "t_end": 1, "{key}": {value}}}')
    assert main(["run", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: must be finite, got an integer beyond the float range" in err
    assert "Traceback" not in err


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
    assert np.array_equal(data[:, 4], np.full(len(seq), seq.s_min))
    assert np.array_equal(data[:, 5], seq.crit_unscaled)
    assert np.array_equal(data[:, 6], seq.crit_scaled)


_GRADNORM = "gradnorm:eta=0.1,min=0.1,max=10"


def _every_row_csv(seq):
    # the plain formatting of every row, one %-format per line
    cols = ([seq.ks] + list(seq.states.T) + list(seq.f_values.T)
            + [np.full(len(seq), seq.s_min), seq.crit_unscaled,
               seq.crit_scaled])
    header = iterates_csv_text(seq).split("\n", 1)[0]
    fmt = ",".join(["%d"] + ["%.17g"] * (len(cols) - 1))
    return "\n".join([header] + [fmt % r for r in zip(*[c.tolist() for c in cols])]) + "\n"


@pytest.mark.parametrize("problem, x0, cfg", [
    ("scalar-pair", [2.0], DiscreteConfig(max_iters=300)),     # fixed point at k = 12
    ("strongly-convex", [1.0, 1.0], DiscreteConfig(max_iters=60)),
    ("scalar-pair", [2.0], DiscreteConfig(max_iters=5, stop_tol=1e9)),  # one row
])
def test_iterates_csv_formats_the_fixed_point_tail_once_byte_for_byte(
        problem, x0, cfg):
    seq = run_discrete(get_problem(problem), parse_scaling(_GRADNORM),
                       np.array(x0), cfg)
    assert ((seq.work["cycle_k"], seq.work["period"]) == (12, 1)) == (
        problem == "scalar-pair" and len(seq) > 1)
    assert iterates_csv_text(seq) == _every_row_csv(seq)


def test_iterates_csv_formats_one_period_of_the_cycle_once():
    # p4 under const:1,1 from 2.0 has x_6 == x_1: rows 1 ... 20000 repeat
    # five lines but for k
    seq = run_discrete(get_problem("scalar-pair"), parse_scaling("const:1,1"),
                       np.array([2.0]), DiscreteConfig(max_iters=20000))
    assert (seq.work["cycle_k"], seq.work["period"]) == (1, 5)
    assert iterates_csv_text(seq) == _every_row_csv(seq)


@pytest.mark.parametrize("problem, x0, scaling", [
    ("scalar-pair", [2.0], _GRADNORM),                  # fixed point at k = 12
    ("nonconvex-bounded-grad", [0.9, 0.7], _GRADNORM),  # at k = 424
    ("unbalanced-convex", [0.25, 1.5], "const:1,1"),    # at k = 1634
])
def test_every_column_past_the_fixed_point_is_a_byte_copy(problem, x0,
                                                           scaling):
    # the CSV formats rows cycle_k ... max_iters of a fixed point as one
    # line, so run_discrete must make them copies of one row in every column
    seq = run_discrete(get_problem(problem), parse_scaling(scaling),
                       np.array(x0), DiscreteConfig(max_iters=3000))
    k = seq.work["cycle_k"]
    assert k is not None and seq.work["period"] == 1 and len(seq) == 3001
    assert seq.work["grad_calls"] == k + 1
    for col in (seq.states, seq.f_values, seq.crit_unscaled, seq.crit_scaled,
                seq.weights):
        assert all(row.tobytes() == col[k].tobytes() for row in col[k:])


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


@pytest.mark.parametrize("mode", ["flow", "accel"])
def test_summary_work_block_repeats_exactly(tmp_path, mode, capsys):
    # Step, right-hand-side and switch counts are deterministic, so they
    # repeat across runs, on disk and on the terminal.  The accelerated run
    # leaves its first slide on p1 and enters another one: two located
    # switches.  Only accel reports switches.
    if mode == "flow":
        cfg = _run_cfg(tmp_path, mode=mode, x0=[0.5, 1.5])
    else:
        cfg = _run_cfg(tmp_path, mode=mode, problem="p1", x0=[-0.2, 1.8],
                       t_end=1.0)
    works = [run_experiment(cfg)["work"] for _ in range(2)]
    assert works[0] == works[1]
    assert json.loads((tmp_path / "run.json").read_text())["work"] == works[0]
    work = works[0]
    assert work["rhs_evals"] == 1 + 6 * (work["steps"] + work["rejected"])
    line = (f"work: {work['steps']} steps ({work['rejected']} rejected), "
            f"{work['rhs_evals']} right-hand-side evaluations")
    if mode == "flow":
        assert "switches" not in work
    else:
        assert work["switches"] == 2
        line += ", 2 located switches"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfg.to_text())
    assert main(["run" if mode == "flow" else "accel",
                 "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert f"  {line}\n" in out


@pytest.mark.parametrize("scaling, iters, work", [
    ("gradnorm:eta=0.148939", 50,
     {"grad_calls": 10, "cycle_k": 9, "period": 1}),
    ("gradnorm:eta=0.148939", 5,
     {"grad_calls": 6, "cycle_k": None, "period": None}),
    ("const:1,1", 20000, {"grad_calls": 6, "cycle_k": 1, "period": 5})],
    ids=["fixed-point", "budget-first", "period-5"])
def test_discrete_summary_work_block(tmp_path, capsys, scaling, iters, work):
    # p4 from 2.0 reaches x_{k+1} == x_k at k = 9 under gradnorm scaling,
    # and x_6 == x_1 under const:1,1: the loop makes 10 or 6 gradient calls
    # however many iterations are asked for beyond that
    cfg = _run_cfg(tmp_path, mode="discrete", problem="p4", x0=[2.0],
                   scaling=scaling, iters=iters)
    assert run_experiment(cfg)["work"] == work
    assert json.loads((tmp_path / "run.json").read_text())["work"] == work
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfg.to_text())
    assert main(["discrete", "--config", str(cfgfile)]) == 0
    cycle = ("no cycle" if work["cycle_k"] is None else
             f"cycle of period {work['period']} from k = {work['cycle_k']}")
    assert (f"  work: {work['grad_calls']} gradient calls, {cycle}\n"
            in capsys.readouterr().out)


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


def _verify_check(suite, name):
    (check,) = [c for c in verify.run_suite(suite)["checks"]
                if c["name"] == name]
    return check["observed"]


def test_runmin_criticality_equals_verify_nonconvex_ratio():
    # the CLI report and nonconvex-rate read the same row on the same run
    cfg = validate_config({
        "problem": "p3", "mode": "flow",
        "x0": list(get_problem("nonconvex-bounded-grad").starts[0]),
        "scaling": "gradnorm:eta=0.2", "t_end": 200.0, "dt": 2e-3,
        "record_every": 50, "rates": ["runmin-criticality"]})
    (rep,) = run_experiment(cfg)["rate_reports"]
    assert rep["observed_sup"] == _verify_check(
        "nonconvex-rate", "p3-eta02-runmin-rate-ratio")


def test_merit_cheap_equals_verify_certified_discrete_ratio():
    cfg = validate_config({
        "problem": "p1", "mode": "discrete", "x0": [0.25, 1.5],
        "scaling": "gradnorm:eta=0.1,min=0.1,max=10", "iters": 10_000,
        "safety": 0.99, "rates": ["merit-cheap"]})
    (rep,) = run_experiment(cfg)["rate_reports"]
    assert rep["observed_sup"] == _verify_check(
        "discrete-rate", "p1-interior-start-rate-ratio-certified")


@pytest.mark.parametrize("raw, rows", [
    ({"problem": "p3", "mode": "flow", "t_end": 5.0, "record_every": 50,
      "scaling": "gradnorm:eta=0.2", "rates": ["runmin-criticality"]},
     ["nonconvex"]),
    ({"problem": "p4", "mode": "discrete", "x0": [2.0], "iters": 50,
      "scaling": "gradnorm:eta=0.2", "rates": ["merit-cheap"]}, ["discrete"]),
    ({"problem": "p4", "mode": "discrete", "x0": [2.0], "iters": 50}, []),
])
def test_each_requested_rate_is_one_rate_report_call(monkeypatch, raw, rows):
    calls = []

    def spy(name, row, *args):
        calls.append(row)
        return merit_rates.rate_report(name, row, *args)

    monkeypatch.setattr(cli, "rate_report", spy)
    summary = run_experiment(validate_config(raw))
    assert calls == rows
    assert [r["name"] for r in summary["rate_reports"]] == raw.get("rates", [])


def test_merit_cheap_on_a_nonconvex_problem_exits_2(tmp_path, capsys):
    # the discrete row's convex theorem does not cover p3: no bound is
    # reported, and no artifact is written
    out = tmp_path / "it.csv"
    assert main(["discrete", "--problem", "p3", "--rates", "merit-cheap",
                 "--out", str(out)]) == 2
    assert ("rate row 'discrete' needs a convex problem"
            in capsys.readouterr().err)
    assert not out.exists()


def test_rate_rows_refuse_at_validation():
    # validate_config asks each requested report's RATE_BOUNDS row, so a
    # report its theorem does not cover is refused before any run
    with pytest.raises(ConfigError,
                       match="rates: rate row 'discrete' needs a convex problem"):
        validate_config({"problem": "p3", "mode": "discrete",
                         "rates": ["merit-cheap"]})
    with pytest.raises(ConfigError, match="rates: rate row 'nonconvex' needs "
                                          "a gradnorm scaling with eta > 0"):
        validate_config({"problem": "p3", "t_end": 2.0,
                         "scaling": "gradnorm:eta=0",
                         "rates": ["runmin-criticality"]})
    assert validate_config({"problem": "p1", "mode": "discrete",
                            "rates": ["merit-cheap"]}).rates == ("merit-cheap",)


def test_runmin_criticality_builds_no_level_set_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("runmin-criticality built a level-set grid")
    monkeypatch.setattr(merit_rates, "_box_grid", no_grid)
    cfg = validate_config({
        "problem": "p3", "mode": "flow", "t_end": 5.0, "record_every": 50,
        "scaling": "gradnorm:eta=0.2", "rates": ["runmin-criticality"]})
    (rep,) = run_experiment(cfg)["rate_reports"]
    assert rep["verdict"] == "pass"


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


def test_main_run_with_a_stride_above_the_step_count(tmp_path, capsys):
    # a stride past the last step records the first and the last state,
    # however large the int is: 2**64 fits no numpy integer type
    summary = tmp_path / "s.json"
    assert main(["run", "--problem", "p2", "--t-end", "1", "--record-every",
                 str(2 ** 64), "--summary", str(summary)]) == 0
    ondisk = json.loads(summary.read_text())
    assert ondisk["records"] == 2 and ondisk["config"]["record_every"] == 2 ** 64
    assert ondisk["final"]["t"] == 1.0


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


@pytest.mark.parametrize("argv, message", [
    (["verify", "--seed", "-1"], "error: seed: must be >= 0, got -1"),
    (["run", "--problem", "p1", "--x0", "0.25,1.5", "--t-end", "1e308",
      "--dt", "1e-300"], "error: integration window must hold 1 to finitely "
     "many steps of dt, got inf"),
    (["discrete", "--problem", "p4", "--scaling", "gradnorm:eta=0.148939",
      "--iters", str(10**30)], "error: max_iters must be at most "
     f"{np.iinfo(np.intp).max}, got {10**30}"),
], ids=["negative-seed", "infinite-step-count", "iters-beyond-intp"])
def test_main_exit_2_on_a_value_no_run_can_take(argv, message, capsys):
    # a seed numpy refuses, a window whose step count overflows a float,
    # and an iteration count numpy cannot index: all are input errors,
    # refused before any work
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "p2", "--t-end", "1", "--out"],
    ["run", "--problem", "p2", "--t-end", "1", "--summary"],
    ["verify", "--suite", "strongly-convex-rate", "--json"],
], ids=["out", "summary", "verify-json"])
def test_main_exit_2_on_an_unwritable_output_path(argv, tmp_path, capsys):
    # exit 1 means a failed check; a path that cannot be written is an
    # input error, reported by name, as an unreadable --config is
    path = str(tmp_path / "absent" / "out.txt")
    assert main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path!r} (")
    assert "[Errno 2]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "absent").exists()


def test_main_exit_2_on_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, read, commands",
                         [(k, read, commands)
                          for k, read, _, _, commands in cli._NUMERIC_KEYS])
def test_numeric_key_flag_parses_on_exactly_its_subcommands(key, read,
                                                            commands, capsys):
    # verify's --seed is verify's own flag, not a run key's
    parser = cli.build_parser()
    flag = "--" + key.replace("_", "-")
    kind = int if read is cli._require_int else float
    for command in ("run", "accel", "discrete", "list-problems"):
        try:
            value = vars(parser.parse_args([command, flag, "2"])).get(key)
        except SystemExit:
            value = None
        if command in commands:
            assert value == 2 and type(value) is kind
        else:
            assert value is None
    if kind is int:
        with pytest.raises(SystemExit):
            parser.parse_args([commands[0], flag, "1.5"])
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
    # the adaptive step stays stable on a stiff ball in both flows; an
    # ascent field, xdot = 1000 x or xddot = 1000 x - r/(t+1) xdot, leaves
    # the region instead
    name = "ascent-ball"
    _register(monkeypatch, name, lambda x: -x[..., None, :])
    rc = main([cmd, "--problem", name, "--x0", "1",
               "--scaling", "const:0.001", "--dt", "0.1", "--t-end", "5"])
    assert rc == 3
    assert f"left the region of {name}" in capsys.readouterr().err


def _triangle():
    # three quadratics with centers on a triangle
    return quadratic_problem(
        "triangle", np.ones((3, 2)), [[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]],
        convexity_class="convex", region=Box([-3.0, -3.0], [5.0, 5.0]),
        starts=[[3.0, 2.0]])


@pytest.mark.parametrize("scaling,rc", [("const:1,1,1", 0),
                                        ("const:1,2,0.5", 3)])
def test_accel_with_three_objectives_finishes_or_exits_3(monkeypatch, capsys,
                                                         scaling, rc):
    # m >= 3 has no sliding rule yet: the accelerated flow takes the support
    # point with its min-norm tie rule on the adaptive pair.  Three
    # quadratics with centers on a triangle, from (3, 2) at rest.  With
    # equal scalings the run finishes, with no located switch.  With
    # const:1,2,0.5 the state reaches a face of the hull near t = 2.27 and
    # chatters between its support points with steps of about 1e-9; the
    # run stops with NoConvergenceError (exit 3) instead of hanging.
    monkeypatch.setitem(problems._REGISTRY, "triangle", _triangle)
    assert main(["accel", "--problem", "triangle", "--x0", "3,2",
                 "--scaling", scaling, "--t-end", "5",
                 "--record-every", "100"]) == rc
    out, err = capsys.readouterr()
    if rc == 0:
        assert "0 located switches" in out
    else:
        assert "steps chatter: 1000 accepted steps shorter than 5e-08" in err


def test_main_exit_3_on_step_underflow(monkeypatch, capsys):
    # a gradient of size 1e9 oscillating on a 1e-12 scale: the adaptive
    # step is never accepted and falls to the float spacing of the window
    _register(monkeypatch, "rough",
              lambda x: (1e9 * np.sin(1e12 * x))[..., None, :])
    rc = main(["run", "--problem", "rough", "--x0", "0.5",
               "--scaling", "const:1", "--t-end", "1"])
    assert rc == 3
    assert "step size underflow" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode", ["accel", "discrete"])
def test_run_rejects_a_config_file_of_another_mode(mode, tmp_path, capsys):
    # run is the flow subcommand: it does not switch to the file's mode
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"problem": "p2", "mode": mode, "t_end": 1}))
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert (f"mode: config file says {mode!r} but the subcommand is flow"
            in capsys.readouterr().err)


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


# ---------------------------------------------------------------------------
# flags are spelled out in full

@pytest.mark.parametrize("argv, flag", [
    (["run", "--problem", "p2", "--t", "2"], "--t"),
    (["accel", "--problem", "p2", "--t", "2"], "--t"),
    (["discrete", "--problem", "p4", "--x0", "2", "--r", "3"], "--r"),
    (["verify", "--suite", "problem-sanity", "--s", "0"], "--s"),
])
def test_abbreviated_flags_are_refused(argv, flag, capsys):
    # a prefix would name a different flag per subcommand: --t is --t-end
    # on run and ambiguous on accel, --r is --rates on discrete
    assert main(argv) == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "accel", "discrete"])
def test_full_flag_names_parse_as_before(command):
    argv, expected = [command], {}
    for flag, dest in (("--config", "config"), ("--problem", "problem"),
                       ("--scaling", "scaling"), ("--x0", "x0"),
                       ("--rates", "rates"), ("--out", "out_csv"),
                       ("--summary", "out_json")):
        argv += [flag, "2"]
        expected[dest] = "2"
    for key, _, _, _, commands in cli._NUMERIC_KEYS:
        if command in commands:
            argv += ["--" + key.replace("_", "-"), "2"]
            expected[key] = 2
    args = vars(cli.build_parser().parse_args(argv))
    assert {key: args[key] for key in expected} == expected


def test_full_verify_flag_names_parse_as_before():
    args = cli.build_parser().parse_args(
        ["verify", "--suite", "problem-sanity", "--seed", "3", "--json", "r.json"])
    assert (args.suite, args.seed, args.json) == ("problem-sanity", 3, "r.json")


# sha256 of the CSV and of the summary JSON, without wall_time_s and the
# two output paths, of five runs: dense first-order records on p1, an
# accelerated p1 run that locates 2 switches, a discrete run that reaches a
# fixed point (a cycle of period 1) at k = 66, a clamped-gradnorm discrete
# run of 2001 gradient calls that reaches no cycle, so every row comes from
# the loop, and an m = 3 accelerated run, whose right-hand side and weights
# come from the support point
RUN_SHA256 = {
    "run-p1": (
        ["run", "--problem", "p1", "--x0", "0.25,1.5", "--t-end", "1"],
        "198c60624db22d088bdb3409563019902f932ed345d9e0ffda1f4e531cc50d96",
        "48eacf97b191c4f5822e8aa877503ba33086a203ddaa1661f418a8ffd17e6b03"),
    "accel-p1-switches": (
        ["accel", "--problem", "p1", "--x0=-0.2,1.8", "--scaling", "const:1,1",
         "--t-end", "1"],
        "e8aed424afa2364afa036c328522c11bdbbb656a61060cd7fc2c4fe5ededc8e0",
        "0497f04119e6e99ff098f573c505507ae7c487da2821b07c854720b0301e59e5"),
    "discrete-p3-fixed-point": (
        ["discrete", "--problem", "p3"],
        "d7d566461364428246ac74b940a456ddec12b48e2ce97d3c3a47863ec24d5b0b",
        "08081f60dd9ecff074b069b628d9c69071c5f8a1a7adf3ca30bac7649796bf26"),
    "discrete-p1-clamped": (
        ["discrete", "--problem", "p1", "--x0", "0.25,1.5", "--scaling",
         "gradnorm:eta=0.1,min=0.1,max=10", "--iters", "2000"],
        "5c727071791721ac101421dee4a54491dc4010e7d8a3e0e2178d1200930c5c54",
        "b09d5c971392d3e1d4f38cb80a2559f2e1a9f490a4bbe9507acd1eedd5001631"),
    "accel-triangle": (
        ["accel", "--problem", "triangle", "--x0", "3,2", "--scaling",
         "const:1,1,1", "--t-end", "5", "--record-every", "100"],
        "d1988473f1a6e87898553c338195a85aa6c861daade29f30abad3004c45d6c64",
        "c86b09cfb37bf335cf34f7565431d80bb5e01da57acd6c64aecdd248c7801a4f"),
}


@pytest.mark.parametrize("run", sorted(RUN_SHA256))
def test_run_artifacts_keep_their_bytes(run, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(problems._REGISTRY, "triangle", _triangle)
    argv, csv_sha, summary_sha = RUN_SHA256[run]
    out, summary = tmp_path / "run.csv", tmp_path / "summary.json"
    assert main(argv + ["--out", str(out), "--summary", str(summary)]) == 0
    capsys.readouterr()
    s = json.loads(summary.read_text())
    del s["wall_time_s"], s["config"]["out_csv"], s["config"]["out_json"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(
        cli.summary_json_text(s).encode()).hexdigest() == summary_sha
