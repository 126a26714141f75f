"""Command-line surface: experiment configs, deterministic runs, artifacts.

One binary with subcommands (run, accel, discrete, verify, list-problems)
sharing a single config format.  Configs are accepted as JSON objects or
key=value lines; unknown keys are rejected by name, defaults are filled in,
and a validated config round-trips losslessly through its serialized form.
Trajectory/iterate CSVs print floats with 17 significant digits so they parse
back to the exact in-memory doubles.

Exit codes: 0 run complete / all checks pass, 1 check failure, 2 usage or
config error, 3 numeric-domain or divergence error, or a run that stalls.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import (MBGFError, InvalidInputError, ConfigError,
                     GridBudgetError, finite_real, is_count)
from .problems import get_problem, list_problems
from .scaling import generator_map, parse_scaling
from .flow import FlowConfig, integrate_first_order, integrate_accelerated
from .discrete import DiscreteConfig, run_discrete, step_size
from .merit_rates import RATE_BOUNDS, rate_report
from . import verify as verify_mod

# Short names accepted anywhere a problem name is; stored canonically.
PROBLEM_ALIASES = {
    "p1": "unbalanced-convex",
    "p2": "strongly-convex",
    "p3": "nonconvex-bounded-grad",
    "p4": "scalar-pair",
}

MODES = ("flow", "accel", "discrete")

# Rate reports a config may request by name, each with the RATE_BOUNDS row
# it reads.
RATE_ROWS = {"runmin-criticality": "nonconvex", "merit-cheap": "discrete"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description; hashable and equality-comparable.

    t_end is required for the flow modes and optional (unused) for discrete.
    x0 and scaling are always concrete after validation, so serializing and
    re-parsing reproduces the identical config.  The run parameters default
    to those of FlowConfig and DiscreteConfig; x0 and scaling default to
    the problem's first start and unit constant weights.
    """

    problem: str
    mode: str = "flow"
    x0: tuple = ()
    scaling: str = ""
    t_end: float = None
    dt: float = FlowConfig.dt
    r: float = FlowConfig.r
    theta: float = FlowConfig.theta
    iters: int = 1000
    safety: float = DiscreteConfig.safety
    stop_tol: float = DiscreteConfig.stop_tol
    record_every: int = FlowConfig.record_every
    seed: int = 0
    rates: tuple = ()
    out_csv: str = None
    out_json: str = None

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def to_text(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# every config key with its default (problem has none: MISSING)
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _require_number(key, v):
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer,
                                                 np.floating)):
        raise ConfigError(f"{key}: malformed number, got {v!r}")
    if (f := finite_real(v)) is None:
        got = ("an integer beyond the float range" if isinstance(v, int)
               else repr(float(v)))
        raise ConfigError(f"{key}: must be finite, got {got}")
    return f


def _require_int(key, v):
    if not is_count(v):
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    return int(v)


def _require_str(key, v):
    if not isinstance(v, str):
        raise ConfigError(f"{key}: expected a string, got {v!r}")
    return v


def _positive(v):
    return v > 0


_FLOWS = ("run", "accel")

# The numeric keys in the order they are checked, each with its reader, its
# range test, the rule an out-of-range error states and the run subcommands
# whose --key flag sets it.
_NUMERIC_KEYS = (
    ("t_end", _require_number, _positive, "must be > 0", _FLOWS),
    ("dt", _require_number, _positive, "must be > 0", _FLOWS),
    ("r", _require_number, _positive, "must be > 0", ("accel",)),
    ("theta", _require_number, _positive, "must be > 0", ("accel",)),
    ("iters", _require_int, _positive, "must be >= 1", ("discrete",)),
    ("safety", _require_number, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]",
     ("discrete",)),
    ("stop_tol", _require_number, lambda v: v >= 0, "must be >= 0",
     ("discrete",)),
    ("record_every", _require_int, _positive, "must be >= 1", _FLOWS),
    ("seed", _require_int, lambda v: v >= -(2 ** 63),
     f"must be >= {-(2 ** 63)}", _FLOWS + ("discrete",)),
)
_FLAG_HELP = {"r": "damping exponent (>= 3 for the rate)",
              "theta": "time shift in the damping",
              "seed": "seed recorded in the summary"}
_FLAG_TYPES = {_require_number: float, _require_int: int}


def resolve_problem_name(name):
    return PROBLEM_ALIASES.get(name, name)


def validate_config(raw):
    """Validate a plain dict into an ExperimentConfig, naming the first
    offending key on error and filling documented defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a mapping, got {type(raw).__name__}")
    for key in raw:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")

    if "problem" not in raw:
        raise ConfigError("problem: missing (required)")
    pname = resolve_problem_name(_require_str("problem", raw["problem"]))
    p = get_problem(pname)  # ConfigError on unknown, lists known names

    mode = _require_str("mode", raw.get("mode", _DEFAULTS["mode"]))
    if mode not in MODES:
        raise ConfigError(f"mode: expected one of {', '.join(MODES)}, got {mode!r}")

    x0_raw = raw.get("x0", list(p.starts[0]))
    if not isinstance(x0_raw, (list, tuple)):
        raise ConfigError(f"x0: expected a list of {p.n} numbers, got {x0_raw!r}")
    x0 = tuple(_require_number("x0", v) for v in x0_raw)
    if len(x0) != p.n:
        raise ConfigError(f"x0: expected {p.n} coordinates, got {len(x0)}")

    scaling = _require_str("scaling", raw.get(
        "scaling", "const:" + ",".join(["1"] * p.m)))
    rule = parse_scaling(scaling)  # ConfigError on bad syntax
    try:
        generator_map(rule, p.m)  # checks a constant rule's length
    except InvalidInputError as e:
        raise ConfigError(f"scaling: {e} of {pname}") from None
    if mode == "accel" and rule.variant != "constant":
        raise ConfigError("scaling: accel mode requires a constant scaling")

    values = {}
    for key, read, in_range, range_rule, _ in _NUMERIC_KEYS:
        v = raw.get(key, _DEFAULTS[key])
        if v is None and key == "t_end":
            if mode != "discrete":
                raise ConfigError("t_end: missing (required for flow/accel modes)")
        else:
            v = read(key, v)
            if not in_range(v):
                raise ConfigError(f"{key}: {range_rule}, got {v!r}")
        values[key] = v

    rates_raw = raw.get("rates", _DEFAULTS["rates"])
    if isinstance(rates_raw, str):
        rates_raw = [rates_raw]
    if not isinstance(rates_raw, (list, tuple)):
        raise ConfigError(f"rates: expected a list of names, got {rates_raw!r}")
    rates = tuple(_require_str("rates", v) for v in rates_raw)
    for name in rates:
        if name not in RATE_ROWS:
            raise ConfigError(
                f"rates: unknown report {name!r} (known: {', '.join(RATE_ROWS)})")
    if "runmin-criticality" in rates:
        if mode != "flow":
            raise ConfigError("rates: runmin-criticality needs mode=flow")
        if values["t_end"] <= 1:
            raise ConfigError("rates: runmin-criticality is evaluated on "
                              "t in [1, t_end]; need t_end > 1")
    if "merit-cheap" in rates and mode != "discrete":
        raise ConfigError("rates: merit-cheap needs mode=discrete")
    for name in rates:
        # each report's row refuses a rule or a problem its theorem does not
        # cover; the discrete row also takes the step floor
        row = RATE_ROWS[name]
        try:
            extra = ((step_size(p, rule, DiscreteConfig(values["iters"],
                                                        values["safety"])),)
                     if row == "discrete" else ())
            RATE_BOUNDS[row](p, rule, x0, *extra)
        except InvalidInputError as e:
            raise ConfigError(f"rates: {e}") from None

    for key in ("out_csv", "out_json"):
        v = raw.get(key, _DEFAULTS[key])
        values[key] = None if v is None else _require_str(key, v)

    return ExperimentConfig(problem=pname, mode=mode, x0=x0, scaling=scaling,
                            rates=rates, **values)


def _parse_kv_value(key, raw):
    """The value of a key=value line, or of the --x0 and --rates flags: the
    JSON value if the text is JSON, else the text.  x0 and rates become
    lists: a JSON list stays as it is; anything else (a JSON string by its
    contents) is split at commas, empty tokens dropped, x0's read as floats."""
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if key not in ("x0", "rates") or isinstance(value, list):
        return value
    text = value if isinstance(value, str) else raw
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if key == "rates":
        return tokens
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"x0: malformed number in {raw!r}") from None


def _read_raw(text):
    """Unvalidated dict from config text: a JSON object, or key=value lines
    with # comments."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        try:
            raw = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: invalid JSON ({e})") from None
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        return raw
    raw = {}
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"config line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{key}: duplicate key (line {lineno})")
        raw[key] = _parse_kv_value(key, value)
    return raw


def parse_config(text):
    """Parse config text (a JSON object, or key=value lines with # comments)
    into a validated ExperimentConfig."""
    if not isinstance(text, str):
        raise ConfigError("config: expected text")
    return validate_config(_read_raw(text))


# ---------------------------------------------------------------------------
# CSV / JSON persistence


def _csv_lines(header, cols, row=None):
    # the header and one line per row, each through one %-format string,
    # by default %.17g per column, over the columns as Python numbers
    row = row or ",".join(["%.17g"] * len(cols))
    return "\n".join([",".join(header)] + [
        row % r for r in zip(*[c.tolist() for c in cols])]) + "\n"


def trajectory_csv_text(tr):
    """CSV with header; columns t, x_*, [v_* accel], f_*, speed,
    crit_unscaled, crit_scaled, [W_* accel]."""
    n = tr.states.shape[1]
    m = tr.f_values.shape[1]
    accel = tr.mode == "accelerated"
    header = ["t"] + [f"x_{i}" for i in range(n)]
    cols = [tr.times] + [tr.states[:, i] for i in range(n)]
    if accel:
        header += [f"v_{i}" for i in range(n)]
        cols += [tr.velocities[:, i] for i in range(n)]
    header += [f"f_{i}" for i in range(m)] + ["speed", "crit_unscaled",
                                              "crit_scaled"]
    cols += [tr.f_values[:, i] for i in range(m)]
    cols += [tr.speeds, tr.crit_unscaled, tr.crit_scaled]
    if accel:
        header += [f"W_{i}" for i in range(m)]
        cols += [tr.energies[:, i] for i in range(m)]
    return _csv_lines(header, cols)


def iterates_csv_text(seq):
    """CSV with header; columns k, x_*, f_*, step, crit_unscaled, crit_scaled."""
    n = seq.states.shape[1]
    m = seq.f_values.shape[1]
    header = (["k"] + [f"x_{i}" for i in range(n)] +
              [f"f_{i}" for i in range(m)] +
              ["step", "crit_unscaled", "crit_scaled"])
    cols = ([seq.ks] + [seq.states[:, i] for i in range(n)] +
            [seq.f_values[:, i] for i in range(m)] +
            [seq.crit_unscaled, seq.crit_scaled])
    # the line after k; step, the constant s_min, is formatted once, into
    # the format itself
    rest = ",%.17g" * (n + m) + ",%.17g" % seq.s_min + ",%.17g,%.17g"
    # from cycle_k on, one period of lines repeats but for k: format it once
    t, period = seq.work["cycle_k"], seq.work["period"] or 0
    t = len(seq) if t is None else t
    tails = [rest % tuple(float(c[j]) for c in cols[1:]) for j in range(t, t + period)]
    return (_csv_lines(header, [c[:t] for c in cols], "%d" + rest) + "".join(
        "%d%s\n" % kt for kt in zip(seq.ks[t:].tolist(), itertools.cycle(tails))))


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path!r} ({e})") from None


def _jf(v):
    v = float(v)
    return v if np.isfinite(v) else None


def _report_dict(rep):
    return {"name": rep.name, "constant": _jf(rep.constant),
            "observed_sup": _jf(rep.observed_sup), "slope": _jf(rep.slope),
            "slack": _jf(rep.slack), "verdict": rep.verdict}


def summary_json_text(summary):
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Run orchestration


def run_experiment(cfg):
    """Execute one configured run; write requested artifacts; return the
    summary dict (also written to cfg.out_json when set)."""
    p = get_problem(cfg.problem)
    rule = parse_scaling(cfg.scaling)
    x0 = np.asarray(cfg.x0, dtype=float)

    start = time.perf_counter()
    if cfg.mode == "flow":
        fc = FlowConfig(t_end=cfg.t_end, dt=cfg.dt,
                        record_every=cfg.record_every)
        result = integrate_first_order(p, rule, x0, fc)
    elif cfg.mode == "accel":
        fc = FlowConfig(t_end=cfg.t_end, dt=cfg.dt, mode="accelerated",
                        r=cfg.r, theta=cfg.theta,
                        record_every=cfg.record_every)
        result = integrate_accelerated(p, rule, x0, fc)
    else:
        dc = DiscreteConfig(max_iters=cfg.iters, safety=cfg.safety,
                            stop_tol=cfg.stop_tol)
        result = run_discrete(p, rule, x0, dc)
    wall = time.perf_counter() - start

    reports = [rate_report(name, RATE_ROWS[name], p, rule, cfg.x0, result)
               for name in cfg.rates]

    if cfg.out_csv:
        text = (iterates_csv_text(result) if cfg.mode == "discrete"
                else trajectory_csv_text(result))
        _write_text(cfg.out_csv, text)

    final = {
        "x": [float(v) for v in result.states[-1]],
        "f": [float(v) for v in result.f_values[-1]],
        "crit_unscaled": float(result.crit_unscaled[-1]),
        "crit_scaled": float(result.crit_scaled[-1]),
    }
    if cfg.mode == "discrete":
        final["k"] = int(result.ks[-1])
    else:
        final["t"] = float(result.times[-1])
    summary = {
        "config": cfg.to_dict(),
        "records": len(result),
        "final": final,
        "rate_reports": [_report_dict(r) for r in reports],
        "wall_time_s": wall,
        "work": dict(result.work),  # deterministic, unlike the wall time
    }
    if cfg.out_json:
        _write_text(cfg.out_json, summary_json_text(summary))
    return summary


# ---------------------------------------------------------------------------
# Subcommands


def _merge_cli_config(args, mode):
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"config: cannot read {args.config!r} ({e})") from None
        raw = _read_raw(text)  # validated after the flags are merged

    file_mode = raw.setdefault("mode", mode)
    if file_mode != mode:
        raise ConfigError(
            f"mode: config file says {file_mode!r} but the subcommand is {mode}")

    flags = {key: value for key, value in vars(args).items()
             if key in _DEFAULTS and value is not None}
    for key in ("x0", "rates"):
        if key in flags:
            flags[key] = _parse_kv_value(key, flags[key])
    raw.update(flags)
    return validate_config(raw)


def _print_run_summary(summary, out):
    final = summary["final"]
    where = f"t = {final['t']:g}" if "t" in final else f"k = {final['k']}"
    fvals = ", ".join(f"{v:.6g}" for v in final["f"])
    print(f"{summary['config']['problem']} [{summary['config']['mode']}] "
          f"finished at {where} ({summary['records']} records, "
          f"{summary['wall_time_s']:.2f} s)", file=out)
    print(f"  final f = ({fvals})", file=out)
    print(f"  criticality: unscaled {final['crit_unscaled']:.3e}, "
          f"scaled {final['crit_scaled']:.3e}", file=out)
    work = summary["work"]
    if "grad_calls" in work:
        cycle = ("no cycle" if work["cycle_k"] is None else
                 f"cycle of period {work['period']} from k = {work['cycle_k']}")
        print(f"  work: {work['grad_calls']} gradient calls, {cycle}",
              file=out)
    else:
        switches = (f", {work['switches']} located switches"
                    if "switches" in work else "")
        print(f"  work: {work['steps']} steps ({work['rejected']} rejected), "
              f"{work['rhs_evals']} right-hand-side evaluations{switches}",
              file=out)
    for rep in summary["rate_reports"]:
        sup = "n/a" if rep["observed_sup"] is None else f"{rep['observed_sup']:.4g}"
        print(f"  rate {rep['name']}: {rep['verdict']} "
              f"(sup value/bound = {sup})", file=out)


def _cmd_run(args, mode):
    cfg = _merge_cli_config(args, mode)
    summary = run_experiment(cfg)
    _print_run_summary(summary, sys.stdout)
    if cfg.out_csv:
        print(f"wrote {cfg.out_csv}")
    if cfg.out_json:
        print(f"wrote {cfg.out_json}")
    bad = [r for r in summary["rate_reports"] if r["verdict"] != "pass"]
    return 1 if bad else 0


def _cmd_verify(args):
    names = verify_mod.SUITES if args.suite == "all" else (args.suite,)
    seed = args.seed
    reports = [verify_mod.run_suite(nm, seed=seed) for nm in names]

    for rep in reports:
        print(verify_mod.format_report(rep))
        print()
    n_pass = sum(verify_mod.suite_passed(r) for r in reports)
    print(f"verify: {n_pass}/{len(reports)} suites passed (seed {seed})")

    if args.json is not None:
        payload = {"seed": seed, "reports": reports}
        _write_text(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0 if n_pass == len(reports) else 1


def _cmd_list_problems(args):
    alias_of = {v: k for k, v in PROBLEM_ALIASES.items()}
    for name in list_problems():
        p = get_problem(name)
        start = ", ".join(f"{v:g}" for v in p.starts[0])
        alias = f"  (alias {alias_of[name]})" if name in alias_of else ""
        print(f"{name}: m={p.m} n={p.n} start=({start}){alias}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="config file (JSON object or key=value lines)")
    sub.add_argument("--problem", help="problem name (p1..p4 or full name)")
    sub.add_argument("--scaling", help="scaling spec, e.g. const:1,1 or "
                                       "gradnorm:eta=0.1,min=0.1,max=10")
    sub.add_argument("--x0", help="start point, comma separated, e.g. 1,0")
    sub.add_argument("--rates", help="comma-separated rate reports to attach "
                                     f"({', '.join(RATE_ROWS)})")
    sub.add_argument("--out", dest="out_csv", metavar="OUT",
                     help="trajectory/iterate CSV path")
    sub.add_argument("--summary", dest="out_json", metavar="SUMMARY",
                     help="summary JSON path")


def build_parser():
    # allow_abbrev=False everywhere: a prefix such as --r or --t would name
    # a different flag on each run subcommand
    parser = argparse.ArgumentParser(
        prog="mbgf", allow_abbrev=False,
        description="Balanced multiobjective gradient flows: runs and checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    for command, mode, summary in (
            ("run", "flow", "integrate the first-order flow"),
            ("accel", "accel", "integrate the accelerated flow"),
            ("discrete", "discrete", "run the discrete method")):
        sub = subs.add_parser(command, help=summary, allow_abbrev=False)
        _add_common(sub)
        for key, read, _, _, commands in _NUMERIC_KEYS:
            if command in commands:
                sub.add_argument("--" + key.replace("_", "-"), dest=key,
                                 type=_FLAG_TYPES[read],
                                 help=_FLAG_HELP.get(key))
        sub.set_defaults(fn=lambda a, mode=mode: _cmd_run(a, mode))

    ver = subs.add_parser("verify", help="run bound-based verification suites",
                          allow_abbrev=False)
    ver.add_argument("--suite", default="all",
                     help="suite name or 'all' (default); see docs for names")
    ver.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    ver.add_argument("--json", help="write the JSON report here")
    ver.set_defaults(fn=_cmd_verify)

    lp = subs.add_parser("list-problems", help="list registered problems",
                         allow_abbrev=False)
    lp.set_defaults(fn=_cmd_list_problems)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except (ConfigError, InvalidInputError, GridBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MBGFError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
