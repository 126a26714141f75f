"""Seeded inputs, items and output checks of the three workloads.

Each workload has
  make_items(seed)          the fixed input set of one pass, built from the seed;
  call(item, tmpdir)        the program calls of one item (the timed part);
  check(item, out, tmpdir)  output checks that do not depend on how mbgf
                            computes its results, returning
                            (ok, sha256 digest of the outputs, counts).

Items call mbgf through module attributes (flow.integrate_first_order,
cli.run_experiment, cli.main), so the traced run can rebind those names.
"""

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

from mbgf import cli, flow, problems, scaling
from mbgf.flow import FlowConfig

ALIASES = cli.PROBLEM_ALIASES

# flow-sweep: every item takes the same nominal step count and records
# sparsely, as the rate suites do.
FLOW_STEPS = 1000
FLOW_DT = 1e-3
FLOW_RECORD_EVERY = 100

# cli-dense: the CLI default record_every = 1 over these windows.
CLI_T_END = 2.0
CLI_ITERS = 8000

# Slacks of the checks, the ones mbgf verify applies to the same quantities.
NESTING_SLACK = 1e-9      # f_i(x_{k+1}) - f_i(x_k) <= 1e-9 (1 + |f_i(x_k)|)
ENERGY_SLACK = 1e-7       # W_i may grow by 1e-7 per unit time

QUICK_SUITES = ("problem-sanity", "geometry-oracle", "strongly-convex-rate",
                "discrete-rate", "hausdorff-lipschitz")


def _rng(seed, workload):
    return np.random.default_rng(np.random.SeedSequence(
        [int(seed) & (2 ** 63 - 1), sum(map(ord, workload))]))


def _problem(alias):
    return problems.get_problem(ALIASES[alias])


def _start_in_level_set(rng, p, ref):
    """Uniform point of L(f, f(ref)), drawn from its certified box.

    The region contains the level set of every shipped start, and both
    flows keep f_i(x(t)) <= f_i(x0), so trajectories from such a point
    stay in the region.
    """
    fref = p.value(ref)
    box = p.level_set_bound(fref).box
    lo, hi = box.lo, box.hi
    while True:
        x = lo + rng.random(p.n) * (hi - lo)
        if np.all(p.value(x) <= fref):
            return x


def _const(rng, m):
    return "const:" + ",".join(f"{v:.6f}" for v in rng.uniform(0.5, 2.0, m))


def _gradnorm(rng):
    return f"gradnorm:eta={rng.uniform(0.05, 0.5):.6f}"


def _clamped(rng):
    return (f"gradnorm:eta={rng.uniform(0.05, 0.5):.6f},"
            f"min={rng.uniform(0.1, 0.5):.6f},max={rng.uniform(2.0, 10.0):.6f}")


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _states_in_region(p, X):
    X = np.asarray(X, dtype=float).reshape(-1, p.n)
    return bool(np.all(X >= p.region.lo) and np.all(X <= p.region.hi))


# -- flow-sweep --------------------------------------------------------------

class FlowSweep:
    """Trajectories from flow.integrate_first_order / integrate_accelerated.

    14 first-order and 6 accelerated items of FLOW_STEPS steps each, so
    70/30 by steps.  Every shipped start is in the set, including p1's
    (1, 1), an exact fixed point that still costs full steps.
    """

    name = "flow-sweep"

    def make_items(self, seed):
        rng = _rng(seed, self.name)
        ref = {"p1": 1, "p2": 0, "p3": 0, "p4": 0}   # start whose level set is sampled
        first_order = [
            ("p1", "start0", _const(rng, 2)),
            ("p1", "start1", _const(rng, 2)),
            ("p1", "random", _gradnorm(rng)),
            ("p1", "random", _clamped(rng)),
            ("p2", "start0", _const(rng, 2)),
            ("p2", "random", _gradnorm(rng)),
            ("p2", "random", _clamped(rng)),
            ("p3", "start0", "gradnorm:eta=0"),
            ("p3", "start0", _gradnorm(rng)),
            ("p3", "random", _const(rng, 2)),
            ("p3", "random", _clamped(rng)),
            ("p4", "start0", _const(rng, 2)),
            ("p4", "random", _gradnorm(rng)),
            ("p4", "random", _clamped(rng)),
        ]
        # Accelerated runs from other starts break W_i monotonicity by more
        # than the check allows (see README.md), so they are not items here.
        accelerated = [
            ("p1", "start0", _const(rng, 2)),
            ("p2", "start0", _const(rng, 2)),
            ("p2", "start0", _const(rng, 2)),
            ("p2", "start0", _const(rng, 2)),
            ("p4", "start0", _const(rng, 2)),
            ("p4", "start0", _const(rng, 2)),
        ]
        items = []
        for mode, rows in (("first_order", first_order),
                           ("accelerated", accelerated)):
            for alias, where, spec in rows:
                p = _problem(alias)
                if where == "random":
                    x0 = _start_in_level_set(rng, p, p.starts[ref[alias]])
                else:
                    x0 = p.starts[int(where[-1])].copy()
                # r is drawn for every item but only the accelerated flow reads it.
                cfg = FlowConfig(t_end=FLOW_STEPS * FLOW_DT, dt=FLOW_DT,
                                 mode=mode, record_every=FLOW_RECORD_EVERY,
                                 r=float(rng.choice([3.0, 4.0])), theta=1.0)
                items.append({"id": f"{mode}-{alias}-{len(items):02d}",
                              "alias": alias, "p": p,
                              "rule": scaling.parse_scaling(spec),
                              "x0": x0, "cfg": cfg})
        return items

    def call(self, item, tmpdir):
        fn = (flow.integrate_first_order if item["cfg"].mode == "first_order"
              else flow.integrate_accelerated)
        return fn(item["p"], item["rule"], item["x0"], item["cfg"])

    def check(self, item, tr, tmpdir):
        p, cfg = item["p"], item["cfg"]
        F = p.value(tr.states)
        ok = bool(np.all(np.diff(tr.times) > 0.0)
                  and abs(tr.times[-1] - cfg.t_end) <= 1e-9 * (1.0 + cfg.t_end)
                  and np.array_equal(tr.states[0], item["x0"]))
        if cfg.mode == "first_order":
            rise = np.diff(F, axis=0) - NESTING_SLACK * (1.0 + np.abs(F[:-1]))
        else:
            alpha = np.asarray(item["rule"].values)
            W = F + 0.5 * alpha * (tr.velocities ** 2).sum(axis=-1)[:, None]
            rise = np.diff(W, axis=0) - ENERGY_SLACK * np.diff(tr.times)[:, None]
        ok = ok and bool(rise.max() <= 0.0) and _states_in_region(p, tr.states)
        arrays = [tr.times, tr.states, tr.f_values, tr.speeds,
                  tr.crit_unscaled, tr.crit_scaled, tr.weights]
        if tr.velocities is not None:
            arrays += [tr.velocities, tr.energies]
        return ok, _sha(*arrays), {}


# -- cli-dense ---------------------------------------------------------------

class CliDense:
    """Seeded configs through cli.validate_config and cli.run_experiment.

    record_every stays at the CLI default of 1; every run writes its CSV
    and summary JSON and requests the rate reports its theory backs:
    runmin-criticality for gradient-norm flows (eta > 0), merit-cheap for
    the discrete run whose iterates reach an objective's infimum (p4 from
    its shipped start).  merit-cheap bounds k min_i(f_i - inf f_i), which
    grows like k when the limit is an interior Pareto point, as on p1.
    """

    name = "cli-dense"

    def make_items(self, seed):
        rng = _rng(seed, self.name)
        rows = [
            # mode, problem, start (index or level set of that start), scaling, rates
            ("flow", "p1", ("random", 1), _gradnorm(rng), ["runmin-criticality"]),
            ("flow", "p3", ("start", 0), _gradnorm(rng), ["runmin-criticality"]),
            ("flow", "p2", ("random", 0), _const(rng, 2), []),
            ("flow", "p4", ("random", 0), _clamped(rng), []),
            ("accel", "p2", ("random", 0), _const(rng, 2), []),
            ("accel", "p1", ("start", 1), _const(rng, 2), []),
            ("discrete", "p1", ("random", 1), _clamped(rng), []),
            ("discrete", "p4", ("start", 0), _gradnorm(rng), ["merit-cheap"]),
            ("discrete", "p3", ("random", 0), _const(rng, 2), []),
        ]
        items = []
        for mode, alias, (where, k), spec, rates in rows:
            p = _problem(alias)
            x0 = (_start_in_level_set(rng, p, p.starts[k]) if where == "random"
                  else p.starts[k])
            raw = {"problem": alias, "mode": mode,
                   "x0": [float(v) for v in x0], "scaling": spec,
                   "rates": rates, "seed": int(rng.integers(2 ** 31))}
            if mode == "discrete":
                raw["iters"] = CLI_ITERS
            else:
                raw["t_end"] = CLI_T_END
            if mode == "accel":
                raw["r"] = float(rng.choice([3.0, 4.0]))
            items.append({"id": f"{mode}-{alias}-{len(items):02d}", "raw": raw,
                          "p": p})
        return items

    @staticmethod
    def _paths(item, tmpdir):
        return (os.path.join(tmpdir, item["id"] + ".csv"),
                os.path.join(tmpdir, item["id"] + ".json"))

    def call(self, item, tmpdir):
        out_csv, out_json = self._paths(item, tmpdir)
        cfg = cli.validate_config(dict(item["raw"], out_csv=out_csv,
                                       out_json=out_json))
        return cli.run_experiment(cfg)

    def check(self, item, summary, tmpdir):
        out_csv, out_json = self._paths(item, tmpdir)
        with open(out_csv, "rb") as f:
            csv_bytes = f.read()
        with open(out_json, "rb") as f:
            json_bytes = f.read()
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
        header, body = rows[0], rows[1:]
        values = np.array([[float(v) for v in row] for row in body])
        col = {h: i for i, h in enumerate(header)}
        p, final = item["p"], summary["final"]
        xs = values[:, [col[f"x_{i}"] for i in range(p.n)]]
        last = values[-1]
        clock = "k" if item["raw"]["mode"] == "discrete" else "t"
        reports = summary["rate_reports"]
        ok = (len(body) == summary["records"]
              and all(len(row) == len(header) for row in body)
              and [last[col[f"x_{i}"]] for i in range(p.n)] == final["x"]
              and [last[col[f"f_{i}"]] for i in range(p.m)] == final["f"]
              and last[col[clock]] == final[clock]
              and json.loads(json_bytes) == json.loads(json.dumps(summary))
              and [r["name"] for r in reports] == item["raw"]["rates"]
              and all(r["verdict"] == "pass" for r in reports)
              and _states_in_region(p, xs))
        stable = {k: v for k, v in summary.items() if k != "wall_time_s"}
        stable["config"] = {k: v for k, v in stable["config"].items()
                            if k not in ("out_csv", "out_json")}
        digest = _sha(csv_bytes, json.dumps(stable, sort_keys=True).encode())
        return bool(ok), digest, {"records": summary["records"],
                                  "artifact_bytes": len(csv_bytes) + len(json_bytes)}


# -- verify-quick ------------------------------------------------------------

class VerifyQuick:
    """`mbgf verify --suite S --seed <seed> --json <file>` for the five
    short suites, through cli.main in this process."""

    name = "verify-quick"

    def make_items(self, seed):
        return [{"id": suite, "suite": suite, "seed": int(seed)}
                for suite in QUICK_SUITES]

    def call(self, item, tmpdir):
        path = os.path.join(tmpdir, item["id"] + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", "--suite", item["suite"],
                             "--seed", str(item["seed"]), "--json", path])

    def check(self, item, code, tmpdir):
        with open(os.path.join(tmpdir, item["id"] + ".json"), "rb") as f:
            data = f.read()
        reports = json.loads(data)["reports"]
        checks = [c for r in reports for c in r["checks"]]
        failed = sum(c["verdict"] != "pass" for c in checks)
        ok = (code == 0 and len(reports) == 1
              and reports[0]["suite"] == item["suite"] and failed == 0)
        return ok, _sha(data), {"checks": len(checks), "checks_failed": failed}


WORKLOADS = {w.name: w for w in (FlowSweep(), CliDense(), VerifyQuick())}
