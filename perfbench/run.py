"""Benchmark of mbgf: seeded workloads, a timed run and a traced run.

    python3 perfbench/run.py --workload flow-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; mbgf is imported from its src/.  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  See perfbench/README.md for the workloads and the metrics.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("flow-sweep", "cli-dense", "verify-quick")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("item_p50_ms", "ms"), ("peak_rss_mb", "MB"))

PROBLEMS = ("p1", "p2", "p3", "p4")
SUITES = ("problem-sanity", "geometry-oracle", "strongly-convex-rate",
          "discrete-rate", "hausdorff-lipschitz")
LAYERS = ("problems", "scaling", "geometry", "flow", "discrete",
          "merit_rates", "cli", "bench")

PER_LAYER = (
    [(f"flow.{mode}.{what}", unit)
     for mode in ("first_order", "accelerated")
     for what, unit in (("calls", "count"), ("s", "s"), ("us_per_step", "us"))]
    + [(f"flow.us_per_step.{mode}.{p}", "us")
       for mode in ("first_order", "accelerated") for p in PROBLEMS]
    + [("flow.steps", "count"), ("flow.records", "count"),
       ("flow.fixed_point_items", "count")]
    + [(f"problems.{fn}.{p}.us", "us") for fn in ("grads", "value") for p in PROBLEMS]
    + [(f"scaling.generators.{k}.us", "us") for k in ("const", "gradnorm", "clamped")]
    + [("geometry.min_norm_point.m2.us", "us"), ("geometry.support_point.us", "us"),
       ("geometry.support_point.tie_frac", "frac")]
    + [(f"geometry.{fn}.{what}", unit)
       for fn in ("min_norm_point", "hausdorff_hull_distance", "certificate")
       for what, unit in (("calls", "count"), ("s", "s"))]
    + [(f"merit_rates.{fn}.{what}", unit)
       for fn in ("u0_certified", "u0_ascent", "criticality")
       for what, unit in (("calls", "count"), ("s", "s"))]
    + [("merit_rates.check_bound.s", "s")]
    + [("discrete.run_discrete.calls", "count"), ("discrete.run_discrete.s", "s"),
       ("discrete.run_discrete.us_per_iter", "us"), ("discrete.iters", "count")]
    + [("cli.run_experiment.calls", "count"), ("cli.run_experiment.s", "s"),
       ("cli.run_experiment.self_s", "s"), ("cli.csv.s", "s"),
       ("cli.artifact_bytes", "B"), ("cli.records", "count")]
    + [(f"verify.{s}.s", "s") for s in SUITES]
    + [("verify.self_s", "s"), ("verify.checks", "count"),
       ("verify.checks_failed", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "frac"),
       ("trace.lost_bindings", "count")]
)

# Bindings each workload must reach in a traced pass; a zero call count on
# one of them means a rebinding was lost (the call went around the tracer).
EXPECTED_CALLS = {
    "flow-sweep": ("mbgf.flow.integrate_first_order",
                   "mbgf.flow.integrate_accelerated"),
    "cli-dense": tuple(f"mbgf.cli.{n}" for n in (
        "validate_config", "run_experiment", "resolve_problem_name",
        "get_problem", "parse_scaling", "integrate_first_order",
        "integrate_accelerated", "run_discrete", "check_bound",
        "level_set_bound", "trajectory_csv_text", "iterates_csv_text",
        "summary_json_text")),
    "verify-quick": ("mbgf.cli.main", "mbgf.cli.build_parser") + tuple(
        f"mbgf.verify.{n}" for n in (
            "run_suite", "format_report", "suite_passed", "get_problem",
            "list_problems", "constant", "criticality", "u0_certified",
            "u0_ascent", "min_norm_point", "certificate_violation",
            "certificate_tolerance", "integrate_first_order",
            "lyapunov_monitors", "run_discrete", "discrete_monitors",
            "gradnorm_eta_clamped", "scaled_hull_generators",
            "hausdorff_hull_distance")),
}


class SetupError(Exception):
    """The program cannot be imported or set up from this checkout."""


def import_workloads():
    """Import mbgf from this checkout's src/ and the workload module."""
    if not (SRC / "mbgf" / "__init__.py").is_file():
        raise SetupError(f"no mbgf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mbgf
    if Path(mbgf.__file__).resolve().parent != (SRC / "mbgf").resolve():
        raise SetupError(f"mbgf imported from {mbgf.__file__}, not from {SRC}")
    import workloads
    return workloads


def setup_probe(workload, seed):
    """One set-up in a fresh interpreter: import mbgf, build the inputs."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[workload].make_items(seed)
    return time.perf_counter() - t0


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def clear_program_caches():
    """Empty every functools cache in mbgf, which each new process pays."""
    for name, module in list(sys.modules.items()):
        if name == "mbgf" or name.startswith("mbgf."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(wl, items, tmpdir, tracer=None, keep=None):
    """One pass over the input set; returns one record per item.

    Only the program calls are timed; the output checks run outside.
    """
    clear_program_caches()
    results = []
    for item in items:
        error = out = None
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                out = wl.call(item, tmpdir)
            else:
                with tracer.item_span(item["id"]):
                    out = wl.call(item, tmpdir)
        except Exception as e:  # an item that raises counts as failed
            error = repr(e)
        t1, c1 = time.perf_counter(), cpu_seconds()
        ok, digest, counts = False, None, {}
        if error is None:
            try:
                ok, digest, counts = wl.check(item, out, tmpdir)
            except Exception as e:  # a malformed output fails its check
                error = repr(e)
        if keep is not None:
            keep.append(out)
        results.append({"id": item["id"], "wall": t1 - t0, "cpu": c1 - c0,
                        "ok": bool(ok), "digest": digest, "counts": counts,
                        "error": error})
    return results


def grade(passes):
    """Mark items failed on a bad check or on output differing from the
    first pass (the program is deterministic for fixed inputs)."""
    first = {r["id"]: r["digest"] for r in passes[0]}
    failed = 0
    for results in passes:
        for r in results:
            r["ok"] = r["ok"] and r["digest"] == first[r["id"]]
            failed += not r["ok"]
    return failed


def outputs_sha256(results):
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r['id']}:{r['digest']}\n".encode())
    return h.hexdigest()


def pass_wall(results):
    return sum(r["wall"] for r in results)


def latency_summary(passes):
    """Median and, given 100 samples or more, p90 of every item latency."""
    walls = [r["wall"] * 1e3 for results in passes for r in results]
    return {"n": len(walls), "p50": statistics.median(walls),
            "p90": statistics.quantiles(walls, n=10)[-1] if len(walls) >= 100 else None}


def end_to_end_metrics(passes, setup_samples):
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(pass_wall(res) for res in passes),
        "cpu_s": statistics.median(sum(r["cpu"] for r in res) for res in passes),
        "item_p50_ms": statistics.median(
            r["wall"] for res in passes for r in res) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass_metrics(tracer, results):
    """Per-layer metrics of one traced pass."""
    from tracing import END, LABEL, LAYER, NAME, START

    m = {name: 0.0 for name, _ in PER_LAYER}
    selfs = tracing.self_times(tracer.spans)
    for span, own in zip(tracer.spans, selfs):
        name, dur = span[NAME], span[END] - span[START]
        key = f"{span[LAYER]}.self_s"
        m[key] = m.get(key, 0.0) + own
        if name in ("geometry.min_norm_point", "geometry.hausdorff_hull_distance",
                    "merit_rates.u0_certified", "merit_rates.u0_ascent",
                    "merit_rates.criticality", "cli.run_experiment"):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur
        elif name in ("geometry.certificate_violation",
                      "geometry.certificate_tolerance"):
            m["geometry.certificate.calls"] += 1
            m["geometry.certificate.s"] += dur
        elif name == "merit_rates.check_bound":
            m["merit_rates.check_bound.s"] += dur
        elif name in ("cli.trajectory_csv_text", "cli.iterates_csv_text"):
            m["cli.csv.s"] += dur
        elif name == "verify.run_suite" and span[LABEL] in SUITES:
            m[f"verify.{span[LABEL]}.s"] += dur
        if name == "cli.run_experiment":
            m["cli.run_experiment.self_s"] += own

    steps = {}
    for mode, alias, n_steps, records, secs, fixed in tracer.flow_calls:
        m[f"flow.{mode}.calls"] += 1
        m[f"flow.{mode}.s"] += secs
        m["flow.steps"] += n_steps
        m["flow.records"] += records
        m["flow.fixed_point_items"] += fixed
        for key in (mode, (mode, alias)):
            s, n = steps.get(key, (0.0, 0))
            steps[key] = (s + secs, n + n_steps)
    for key, (secs, n) in steps.items():
        name = (f"flow.{key}.us_per_step" if isinstance(key, str)
                else f"flow.us_per_step.{key[0]}.{key[1]}")
        if name in m:
            m[name] = secs / n * 1e6

    for iterates, secs in tracer.discrete_calls:
        m["discrete.run_discrete.calls"] += 1
        m["discrete.run_discrete.s"] += secs
        m["discrete.iters"] += iterates
    if m["discrete.iters"]:
        m["discrete.run_discrete.us_per_iter"] = (
            m["discrete.run_discrete.s"] / m["discrete.iters"] * 1e6)

    for r in results:
        for key, value in r["counts"].items():
            m[f"cli.{key}" if key in ("records", "artifact_bytes")
              else f"verify.{key}"] += value
    m["trace.wall_s"] = pass_wall(results)
    return m


def environment(seed):
    import numpy
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu_model, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "blas_threads": os.environ["OMP_NUM_THREADS"]}


def run(workload, seed, seconds, trace):
    workloads = import_workloads()
    setup_samples = measure_setup(workload, seed)
    wl = workloads.WORKLOADS[workload]
    items = wl.make_items(seed)

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    untraced, traced = [], []
    kept = [] if trace and workload == "flow-sweep" else None
    try:
        deadline = time.perf_counter() + seconds
        # With --trace 1 an untraced and a traced pass alternate; the run
        # ends at the deadline once it has at least one traced pass.
        while True:
            untraced.append(run_pass(wl, items, tmpdir,
                                     keep=None if len(untraced) else kept))
            if time.perf_counter() >= deadline and (traced or not trace):
                break
            if trace:
                traced.append(traced_pass(wl, items, tmpdir))
                if time.perf_counter() >= deadline:
                    break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    passes = untraced + [results for _, results in traced]
    failed = grade(passes)
    attempted = sum(len(res) for res in passes)
    report = {"workload": workload, "env": environment(seed),
              "passes": len(untraced), "traced_passes": len(traced),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "outputs_sha256": outputs_sha256(untraced[0]),
              "pass_wall_s": [pass_wall(res) for res in untraced],
              "pass_cpu_s": [sum(r["cpu"] for r in res) for res in untraced],
              "traced_pass_wall_s": [pass_wall(res) for _, res in traced],
              "item_latency_ms": latency_summary(untraced),
              "setup_samples_s": setup_samples,
              "errors": sorted({r["error"] for res in passes for r in res
                                if r["error"]})}
    if trace:
        metrics = per_layer_metrics(workload, traced, untraced)
        if kept is not None:
            import probes
            metrics.update(probes.replay(items, kept))
        report["calls"] = dict(sorted(traced[-1][0].calls.items()))
        report["spans"] = traced[-1][0].spans
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(untraced, setup_samples)
        units = dict(END_TO_END)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return report


def traced_pass(wl, items, tmpdir):
    import mbgf.cli
    import mbgf.flow
    import mbgf.verify

    if wl.name == "flow-sweep":
        bindings = [(mbgf.flow, "integrate_first_order"),
                    (mbgf.flow, "integrate_accelerated")]
    else:
        modules = [mbgf.cli] + ([mbgf.verify] if wl.name == "verify-quick" else [])
        bindings = [(mod, attr) for mod in modules
                    for attr, _ in tracing.public_functions(mod)]
    tracer = tracing.Tracer()
    with tracing.patched(tracer, bindings, tracing.NOTES):
        results = run_pass(wl, items, tmpdir, tracer=tracer)
    return tracer, results


def per_layer_metrics(workload, traced, untraced):
    rows = [traced_pass_metrics(tracer, results) for tracer, results in traced]
    metrics = {name: statistics.fmean(row[name] for row in rows)
               for name, _ in PER_LAYER}
    # Each traced pass follows an untraced one; pairing them keeps the
    # machine's slow spells out of the ratio as far as possible.
    metrics["trace.overhead_frac"] = statistics.median(
        pass_wall(res) / pass_wall(plain)
        for (_, res), plain in zip(traced, untraced)) - 1.0
    lost = [b for b in EXPECTED_CALLS[workload]
            if sum(tracer.calls.get(b, 0) for tracer, _ in traced) == 0]
    metrics["trace.lost_bindings"] = len(lost)
    for binding in lost:
        print(f"warning: traced run never reached {binding}; "
              "its layer time is not measured", file=sys.stderr)
    return metrics


def print_report(report, trace):
    env = report["env"]
    print(f"perfbench {report['workload']} seed {env['seed']} "
          f"trace {trace}: {report['passes']} passes"
          + (f" + {report['traced_passes']} traced" if trace else ""))
    print("env " + json.dumps(env, sort_keys=True))
    print("pass wall s: " + " ".join(f"{w:.3f}" for w in report["pass_wall_s"])
          + (" | traced: " + " ".join(f"{w:.3f}" for w in report["traced_pass_wall_s"])
             if trace else ""))
    print("pass cpu s:  " + " ".join(f"{c:.3f}" for c in report["pass_cpu_s"]))
    lat = report["item_latency_ms"]
    print(f"item latency over all untraced passes: n = {lat['n']}, "
          f"p50 = {lat['p50']:.4g} ms"
          + (f", p90 = {lat['p90']:.4g} ms" if lat["p90"] is not None else ""))
    for name, m in report["metrics"].items():
        print(f"  {name:<40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<40s} {report['failed_frac']:.6g} "
          f"({report['failed']} of {report['attempted']} items)")
    print(f"outputs_sha256 {report['outputs_sha256']}")
    for err in report["errors"]:
        print(f"error: {err}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError, subprocess.SubprocessError) as e:
        print(f"perfbench: cannot set up {args.workload}: {e}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    print_report(report, args.trace)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
