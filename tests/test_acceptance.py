"""Acceptance gate: the ten package-level criteria, one test per criterion.

Each test prints one `ACCEPTANCE <n> ... PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`) and asserts it.  Criteria reuse the
bound-based verification suites, so `mbgf verify` exercises the same checks.
Total runtime is about a minute (67 s measured on a 2-core x86-64 machine);
suites are memoized so each runs once per session.
"""

import json
import time

import numpy as np

from mbgf import verify
from mbgf.cli import main, validate_config, run_experiment

_cache = {}


def _suite(name):
    if name not in _cache:
        start = time.perf_counter()
        rep = verify.run_suite(name, seed=verify.DEFAULT_SEED)
        _cache[name] = (rep, time.perf_counter() - start)
    return _cache[name]


def _by_name(rep):
    return {c["name"]: c for c in rep["checks"]}


def _declare(num, desc, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({desc}) failed {detail}"


def test_criterion_01_geometry_oracle():
    # >= 1000 random instances (m <= 4, n <= 3): min_norm_point within 1e-4
    # of brute force in objective and certified optimal; runtime < 60 s.
    rep, wall = _suite("geometry-oracle")
    checks = _by_name(rep)
    gap = checks["min-norm-vs-grid-worst-gap"]
    assert gap["bound"] == 1e-4
    assert checks["min-norm-certificate-excess"]["observed"] <= 0.0
    assert checks["min-norm-failures"]["observed"] == 0.0
    ok = verify.suite_passed(rep) and wall < 60.0
    _declare(1, "geometry vs brute-force oracle", ok,
             f"(worst gap {gap['observed']:.2e}, {wall:.1f} s)")


def test_criterion_02_hausdorff_lipschitz():
    # 10 000 pairs on P1 and P2 with clamped gradnorm scaling: Hausdorff
    # distance <= K ||(u,t)-(v,s)|| + 1e-8 with K from regional constants.
    rep, _ = _suite("hausdorff-lipschitz")
    checks = _by_name(rep)
    violations = (checks["p1-violations"]["observed"]
                  + checks["p2-violations"]["observed"])
    ok = verify.suite_passed(rep) and violations == 0.0
    _declare(2, "hull map Hausdorff Lipschitz bound", ok,
             f"(violations {int(violations)}/20000)")


def test_criterion_03_descent_and_nesting():
    # Zero per-step descent-identity or level-set-nesting violations along
    # every first-order trajectory in the monitor suite (P1-P4, constant,
    # gradnorm and clamped scalings).
    rep, _ = _suite("lyapunov")
    sanity = [c for c in rep["checks"]
              if c["name"].endswith(("-descent-violation",
                                     "-nesting-violation"))]
    assert len(sanity) >= 12  # several trajectories, two checks each
    bad = [c for c in sanity if c["verdict"] != "pass"]
    ok = verify.suite_passed(rep) and not bad
    _declare(3, "descent identity and level-set nesting", ok,
             f"({len(sanity)} trajectory checks)")


def test_criterion_04_convex_rate():
    # P1 from (1,1) (critical) and an interior start: certified merit
    # estimate stays below (R^2 alpha_max / t) * 1.05 on t in [1, 100],
    # dt = 1e-3, R from the level-set bound; < 2 min including u0 grids
    # at 20 checkpoints.
    rep, wall = _suite("convex-rate")
    checks = _by_name(rep)
    worst = max(checks["p1-critical-start-grid-rate-ratio"]["observed"],
                checks["p1-interior-start-grid-rate-ratio"]["observed"])
    ok = verify.suite_passed(rep) and wall < 120.0
    _declare(4, "convex O(1/t) merit decay", ok,
             f"(worst ratio {worst:.3f} <= 1.05, {wall:.1f} s)")


def test_criterion_05_strongly_convex_rate():
    # P2 with constant alpha = 1: u0(x(t)) e^t below the exponential-decay
    # constant (1.05 slack) on [0, 10], and ||x(t) - x*||^2 <= C e^{-t}
    # against the observed limit.
    rep, _ = _suite("strongly-convex-rate")
    checks = _by_name(rep)
    ok = (verify.suite_passed(rep)
          and checks["p2-exp-rate-grid-ratio"]["verdict"] == "pass"
          and checks["p2-distance-rate-ratio"]["verdict"] == "pass")
    _declare(5, "strongly convex exponential decay", ok,
             f"(merit ratio {checks['p2-exp-rate-grid-ratio']['observed']:.3f}, "
             f"distance ratio {checks['p2-distance-rate-ratio']['observed']:.3f})")


def test_criterion_06_nonconvex_sqrt_t():
    # P3 with gradnorm eta = 0.2: running-min scaled criticality below
    # sqrt(min gap)/sqrt(0.2 t) * 1.05 on [1, 200]; eta = 0 variant with
    # M1 from dense level-set sampling on a region with no common
    # stationary point.
    rep, _ = _suite("nonconvex-rate")
    checks = _by_name(rep)
    ok = (verify.suite_passed(rep)
          and checks["p3-eta02-runmin-rate-ratio"]["verdict"] == "pass"
          and checks["p3-eta0-runmin-rate-ratio"]["verdict"] == "pass"
          and checks["p3-eta0-no-common-stationary-point"]["verdict"] == "pass")
    _declare(6, "nonconvex 1/sqrt(t) criticality decay", ok,
             f"(eta=0.2 ratio {checks['p3-eta02-runmin-rate-ratio']['observed']:.3f}, "
             f"eta=0 ratio {checks['p3-eta0-runmin-rate-ratio']['observed']:.3f})")


def test_criterion_07_accelerated_rate():
    # P2, constant alpha, r in {3, 4}, theta = 1, v0 = 0: (t+theta)^2 u0
    # below the Lyapunov initial value * 1.05 on [1, 100]; energies W_i
    # nonincreasing; r = 4 shows bounded decaying tail increments of the
    # running integral of t ||xdot||^2.
    rep, _ = _suite("accelerated-rate")
    checks = _by_name(rep)
    ok = (verify.suite_passed(rep)
          and checks["p2-r3-grid-rate-ratio"]["verdict"] == "pass"
          and checks["p2-r4-grid-rate-ratio"]["verdict"] == "pass"
          and checks["p2-r3-energy-monotone-violation"]["verdict"] == "pass"
          and checks["p2-r4-omega-tail-increase"]["verdict"] == "pass")
    _declare(7, "accelerated O(1/t^2) merit decay", ok,
             f"(r=3 ratio {checks['p2-r3-grid-rate-ratio']['observed']:.3f}, "
             f"r=4 ratio {checks['p2-r4-grid-rate-ratio']['observed']:.3f})")


def test_criterion_08_discrete_rate():
    # P1 and P2 with the default safeguarded step (safety 0.99): every f_i
    # monotone per step, merit coefficient nonincreasing, and
    # k * u0(x_k) <= (alpha_max / s_min) R^2 * 1.05 up to k = 10^4.
    rep, _ = _suite("discrete-rate")
    checks = _by_name(rep)
    ok = verify.suite_passed(rep)
    for tag in ("p1-critical-start", "p1-interior-start", "p2"):
        ok = ok and checks[f"{tag}-f-monotone-violation"]["verdict"] == "pass"
        ok = ok and checks[f"{tag}-rate-ratio"]["verdict"] == "pass"
    _declare(8, "discrete O(1/k) merit decay", ok,
             f"(worst ratio "
             f"{max(checks[f'{t}-rate-ratio']['observed'] for t in ('p1-critical-start', 'p1-interior-start', 'p2')):.3f})")


def test_criterion_09_merit_criticality_consistency():
    # P4 swept over 2001 points: u0_certified <= certified_error exactly
    # at the points with criticality <= 1e-8 (weak Pareto characterization).
    rep, _ = _suite("problem-sanity")
    checks = _by_name(rep)
    mismatches = checks["scalar-pair-sweep-classification-mismatches"]
    ok = verify.suite_passed(rep) and mismatches["observed"] == 0.0
    _declare(9, "merit/criticality zero-set coincidence", ok,
             f"(mismatches {int(mismatches['observed'])}/2001)")


def test_criterion_10_determinism(tmp_path):
    # Same seed and config twice: byte-identical CSV, byte-identical suite
    # JSON, and identical summary JSON apart from the wall-time field.
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    cfg = validate_config({
        "problem": "p3", "mode": "flow", "t_end": 3.0, "dt": 1e-3,
        "record_every": 10, "scaling": "gradnorm:eta=0.2", "seed": 11,
        "out_csv": str(csv_path), "out_json": str(json_path)})
    run_experiment(cfg)
    csv1, sum1 = csv_path.read_bytes(), json.loads(json_path.read_text())
    run_experiment(cfg)
    csv2, sum2 = csv_path.read_bytes(), json.loads(json_path.read_text())
    sum1.pop("wall_time_s")
    sum2.pop("wall_time_s")

    j1, j2 = tmp_path / "v1.json", tmp_path / "v2.json"
    rc1 = main(["verify", "--suite", "problem-sanity", "--seed", "7",
                "--json", str(j1)])
    rc2 = main(["verify", "--suite", "problem-sanity", "--seed", "7",
                "--json", str(j2)])

    ok = (csv1 == csv2
          and json.dumps(sum1, sort_keys=True) == json.dumps(sum2, sort_keys=True)
          and rc1 == 0 and rc2 == 0
          and j1.read_bytes() == j2.read_bytes())
    _declare(10, "seeded runs byte-identical", ok,
             f"({len(csv1)} CSV bytes, {len(j1.read_bytes())} JSON bytes)")
