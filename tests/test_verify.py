"""Fast tests for the verification-suite runner (report shape, determinism,
check semantics).  The slow end-to-end suite runs live in test_acceptance.py."""

import hashlib
import json

import numpy as np
import pytest

from mbgf.errors import ConfigError
from mbgf.geometry import (certificate_tolerance, certificate_violation,
                           min_norm_point)
from mbgf import cli, merit_rates, problems, verify


EXPECTED_SUITES = (
    "problem-sanity",
    "geometry-oracle",
    "convex-rate",
    "strongly-convex-rate",
    "nonconvex-rate",
    "accelerated-rate",
    "discrete-rate",
    "lyapunov",
    "hausdorff-lipschitz",
)


def test_suite_registry_matches_documented_names():
    assert verify.SUITES == EXPECTED_SUITES
    assert set(verify._SUITE_FNS) == set(EXPECTED_SUITES)


def test_unknown_suite_name_raises_config_error():
    with pytest.raises(ConfigError) as exc:
        verify.run_suite("no-such-suite")
    msg = str(exc.value)
    assert "no-such-suite" in msg
    assert "geometry-oracle" in msg  # lists the valid names


def test_check_verdict_boundary():
    assert verify._check("a", 1.0, 1.0)["verdict"] == "pass"
    assert verify._check("a", 1.0, 1.0, slack=0.05)["verdict"] == "pass"
    assert verify._check("a", 1.06, 1.0, slack=0.05)["verdict"] == "fail"
    rec = verify._check("a", 0.5, 1.0)
    assert set(rec) == {"name", "observed", "bound", "slack", "verdict"}
    assert all(isinstance(rec[k], float) for k in ("observed", "bound", "slack"))


def test_report_shape_and_pass():
    rep = verify.run_suite("problem-sanity", seed=0)
    assert set(rep) == {"suite", "seed", "checks"}
    assert rep["suite"] == "problem-sanity"
    assert rep["seed"] == 0
    assert len(rep["checks"]) > 0
    for c in rep["checks"]:
        assert set(c) == {"name", "observed", "bound", "slack", "verdict"}
        assert c["verdict"] in ("pass", "fail")
    assert verify.suite_passed(rep)


@pytest.mark.parametrize("suite", ["problem-sanity", "hausdorff-lipschitz",
                                   "strongly-convex-rate", "discrete-rate",
                                   "nonconvex-rate", "accelerated-rate",
                                   "lyapunov"])
def test_same_seed_byte_identical_json(suite):
    a = verify.run_suite(suite, seed=3)
    b = verify.run_suite(suite, seed=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_suite_passed_and_format_report():
    rep = {"suite": "demo", "seed": 0, "checks": [
        verify._check("good", 0.5, 1.0),
        verify._check("bad", 2.0, 1.0),
    ]}
    assert not verify.suite_passed(rep)
    text = verify.format_report(rep)
    assert "demo" in text
    assert "pass" in text and "fail" in text
    assert "good" in text and "bad" in text
    assert "1/2" in text

    rep["checks"] = [verify._check("good", 0.5, 1.0)]
    assert verify.suite_passed(rep)
    assert "1/1" in verify.format_report(rep)


def test_run_all_order_and_seed(monkeypatch):
    calls = []

    def make_stub(name):
        def stub(rng):
            calls.append(name)
            return [verify._check(f"{name}-ok", 0.0, 1.0)]
        return stub

    monkeypatch.setattr(verify, "_SUITE_FNS",
                        {nm: make_stub(nm) for nm in verify.SUITES})
    reports = verify.run_all(seed=7)
    assert tuple(calls) == verify.SUITES
    assert tuple(r["suite"] for r in reports) == verify.SUITES
    assert all(r["seed"] == 7 for r in reports)
    assert all(verify.suite_passed(r) for r in reports)


def test_distinct_suites_get_distinct_streams():
    # The per-suite RNG is seeded by (seed, suite index) so suites cannot
    # collapse onto one sample stream.
    draws = {}

    for name in ("problem-sanity", "geometry-oracle"):
        idx = verify.SUITES.index(name)
        import numpy as np
        rng = np.random.default_rng(np.random.SeedSequence([0, idx]))
        draws[name] = rng.random()
    assert draws["problem-sanity"] != draws["geometry-oracle"]


@pytest.mark.parametrize("seed", [12, 24, 46, 58])
def test_geometry_oracle_passes_on_ill_conditioned_seeds(seed):
    # These seeds draw ill-conditioned m = 4 hulls whose minimum-norm weights
    # lie in a long, narrow valley of the simplex; the oracle must be exact
    # there, not just near a coarse grid point.
    rep = verify.run_suite("geometry-oracle", seed)
    assert verify.suite_passed(rep), verify.format_report(rep)


def test_deterministic_suites_ignore_the_seed():
    # These suites draw nothing from their rng, so their checks must not
    # move with the seed.
    for name in ("strongly-convex-rate", "discrete-rate"):
        a = verify.run_suite(name, seed=0)
        b = verify.run_suite(name, seed=5)
        assert a["checks"] == b["checks"]


def test_nonconvex_rate_walks_the_level_set_grid_once_per_run(monkeypatch):
    # the eta = 0 witness and the nonconvex-eta0 row share one 500^2 walk of
    # p3's level set; a second run of the suite walks it again
    walks = []
    box_grid = merit_rates._box_grid

    def counting(box, counts):
        walks.append(tuple(counts))
        return box_grid(box, counts)

    monkeypatch.setattr(merit_rates, "_box_grid", counting)
    reports = [verify.run_suite("nonconvex-rate") for _ in range(2)]
    assert walks == [(500, 500)] * 2
    assert reports[0] == reports[1]


@pytest.mark.parametrize("suite, rows", [
    ("nonconvex-rate", ["nonconvex", "nonconvex-eta0"]),
    ("discrete-rate", ["discrete"]),
])
def test_runmin_and_certified_checks_are_rate_report_calls(monkeypatch, suite,
                                                           rows):
    # each series check is one rate_report call, whose check_bound is the
    # only one the suite makes
    calls, bounds = [], []
    check_bound = merit_rates.check_bound

    def spy(name, row, *args):
        calls.append(row)
        return merit_rates.rate_report(name, row, *args)

    def counting(*args, **kw):
        bounds.append(kw["name"])
        return check_bound(*args, **kw)

    monkeypatch.setattr(verify, "rate_report", spy)
    monkeypatch.setattr(merit_rates, "check_bound", counting)
    verify.run_suite(suite)
    assert calls == rows
    assert len(bounds) == len(rows)


MERIT_SUITES = ("convex-rate", "strongly-convex-rate", "accelerated-rate",
                "discrete-rate")


@pytest.fixture(scope="module")
def merit_point_sets():
    # every (problem, points, brackets) that _merit_checks brackets in the
    # rate suites, and the number of _merit_checks calls
    sets, checks = [], []
    bracket, merit_checks = verify.u0_bracket, verify._merit_checks

    def recording_bracket(p, points):
        ests = bracket(p, points)
        sets.append((p, np.array(points), ests))
        return ests

    def counting_checks(p, points, *args):
        checks.append(len(points))
        return merit_checks(p, points, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "u0_bracket", recording_bracket)
        mp.setattr(verify, "_merit_checks", counting_checks)
        for name in MERIT_SUITES:
            verify.run_suite(name, seed=0)
    return sets, checks


def test_merit_checks_bracket_each_point_set_in_one_call(merit_point_sets):
    sets, checks = merit_point_sets
    assert len(sets) == len(checks) >= len(MERIT_SUITES)
    assert [len(X) for _, X, _ in sets] == checks
    assert all(X.ndim == 2 and len(ests) == len(X) for _, X, ests in sets)


def test_suite_brackets_equal_per_point_brackets_bit_for_bit(merit_point_sets):
    # the real rate-suite points, compared bit for bit, since last-bit
    # changes hide from random draws
    def bits(est):
        return (np.float64(est.value).tobytes(),
                np.float64(est.certified_error).tobytes(),
                np.asarray(est.witness, dtype=float).tobytes())

    sets, _ = merit_point_sets
    assert sum(len(X) for _, X, _ in sets) > 100
    for p, X, ests in sets:
        for x, est in zip(X, ests):
            assert bits(est) == bits(merit_rates.u0_bracket(p, x))


# ------------------------------------------------- stacked suite loops

def _geometry_oracle_hull_by_hull(rng):
    # the suite as one loop over hulls, each solved by min_norm_point and
    # certified alone: the reference the grouped suite must equal
    checks = []
    worst_gap = 0.0
    worst_cert = -np.inf
    failures = 0
    for i in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        G = rng.normal(0.0, 0.1, size=(m, n))
        k = i % 10
        if k == 3 and m >= 2:
            G[1] = G[0]
        elif k == 5 and m >= 2:
            G[1] = -G[0]
        elif k == 7:
            G *= 1e-3
        res = min_norm_point(G)
        gap = abs(float(np.linalg.norm(res.point)) - verify._exact_min_norm(G))
        cert = (certificate_violation(np.zeros(n), G, res.point)
                - certificate_tolerance(np.zeros(n), G))
        worst_gap = max(worst_gap, gap)
        worst_cert = max(worst_cert, cert)
        if gap > 1e-4 or cert > 0.0:
            failures += 1
    checks.append(verify._check("min-norm-vs-grid-worst-gap", worst_gap, 1e-4))
    checks.append(verify._check("min-norm-certificate-excess", worst_cert, 0.0))
    checks.append(verify._check("min-norm-failures", failures, 0.0))
    worst_proj = 0.0
    for _ in range(300):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        G = rng.normal(0.0, 0.1, size=(m, n))
        q = rng.normal(0.0, 0.1, size=n)
        val = float(np.linalg.norm(min_norm_point(G - q).point))
        worst_proj = max(worst_proj, abs(val - verify._exact_min_norm(G - q)))
    checks.append(verify._check("projection-vs-grid-worst-gap", worst_proj, 1e-4))
    return checks


@pytest.mark.parametrize("seed", range(6))
def test_grouped_geometry_oracle_equals_the_hull_by_hull_loop(seed):
    reference = _geometry_oracle_hull_by_hull(np.random.default_rng(
        np.random.SeedSequence([seed, verify.SUITES.index("geometry-oracle")])))
    assert verify.run_suite("geometry-oracle", seed)["checks"] == reference


def test_problem_sanity_makes_one_stacked_call_per_loop(monkeypatch):
    # the scalar-pair sweep is one u0_certified call on its 2001 points, and
    # each problem's containment check one level_set_bound call on 10 levels
    sweeps, levels = [], []
    u0, Problem = verify.u0_certified, problems.Problem
    bound = Problem.level_set_bound

    def spy_u0(p, X, box, h):
        sweeps.append(np.shape(X))
        return u0(p, X, box, h)

    def spy_bound(self, a):
        levels.append(np.shape(a))
        return bound(self, a)

    monkeypatch.setattr(verify, "u0_certified", spy_u0)
    monkeypatch.setattr(Problem, "level_set_bound", spy_bound)
    verify.run_suite("problem-sanity", seed=0)
    assert sweeps == [(2001, 1)]
    assert levels == [(10, 2)] * 4 + [(2001, 2)]


# sha256 of `mbgf verify --suite <suite> --seed 0 --json`: the bytes each
# report keeps however its loops are stacked
SUITE_JSON_SHA256 = {
    "problem-sanity":
        "8834021d7e2e9b2ede4e4c5876f1aa8ab702418c2d967d218771baeb3e7a6298",
    "geometry-oracle":
        "383738520d7c5b016c1ec6137b728bd3663e26568df8a0f86497a7e30f6e2c63",
    "accelerated-rate":
        "a072f30c1bd72dd788f7cfaa5bfd0fd4d811e12ddbcb39a4e50521bdaf9ddae9",
    "convex-rate":
        "fd759c7da90a476ea838af31f3f1c58b5c2c4b225a89b38bbc4c3d8402891e8b",
    "discrete-rate":
        "087c154f0446bd342ff5383f592c4056913c0fa14bcbdb52f33f42610f011b70",
    "hausdorff-lipschitz":
        "c1ea1765535cbf040ea44756fddcabc0c94896c35aac868f684990000ea58049",
    "lyapunov":
        "aba32e1d243eecc9c1dc7851ab5889f90dd13dbb14f300d66203c9e28047636a",
    "nonconvex-rate":
        "105ba7d88fe9393d2fa0d8943f0f32a2afe431cebf4933ff1fda986547dbc048",
    "strongly-convex-rate":
        "600542ee1523fc553d9d1ea3e4f7095c0edaf045ac1696c50c8a06289338a396",
}


@pytest.mark.parametrize("suite", sorted(SUITE_JSON_SHA256))
def test_suite_json_report_keeps_its_bytes(suite, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", suite, "--seed", "0",
                     "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUITE_JSON_SHA256[suite]


# sha256 of the whole `mbgf verify --seed <seed> --json` report at the other
# seeds CI runs, beside the per-suite seed-0 pins above
VERIFY_JSON_SHA256 = {
    1: "2f0ceea1bff591015de73ba4bab75de5dfd4744d277c24afbd5f3509e088c668",
    2: "fd2524a07c91c18dcd4d21b2f2d1f1395c7cb3700b1833a7d68ce0fa4fef1c84",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_JSON_SHA256))
def test_verify_json_report_keeps_its_bytes(seed, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", str(seed), "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_JSON_SHA256[seed]
