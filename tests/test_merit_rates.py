import dataclasses
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbgf.discrete import DiscreteConfig, run_discrete
from mbgf.errors import DegenerateScalingError, GridBudgetError, InvalidInputError
from mbgf.flow import FlowConfig, integrate_accelerated, integrate_first_order
from mbgf.geometry import _min_norm
from mbgf import merit_rates, verify
from mbgf.merit_rates import (
    GRID_BUDGET,
    RATE_BOUNDS,
    RATE_SLACK,
    check_bound,
    criticality,
    level_set_grad_range,
    fit_loglog_slope,
    lyapunov_monitors,
    monotone_excess,
    rate_report,
    u0_bracket,
    u0_certified,
)
from mbgf.problems import Box, Problem, get_problem, quadratic_problem
from mbgf.scaling import (constant, generator_map, gradnorm_eta,
                          gradnorm_eta_clamped, parse_scaling)


def ball_problem(region=3.0):
    return quadratic_problem("ball", [[1.0]], [[0.0]], convexity_class="convex",
                             region=Box([-region], [region]), starts=[[1.0]])


# --------------------------------------------------------------- u0 grids

def test_u0_scalar_quadratic():
    est = u0_certified(ball_problem(), [2.0], Box([-3.0], [3.0]), 1e-3)
    assert abs(est.value - 2.0) <= est.certified_error
    assert est.certified_error == pytest.approx(3.0 * 1e-3 / 2.0)
    assert abs(est.witness[0]) <= 1e-3


def test_u0_zero_at_weak_pareto_point():
    p = get_problem("scalar-pair")
    est = u0_certified(p, [0.0], p.level_set_bound(p.value(np.zeros(1))).box, 1e-4)
    assert est.value == 0.0
    assert np.array_equal(est.witness, np.zeros(1))


def test_u0_p4_closed_form_and_brute_force():
    # for x > 1 the sup is attained at z = 1 with value (x-1)^2
    p = get_problem("scalar-pair")
    x = np.array([2.0])
    box = p.level_set_bound(p.value(x)).box
    est = u0_certified(p, x, box, 1e-5)
    assert 1.0 - est.certified_error <= est.value <= 1.0 + 1e-12
    assert est.witness[0] == pytest.approx(1.0, abs=1e-4)
    # independent dense 1-D brute force on the same box
    zs = np.linspace(box.lo[0], box.hi[0], 400001)
    inner = (p.value(x) - p._value(zs[:, None])).min(axis=-1)
    assert abs(est.value - inner.max()) <= 7.0 * 2e-5
    # witness reproduces the value
    assert (p.value(x) - p.value(est.witness)).min() == pytest.approx(est.value, abs=1e-9)


def test_u0_nonnegative_with_valid_witness_everywhere():
    rng = np.random.default_rng(41)
    for name in ["unbalanced-convex", "strongly-convex", "nonconvex-bounded-grad",
                 "scalar-pair"]:
        p = get_problem(name)
        for _ in range(3):
            x = p.region.lo + rng.random(p.n) * (p.region.hi - p.region.lo)
            box = p.level_set_bound(p.value(x)).box
            est = u0_certified(p, x, box, 0.02)
            assert est.value >= 0.0
            gap = (p.value(x) - p.value(est.witness)).min()
            assert gap == pytest.approx(est.value, abs=1e-9)


def test_grid_budget_error_suggests_bracket():
    p = get_problem("unbalanced-convex")
    with pytest.raises(GridBudgetError, match="u0_bracket") as exc:
        u0_certified(p, [1.0, 1.0], Box([-100.0, -100.0], [100.0, 100.0]), 1e-4)
    assert exc.value.requested > exc.value.budget


def test_u0_grid_too_fine_for_an_integer_count_is_refused():
    # 4 / 1e-300 cells per side do not fit an integer count; the budget
    # check must see them rather than a wrapped count of one point
    p = get_problem("scalar-pair")
    box = p.level_set_bound(p.value(np.array([2.0]))).box
    with pytest.raises(GridBudgetError) as exc:
        u0_certified(p, [2.0], box, 1e-300)
    assert exc.value.requested > exc.value.budget


# ------------------------------------------------------------- u0 bracket

def three_quadratics():
    # convex, m = 3, and its sublevel sets are axis-aligned ellipses with
    # closed-form boxes
    return quadratic_problem(
        "three-quadratics", [[4.0, 1.0], [1.0, 9.0], [2.0, 0.5]],
        [[0.0, 0.0], [2.0, 0.5], [0.5, 2.0]], convexity_class="strongly_convex",
        region=Box([0.0, 0.0], [2.0, 2.0]), starts=[[1.0, 1.0]])


def test_bracket_holds_closed_forms():
    # u0 = (|x| - 1)^2 on p4, and u0 = x2^2 / 2 for x1 in [0, 2] on p2
    p4 = get_problem("scalar-pair")
    p2 = get_problem("strongly-convex")
    cases = [(p4, [x], max(abs(x) - 1.0, 0.0) ** 2)
             for x in (-2.5, -1.7, -1.0, -0.3, 0.0, 0.6, 1.0, 1.3, 2.0)]
    cases += [(p2, [x1, x2], 0.5 * x2 * x2)
              for x1 in (0.0, 0.3, 1.0, 1.7, 2.0) for x2 in (-1.2, 0.5, 1.0)]
    for p, x, exact in cases:
        est = u0_bracket(p, x)
        assert est.value - 1e-9 <= exact <= est.value + est.certified_error + 1e-9
        assert est.certified_error <= 1e-3
        gap = (p.value(np.asarray(x)) - p.value(est.witness)).min()
        assert gap == pytest.approx(est.value, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["unbalanced-convex", "strongly-convex", "scalar-pair",
                        "three-quadratics"]),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_bracket_contains_certified_grid(name, u):
    p = three_quadratics() if name == "three-quadratics" else get_problem(name)
    lo, hi = p.region.lo, p.region.hi
    x = lo + np.array(u[:p.n]) * (hi - lo)
    est = u0_bracket(p, x)
    box = p.level_set_bound(p.value(x)).box
    grid = u0_certified(p, x, box, 1e-2)
    assert grid.value <= est.value + est.certified_error + 1e-12
    assert est.value <= grid.value + grid.certified_error + 1e-12


def test_bracket_zero_on_pareto_segment():
    p = get_problem("strongly-convex")
    for t in [0.0, 0.3, 1.0, 1.7, 2.0]:
        est = u0_bracket(p, [t, 0.0])
        assert est.value + est.certified_error <= 1e-12


def test_bracket_nonincreasing_along_descent_trajectory():
    # u0 is nonincreasing along the flow, so each later lower end stays
    # below each earlier upper end
    p = get_problem("unbalanced-convex")
    tr = integrate_first_order(p, constant([1.0, 1.0]), [0.25, 1.5],
                               FlowConfig(t_end=4.0, dt=1e-3, record_every=400))
    ests = [u0_bracket(p, x) for x in tr.states]
    for before, after in zip(ests, ests[1:]):
        assert after.value <= before.value + before.certified_error + 1e-12


def reference_bracket(p, x):
    """The one-point bracket loop written out on its own, with the FISTA
    steps each round took (_ITERS when it never stopped)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    fx = p.value(x)
    box = p.level_set_bound(fx).box
    lo, hi = box.lo, box.hi
    L = merit_rates._LATTICE
    lattice = np.array([w for w in np.ndindex(*[L + 1] * p.m)
                        if sum(w) == L], dtype=float) / L
    lam, z_best = lattice, np.clip(x, lo, hi)
    upper, lower, witness, steps = np.inf, 0.0, x, []
    for r in range(1, merit_rates._ROUNDS + 1):
        step = 1.0 / (lam @ p.lipschitz)[:, None]
        Z = Y = np.broadcast_to(z_best, (len(lam), p.n))
        T = np.ones((len(lam), 1))
        steps.append(merit_rates._ITERS)
        for it in range(merit_rates._ITERS):
            G = np.einsum("km,kmn->kn", lam, p._grads(Y))
            Z_new = np.clip(Y - step * G, lo, hi)
            D, Z = Z_new - Z, Z_new
            if np.abs(D).max() <= merit_rates._STILL * (1.0 + np.abs(Z).max()):
                steps[-1] = it
                break
            T_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * T * T))
            restart = (G * D).sum(axis=1, keepdims=True) > 0.0
            Y = Z + np.where(restart, 0.0, (T - 1.0) / T_new) * D
            T = np.where(restart, 1.0, T_new)
        F = p._value(Z)
        G = np.einsum("km,kmn->kn", lam, p._grads(Z))
        U = ((lam * (fx - F)).sum(axis=1)
             - np.minimum(G * (lo - Z), G * (hi - Z)).sum(axis=1))
        j = int(np.argmin(U))
        upper = min(upper, float(U[j]))
        inner = (fx - F).min(axis=1)
        i = int(np.argmax(inner))
        if inner[i] > lower:
            lower, witness = float(inner[i]), Z[i].copy()
        lam = np.maximum(lam[j] + (2.0 / L) ** r * (lattice - 1.0 / p.m), 0.0)
        lam /= lam.sum(axis=1, keepdims=True)
        z_best = Z[j]
    est = merit_rates.MeritEstimate(value=lower, witness=witness,
                                    certified_error=max(upper, lower) - lower)
    return est, steps


def slow_problem():
    # p2's objectives under a Lipschitz constant declared 1000 times too
    # large: FISTA's step shrinks, so points off the Pareto segment run
    # all _ITERS steps of a round, while on the segment the level-set box
    # is one point and every round stops at once
    p2 = get_problem("strongly-convex")
    return Problem(
        "slow", 2, 2, p2._value, p2._grads, lipschitz=[1e3, 1e3],
        lower_bounds=[0.0, 0.0], convexity_class="convex", region=p2.region,
        grad_bound=p2.grad_bound, starts=p2.starts,
        level_set_bound=p2._level_set_bound)


def _bracket_problem(name):
    return {"three-quadratics": three_quadratics,
            "slow": slow_problem}.get(name, lambda: get_problem(name))()


def _pareto_point(name, u):
    # a point of each problem's Pareto set, u in [0, 1]
    if name == "unbalanced-convex":
        return [(1.0 - u) / (1.0 + 99.0 * u), 1.0 - u]
    if name == "scalar-pair":
        return [2.0 * u - 1.0]
    if name == "three-quadratics":   # an objective's own minimizer
        return [[0.0, 0.0], [2.0, 0.5], [0.5, 2.0]][min(int(3 * u), 2)]
    return [2.0 * u, 0.0]            # strongly-convex and slow


def _bracket_bits(est):
    return (np.float64(est.value).tobytes(),
            np.float64(est.certified_error).tobytes(),
            np.asarray(est.witness, dtype=float).tobytes())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["unbalanced-convex", "strongly-convex", "scalar-pair",
                        "three-quadratics", "slow"]),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.booleans()), min_size=1, max_size=4))
def test_stacked_bracket_equals_per_point_calls_bit_for_bit(name, draws):
    p = _bracket_problem(name)
    lo, hi = p.region.lo, p.region.hi
    X = np.array([_pareto_point(name, u) if pareto
                  else lo + np.array([u, v][:p.n]) * (hi - lo)
                  for u, v, pareto in draws])
    stacked = u0_bracket(p, X)
    assert isinstance(stacked, tuple) and len(stacked) == len(X)
    for x, est in zip(X, stacked):
        one = u0_bracket(p, x)
        assert isinstance(one, merit_rates.MeritEstimate)
        assert (_bracket_bits(est) == _bracket_bits(one)
                == _bracket_bits(reference_bracket(p, x)[0]))


def test_stacked_bracket_keeps_each_points_own_stop():
    # one stack of points that stop at once, run all _ITERS steps, and
    # stop in between, in different rounds: each keeps its own stop test
    # and its own frozen rows
    p = slow_problem()
    X = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1e-3], [1.0, 0.05],
                  [0.5, -0.3]])
    refs = [reference_bracket(p, x) for x in X]
    steps = np.array([s for _, s in refs])
    assert (steps == merit_rates._ITERS).all(axis=1)[[0, 4]].all()
    assert (steps[1] == 0).all()
    assert 0 < steps[2:4].min() and steps[2:4].max() == merit_rates._ITERS
    assert np.unique(steps[:, 1]).size == 4
    for (ref, _), est in zip(refs, u0_bracket(p, X)):
        assert _bracket_bits(est) == _bracket_bits(ref)
    assert np.array_equal(u0_bracket(p, X)[1].witness, X[1])


def test_bracket_rejects_nonconvex():
    with pytest.raises(InvalidInputError, match="u0_bracket"):
        u0_bracket(get_problem("nonconvex-bounded-grad"), [0.9, 0.7])


# ------------------------------------------------------------- criticality

def test_criticality_closed_forms():
    p = get_problem("scalar-pair")
    u, s = criticality(p, [0.0])
    assert u == 0.0 and s == 0.0
    u, s = criticality(p, [2.0])
    assert u == pytest.approx(2.0)       # hull of {6, 2} has min norm 2
    assert s == pytest.approx(1.0)       # normalized hull of {1, 1}
    with pytest.raises(DegenerateScalingError) as exc:
        criticality(p, [1.0])            # grad f_2 vanishes at x = 1
    assert exc.value.unscaled_criticality == 0.0


@pytest.mark.parametrize("name", ["unbalanced-convex", "strongly-convex",
                                  "nonconvex-bounded-grad", "scalar-pair",
                                  "three-quadratics"])
def test_stacked_criticality_equals_the_one_hull_solves_bit_for_bit(name):
    # one gradient call and two stacked solves give, entry by entry, the
    # bits of the one-point call and of each point's own (m, n) hull
    p = _bracket_problem(name)
    rng = np.random.default_rng(5)
    X = p.region.lo + rng.random((200, p.n)) * (p.region.hi - p.region.lo)
    for rule in (None, constant(np.arange(1.0, p.m + 1.0)),
                 gradnorm_eta_clamped(0.1, 0.5, 4.0)):
        unscaled, scaled = criticality(p, X, rule=rule)
        assert unscaled.shape == scaled.shape == (len(X),)
        gens = generator_map(rule or gradnorm_eta(0.0), p.m)
        for x, u, s in zip(X, unscaled, scaled):
            G = p.grads(x)
            assert (np.float64(u).tobytes()
                    == np.float64(criticality(p, x, rule=rule)[0]).tobytes()
                    == np.float64(_min_norm(G)[2]).tobytes())
            assert (np.float64(s).tobytes()
                    == np.float64(criticality(p, x, rule=rule)[1]).tobytes()
                    == np.float64(_min_norm(gens(G))[2]).tobytes())


def test_stacked_criticality_degenerate_row_carries_the_unscaled_array():
    p = get_problem("scalar-pair")
    X = np.array([[2.0], [1.0], [0.0]])     # grad f_2 vanishes at x = 1
    with pytest.raises(DegenerateScalingError) as exc:
        criticality(p, X)
    unscaled = exc.value.unscaled_criticality
    assert isinstance(unscaled, np.ndarray)
    assert unscaled.tobytes() == criticality(p, X, rule=constant([1.0, 1.0]))[0].tobytes()


def test_points_are_read_as_problem_value_reads_them():
    # one point reader: for n = 1 a (P,) vector is P points, as in p.value,
    # and more than two axes are refused
    p = get_problem("scalar-pair")
    xs = np.array([2.0, 0.5, -1.5])
    assert p.value(xs).tobytes() == p.value(xs[:, None]).tobytes()
    for got, want in zip(u0_bracket(p, xs), u0_bracket(p, xs[:, None])):
        assert _est_bits(got) == _est_bits(want)
    for got, want in zip(criticality(p, xs), criticality(p, xs[:, None])):
        assert got.tobytes() == want.tobytes()
    for estimate in (u0_bracket, criticality):
        with pytest.raises(InvalidInputError, match=r"or a \(P, n\) stack"):
            estimate(p, np.zeros((2, 2, 1)))


def test_scaled_zero_iff_unscaled_zero():
    p = get_problem("unbalanced-convex")
    rng = np.random.default_rng(11)
    # a Pareto-critical point: lambda = 0.5 balances the gradients
    lam = 0.5
    crit = np.array([(1 - lam) / (1 + 99 * lam), 1 - lam])
    pts = [crit] + [p.region.lo + rng.random(2) * (p.region.hi - p.region.lo)
                    for _ in range(1000)]
    for x in pts:
        u, s = criticality(p, x)
        assert (u <= 1e-8) == (s <= 1e-8)


# ------------------------------------------------------------- check_bound

def test_check_bound_exact_ratio():
    ts = np.linspace(1.0, 100.0, 300)
    rep = check_bound(ts, 2.0 / ts, name="one-over-t", constant=2.0,
                      bound_fn=lambda t: 2.0 / t)
    assert rep.verdict == "pass" and rep.observed_sup == pytest.approx(1.0)
    assert rep.slope == pytest.approx(-1.0, abs=1e-6)
    rep = check_bound(ts, 2.2 / ts, name="too-big", constant=2.0,
                      bound_fn=lambda t: 2.0 / t)
    assert rep.verdict == "fail" and rep.observed_sup == pytest.approx(1.1)


@pytest.mark.parametrize("ts, values, bound_fn, message", [
    ([1.0, 2.0], [1.0], lambda t: t, "series must be matching 1-D arrays"),
    ([1.0, 2.0], [1.0, 1.0], lambda t: 1.0 - t,
     "bound curve must be positive on the series"),
])
def test_check_bound_refuses_bad_series(ts, values, bound_fn, message):
    with pytest.raises(InvalidInputError) as e:
        check_bound(ts, values, name="bad", constant=1.0, bound_fn=bound_fn)
    assert str(e.value) == message


def test_one_rate_slack_for_check_bound_and_verify():
    ts = np.array([1.0, 2.0])
    rep = check_bound(ts, ts, name="t", constant=1.0, bound_fn=lambda t: t)
    assert rep.slack == RATE_SLACK == 0.05
    assert verify.RATE_SLACK is RATE_SLACK


def test_strongly_convex_rate_light():
    # u0(x(t)) e^t stays below min-gap + R^2 on P2 with alpha = 1
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    tr = integrate_first_order(p, rule, [1.0, 1.0],
                               FlowConfig(t_end=4.0, dt=1e-3, record_every=500))
    R = p.level_set_bound(p.value(np.array([1.0, 1.0]))).radius
    C = 1.0 + R * R
    u0s = []
    for x in tr.states:
        box = p.level_set_bound(p.value(x)).box
        u0s.append(u0_certified(p, x, box, 1e-3).value)
    rep = check_bound(tr.times, np.array(u0s), name="exp-rate", constant=C,
                      bound_fn=lambda t: C * np.exp(-t))
    assert rep.verdict == "pass"


def test_nonconvex_rate_light():
    p = get_problem("nonconvex-bounded-grad")
    eta = 0.2
    x0 = np.array([0.9, 0.7])
    tr = integrate_first_order(p, gradnorm_eta(eta), x0,
                               FlowConfig(t_end=50.0, dt=2e-3, record_every=25))
    mask = tr.times >= 1.0
    gap = float((p.value(x0) - np.asarray(p.lower_bounds)).min())
    runmin = np.minimum.accumulate(tr.crit_scaled[mask])
    rep = check_bound(tr.times[mask], runmin, name="sqrt-rate", constant=gap,
                      bound_fn=lambda t: np.sqrt(gap) / np.sqrt(eta * t))
    assert rep.verdict == "pass"
    assert fit_loglog_slope(tr.times[mask], runmin) <= -0.4


# ------------------------------------------------------------- rate bounds
# The formulas the verify suites and the CLI wrote inline before the rows
# existed, kept as the reference each RATE_BOUNDS row must equal bit for bit.

def _ref_box_grid(p, x0, per_axis):
    fx = p.value(x0)
    box = p.level_set_bound(fx).box
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lo, box.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return fx, np.stack([g.ravel() for g in mesh], axis=-1)


def _ref_gap(p, x0):
    return float((p.value(x0) - p.lower_bounds).min())


def _ref_convex(p, rule, x0):
    lsb = p.level_set_bound(p.value(x0))
    C = lsb.radius ** 2 * rule.declared_bounds(p)[1]
    return C, lambda t: C / t


def _ref_strongly_convex(p, rule, x0):
    lsb = p.level_set_bound(p.value(x0))
    C = float((p.value(x0) - p.lower_bounds).min()) + lsb.radius ** 2
    return C, lambda t: C * np.exp(-t)


def _ref_nonconvex(p, rule, x0):
    gap = _ref_gap(p, x0)
    return gap, lambda t: np.sqrt(gap) / np.sqrt(0.2 * t)


def _ref_nonconvex_eta0(p, rule, x0):
    # m1 certified: the largest grid value plus L times half a cell diagonal,
    # over the grid points within grad_bound * hd of the level set
    fx, Z = _ref_box_grid(p, x0, 500)
    box = p.level_set_bound(fx).box
    hd = np.linalg.norm((box.hi - box.lo) / 499) / 2.0
    keep = np.all(p._value(Z) <= fx + p.grad_bound * hd, axis=-1)
    per_point = np.linalg.norm(p._grads(Z[keep]), axis=-1).max(axis=-1)
    gap = _ref_gap(p, x0)
    m1 = float(per_point.max() + p.lipschitz.max() * hd)
    return m1, lambda t: np.sqrt(gap) / np.sqrt(m1 * t)


def _ref_accelerated(p, rule, x0, theta):
    fx, Z = _ref_box_grid(p, x0, 800)
    vals = (theta ** 2 * (fx - p._value(Z)).min(axis=-1)
            + 2.0 * ((Z - np.asarray(x0)) ** 2).sum(axis=-1))
    V0 = float(vals.max())
    return V0, lambda t: V0 / (t + theta) ** 2


def _ref_discrete(p, rule, x0, s_min):
    amax = rule.declared_bounds(p)[1]
    R2 = p.level_set_bound(p.value(x0)).radius ** 2
    C = amax / s_min * R2
    return C, lambda k: C / k


# row -> (rule for an m-objective problem, extra arguments, reference)
_ROW_REFERENCES = {
    "convex": (lambda m: constant([1.0] * m), {}, _ref_convex),
    "strongly-convex": (lambda m: constant([1.0] * m), {},
                        _ref_strongly_convex),
    "nonconvex": (lambda m: gradnorm_eta(0.2), {}, _ref_nonconvex),
    "nonconvex-eta0": (lambda m: gradnorm_eta(0.0), {}, _ref_nonconvex_eta0),
    "accelerated": (lambda m: constant([1.0] * m), {"theta": 1.0},
                    _ref_accelerated),
    "discrete": (lambda m: gradnorm_eta_clamped(0.1, 0.1, 10.0),
                 {"s_min": 0.0198}, _ref_discrete),
}


_SHIPPED = ("unbalanced-convex", "strongly-convex", "nonconvex-bounded-grad",
            "scalar-pair")
_CONVEX = ("unbalanced-convex", "strongly-convex", "scalar-pair")
# row -> the shipped problems its theorem covers: the convex rows need a
# convex problem, strongly-convex a declared modulus of at least 1
_ROW_PROBLEMS = {"convex": _CONVEX, "strongly-convex": ("strongly-convex",),
                 "nonconvex": _SHIPPED, "nonconvex-eta0": _SHIPPED,
                 "accelerated": _CONVEX, "discrete": _CONVEX}


def test_every_rate_row_has_a_reference():
    assert set(RATE_BOUNDS) == set(_ROW_REFERENCES) == set(_ROW_PROBLEMS)


@pytest.mark.parametrize("row", sorted(_ROW_REFERENCES))
def test_rate_row_matches_hand_formula_bit_for_bit(row):
    make_rule, extra, reference = _ROW_REFERENCES[row]
    t = np.concatenate([np.geomspace(1.0, 100.0, 20), np.arange(1.0, 60.0)])
    for name in _ROW_PROBLEMS[row]:
        p = get_problem(name)
        rule = make_rule(p.m)
        for x0 in p.starts:
            C, bound = RATE_BOUNDS[row](p, rule, x0, **extra)
            C_ref, bound_ref = reference(p, rule, x0, **extra)
            assert np.float64(C).tobytes() == np.float64(C_ref).tobytes()
            assert bound(t).tobytes() == bound_ref(t).tobytes()


@pytest.mark.parametrize("row, spec, extra", [
    ("nonconvex", "const:1,1", {}),               # no eta: a TypeError before
    ("nonconvex", "gradnorm:eta=0", {}),          # an infinite bound before
    ("nonconvex-eta0", "gradnorm:eta=0.2", {}),
    ("nonconvex-eta0", "gradnorm:eta=0,min=0.1,max=10", {}),
    ("strongly-convex", "const:5,5", {}),         # the unit-weight C before
    ("strongly-convex", "gradnorm:eta=0.1", {}),
    ("accelerated", "const:1,2", {"theta": 1.0}),
])
def test_rate_row_refuses_a_rule_its_theorem_does_not_cover(row, spec, extra):
    rule = parse_scaling(spec)
    p = get_problem("strongly-convex")
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{row!r}") + ".*"
                       + re.escape(rule.spec_string())):
        RATE_BOUNDS[row](p, rule, p.starts[0], **extra)


def _weak_modulus():
    # p2's objectives with a declared strong convexity of 0.5, below the
    # unit modulus the strongly-convex constant assumes
    p = get_problem("strongly-convex")
    return Problem(
        "weak-modulus", 2, 2, p._value, p._grads, lipschitz=p.lipschitz,
        lower_bounds=p.lower_bounds, convexity_class="strongly_convex",
        region=p.region, grad_bound=p.grad_bound, starts=p.starts,
        strong_convexity=[0.5, 0.5])


@pytest.mark.parametrize("row, name", [
    *[(row, name) for row in sorted(_ROW_PROBLEMS) for name in _SHIPPED
      if name not in _ROW_PROBLEMS[row]],
    ("strongly-convex", "weak-modulus"),
])
def test_rate_row_refuses_a_problem_its_theorem_does_not_cover(row, name,
                                                              monkeypatch):
    # refused before any grid walk, with the row and the problem named
    make_rule, extra, _ = _ROW_REFERENCES[row]
    p = _weak_modulus() if name == "weak-modulus" else get_problem(name)
    monkeypatch.setattr(merit_rates, "_box_grid", None)
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{row!r}") + ".*" + re.escape(name)):
        RATE_BOUNDS[row](p, make_rule(p.m), p.starts[0], **extra)


# ------------------------------------------------------------- rate_report

def _inline_rate_report(name, row, p, rule, x0, run):
    # the pairing the CLI and verify each wrote inline before rate_report
    if row == "discrete":
        C, bound = RATE_BOUNDS[row](p, rule, x0, run.s_min)
        ts = np.asarray(run.ks, dtype=float)
        values = (run.f_values - p.lower_bounds).min(axis=1)
    else:
        C, bound = RATE_BOUNDS[row](p, rule, x0)
        ts, values = run.times, np.minimum.accumulate(run.crit_scaled)
    mask = ts >= 1.0
    if not mask.any():
        return merit_rates.RateReport(name=name, constant=float(C),
                                      observed_sup=0.0, slack=RATE_SLACK,
                                      verdict="pass")
    return check_bound(ts[mask], values[mask], name=name, constant=C,
                       bound_fn=bound)


def _flow_run(pname, spec, start, t_end):
    p, rule = get_problem(pname), parse_scaling(spec)
    x0 = p.starts[start]
    return p, rule, x0, integrate_first_order(
        p, rule, x0, FlowConfig(t_end=t_end, dt=2e-3, record_every=25))


def _discrete_run(pname, spec, x0, iters):
    p, rule = get_problem(pname), parse_scaling(spec)
    x0 = np.array(x0, dtype=float)
    return p, rule, x0, run_discrete(p, rule, x0,
                                     DiscreteConfig(max_iters=iters))


@pytest.mark.parametrize("row, build", [
    ("nonconvex", lambda: _flow_run("nonconvex-bounded-grad",
                                    "gradnorm:eta=0.2", 0, 20.0)),
    ("nonconvex-eta0", lambda: _flow_run("nonconvex-bounded-grad",
                                         "gradnorm:eta=0", 0, 20.0)),
    ("nonconvex", lambda: _flow_run("unbalanced-convex",
                                    "gradnorm:eta=0.3,min=0.1,max=10", 1, 5.0)),
    ("discrete", lambda: _discrete_run("scalar-pair", "gradnorm:eta=0.2",
                                       [2.0], 300)),
    ("discrete", lambda: _discrete_run("unbalanced-convex", "const:1,1",
                                       [0.25, 1.5], 2000)),
    ("discrete", lambda: _discrete_run("unbalanced-convex",
                                       "gradnorm:eta=0.1,min=0.1,max=10",
                                       [1.0, 1.0], 50)),
])
def test_rate_report_equals_the_inline_pairing_byte_for_byte(row, build):
    p, rule, x0, run = build()
    got = rate_report("r", row, p, rule, x0, run)
    assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(
        _inline_rate_report("r", row, p, rule, x0, run)))


def test_rate_report_passes_an_empty_window_with_zero():
    # (1, 1) is Pareto critical for p1: the method stops at k = 0, before
    # the k >= 1 window opens
    p, rule, x0, seq = _discrete_run(
        "unbalanced-convex", "gradnorm:eta=0.1,min=0.1,max=10", [1.0, 1.0], 50)
    assert len(seq) == 1
    rep = rate_report("empty", "discrete", p, rule, x0, seq)
    assert (rep.observed_sup, rep.verdict) == (0.0, "pass")


def test_rate_report_meets_a_zero_bound_with_zeros_only():
    # at p1's first start f_2 sits at its lower bound, so the nonconvex
    # row's constant and bound curve are 0, and so is every crit_scaled
    p, rule, x0, tr = _flow_run("unbalanced-convex", "gradnorm:eta=0.1", 0, 2.0)
    assert RATE_BOUNDS["nonconvex"](p, rule, x0)[0] == 0.0
    assert not tr.crit_scaled.any()
    rep = rate_report("zero", "nonconvex", p, rule, x0, tr)
    assert (rep.observed_sup, rep.verdict) == (0.0, "pass")
    # one positive value in the window fails it
    run = types.SimpleNamespace(times=np.array([0.0, 1.0, 2.0]),
                                crit_scaled=np.array([0.5, 0.5, 0.0]))
    rep = rate_report("zero", "nonconvex", p, rule, x0, run)
    assert (rep.observed_sup, rep.verdict) == (np.inf, "fail")


@pytest.mark.parametrize("row", ["convex", "strongly-convex", "accelerated"])
def test_rate_report_refuses_a_row_checked_on_u0(row):
    p, rule, x0, seq = _discrete_run("scalar-pair", "const:1,1", [2.0], 10)
    with pytest.raises(InvalidInputError, match=row):
        rate_report("u0", row, p, rule, x0, seq)


def test_level_set_grad_range_brackets_a_random_level_set_sample():
    rng = np.random.default_rng(5)
    for name in ("unbalanced-convex", "nonconvex-bounded-grad", "scalar-pair"):
        p = get_problem(name)
        for x0 in p.starts:
            lo, hi = level_set_grad_range(p, x0)
            box = p.level_set_bound(p.value(x0)).box
            Z = box.lo + rng.random((200_000, p.n)) * (box.hi - box.lo)
            Z = np.vstack([Z[np.all(p.value(Z) <= p.value(x0), axis=-1)],
                           x0[None, :]])
            g = np.linalg.norm(p.grads(Z), axis=-1).max(axis=-1)
            assert lo <= g.min() and g.max() <= hi


# ------------------------------------------------------------ the grid walk

def two_balls_3d():
    # f_i = 0.5 ||x - c_i||^2 in three dimensions: convex, and its level-set
    # box is the whole region [-2, 2]^3
    C = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return Problem(
        "two-balls-3d", 3, 2,
        lambda x: 0.5 * ((x[..., None, :] - C) ** 2).sum(axis=-1),
        lambda x: x[..., None, :] - C,
        lipschitz=[1.0, 1.0], lower_bounds=[0.0, 0.0],
        convexity_class="convex", region=Box([-2.0] * 3, [2.0] * 3),
        grad_bound=6.0, starts=[[0.5, 0.5, 0.5]])


def test_level_set_grids_respect_the_budget_in_three_dimensions():
    # 800^3 points for V0 and 500^3 for the gradient range, both over budget
    p = two_balls_3d()
    x0 = p.starts[0]
    for build in (lambda: RATE_BOUNDS["accelerated"](p, constant([1.0, 1.0]),
                                                     x0, theta=1.0),
                  lambda: level_set_grad_range(p, x0)):
        with pytest.raises(GridBudgetError, match="u0_bracket") as exc:
            build()
        assert exc.value.requested > exc.value.budget == GRID_BUDGET


def _u0_grid(p, x0):
    # f(x0), the level-set box and a spacing of about 300 cells per side
    fx = p.value(x0)
    box = p.level_set_bound(fx).box
    return fx, box, max(1e-9, float((box.hi - box.lo).max()) / 300.0)


def _grid_results(p, x0):
    _, box, h = _u0_grid(p, x0)
    est = u0_certified(p, x0, box, h)
    V0 = b""
    if p.convexity_class != "nonconvex":  # the accelerated row's problems
        V0 = np.float64(RATE_BOUNDS["accelerated"](
            p, constant([1.0] * p.m), x0, theta=1.0)[0]).tobytes()
    return (np.float64(est.value).tobytes(), est.witness.tobytes(),
            np.array(level_set_grad_range(p, x0)).tobytes(), V0)


def test_chunked_grid_walk_matches_one_chunk_bit_for_bit(monkeypatch):
    for name in ("unbalanced-convex", "strongly-convex",
                 "nonconvex-bounded-grad", "scalar-pair"):
        # a fresh instance each time: p keeps the gradient range it walked
        for x0 in get_problem(name).starts:
            monkeypatch.setattr(merit_rates, "_CHUNK", GRID_BUDGET)
            whole = _grid_results(get_problem(name), x0)
            monkeypatch.setattr(merit_rates, "_CHUNK", 100)  # one row or less
            assert _grid_results(get_problem(name), x0) == whole, (name, x0)


def trough():
    # f = 0.5 x_2^2 on [-1, 1]^2: every row of the u0 grid, hence every
    # chunk, ties at the z_2 nearest 0
    return Problem(
        "trough", 2, 1, lambda x: 0.5 * x[..., 1:] ** 2,
        lambda x: np.stack([0.0 * x[..., 1], x[..., 1]], axis=-1)[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-1.0, -1.0], [1.0, 1.0]), grad_bound=1.0,
        starts=[[0.5, 0.5]])


def test_u0_witness_is_the_first_grid_maximum_in_c_order(monkeypatch):
    monkeypatch.setattr(merit_rates, "_CHUNK", 100)
    problems = [get_problem(name) for name in (
        "unbalanced-convex", "strongly-convex", "nonconvex-bounded-grad",
        "scalar-pair")] + [trough()]
    for p in problems:
        for x0 in p.starts:
            fx, box, h = _u0_grid(p, x0)
            counts = np.maximum(1, np.ceil((box.hi - box.lo) / h).astype(int) + 1)
            axes = [np.linspace(lo, hi, c)
                    for lo, hi, c in zip(box.lo, box.hi, counts)]
            Z = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                         axis=-1)
            inner = (fx - p._value(Z)).min(axis=-1)
            j = int(np.argmax(inner))
            est = u0_certified(p, x0, box, h)
            if inner[j] > 0.0:
                assert est.value == inner[j]
                assert est.witness.tobytes() == Z[j].tobytes()
            else:
                assert est.value == 0.0 and np.array_equal(est.witness, x0)


def _linspace_grid(box, counts):
    # the grid as np.linspace and np.meshgrid build it, in C order
    axes = [np.linspace(lo, hi, int(c))
            for lo, hi, c in zip(box.lo, box.hi, counts)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sides=st.lists(st.tuples(
           st.sampled_from([0.0, 5e-324, 1e-310, 1e-12, 0.3, 7.0]),
           st.integers(1, 12), st.sampled_from([-0.0, 0.0, -1.5, 2.25])),
           min_size=1, max_size=3).flatmap(
               lambda axes: st.lists(st.just(axes), min_size=1, max_size=4)),
       chunk=st.sampled_from([5, 8192]))
def test_box_grid_points_are_linspace_meshgrid_points(sides, chunk):
    # every (side, count, lo) axis, for one box and for a stack of copies
    # whose chunks split boxes: underflowing steps, one-point axes and
    # signed zeros included
    lo = np.array([[lo for _, _, lo in axes] for axes in sides])
    hi = lo + np.array([[side for side, _, _ in axes] for axes in sides])
    counts = np.array([[c for _, c, _ in axes] for axes in sides])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merit_rates, "_CHUNK", chunk)
        chunks = list(merit_rates._box_grid(Box(lo, hi), counts))
        one = list(merit_rates._box_grid(Box(lo[0], hi[0]), counts[0]))
    assert all(len(Z) <= chunk for Z, _ in chunks)
    Z = np.concatenate([Z for Z, _ in chunks])
    k = np.concatenate([k for _, k in chunks])
    ref = [_linspace_grid(Box(lo[i], hi[i]), counts[i]) for i in range(len(lo))]
    assert Z.tobytes() == np.concatenate(ref).tobytes()
    assert k.tolist() == [i for i, R in enumerate(ref) for _ in R]
    assert np.concatenate([Z for Z, _ in one]).tobytes() == ref[0].tobytes()


def _est_bits(est):
    return (np.float64(est.value).tobytes(),
            np.float64(est.certified_error).tobytes(),
            np.asarray(est.witness, dtype=float).tobytes())


def test_stacked_u0_equals_one_point_calls_on_the_scalar_pair_sweep():
    # problem-sanity's 2001 points, boxes and spacings, as the suite makes them
    p = get_problem("scalar-pair")
    X = np.linspace(-2.5, 2.5, 2001)[:, None]
    box = p.level_set_bound(p.value(X)).box
    side = box.hi[:, 0] - box.lo[:, 0]
    h = np.maximum(1e-9, side * side / 40.0)
    ests = u0_certified(p, X, box, h)
    assert len(ests) == len(X)
    for k, est in enumerate(ests):
        assert _est_bits(est) == _est_bits(u0_certified(p, X[k], box[k], h[k]))


# weak Pareto points: each minimizes f_1, so u0 = 0 there
_PARETO = {"unbalanced-convex": [0.0, 0.0], "strongly-convex": [0.0, 0.0],
           "nonconvex-bounded-grad": [0.0, 0.0], "scalar-pair": [-1.0]}


def _u0_case(p, kind, rng):
    """A point, a box and a spacing of one kind: its level-set box at 3 to
    40 cells per side, the same box with h above every side (2 points per
    axis), a zero-width box (1 point per axis), a box collapsed to a face
    by Box.intersect's touching rule, or a weak Pareto point (u0 = 0)."""
    x = p.region.lo + rng.random(p.n) * (p.region.hi - p.region.lo)
    if kind == "pareto":
        x = np.array(_PARETO[p.name])
    box = p.level_set_bound(p.value(x)).box
    widest = float((box.hi - box.lo).max())
    h = max(1e-9, widest / rng.uniform(3.0, 40.0))
    if kind == "coarse":
        h = 2.0 * widest + rng.random()
    elif kind == "zero-width":
        box = Box(x, x)
    elif kind == "touching":
        # two boxes around x that cross by roundoff at x_0
        lo1, hi1 = x - 0.5, x + 0.5
        hi1[0] = x[0]
        lo2, hi2 = x - 0.5, x + 0.5
        lo2[0] = x[0] + 1e-13 * (1.0 + abs(x[0]))
        box = Box(lo1, hi1).intersect(Box(lo2, hi2))
        assert box.lo[0] == box.hi[0]
    return x, box, h


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["unbalanced-convex", "strongly-convex",
                             "nonconvex-bounded-grad", "scalar-pair"]),
       kinds=st.lists(st.sampled_from(["level-set", "coarse", "zero-width",
                                       "touching", "pareto"]),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1),
       chunk=st.sampled_from([7, 8192]))
def test_stacked_u0_equals_one_point_calls_and_the_full_grid(name, kinds,
                                                            seed, chunk):
    # entry k of a stack equals the one-point call on X[k] byte for byte,
    # and both equal the first maximum of the whole linspace grid, with
    # chunks of 7 points splitting grids and runs of boxes
    p = get_problem(name)
    rng = np.random.default_rng(seed)
    cases = [_u0_case(p, kind, rng) for kind in kinds]
    X = np.array([x for x, _, _ in cases])
    boxes = Box(np.array([b.lo for _, b, _ in cases]),
                np.array([b.hi for _, b, _ in cases]))
    h = np.array([h for _, _, h in cases])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merit_rates, "_CHUNK", chunk)
        ests = u0_certified(p, X, boxes, h)
        singles = [u0_certified(p, x, b, hk) for x, b, hk in cases]
    for kind, (x, b, hk), est, single in zip(kinds, cases, ests, singles):
        assert _est_bits(est) == _est_bits(single)
        counts = np.maximum(1.0, np.ceil((b.hi - b.lo) / hk) + 1.0)
        if kind == "coarse":
            assert counts.max() <= 2.0
        elif kind in ("zero-width", "touching"):
            assert counts.min() == 1.0
        Z = _linspace_grid(b, counts)
        inner = (p.value(x) - p._value(Z)).min(axis=-1)
        j = int(np.argmax(inner))
        if inner[j] > 0.0:
            assert est.value == inner[j]
            assert est.witness.tobytes() == Z[j].tobytes()
        else:
            assert est.value == 0.0 and est.witness.tobytes() == x.tobytes()
        if kind == "pareto":
            assert est.value == 0.0


def test_stacked_u0_budget_covers_the_sum_of_the_grids():
    # six grids of 2001^2 points: each fits GRID_BUDGET, together they do
    # not, and the walk refuses them before it builds a chunk
    shapes = []
    p2 = get_problem("strongly-convex")

    def value(x):
        shapes.append(x.shape)
        return p2._value(x)

    p = Problem("spy", 2, 2, value, p2._grads, lipschitz=[1.0, 1.0],
                lower_bounds=[0.0, 0.0], convexity_class="convex",
                region=p2.region, grad_bound=p2.grad_bound,
                starts=p2.starts)
    lo = np.full((6, 2), -1.0)
    assert 2001 ** 2 < GRID_BUDGET < 6 * 2001 ** 2
    with pytest.raises(GridBudgetError, match="u0_bracket") as exc:
        u0_certified(p, np.zeros((6, 2)), Box(lo, lo + 2.0), 1e-3)
    assert exc.value.requested == 6 * 2001 ** 2
    assert shapes == [(6, 2)]  # f at the points, and no grid point


def test_stacked_u0_needs_one_box_and_spacing_per_point():
    p = get_problem("strongly-convex")
    X = np.zeros((3, 2))
    boxes = Box(np.full((3, 2), -1.0), np.ones((3, 2)))
    with pytest.raises(InvalidInputError, match="one box"):
        u0_certified(p, X, boxes[0], 0.5)
    with pytest.raises(InvalidInputError, match="grid spacing"):
        u0_certified(p, X, boxes, [0.5, 0.5])
    with pytest.raises(InvalidInputError, match="grid spacing"):
        u0_certified(p, X, boxes, [0.5, 0.0, 0.5])
    assert len(u0_certified(p, X, boxes, 0.5)) == 3


# -------------------------------------------------------- lyapunov monitors

def test_monitors_first_order_p2():
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    tr = integrate_first_order(p, rule, [1.0, 1.0],
                               FlowConfig(t_end=5.0, dt=1e-3, record_every=50))
    out = lyapunov_monitors(tr, ["h", "convex", "strongly_convex"], [1.0, 0.0],
                            p, rule)
    assert set(out) == {"h", "convex_E", "strongly_convex_W"}
    for excess in out.values():
        assert isinstance(excess, float) and excess <= 0.0, excess


def test_monitors_accelerated_p2():
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    tr = integrate_accelerated(
        p, rule, [1.0, 1.0],
        FlowConfig(t_end=20.0, dt=1e-3, mode="accelerated", r=3.0, theta=1.0,
                   record_every=100))
    out = lyapunov_monitors(tr, ["accelerated"], [1.0, 0.0], p, rule)
    assert set(out) == {"accel_E_0", "accel_E_1", "accel_E_min"}
    for excess in out.values():
        assert isinstance(excess, float) and excess <= 0.0, excess


def test_monitor_error_paths():
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    tr = integrate_first_order(p, rule, [1.0, 1.0],
                               FlowConfig(t_end=1.0, record_every=100))
    with pytest.raises(InvalidInputError):
        lyapunov_monitors(tr, ["h"], [1.0, 1.0], p, rule)  # z above final level
    with pytest.raises(InvalidInputError):
        lyapunov_monitors(tr, ["nope"], [1.0, 0.0], p, rule)
    with pytest.raises(InvalidInputError):
        lyapunov_monitors(tr, ["discrete"], [1.0, 0.0], p, rule)  # removed
    with pytest.raises(InvalidInputError):
        lyapunov_monitors(tr, ["accelerated"], [1.0, 0.0], p, rule)  # no velocities
    with pytest.raises(InvalidInputError, match="iterate sequence"):
        lyapunov_monitors(tr, ["merit"], [1.0, 0.0], p, rule)  # a flow run
    with pytest.raises(InvalidInputError, match="series"):
        lyapunov_monitors(tr, ["energy"], None, p, rule)  # no energies


def test_monitors_refuse_a_z_that_is_not_one_point():
    # a (2, 1) z is two points of R^1, or no point of R^2: refused either way
    for name in ("strongly-convex", "scalar-pair"):
        p = get_problem(name)
        rule = constant([1.0, 1.0])
        tr = integrate_first_order(p, rule, p.starts[0],
                                   FlowConfig(t_end=1.0, record_every=100))
        with pytest.raises(InvalidInputError, match=r"R\^"):
            lyapunov_monitors(tr, ["h"], np.zeros((2, 1)), p, rule)


# ---------------------------------------------------------- monotone excess

def test_monotone_excess_matches_inline_formulas():
    # each reference is the inline formula a gate used before
    rng = np.random.default_rng(3)
    for shape in [(50,), (50, 2), (7, 3)]:
        v = np.cumsum(rng.normal(0.0, 1e-6, size=shape) - 1e-7, axis=0) + 5.0
        d = np.diff(v, axis=0)
        for rel in (1e-6, 1e-9):        # Lyapunov monitors, f-nesting
            assert monotone_excess(v, rel) == float(
                (d - rel * (1.0 + np.abs(v[:-1]))).max())
        # discrete merit: absolute slack
        assert monotone_excess(v, 0.0, 1e-9) == float((d - 1e-9).max())
        # accelerated W_i: 1e-7 per unit time
        t = np.cumsum(rng.uniform(0.5e-3, 2e-3, size=shape[0]))
        allowed = 1e-7 * np.diff(t)
        if v.ndim == 2:
            allowed = allowed[:, None]
        assert monotone_excess(v, 0.0, allowed) == float((d - allowed).max())
    tails = [0.3, 0.1, 0.05, 0.02, 0.025]  # omega tails: no slack
    assert monotone_excess(tails, 0.0) == float(max(np.diff(tails)))


def test_monotone_excess_short_series_is_zero():
    for values in ([], [3.0], np.zeros((0, 2)), np.ones((1, 2))):
        assert monotone_excess(values, 1e-6) == 0.0
        assert monotone_excess(values, 0.0, 1e-9) == 0.0
