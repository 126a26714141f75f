import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mbgf import flow
from mbgf.cli import run_experiment, validate_config
from mbgf.discrete import DiscreteConfig, run_discrete, step_size
from mbgf.errors import (DivergenceError, InvalidInputError, NoConvergenceError,
                         NumericDomainError)
from mbgf.flow import (
    FD_STEP,
    ROOT_TOL,
    SIGMA_BAND,
    FlowConfig,
    _SlidingPair,
    _sliding_weight,
    _sliding_weights,
    integrate_accelerated,
    integrate_first_order,
)
from mbgf.geometry import (_min_norm, _support_weights, min_norm_point,
                           project_onto_hull, support_point)
from mbgf.problems import Box, Problem, get_problem, quadratic_problem
from mbgf.scaling import (constant, generator_map, gradnorm_eta,
                          gradnorm_eta_clamped, scaled_hull_generators)
from mbgf.verify import _exact_min_norm


def ball_problem(region=2.0):
    return quadratic_problem("ball", [[1.0]], [[0.0]], convexity_class="convex",
                             region=Box([-region], [region]), starts=[[1.0]])


def test_single_objective_exponential_decay():
    tr = integrate_first_order(ball_problem(), constant([1.0]), [1.0],
                               FlowConfig(t_end=5.0, dt=1e-3, record_every=100))
    assert np.abs(tr.states[:, 0] - np.exp(-tr.times)).max() <= 1e-6


def test_p2_symmetry_axis_is_invariant():
    p = get_problem("strongly-convex")
    # On the segment between the two centers every point is Pareto critical,
    # so the flow is stationary there.
    tr = integrate_first_order(p, constant([1.0, 1.0]), [1.0, 0.0],
                               FlowConfig(t_end=2.0, record_every=200))
    assert np.abs(tr.states - np.array([1.0, 0.0])).max() <= 1e-12
    assert tr.speeds.max() <= 1e-8
    # From (1,1) the direction is always (0, -x2): x1 stays put and x2
    # decays exactly exponentially.
    tr = integrate_first_order(p, constant([1.0, 1.0]), [1.0, 1.0],
                               FlowConfig(t_end=5.0, record_every=100))
    assert np.abs(tr.states[:, 0] - 1.0).max() <= 1e-12
    assert np.abs(tr.states[:, 1] - np.exp(-tr.times)).max() <= 1e-9


def test_critical_start_is_stationary():
    p = get_problem("scalar-pair")
    tr = integrate_first_order(p, constant([1.0, 1.0]), [0.0],
                               FlowConfig(t_end=1.0, record_every=50))
    assert tr.speeds.max() <= 1e-8
    assert np.abs(tr.states).max() <= 1e-12


def test_trajectory_structure_and_region_invariant():
    p = get_problem("unbalanced-convex")
    cfg = FlowConfig(t_end=0.5, dt=1e-3, record_every=7)
    tr = integrate_first_order(p, constant([1.0, 1.0]), [0.25, 1.5], cfg)
    assert np.all(np.diff(tr.times) > 0)
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(0.5)
    assert tr.velocities is None and tr.energies is None
    assert tr.f_values.shape == (len(tr), 2)
    assert tr.weights.shape == (len(tr), 2)
    for x in tr.states:
        assert p.region.contains(x, slack=1e-12)
    # scaled criticality equals speed for the first-order flow
    assert np.array_equal(tr.crit_scaled, tr.speeds)


def descent_violations(tr, alphas):
    # min_i alpha_i ||xdot||^2 + df_i/dt <= 1e-6 (1 + ||xdot||^2), every i,
    # with the conservative endpoint-min speed on each recorded interval.
    dt = np.diff(tr.times)[:, None]
    dfdt = np.diff(tr.f_values, axis=0) / dt
    v2 = np.minimum(tr.speeds[:-1], tr.speeds[1:]) ** 2
    amin = np.minimum(alphas[:-1].min(axis=-1), alphas[1:].min(axis=-1))
    lhs = (amin * v2)[:, None] + dfdt
    return lhs - 1e-6 * (1.0 + v2)[:, None]


def test_descent_and_nesting_first_order():
    for name, rule in [("unbalanced-convex", constant([1.0, 1.0])),
                       ("nonconvex-bounded-grad", gradnorm_eta(0.2)),
                       ("strongly-convex", gradnorm_eta_clamped(0.1, 0.5, 10.0))]:
        p = get_problem(name)
        tr = integrate_first_order(p, rule, p.starts[-1],
                                   FlowConfig(t_end=3.0, dt=1e-3, record_every=10))
        alphas = np.stack([rule.alpha(p, x) for x in tr.states])
        assert descent_violations(tr, alphas).max() <= 0.0, name
        # level-set nesting: componentwise nonincreasing within slack
        slack = 1e-9 * (1.0 + np.abs(tr.f_values[:-1]))
        assert np.all(np.diff(tr.f_values, axis=0) <= slack), name
        run_max = np.maximum.accumulate(tr.f_values, axis=0)
        assert np.all(tr.f_values <= run_max[0] + 1e-9 * (1.0 + np.abs(run_max[0])))


def test_smooth_nonlinear_flow_matches_closed_form():
    # Gradient-norm scaling makes the scalar flow genuinely nonlinear:
    # xdot = -x / (x + 0.1) for x > 0, so x + 0.1 ln x = 1 - t from x = 1.
    # Every record, dense-output ones included, is within 1e-9 of that
    # curve, and the pair needs far fewer steps than the record grid.
    p = ball_problem()
    rule = gradnorm_eta(0.1)
    for dt, every in ((1e-3, 1), (0.05, 1), (0.1, 10 ** 9), (1e-3, 7)):
        tr = integrate_first_order(p, rule, [1.0],
                                   FlowConfig(t_end=1.0, dt=dt, record_every=every))
        x = tr.states[:, 0]
        residual = np.abs(x + 0.1 * np.log(x) - (1.0 - tr.times))
        # divided by the curve's slope in x, 1 + 0.1 / x, this is
        # |x - x(t)| to first order
        assert (residual / (1.0 + 0.1 / x)).max() <= 1e-9, (dt, every)
        assert tr.work["steps"] <= 50


def test_divergence_error_on_unstable_step():
    # The guard must report the first state outside the box and its time.
    # The step-size control keeps both flows stable on the stiff ball, so an
    # outward field is used, from f = -4x: xdot = 4 in first-order mode, and
    # xddot = 4 - r/(t+1) xdot in accelerated mode, with the damping made
    # negligible (r = 1e-9).  The first trial step dt is accepted and ends
    # near x = 3, outside the box [-2.4, 2.4], the region [-2, 2] plus 10%
    # of its diameter.  The same run on a wider region records that step's
    # end.
    def outward(half_width):
        return Problem(
            "outward", 1, 1, lambda x: -4.0 * x,
            lambda x: np.full(x.shape + (1,), -4.0),
            lipschitz=[1.0], lower_bounds=[-10.0], convexity_class="convex",
            region=Box([-half_width], [half_width]), grad_bound=4.0,
            starts=[[1.0]])

    for cfg, tol in ((FlowConfig(t_end=0.5, dt=0.5), 1e-15),
                     (FlowConfig(t_end=1.0, dt=1.0, mode="accelerated",
                                 r=1e-9), 1e-9)):
        end = _integrate(outward(10.0), constant([1.0]), [1.0], cfg)
        assert end.work["steps"] == 1 and abs(end.states[-1, 0] - 3.0) <= tol
        with pytest.raises(DivergenceError) as err:
            _integrate(outward(2.0), constant([1.0]), [1.0], cfg)
        assert str(err.value) == (
            f"state {end.states[-1].tolist()} left the region of outward by "
            f"more than 10% of its diameter at t = {cfg.t_end:.6g}")


def test_numeric_domain_error_propagates():
    def bad_grads(x):
        g = x[..., None, :]
        return np.where(np.abs(x[..., None, :]) > 1.2, np.nan, -g)

    p = Problem(
        "ascends", 1, 1,
        lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
        bad_grads,
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-3.0], [3.0]), grad_bound=3.0, starts=[[1.0]])
    # A NaN state fails the box check too; it must still be reported as
    # non-finite, not as a divergence.
    with pytest.raises(NumericDomainError, match="non-finite state"):
        integrate_first_order(p, constant([1.0]), [1.0], FlowConfig(t_end=3.0, dt=1e-2))
    # In accelerated mode the NaN gradient meets the support scan first.
    with pytest.raises(NumericDomainError, match="non-finite support scores"):
        integrate_accelerated(p, constant([1.0]), [1.0],
                              FlowConfig(t_end=3.0, dt=1e-2, mode="accelerated"))


def test_config_validation():
    p = ball_problem()
    with pytest.raises(InvalidInputError):
        integrate_first_order(p, constant([1.0]), [1.0], FlowConfig(t_end=0.0))
    with pytest.raises(InvalidInputError):
        integrate_first_order(p, constant([1.0]), [1.0], FlowConfig(t_end=1.0, dt=-1.0))
    with pytest.raises(InvalidInputError):
        integrate_first_order(p, constant([1.0]), [1.0], FlowConfig(t_end=1.0, record_every=0))
    with pytest.raises(InvalidInputError):
        integrate_first_order(p, constant([1.0]), [5.0], FlowConfig(t_end=1.0))
    with pytest.raises(InvalidInputError):
        integrate_first_order(p, constant([1.0]), [1.0], FlowConfig(t_end=1.0, mode="accelerated"))
    with pytest.raises(InvalidInputError):
        integrate_accelerated(p, gradnorm_eta(0.1), [1.0],
                              FlowConfig(t_end=1.0, mode="accelerated"))
    with pytest.raises(InvalidInputError, match="theta must be a positive real"):
        integrate_accelerated(p, constant([1.0]), [1.0],
                              FlowConfig(t_end=1.0, mode="accelerated", theta=0.0))


@pytest.mark.parametrize("name", ["t_end", "dt", "r", "theta"])
@pytest.mark.parametrize("bad", [10 ** 400, -(10 ** 400), float("nan"),
                                 float("inf"), "1"])
def test_a_window_value_without_a_finite_float_is_refused_by_name(name, bad):
    # an int beyond the float range is refused as an infinity is, by name
    cfg = dataclasses.replace(FlowConfig(t_end=1.0, mode="accelerated"),
                              **{name: bad})
    with pytest.raises(InvalidInputError, match=f"^{name} must be a positive real"):
        integrate_accelerated(ball_problem(), constant([1.0]), [1.0], cfg)


def test_trajectory_refuses_unknown_fields():
    with pytest.raises(TypeError, match="unexpected fields: \\['steps'\\]"):
        flow.Trajectory(steps=5)
    tr = flow.Trajectory(mode="first_order")
    assert tr.mode == "first_order" and tr.velocities is None


def test_every_flow_starts_at_zero():
    # theta is the clock shift of the accelerated system, so the start time
    # is no setting: FlowConfig has six fields, and t0 is a constant 0.0
    assert [f.name for f in dataclasses.fields(FlowConfig)] == [
        "t_end", "dt", "mode", "r", "theta", "record_every"]
    assert FlowConfig.t0 == 0.0 and FlowConfig(t_end=1.0).t0 == 0.0
    with pytest.raises(TypeError):
        FlowConfig(t_end=1.0, t0=0.0)
    tr = integrate_first_order(ball_problem(), constant([1.0]), [1.0],
                               FlowConfig(t_end=1.0, dt=0.25))
    assert tr.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_flow_config_is_frozen():
    # a run keeps its config, and the accelerated monitor reads its theta
    cfg = FlowConfig(t_end=1.0, mode="accelerated")
    for name, value in (("theta", 5.0), ("t_end", 2.0), ("t0", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.theta, cfg.t_end, cfg.t0) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize("mode", ["first_order", "accelerated"])
@pytest.mark.parametrize("every", [float("nan"), float("inf"), 0, 1.5])
def test_record_every_must_be_a_positive_integer(mode, every):
    cfg = FlowConfig(t_end=1.0, mode=mode, record_every=every)
    with pytest.raises(InvalidInputError, match="record_every"):
        _integrate(ball_problem(), constant([1.0]), [1.0], cfg)


@pytest.mark.parametrize("mode", ["first_order", "accelerated"])
def test_a_record_stride_of_any_size_records_the_first_and_last_state(mode):
    # a Python int of any size is a valid stride; one above the step count
    # records the start and the end
    for every in (2 ** 64, 10 ** 400):
        cfg = FlowConfig(t_end=1.0, dt=0.25, mode=mode, record_every=every)
        tr = _integrate(ball_problem(), constant([1.0]), [1.0], cfg)
        assert tr.times.tolist() == [0.0, 1.0]


# ----------------------------------------------------------- implicit solve

# The exact xddot with xddot + b + proj_hull(-xddot) = 0, as the accelerated
# right-hand side takes it: the support point c* of the hull in direction b
# has <b, y - c*> <= 0 for every hull point y, so b + c* projects onto the
# hull exactly at c*, and xddot = -(b + c*).  A tied support face resolves
# to its minimum-norm point.

def test_implicit_acceleration_closed_forms():
    G = np.array([[3.0, 1.0], [1.0, 3.0]])
    # b = 0 ties every generator; the tie resolves to the min-norm point.
    b = np.zeros(2)
    xdd = -(b + _support_weights(G, b)[2])
    assert np.allclose(xdd, -min_norm_point(G).point)
    # singleton hull: xdd = -(b + g)
    b = np.array([0.5, -0.25])
    xdd = -(b + _support_weights(np.array([[1.0, 2.0]]), b)[2])
    assert np.allclose(xdd, -(b + np.array([1.0, 2.0])))


def test_implicit_acceleration_residual():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        G = rng.normal(size=(m, n))
        b = rng.normal(size=n)
        xdd = -(b + _support_weights(G, b)[2])
        res = np.linalg.norm(xdd + b + project_onto_hull(-xdd, G).point)
        assert res <= 1e-9


# ------------------------------------------------------------- accelerated

def test_accelerated_stationary_at_critical_point():
    p = get_problem("scalar-pair")
    tr = integrate_accelerated(p, constant([1.0, 1.0]), [0.0],
                               FlowConfig(t_end=2.0, mode="accelerated", record_every=100))
    assert np.abs(tr.states).max() <= 1e-12
    assert np.abs(tr.velocities).max() <= 1e-12


def test_accelerated_scalar_matches_dense_reference():
    # m = 1, f = x^2/2, alpha = 1: the system is exactly
    # xddot + 3/(t+1) xdot + x = 0 with x(0) = 1, xdot(0) = 0.
    p = ball_problem()
    cfg = FlowConfig(t_end=5.0, dt=1e-3, mode="accelerated", r=3.0, theta=1.0,
                     record_every=1000)
    tr = integrate_accelerated(p, constant([1.0]), [1.0], cfg)

    def reference(dt, t_end):
        x, v, t = 1.0, 0.0, 0.0
        steps = int(round(t_end / dt))
        for _ in range(steps):
            def a(x_, v_, t_):
                return -(3.0 / (t_ + 1.0)) * v_ - x_
            a1 = a(x, v, t)
            x2, v2 = x + 0.5 * dt * v, v + 0.5 * dt * a1
            a2 = a(x2, v2, t + 0.5 * dt)
            x3, v3 = x + 0.5 * dt * v2, v + 0.5 * dt * a2
            a3 = a(x3, v3, t + 0.5 * dt)
            x4, v4 = x + dt * v3, v + dt * a3
            a4 = a(x4, v4, t + dt)
            x += dt / 6.0 * (v + 2.0 * (v2 + v3) + v4)
            v += dt / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
            t += dt
        return x, v

    x_ref, v_ref = reference(1e-4, 5.0)
    assert tr.states[-1, 0] == pytest.approx(x_ref, abs=1e-8)
    assert tr.velocities[-1, 0] == pytest.approx(v_ref, abs=1e-8)
    # (t+theta)^2 f(x(t)) stays below the scaled initial energy
    # E(0) = theta^2 f(x0) + 2 ||x0||^2 (anchor z = 0, the minimizer).
    e0 = 1.0 * 0.5 + 2.0 * 1.0
    assert ((tr.times + 1.0) ** 2 * tr.f_values[:, 0]).max() <= e0 * 1.01


def test_accelerated_invariants_on_p2():
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    cfg = FlowConfig(t_end=20.0, dt=1e-3, mode="accelerated", r=3.0, theta=1.0,
                     record_every=20)
    tr = integrate_accelerated(p, rule, [1.0, 1.0], cfg)
    # level-set containment with v0 = 0
    assert np.all(tr.f_values <= tr.f_values[0] + 1e-6)
    # W_i nonincreasing within 1e-7 per unit time
    dW = np.diff(tr.energies, axis=0)
    dt = np.diff(tr.times)[:, None]
    assert dW.max() <= (1e-7 * dt).max()
    # the key projection inequality at every record
    r, theta = cfg.r, cfg.theta
    for t, x, v in zip(tr.times, tr.states, tr.velocities):
        G = scaled_hull_generators(rule, p, x)
        b = (r / (t + theta)) * v
        xdd = -(b + _support_weights(G, b)[2])
        inner = (G + b + xdd) @ v
        assert inner.max() <= 1e-8 * (1.0 + float(v @ v))
    # velocities recorded and x1 pinned to 1 by symmetry
    assert np.abs(tr.states[:, 0] - 1.0).max() <= 1e-10


def test_determinism_of_integration():
    p = get_problem("nonconvex-bounded-grad")
    cfg = FlowConfig(t_end=1.0, dt=1e-3, record_every=10)
    a = integrate_first_order(p, gradnorm_eta(0.2), [0.9, 0.7], cfg)
    b = integrate_first_order(p, gradnorm_eta(0.2), [0.9, 0.7], cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.f_values, b.f_values)
    assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------- reference path
# The integrators and the discrete method use unvalidated internals; these
# rebuild short runs from the validated public API alone and compare.

def _rk4(f, y, t, dt):
    k1 = f(y, t)
    k2 = f(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(y + dt * k3, t + dt)
    return y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _criticalities(p, rule, x):
    unscaled = np.linalg.norm(min_norm_point(p.grads(x)).point)
    scaled = min_norm_point(scaled_hull_generators(rule, p, x))
    return unscaled, np.linalg.norm(scaled.point), scaled.weights.weights


def _assert_close(a, b, tol=1e-12):
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= tol


def test_first_order_matches_public_reference_path():
    # RK4 on the public right-hand side at a step of 1e-4, ten times finer
    # than dt; the adaptive run takes a few steps over the
    # window, so most records come from its dense output.  States, weights
    # and criticalities agree to 1e-10.
    cfg = FlowConfig(t_end=0.05, dt=1e-3, record_every=10)
    for name in ("unbalanced-convex", "nonconvex-bounded-grad"):
        p = get_problem(name)
        for rule in (constant([1.0, 2.0]), gradnorm_eta(0.2),
                     gradnorm_eta_clamped(0.1, 0.5, 10.0)):
            tr = integrate_first_order(p, rule, p.starts[-1], cfg)

            def rhs(x, t):
                return -min_norm_point(scaled_hull_generators(rule, p, x)).point

            x, h = np.array(p.starts[-1], dtype=float), 1e-4
            for i in range(501):
                if i % 100 == 0:
                    j = i // 100
                    cu, cs, w = _criticalities(p, rule, x)
                    _assert_close(tr.states[j], x, 1e-10)
                    _assert_close(tr.weights[j], w, 1e-10)
                    _assert_close([tr.crit_unscaled[j], tr.crit_scaled[j],
                                   tr.speeds[j]], [cu, cs, cs], 1e-10)
                x = _rk4(rhs, x, i * h, h)


def test_accelerated_matches_public_reference_path():
    # From rest at p1's (0.25, 1.5) the pair slides on sigma = 0, with the
    # equivalent control lambda inside (0, 1), over the whole window.  The
    # reference rebuilds that sliding field from the validated API, with
    # p1's exact Hessians for D delta v, and steps it by RK4 at h = 1e-4.
    p = get_problem("unbalanced-convex")
    rule = constant([1.0, 2.0])
    cfg = FlowConfig(t_end=0.05, dt=1e-3, mode="accelerated", record_every=10)
    tr = integrate_accelerated(p, rule, [0.25, 1.5], cfg)
    # H_1 / alpha_1 - H_2 / alpha_2
    D = np.diag([100.0, 1.0]) - np.eye(2) / 2.0

    def sliding(y, t):
        x, v = y[:2], y[2:]
        U = scaled_hull_generators(rule, p, x)
        delta = U[0] - U[1]
        b = (cfg.r / (t + cfg.theta)) * v
        lam = (v @ D @ v - (b + U[1]) @ delta) / (delta @ delta)
        return lam, np.concatenate([v, -(b + lam * U[0] + (1.0 - lam) * U[1])])

    y, h = np.array([0.25, 1.5, 0.0, 0.0]), 1e-4
    for i in range(501):
        lam = sliding(y, i * h)[0]
        assert 0.0 < lam < 1.0
        if i % 100 == 0:
            j = i // 100
            x, v = y[:2], y[2:]
            cu, cs, _ = _criticalities(p, rule, x)
            _assert_close(tr.states[j], x, 1e-10)
            _assert_close(tr.velocities[j], v, 1e-10)
            _assert_close(tr.weights[j], [lam, 1.0 - lam], 1e-10)
            _assert_close([tr.crit_unscaled[j], tr.crit_scaled[j], tr.speeds[j]],
                          [cu, cs, np.linalg.norm(v)], 1e-10)
            _assert_close(tr.energies[j],
                          p.value(x) + 0.5 * np.array([1.0, 2.0]) * (v @ v), 1e-10)
        y = _rk4(lambda y, t: sliding(y, t)[1], y, i * h, h)
    assert tr.work["switches"] == 0


def test_discrete_matches_public_reference_path():
    p = get_problem("unbalanced-convex")
    cfg = DiscreteConfig(max_iters=30)
    for rule in (constant([1.0, 1.0]), gradnorm_eta(0.1)):
        seq = run_discrete(p, rule, p.starts[-1], cfg)
        s = step_size(p, rule, cfg)
        x = np.array(p.starts[-1], dtype=float)
        for k in range(cfg.max_iters + 1):
            cu, cs, w = _criticalities(p, rule, x)
            _assert_close(seq.states[k], x)
            _assert_close(seq.weights[k], w)
            _assert_close([seq.crit_unscaled[k], seq.crit_scaled[k]], [cu, cs])
            x = x - s * min_norm_point(scaled_hull_generators(rule, p, x)).point


# ------------------------------------------------------ exact fixed points
# At an exact fixed point the pair's stages, error estimate and dense output
# are all zero in both modes, so every record repeats the first bit for bit.
# These compare such runs, and runs that start next to a fixed point, with
# plain RK4 stepping through _rk4, whose right-hand sides come from the
# validated support point (with its min-norm tie rule) in accelerated mode.

def _stepping_rhs(p, rule, cfg):
    gens = generator_map(rule, p.m)
    if cfg.mode == "first_order":
        def rhs(x, t):
            return -_min_norm(gens(p.grads(x)))[1]
        return rhs

    def rhs(y, t):
        x, v = y[:p.n], y[p.n:]
        b = (cfg.r / (t + cfg.theta)) * v
        return np.concatenate([v, -(b + support_point(b, gens(p.grads(x)))[1])])
    return rhs


def _stepped_records(p, rule, y0, cfg):
    # times and states (with velocities in accelerated mode) of plain RK4
    # over every step, at the integrator's record times
    rhs = _stepping_rhs(p, rule, cfg)
    steps = int(round(cfg.t_end / cfg.dt))
    y = np.array(y0, dtype=float)
    times, ys = [0.0], [y]
    for k in range(steps):
        y = _rk4(rhs, y, k * cfg.dt, cfg.dt)
        if (k + 1) % cfg.record_every == 0 or k + 1 == steps:
            times.append((k + 1) * cfg.dt)
            ys.append(y)
    return np.array(times), np.array(ys)


def _integrate(p, rule, x0, cfg):
    if cfg.mode == "first_order":
        return integrate_first_order(p, rule, x0, cfg)
    return integrate_accelerated(p, rule, x0, cfg)


def _counting_grads(p):
    calls = [0]
    grads = p._grads

    def counted(x):
        calls[0] += 1
        return grads(x)
    p._grads = counted
    return calls


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_records_repeat(tr):
    arrays = [tr.states, tr.f_values, tr.speeds, tr.crit_unscaled,
              tr.crit_scaled, tr.weights]
    if tr.mode == "accelerated":
        arrays += [tr.velocities, tr.energies]
    for a in arrays:
        assert _same_bytes(a, np.repeat(a[:1], len(a), axis=0))


@pytest.mark.parametrize("mode", ["first_order", "accelerated"])
@pytest.mark.parametrize("name,x0,alpha,every", [
    ("unbalanced-convex", [1.0, 1.0], [1.0, 2.0], 1),
    ("unbalanced-convex", [1.0, 1.0], [1.0, 2.0], 7),
    ("scalar-pair", [0.0], [1.0, 1.0], 1),
    ("scalar-pair", [0.0], [1.0, 1.0], 7),
])
def test_fixed_point_records_equal_stepping(mode, name, x0, alpha, every):
    p = get_problem(name)
    rule = constant(alpha)
    cfg = FlowConfig(t_end=0.2, dt=1e-3, mode=mode, record_every=every)
    calls = _counting_grads(p)
    tr = _integrate(p, rule, x0, cfg)
    # The error estimate is 0, so each step is ten times the last: 1e-3,
    # 1e-2, 0.1 and the rest of the window, six stages each, after the
    # first stage at t = 0.  The records take one stacked oracle call,
    # whatever their number.  At rest the pair slides (lambda = 0 on p1, where
    # g_2 = 0, and 1/2 on p4), and the sliding weight at v = 0 needs no
    # central difference, so the accelerated run costs the same.
    work = {"steps": 4, "rejected": 0, "rhs_evals": 25}
    if mode == "accelerated":
        work["switches"] = 0
    assert tr.work == work
    assert calls[0] == tr.work["rhs_evals"] + 1
    y0 = x0 if mode == "first_order" else x0 + [0.0] * p.n
    times, ys = _stepped_records(p, rule, y0, cfg)
    assert _same_bytes(tr.times, times)
    assert _same_bytes(tr.states, ys[:, :p.n])
    if mode == "accelerated":
        assert _same_bytes(tr.velocities, ys[:, p.n:])
    # Stepping never moves the state, so every record repeats the first,
    # which is taken before any step.
    assert np.all(ys == ys[0])
    _assert_records_repeat(tr)
    assert tr.crit_scaled[0] == 0.0


@pytest.mark.parametrize("mode,name,x0,moves", [
    ("first_order", "unbalanced-convex", [1.0, 1.0 + 2.0 ** -30], True),
    ("accelerated", "unbalanced-convex", [1.0, 1.0 + 2.0 ** -30], True),
    # a rounding residue of 5e-17 in the min-norm point: too small to move
    # x in a first-order step, but it builds up a velocity in accelerated
    # stepping
    ("first_order", "scalar-pair", [0.3], False),
    ("accelerated", "scalar-pair", [0.3], True),
])
def test_near_fixed_point_matches_stepping(mode, name, x0, moves):
    # The first stage is tiny but not zero at these starts.
    p = get_problem(name)
    rule = constant([1.0, 1.0])
    G = generator_map(rule, p.m)(p.grads(x0))
    k1 = _min_norm(G)[1]
    assert 0.0 < np.abs(k1).max() <= 1e-8
    cfg = FlowConfig(t_end=0.1, dt=1e-3, mode=mode, record_every=1)
    tr = _integrate(p, rule, x0, cfg)
    y0 = x0 if mode == "first_order" else x0 + [0.0] * p.n
    times, ys = _stepped_records(p, rule, y0, cfg)
    assert len(tr) == 101
    assert _same_bytes(tr.times, times)
    if mode == "first_order":
        # RK4 at dt = 1e-3 is exact to rounding on this near-linear flow;
        # the adaptive records, all but the last from dense output, are
        # within 1e-14 of it, while the state moves by about 9e-11.
        assert np.abs(tr.states - ys).max() <= 1e-14
        assert np.any(tr.states != tr.states[0]) == moves
    else:
        # The same holds within 1e-15 for the state and the velocity.  On
        # p4 the sliding weight lambda = 0.35 cancels the residue exactly,
        # so the integrator stays at rest while stepping drifts by 5e-18.
        assert np.abs(tr.states - ys[:, :p.n]).max() <= 1e-15
        assert np.abs(tr.velocities - ys[:, p.n:]).max() <= 1e-15
        assert np.any(tr.velocities != 0.0) == (name != "scalar-pair")
    assert np.any(ys != ys[0]) == moves


@pytest.mark.parametrize("mode, name, x0", [
    ("first_order", "unbalanced-convex", [0.25, 1.5]),
    ("accelerated", "strongly-convex", [1.0, 1.0]),
    ("accelerated", "unbalanced-convex", [-0.2, 1.8]),   # locates switches
])
def test_one_dense_output_call_per_step_matches_per_record_calls(
        monkeypatch, mode, name, x0):
    # a step evaluates all its off-grid records in one call on the vector
    # of step fractions; each row has the bits of the one-record call
    make = flow._dense_output
    per_step = []

    def checked(y, y_new, h, K):
        at = make(y, y_new, h, K)

        def dense(th):
            out = at(th)
            if np.ndim(th):
                per_step.append(len(th))
                for row, f in zip(out, np.ravel(th).tolist()):
                    assert row.tobytes() == at(f).tobytes()
            return out
        return dense

    monkeypatch.setattr(flow, "_dense_output", checked)
    tr = _integrate(get_problem(name), constant([1.0, 1.0]), np.array(x0),
                    FlowConfig(t_end=1.0, dt=1e-3, mode=mode, record_every=1))
    assert len(tr) == 1001 and 0 < len(per_step) < sum(per_step) < 1001
    assert max(per_step) > 1
    assert bool(tr.work.get("switches")) == (x0[0] < 0.0)


@pytest.mark.parametrize("mode", ["first_order", "accelerated"])
@pytest.mark.parametrize("every", [1, 7])
def test_each_step_reuses_the_record_k1(mode, every):
    # A step evaluates six stages; its first is the last stage of the step
    # before (FSAL), and only the stage at t = 0 is evaluated on its own.  A
    # sliding stage evaluates x and the central difference along v in one
    # stacked oracle call, and this run locates no switch, so both modes
    # step at the same cost.  The records cost a fixed number of oracle
    # calls, whatever their number: one on the stack of recorded states,
    # and in accelerated mode one more on the stack of central differences
    # of the sliding records that have left rest.
    p = get_problem("unbalanced-convex")
    cfg = FlowConfig(t_end=0.05, dt=1e-3, mode=mode, record_every=every)
    calls = _counting_grads(p)
    tr = _integrate(p, constant([1.0, 1.0]), [0.25, 1.5], cfg)
    work = tr.work
    assert work["rhs_evals"] == 1 + 6 * (work["steps"] + work["rejected"])
    assert calls[0] == work["rhs_evals"] + (1 if mode == "first_order" else 2)
    assert work.get("switches") == (None if mode == "first_order" else 0)
    assert len(tr) == (51 if every == 1 else 9)


@pytest.mark.parametrize("name,x0", [
    ("strongly-convex", [1.0, 0.0]),
    ("unbalanced-convex", [1.0, 1.0]),
])
def test_accelerated_records_equal_stacked_stepping(name, x0):
    # Two weak Pareto points where the pair slides from rest with a sliding
    # field that is exactly zero: lambda = 1/2 on p2's segment, lambda = 0 at
    # p1's (1, 1), where g_2 = 0.  Every stage of the stacked (x, v) state is
    # zero, so the records repeat the first bit for bit, and so does plain
    # stepping.
    p = get_problem(name)
    rule = constant([1.0, 1.0])
    cfg = FlowConfig(t_end=0.21, dt=1e-3, mode="accelerated", record_every=7)
    tr = integrate_accelerated(p, rule, x0, cfg)
    assert len(tr) == 31
    assert tr.work == {"steps": 4, "rejected": 0, "rhs_evals": 25,
                       "switches": 0}
    assert tr.weights[0].tolist() == ([0.5, 0.5] if name == "strongly-convex"
                                      else [0.0, 1.0])
    _assert_records_repeat(tr)
    assert not tr.velocities.any()
    times, ys = _stepped_records(p, rule, x0 + [0.0] * p.n, cfg)
    assert _same_bytes(tr.times, times)
    assert _same_bytes(tr.states, ys[:, :p.n])
    assert np.all(ys == ys[0])


# ------------------------------------------------ the adaptive first order

@settings(max_examples=40, deadline=None)
@given(x0=st.floats(0.5, 1.9), sign=st.sampled_from([-1.0, 1.0]),
       alpha=st.floats(0.5, 2.0), dt=st.floats(1e-3, 0.1),
       span=st.floats(0.01, 2.0), every=st.sampled_from([1, 7, 10 ** 9]))
def test_ball_records_match_exponential_decay(x0, sign, alpha, dt, span,
                                              every):
    # xdot = -x / alpha on the ball: every record, dense-output ones
    # included, is within 1e-9 relative of x0 exp(-t / alpha).  The window
    # decays the state by at most about e^-4.
    x0 = sign * x0
    steps = max(1, int(round(span / dt)))
    cfg = FlowConfig(t_end=steps * dt, dt=dt, record_every=every)
    tr = integrate_first_order(ball_problem(), constant([alpha]), [x0], cfg)
    j = list(range(0, steps, every)) + [steps]
    assert _same_bytes(tr.times, np.array([k * dt for k in j]))
    exact = x0 * np.exp(-tr.times / alpha)
    assert (np.abs(tr.states[:, 0] - exact) / np.abs(exact)).max() <= 1e-9


def test_switch_crossing_matches_fine_rk4():
    # From p1's (-0.4, 1.9) with const:1,1 the min-norm weights sit on a
    # vertex until t = 0.333 and then move into the simplex, where the
    # right-hand side is not smooth.  RK4 at dt = 2e-5 is the reference;
    # every record is within 1e-8 of it.
    p = get_problem("unbalanced-convex")
    rule = constant([1.0, 1.0])
    cfg = FlowConfig(t_end=0.5, dt=1e-3, record_every=10)
    tr = integrate_first_order(p, rule, [-0.4, 1.9], cfg)
    interior = tr.times[tr.weights.min(axis=1) > 0.0]
    assert tr.weights[0].tolist() == [0.0, 1.0] and 0.33 < interior[0] <= 0.34
    # the error control rejects steps at the switch
    assert tr.work["rejected"] > 0
    rhs = _stepping_rhs(p, rule, cfg)
    x, h = np.array([-0.4, 1.9]), 2e-5
    for i in range(25001):
        if i % 500 == 0:
            assert np.abs(tr.states[i // 500] - x).max() <= 1e-8
        x = _rk4(rhs, x, i * h, h)


def test_step_size_underflow_is_no_convergence():
    # A gradient of size 1e9 that oscillates on a 1e-12 scale: no step the
    # error control tries is accepted, and the step falls to the float
    # spacing of the window after about twenty rejections, though the
    # spacing of t = 0, where every flow starts, is far smaller.
    p = Problem(
        "rough", 1, 1, lambda x: -1e-3 * np.cos(1e12 * x),
        lambda x: (1e9 * np.sin(1e12 * x))[..., None, :],
        lipschitz=[1e21], lower_bounds=[-1e-3], convexity_class="nonconvex",
        region=Box([-2.0], [2.0]), grad_bound=1e9, starts=[[0.5]])
    with pytest.raises(NoConvergenceError, match="step size underflow"):
        integrate_first_order(p, constant([1.0]), [0.5],
                              FlowConfig(t_end=1.0, dt=1e-3))


@pytest.mark.parametrize("mode,x0", [("first_order", [-0.4, 1.9]),
                                     ("accelerated", [-0.2, 1.8])])
def test_work_counts_repeat_exactly(mode, x0):
    # The accelerated run leaves its first slide and enters another one.
    # The summary of the same run through the CLI holds the same counts.
    p = get_problem("unbalanced-convex")
    cfg = FlowConfig(t_end=1.0, dt=1e-3, mode=mode, record_every=100)
    works = [_integrate(p, constant([1.0, 1.0]), x0, cfg).work
             for _ in range(3)]
    assert works[0] == works[1] == works[2]
    work = works[0]
    assert work["rejected"] > 0
    assert work["rhs_evals"] == 1 + 6 * (work["steps"] + work["rejected"])
    assert work.get("switches") == (None if mode == "first_order" else 2)
    summary = run_experiment(validate_config({
        "problem": "p1", "mode": "flow" if mode == "first_order" else "accel",
        "x0": x0, "scaling": "const:1,1", "t_end": 1.0, "dt": 1e-3,
        "record_every": 100}))
    assert summary["work"] == work


# ------------------------------------------------------------- the guards

def _twin(name, grad):
    # two equal objectives on [-1, 1]: the pair's hull is a point, so the
    # field is smooth and no support scan sees a non-finite stage first
    return Problem(
        name, 1, 2, lambda x: 0.0 * np.concatenate([x, x], axis=-1),
        lambda x: np.full(x.shape[:-1] + (2, 1), grad()),
        lipschitz=[1.0, 1.0], lower_bounds=[-1.0, -1.0],
        convexity_class="convex", region=Box([-1.0], [1.0]), grad_bound=1.0,
        starts=[[0.0]])


def test_overflowing_accelerated_state_is_a_numeric_domain_error():
    # From rest, a huge constant gradient overflows x to -inf in the first
    # step: out of the box, but reported as non-finite.
    p = _twin("steep", lambda: 1e308)
    cfg = FlowConfig(t_end=2.0, dt=2.0, mode="accelerated", r=0.1)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericDomainError, match="non-finite state at t = 2"):
        integrate_accelerated(p, constant([1.0, 1.0]), [0.0], cfg)


def test_non_finite_velocity_is_a_numeric_domain_error():
    # The last stage that builds the new state (oracle call 6, after the
    # record and four more stages, all taken at rest) sees a gradient of
    # 1e308 and the others see 0, so the state stays put while the
    # velocity overflows (h * 11/84 = 1.83).  The last stage (call 7)
    # evaluates at the new state; a NaN there leaves the state finite and
    # only the error estimate NaN.
    for call, spike, message in ((6, 1e308, "non-finite velocity at t = 14"),
                                 (7, np.nan, "non-finite error estimate at t = 14")):
        calls = [0]

        def grad():
            calls[0] += 1
            return spike if calls[0] == call else 0.0

        p = _twin("spike", grad)
        cfg = FlowConfig(t_end=14.0, dt=14.0, mode="accelerated")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericDomainError, match=message):
            integrate_accelerated(p, constant([1.0, 1.0]), [0.0], cfg)
        assert calls[0] == 7


def test_a_chattering_first_order_run_stops():
    # f(x) = |x| has the gradient sign(x), which jumps at the minimizer:
    # the flow reaches 0 at t = 1 and then chatters across it with steps of
    # about 1e-9.  The stall guard holds for every run, so the run stops
    # at its CHATTER_STEPS-th step shorter than CHATTER_STEP * 1.5.
    p = Problem(
        "abs", 1, 1, np.abs, lambda x: np.sign(x)[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-2.0], [2.0]), grad_bound=1.0, starts=[[1.0]])
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError,
                       match="steps chatter: 1000 accepted steps shorter "
                             "than 1.5e-08 by t = 1"):
        integrate_first_order(p, constant([1.0]), [1.0], FlowConfig(t_end=1.5))
    assert time.perf_counter() - start < 1.0


def test_a_stiff_run_over_a_long_window_does_not_trip_the_stall_guard():
    # Under const:0.01,0.01 the scaled p1 has a Lipschitz constant of 1e4,
    # so stability bounds the steps, and the run takes more of them than
    # CHATTER_STEPS.  The guard watches every run, and it must not stop
    # this one.
    p = get_problem("unbalanced-convex")
    cfg = FlowConfig(t_end=100.0, record_every=10 ** 6)
    tr = integrate_first_order(p, constant([0.01, 0.01]), [0.25, 1.5], cfg)
    assert tr.times[-1] == 100.0 and tr.work["steps"] > flow.CHATTER_STEPS


# ---------------------------------------------------------- the sliding pair

# D delta = H_1 / alpha_1 - H_2 / alpha_2 is constant on p1, p2 and p4
_HESSIANS = {
    "unbalanced-convex": (np.diag([100.0, 1.0]), np.eye(2)),
    "strongly-convex": (np.eye(2), np.eye(2)),
    "scalar-pair": (np.array([[2.0]]), np.array([[2.0]])),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_HESSIANS)),
       u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       v=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       alpha=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
       damping=st.floats(0.0, 3.0))
def test_sliding_weight_matches_exact_hessians(name, u, v, alpha, damping):
    # The central difference of the gradients along v against D delta v
    # from the exact, constant Hessians: lambda |delta|^2 agrees to 1e-9
    # relative to the size of its terms.
    p = get_problem(name)
    lo, hi = p.region.lo, p.region.hi
    x = lo + np.array(u[:p.n]) * (hi - lo)
    v = np.array(v[:p.n])
    b = damping * v
    gens = generator_map(constant(alpha), 2)
    U, delta, lam = _sliding_weight(p._grads, gens, x, v, damping)
    assert np.array_equal(U, scaled_hull_generators(constant(alpha), p, x))
    H1, H2 = _HESSIANS[name]
    D = H1 / alpha[0] - H2 / alpha[1]
    dd = float(delta @ delta)
    exact = float(v @ D @ v) - float((b + U[1]) @ delta)
    scale = 1.0 + float(v @ v) * np.abs(D).max() + np.linalg.norm(b + U[1]) * np.sqrt(dd)
    if dd > 0.0:
        assert abs(lam * dd - exact) <= 1e-9 * scale
    else:
        assert lam == 1.0


def _segment_hull(G):
    # grads and gens for _sliding_weight on a fixed hull of two generators
    G = np.asarray(G, dtype=float)
    return (lambda x: G.copy()), (lambda g: g)


@settings(max_examples=200, deadline=None)
@given(G=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       kind=st.sampled_from(["random", "duplicate", "zero-inside", "tiny"]))
# hulls whose |delta|^2 is subnormal: 5e-324 and 4.2e-314
@example(G=[-1.8e-162, -3e-163, -6e-163, 9e-163, 1.5e-163, 3e-163],
         kind="zero-inside")
@example(G=[0.0, 0.0, 1.36e-157, 0.0, 0.0, -6.8e-158], kind="zero-inside")
def test_sliding_weight_at_rest_is_the_min_norm_weight(G, kind):
    # At v = 0 the equivalent control is the unclamped min-norm weight of
    # the hull: clamped to [0, 1] it gives the point of _exact_min_norm.
    # Degenerate hulls: duplicate generators, 0 inside the hull, 1e-3 scale.
    n = 3
    G = np.array(G).reshape(2, n)
    if kind == "duplicate":
        G[1] = G[0]
    elif kind == "zero-inside":
        G[1] = -0.5 * G[0]
    elif kind == "tiny":
        G *= 1e-3
    grads, gens = _segment_hull(G)
    zero = np.zeros(n)
    U, delta, lam = _sliding_weight(grads, gens, zero, zero, 1.0)
    w = min(1.0, max(0.0, lam))
    norm = np.linalg.norm(w * G[0] + (1.0 - w) * G[1])
    scale = np.abs(G).max()
    assert abs(norm - _exact_min_norm(G)) <= 1e-12 * (1.0 + scale)
    if not float(delta @ delta) >= np.finfo(float).tiny:
        # a degenerate pair: duplicates, or a hull too small for its
        # squared norm to be a normal float
        assert lam == 1.0
    elif kind == "zero-inside":
        assert lam == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert kind != "duplicate" or lam == 1.0
    if kind == "tiny":
        # the weight does not depend on the hull's scale
        lam_unit = _sliding_weight(*_segment_hull(G * 1e3), zero, zero, 1.0)[2]
        assert lam == pytest.approx(lam_unit, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("G", [
    [[-1.8e-162, -3e-163, -6e-163], [9e-163, 1.5e-163, 3e-163]],  # 5e-324
    [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
    [[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]],
])
def test_every_pair_closed_form_gives_a_degenerate_pair_weight_1(G):
    # |delta|^2 subnormal, zero or NaN: one rule at all four closed forms
    G = np.array(G)
    grads, gens = _segment_hull(G)
    zero = np.zeros(3)
    assert _sliding_weight(grads, gens, zero, zero, 1.0)[2] == 1.0
    assert _sliding_weights(grads, gens, G[None], zero[None], zero[None],
                            np.ones(1)).tolist() == [1.0]
    assert _min_norm(G)[0].tolist() == [1.0, 0.0]
    assert _min_norm(G[None])[0].tolist() == [[1.0, 0.0]]


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_HESSIANS)),
       u=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
       v=st.lists(st.floats(-5.0, 5.0), min_size=16, max_size=16),
       alpha=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
       damping=st.lists(st.floats(0.0, 3.0), min_size=8, max_size=8),
       rest=st.lists(st.booleans(), min_size=8, max_size=8))
def test_stacked_sliding_weights_bit_equal_each_row(name, u, v, alpha,
                                                    damping, rest):
    # The records' lambda of eight rows in one call equals _sliding_weight
    # of each row alone byte for byte, rows at rest (v = 0, no central
    # difference) mixed with moving ones.
    p = get_problem(name)
    n = p.n
    lo, hi = p.region.lo, p.region.hi
    X = lo + np.array(u).reshape(8, 2)[:, :n] * (hi - lo)
    V = np.array(v).reshape(8, 2)[:, :n] * ~np.array(rest)[:, None]
    k = np.array(damping)
    gens = generator_map(constant(alpha), 2)
    lam = _sliding_weights(p._grads, gens, gens(p._grads(X)), X, V, k)
    single = [_sliding_weight(p._grads, gens, x, vi, ki)[2]
              for x, vi, ki in zip(X, V, k.tolist())]
    assert lam.tobytes() == np.array(single).tobytes()


def test_stacked_sliding_weights_on_degenerate_hulls():
    # duplicate generators (lambda = 1), 0 inside the hull and a 1e-3 scale,
    # at rest and moving, against each row alone
    X = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 1.0]])
    V = np.array([[0.0, 0.0], [0.5, 0.1], [-1.0, 2.0]])
    k = np.array([1.0, 0.5, 2.0])
    for G in ([[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0], [-0.5, -1.0]],
              [[1e-3, 2e-3], [-3e-3, 1e-3]]):
        G = np.array(G)

        def grads(x):
            return np.broadcast_to(G, x.shape[:-1] + G.shape).copy()

        lam = _sliding_weights(grads, lambda g: g, grads(X), X, V, k)
        single = [_sliding_weight(grads, lambda g: g, x, vi, ki)[2]
                  for x, vi, ki in zip(X, V, k.tolist())]
        assert lam.tobytes() == np.array(single).tobytes()
        if (G[0] == G[1]).all():
            assert lam.tolist() == [1.0, 1.0, 1.0]


def _same_row(a, b):
    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _rebuilt_min_norm(P):
    r = min_norm_point(P)
    return r.weights.weights, np.linalg.norm(r.point)


@pytest.mark.parametrize("mode", ["first_order", "accelerated", "discrete"])
@pytest.mark.parametrize("name", sorted(_HESSIANS) + ["nonconvex-bounded-grad"])
def test_stacked_records_equal_per_record_rebuild(monkeypatch, mode, name):
    # Every record of every shipped start at record_every = 1, computed in
    # one stacked pass, equals the row rebuilt from its state alone through
    # the public per-point path: p.value, p.grads, min_norm_point and
    # scaled_hull_generators.  An accelerated weight is the vertex of its
    # recorded regime, or the sliding weight clamped to [0, 1].
    p = get_problem(name)
    rule = constant([1.0, 2.0])
    runs = [(rule, x0) for x0 in p.starts]
    if mode != "accelerated":
        runs.append((gradnorm_eta(0.2), p.starts[-1]))
    elif name == "unbalanced-convex":
        # a slide, a crossing and a slide entry
        runs.append((constant([1.0, 1.0]), [-0.2, 1.8]))
    regimes = []
    weights = _SlidingPair.weights

    def spy(self, G, T, X, V, recorded):
        regimes.append(list(recorded))
        return weights(self, G, T, X, V, recorded)

    monkeypatch.setattr(_SlidingPair, "weights", spy)
    for rule, x0 in runs:
        if mode == "discrete":
            tr = run_discrete(p, rule, x0, DiscreteConfig(max_iters=300))
            times = tr.ks
        else:
            cfg = FlowConfig(t_end=0.6 if mode == "first_order" else 1.0,
                             dt=1e-3, mode=mode, record_every=1)
            tr = _integrate(p, rule, x0, cfg)
            times = tr.times
        # the discrete method stops at once at p1's fixed point (1, 1)
        assert len(tr) > 300 or tr.crit_scaled[-1] == 0.0
        for i, (t, x) in enumerate(zip(times.tolist(), tr.states)):
            f = p.value(x)
            _same_row(tr.f_values[i], f)
            _same_row(tr.crit_unscaled[i], _rebuilt_min_norm(p.grads(x))[1])
            w, norm = _rebuilt_min_norm(scaled_hull_generators(rule, p, x))
            _same_row(tr.crit_scaled[i], norm)
            if mode != "accelerated":
                _same_row(tr.weights[i], w)
                if mode == "first_order":
                    _same_row(tr.speeds[i], norm)
                continue
            v = tr.velocities[i]
            _same_row(tr.speeds[i], np.linalg.norm(v))
            _same_row(tr.energies[i], f + 0.5 * rule.values * float(v @ v))
            s = regimes[-1][i]
            if s:
                _same_row(tr.weights[i], [1.0, 0.0] if s > 0 else [0.0, 1.0])
            else:
                lam = _sliding_weight(p._grads, generator_map(rule, 2), x, v,
                                      cfg.r / (t + cfg.theta))[2]
                lam = min(1.0, max(0.0, lam))
                _same_row(tr.weights[i], [lam, 1.0 - lam])
        if mode == "accelerated" and len(x0) == 2 and x0[0] == -0.2:
            assert tr.work["switches"] == 2
            assert set(regimes[-1]) == {-1, 0, 1}


def _sigma(p, rule, tr):
    U = generator_map(rule, p.m)(p.grads(tr.states))
    delta = U[:, 0] - U[:, 1]
    sigma = (tr.velocities * delta).sum(axis=-1)
    scale = 1.0 + np.linalg.norm(tr.velocities, axis=-1) * np.linalg.norm(delta, axis=-1)
    return sigma, scale


@pytest.mark.parametrize("name,x0,alpha,t_end", [
    ("strongly-convex", [1.0, 1.0], [1.0, 1.0], 20.0),
    ("strongly-convex", [1.0, 1.0], [0.5, 2.0], 20.0),
    ("unbalanced-convex", [0.25, 1.5], [1.0, 1.0], 20.0),
    ("unbalanced-convex", [-0.2, 1.8], [1.0, 1.0], 5.0),
    ("nonconvex-bounded-grad", [0.9, 0.7], [1.0, 1.0], 20.0),
    ("nonconvex-bounded-grad", [-2.0, 3.0], [1.0, 1.0], 10.0),
    ("scalar-pair", [2.0], [1.0, 1.0], 10.0),
])
def test_sigma_stays_on_the_surface_while_sliding(name, x0, alpha, t_end):
    # Every record with both weights positive is a sliding one, where
    # |sigma| <= 1e-9 (1 + |v| |u_1 - u_2|).  The other records hold the
    # vertex of their side: s sigma >= -SIGMA_BAND (1 + |v| |delta|).
    p = get_problem(name)
    rule = constant(alpha)
    tr = integrate_accelerated(p, rule, x0,
                               FlowConfig(t_end=t_end, dt=1e-3,
                                          mode="accelerated", record_every=10))
    sigma, scale = _sigma(p, rule, tr)
    sliding = tr.weights.min(axis=1) > 0.0
    assert sliding.any()
    assert (np.abs(sigma[sliding]) <= 1e-9 * scale[sliding]).all()
    side = tr.weights[~sliding, 0] - tr.weights[~sliding, 1]
    assert (side * sigma[~sliding] >= -SIGMA_BAND * scale[~sliding]).all()


@pytest.mark.parametrize("name,x0,alpha,t_switch,t_end,after", [
    # sigma crosses from the u_2 side to the u_1 side at t = 0.473
    ("unbalanced-convex", [-0.1, 0.7], [2.9, 1.2], 0.473, 0.8, "crossing"),
    # lambda passes 1 at t = 1.178 and the state leaves the slide to the
    # u_1 side
    ("nonconvex-bounded-grad", [3.4, -0.7], [3.0, 1.5], 1.178, 1.5, "exit"),
])
def test_located_switch_is_the_limit_of_rk4(name, x0, alpha, t_switch, t_end,
                                            after):
    # Plain RK4 on the support point with its tie rule steps across the
    # switch and converges to the Filippov solution at first order, so its
    # distance to the located run shrinks at least 5 times from dt = 1e-3
    # to dt = 1e-4.  (Where the switch falls inside an RK4 step sets the
    # constant of that first order, so the ratio varies between runs.)
    p = get_problem(name)
    rule = constant(alpha)
    tr = integrate_accelerated(p, rule, x0,
                               FlowConfig(t_end=t_end, dt=1e-3,
                                          mode="accelerated", record_every=10))
    assert tr.work["switches"] == 1
    before = tr.weights[tr.times < t_switch - 0.01]
    if after == "crossing":
        assert (before == [0.0, 1.0]).all()
    else:
        assert (before.min(axis=1) > 0.0).all()
    assert (tr.weights[tr.times > t_switch + 0.01] == [1.0, 0.0]).all()
    end = np.concatenate((tr.states[-1], tr.velocities[-1]))
    dist = []
    for dt in (1e-3, 1e-4):
        cfg = FlowConfig(t_end=t_end, dt=dt, mode="accelerated",
                         record_every=10 ** 9)
        ys = _stepped_records(p, rule, x0 + [0.0] * p.n, cfg)[1]
        dist.append(np.abs(ys[-1] - end).max())
    assert dist[1] <= dist[0] / 5.0 and dist[1] <= 1e-5


@pytest.mark.parametrize("name,x0,alpha,t_end,kinds", [
    ("unbalanced-convex", [-0.1, 0.7], [2.9, 1.2], 0.8, ["crossing"]),
    ("nonconvex-bounded-grad", [3.4, -0.7], [3.0, 1.5], 1.5, ["exit"]),
    ("unbalanced-convex", [-0.2, 1.8], [1.0, 1.0], 1.0, ["crossing", "entry"]),
])
def test_located_switch_is_a_root_on_the_dense_output(monkeypatch, name, x0,
                                                      alpha, t_end, kinds):
    # At each located switch the returned step fraction th is past the root
    # of the regime's switching function g on the step's dense output: g
    # (s sigma, or lambda or 1 - lambda while sliding) is negative there,
    # within ROOT_TOL of the step of zero by g's slope, and positive one
    # ROOT_TOL earlier.  g is evaluated with a rounding noise of 1e-15 for
    # sigma and eps / FD_STEP for lambda, whose central difference divides
    # the rounding of the gradients by FD_STEP; the noise widens both
    # bounds.  The next step starts at dense(th).  sigma is recomputed
    # here from the public gradients.
    p = get_problem(name)
    rule = constant(alpha)
    gens = generator_map(rule, 2)
    cfg = FlowConfig(t_end=t_end, dt=1e-3, mode="accelerated", record_every=10)
    located, restarts = [], []
    locate, switch = _SlidingPair.locate, _SlidingPair.switch

    def spy_locate(self, dense, t, h):
        th = locate(self, dense, t, h)
        located.append((self.regime, dense, t, h, th))
        return th

    def spy_switch(self, y, t):
        before = self.regime
        k = switch(self, y, t)
        kind = "exit" if not before else "entry" if not self.regime else "crossing"
        restarts.append((y.copy(), t, kind))
        return k

    monkeypatch.setattr(_SlidingPair, "locate", spy_locate)
    monkeypatch.setattr(_SlidingPair, "switch", spy_switch)
    tr = integrate_accelerated(p, rule, x0, cfg)
    assert tr.work["switches"] == len(kinds) == len(located) == len(restarts)
    assert [kind for *_, kind in restarts] == kinds
    for (s, dense, t, h, th), (y, t_switch, _) in zip(located, restarts):
        assert 0.0 < th < 1.0
        assert np.array_equal(y, dense(th)) and t_switch == t + th * h

        def g(f):
            z = dense(f)
            x, v = z[:p.n], z[p.n:]
            if s:
                U = gens(p.grads(x))
                return s * float(v @ (U[0] - U[1]))
            lam = _sliding_weight(p._grads, gens, x, v,
                                  cfg.r / (t + f * h + cfg.theta))[2]
            return lam if lam < 0.5 else 1.0 - lam

        slope = abs(g(th) - g(th - 1e-6)) / 1e-6
        noise = 1e-15 if s else np.finfo(float).eps / FD_STEP
        assert -2.0 * ROOT_TOL * slope - noise <= g(th) < 0.0
        assert g(th - ROOT_TOL - 2.0 * noise / slope) > 0.0


def test_the_accelerated_integrator_refuses_a_first_order_config():
    with pytest.raises(InvalidInputError) as e:
        integrate_accelerated(get_problem("scalar-pair"), constant([1.0, 1.0]),
                              [2.0], FlowConfig(t_end=0.1))
    assert str(e.value) == "integrate_accelerated needs mode='accelerated'"
