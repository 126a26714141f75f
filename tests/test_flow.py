import numpy as np
import pytest

from mbgf.discrete import DiscreteConfig, run_discrete, step_size
from mbgf.errors import DivergenceError, InvalidInputError, NumericDomainError
from mbgf.flow import (
    FlowConfig,
    integrate_accelerated,
    integrate_first_order,
    solve_implicit_acceleration,
)
from mbgf.geometry import (_min_norm_weights, min_norm_point,
                           project_onto_hull, support_point)
from mbgf.problems import Box, get_problem, make_problem
from mbgf.scaling import (constant, generator_map, gradnorm_eta,
                          gradnorm_eta_clamped, scaled_hull_generators)


def ball_problem(region=2.0):
    return make_problem(
        "ball", 1, 1,
        lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-region], [region]), grad_bound=region, starts=[[1.0]])


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
        alphas = np.stack([rule.alpha(p, x, t) for x, t in zip(tr.states, tr.times)])
        assert descent_violations(tr, alphas).max() <= 0.0, name
        # level-set nesting: componentwise nonincreasing within slack
        slack = 1e-9 * (1.0 + np.abs(tr.f_values[:-1]))
        assert np.all(np.diff(tr.f_values, axis=0) <= slack), name
        run_max = np.maximum.accumulate(tr.f_values, axis=0)
        assert np.all(tr.f_values <= run_max[0] + 1e-9 * (1.0 + np.abs(run_max[0])))


def test_rk4_order_on_smooth_nonlinear_flow():
    # Gradient-norm scaling makes the scalar flow genuinely nonlinear:
    # xdot = -x / (x + 0.1) for x > 0.
    p = ball_problem()
    rule = gradnorm_eta(0.1)

    def final_state(dt):
        tr = integrate_first_order(p, rule, [1.0],
                                   FlowConfig(t_end=1.0, dt=dt, record_every=10 ** 9))
        return tr.states[-1, 0]

    ref = final_state(1e-5)
    e1 = abs(final_state(0.1) - ref)
    e2 = abs(final_state(0.05) - ref)
    assert e1 / e2 == pytest.approx(16.0, rel=0.5)


def test_divergence_error_on_unstable_step():
    # The guard must report the first state outside the box and its time,
    # as plain stepping (_rk4 below) finds them.
    p = ball_problem()
    rule = constant([1e-3])
    lo, hi = -2.4, 2.4  # the region [-2, 2] plus 10% of its diameter
    for mode, t_end in (("first_order", 2.0), ("accelerated", 5.0)):
        cfg = FlowConfig(t_end=t_end, dt=0.1, mode=mode)
        with pytest.raises(DivergenceError) as err:
            _integrate(p, rule, [1.0], cfg)
        rhs = _stepping_rhs(p, rule, cfg)
        y = np.array([1.0] if mode == "first_order" else [1.0, 0.0])
        k = 0
        while lo <= y[0] <= hi:
            y = _rk4(rhs, y, k * cfg.dt, cfg.dt)
            k += 1
        assert str(err.value) == (
            f"state {y[:1].tolist()} left the region of ball by more than "
            f"10% of its diameter at t = {k * cfg.dt:.6g}"), mode


def test_numeric_domain_error_propagates():
    def bad_grads(x):
        g = x[..., None, :]
        return np.where(np.abs(x[..., None, :]) > 1.2, np.nan, -g)

    p = make_problem(
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
    with pytest.raises(InvalidInputError):
        integrate_accelerated(p, constant([1.0]), [1.0],
                              FlowConfig(t_end=1.0, mode="accelerated", theta=0.0, t0=0.0))


# ----------------------------------------------------------- implicit solve

def test_implicit_acceleration_closed_forms():
    G = np.array([[3.0, 1.0], [1.0, 3.0]])
    # b = 0 ties every generator; the tie resolves to the min-norm point.
    xdd = solve_implicit_acceleration(G, np.zeros(2))
    assert np.allclose(xdd, -min_norm_point(G).point)
    # singleton hull: xdd = -(b + g)
    b = np.array([0.5, -0.25])
    xdd = solve_implicit_acceleration([[1.0, 2.0]], b)
    assert np.allclose(xdd, -(b + np.array([1.0, 2.0])))


def test_implicit_acceleration_residual():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        G = rng.normal(size=(m, n))
        b = rng.normal(size=n)
        xdd = solve_implicit_acceleration(G, b)
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
        G = scaled_hull_generators(rule, p, x, t)
        b = (r / (t + theta)) * v
        xdd = solve_implicit_acceleration(G, b)
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
    scaled = min_norm_point(scaled_hull_generators(rule, p, x, 0.0))
    return unscaled, np.linalg.norm(scaled.point), scaled.weights.weights


def _assert_close(a, b):
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-12


def test_first_order_matches_public_reference_path():
    cfg = FlowConfig(t_end=0.05, dt=1e-3, record_every=10)
    for name in ("unbalanced-convex", "nonconvex-bounded-grad"):
        p = get_problem(name)
        for rule in (constant([1.0, 2.0]), gradnorm_eta(0.2),
                     gradnorm_eta_clamped(0.1, 0.5, 10.0)):
            tr = integrate_first_order(p, rule, p.starts[-1], cfg)

            def rhs(x, t):
                return -min_norm_point(scaled_hull_generators(rule, p, x, t)).point

            x = np.array(p.starts[-1], dtype=float)
            for i, t in enumerate(np.arange(51) * cfg.dt):
                if i % 10 == 0:
                    j = i // 10
                    cu, cs, w = _criticalities(p, rule, x)
                    _assert_close(tr.states[j], x)
                    _assert_close(tr.weights[j], w)
                    _assert_close([tr.crit_unscaled[j], tr.crit_scaled[j],
                                   tr.speeds[j]], [cu, cs, cs])
                x = _rk4(rhs, x, t, cfg.dt)


def test_accelerated_matches_public_reference_path():
    # v0 = 0 ties every generator at the start, so the first stages take
    # the tied-face branch of the support point.
    p = get_problem("unbalanced-convex")
    rule = constant([1.0, 1.0])
    cfg = FlowConfig(t_end=0.05, dt=1e-3, mode="accelerated", record_every=10)
    tr = integrate_accelerated(p, rule, [0.25, 1.5], cfg)

    def support(x, v, t):
        G = scaled_hull_generators(rule, p, x, t)
        return support_point((cfg.r / (t + cfg.theta)) * v, G), G

    def rhs(y, t):
        x, v = y[:2], y[2:]
        (_, c), _ = support(x, v, t)
        return np.concatenate([v, -((cfg.r / (t + cfg.theta)) * v + c)])

    y = np.array([0.25, 1.5, 0.0, 0.0])
    for i, t in enumerate(np.arange(51) * cfg.dt):
        if i % 10 == 0:
            j = i // 10
            x, v = y[:2], y[2:]
            (idx, _), G = support(x, v, t)
            assert i > 0 or len(idx) == p.m
            w = np.zeros(p.m)
            w[list(idx)] = (1.0 if len(idx) == 1
                            else min_norm_point(G[list(idx)]).weights.weights)
            cu, cs, _ = _criticalities(p, rule, x)
            _assert_close(tr.states[j], x)
            _assert_close(tr.velocities[j], v)
            _assert_close(tr.weights[j], w)
            _assert_close([tr.crit_unscaled[j], tr.crit_scaled[j], tr.speeds[j]],
                          [cu, cs, np.linalg.norm(v)])
        y = _rk4(rhs, y, t, cfg.dt)


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
            x = x - s * min_norm_point(scaled_hull_generators(rule, p, x, k)).point


# ------------------------------------------------------ exact fixed points
# A state that one RK4 step maps to itself byte for byte is not stepped
# further.  These compare such runs, and runs that start next to a fixed
# point, with plain stepping through _rk4.  The right-hand sides repeat the
# integrators' own arithmetic, so the match is bit for bit; the tests above
# tie that arithmetic to the public API.

def _stepping_rhs(p, rule, cfg):
    gens = generator_map(rule, p.m)
    if cfg.mode == "first_order":
        def rhs(x, t):
            G = gens(p.grads(x))
            return -(_min_norm_weights(G) @ G)
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
    steps = int(round((cfg.t_end - cfg.t0) / cfg.dt))
    y = np.array(y0, dtype=float)
    times, ys = [cfg.t0], [y]
    for k in range(steps):
        y = _rk4(rhs, y, cfg.t0 + k * cfg.dt, cfg.dt)
        if (k + 1) % cfg.record_every == 0 or k + 1 == steps:
            times.append(cfg.t0 + (k + 1) * cfg.dt)
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
    # One step, then one oracle call per record.  A first-order step takes
    # its k1 from the record before it.
    assert calls[0] == len(tr) + (3 if mode == "first_order" else 4)
    y0 = x0 if mode == "first_order" else x0 + [0.0] * p.n
    times, ys = _stepped_records(p, rule, y0, cfg)
    assert _same_bytes(tr.times, times)
    assert _same_bytes(tr.states, ys[:, :p.n])
    if mode == "accelerated":
        assert _same_bytes(tr.velocities, ys[:, p.n:])
    # Stepping never moves the state, so every record repeats the first,
    # which is taken before any step.
    assert np.all(ys == ys[0])
    arrays = [tr.f_values, tr.speeds, tr.crit_unscaled, tr.crit_scaled,
              tr.weights] + ([tr.energies] if mode == "accelerated" else [])
    for a in arrays:
        assert _same_bytes(a, np.repeat(a[:1], len(a), axis=0))
    assert tr.crit_scaled[0] == 0.0


@pytest.mark.parametrize("mode,name,x0,moves", [
    ("first_order", "unbalanced-convex", [1.0, 1.0 + 2.0 ** -30], True),
    ("accelerated", "unbalanced-convex", [1.0, 1.0 + 2.0 ** -30], True),
    # a rounding residue of 5e-17 in the min-norm point: too small to move
    # x in a first-order step, but it builds up a velocity
    ("first_order", "scalar-pair", [0.3], False),
    ("accelerated", "scalar-pair", [0.3], True),
])
def test_near_fixed_point_matches_stepping(mode, name, x0, moves):
    # The first RK4 stage is tiny but not zero at these starts.
    p = get_problem(name)
    rule = constant([1.0, 1.0])
    G = generator_map(rule, p.m)(p.grads(x0))
    k1 = _min_norm_weights(G) @ G
    assert 0.0 < np.abs(k1).max() <= 1e-8
    cfg = FlowConfig(t_end=0.1, dt=1e-3, mode=mode, record_every=1)
    tr = _integrate(p, rule, x0, cfg)
    y0 = x0 if mode == "first_order" else x0 + [0.0] * p.n
    times, ys = _stepped_records(p, rule, y0, cfg)
    assert len(tr) == 101
    assert _same_bytes(tr.times, times)
    assert _same_bytes(tr.states, ys[:, :p.n])
    if mode == "accelerated":
        assert _same_bytes(tr.velocities, ys[:, p.n:])
    assert np.any(ys != ys[0]) == moves


# ------------------------------------------------------------- the guards

def test_overflowing_accelerated_state_is_a_numeric_domain_error():
    # A huge finite v0 with a tiny constant gradient overflows x to inf in
    # the first step: out of the box, but reported as non-finite.
    p = make_problem(
        "flat", 1, 1, lambda x: 1e-10 * x, lambda x: np.full(x.shape + (1,), 1e-10),
        lipschitz=[1.0], lower_bounds=[-1.0], convexity_class="convex",
        region=Box([-1.0], [1.0]), grad_bound=1.0, starts=[[0.0]])
    cfg = FlowConfig(t_end=1.0, dt=1e-3, mode="accelerated", r=0.1, v0=[1e308])
    with np.errstate(over="ignore"), \
            pytest.raises(NumericDomainError, match="non-finite state at t = 0.001"):
        integrate_accelerated(p, constant([1.0]), [0.0], cfg)


def test_non_finite_velocity_is_a_numeric_domain_error():
    # The last stage sees a gradient of 1e308 and earlier stages see 0, so
    # the state stays put while the velocity update overflows (dt / 6 = 2).
    calls = [0]

    def grads(x):
        calls[0] += 1
        return np.full(x.shape + (1,), 1e308 if calls[0] == 5 else 0.0)

    p = make_problem(
        "spike", 1, 1, lambda x: 0.0 * x, grads,
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-1.0], [1.0]), grad_bound=1.0, starts=[[0.0]])
    cfg = FlowConfig(t_end=12.0, dt=12.0, mode="accelerated")
    with np.errstate(over="ignore"), \
            pytest.raises(NumericDomainError, match="non-finite velocity at t = 12"):
        integrate_accelerated(p, constant([1.0]), [0.0], cfg)
    assert calls[0] == 5
