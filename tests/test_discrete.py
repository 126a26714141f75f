import numpy as np
import pytest

from mbgf.discrete import (MERIT_SLACK, DiscreteConfig, IterateSequence,
                           discrete_monitors, run_discrete, step_size)
from mbgf.errors import InvalidInputError
from mbgf.flow import FlowConfig, integrate_first_order
from mbgf.problems import Box, get_problem, make_problem
from mbgf.scaling import constant, gradnorm_eta, gradnorm_eta_clamped


def ball_problem():
    return make_problem(
        "ball", 1, 1,
        lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-2.0], [2.0]), grad_bound=2.0, starts=[[1.0]])


def test_critical_start_stays_fixed():
    p = get_problem("scalar-pair")
    seq = run_discrete(p, constant([1.0, 1.0]), [0.0], DiscreteConfig(max_iters=50))
    assert np.abs(seq.states).max() == 0.0
    assert seq.crit_scaled.max() == 0.0


def test_boundary_step_oscillates():
    # safety = 1 on the scalar quadratic gives s = 2 and x_{k+1} = -x_k:
    # no decrease, only non-increase.
    p = ball_problem()
    seq = run_discrete(p, constant([1.0]), [1.0],
                       DiscreteConfig(max_iters=6, safety=1.0))
    assert np.allclose(seq.states[:, 0], [1, -1, 1, -1, 1, -1, 1])
    assert np.allclose(seq.steps, 2.0)
    mon = discrete_monitors(seq)
    assert mon["f_excess"] == -1e-9 * (1.0 + 0.5)


def test_half_safety_solves_quadratic_in_one_step():
    p = ball_problem()
    seq = run_discrete(p, constant([1.0]), [1.0],
                       DiscreteConfig(max_iters=10, safety=0.5))
    assert seq.states[1, 0] == 0.0
    # criticality hits the stop tolerance immediately afterwards
    assert len(seq) == 2


def test_step_size_window():
    # realized constant step obeys s_min <= s <= safety min_i 2 a_i(x)/L_i
    p = get_problem("strongly-convex")
    rule = gradnorm_eta_clamped(0.1, 0.1, 10.0)
    cfg = DiscreteConfig(max_iters=200)
    s = step_size(p, rule, cfg)
    assert s == pytest.approx(0.99 * 2.0 * 0.1 / 1.0)
    seq = run_discrete(p, rule, [1.0, 1.0], cfg)
    L = np.asarray(p.lipschitz)
    for x in seq.states:
        a = rule.alpha(p, x, 0.0)
        assert s <= cfg.safety * (2.0 * a / L).min() + 1e-15


def test_monitors_pass_on_p2():
    p = get_problem("strongly-convex")
    for rule, cfg in [(gradnorm_eta_clamped(0.1, 0.1, 10.0), DiscreteConfig(max_iters=500)),
                      (constant([1.0, 1.0]), DiscreteConfig(max_iters=500, safety=0.45))]:
        seq = run_discrete(p, rule, [1.0, 1.0], cfg)
        mon = discrete_monitors(seq)
        assert mon["f_excess"] <= 0.0 and mon["merit_excess"] <= 0.0
        # strict descent for safety < 1, checked away from the roundoff tail
        assert np.all(np.diff(seq.f_values[:5], axis=0) < 0.0)
        # the merit is taken at the final iterate
        assert mon["merit"][-1] == 0.0
        assert mon["merit"][0] == pytest.approx(
            (seq.alpha_bounds[1] / (2.0 * seq.s_min))
            * ((seq.states[0] - seq.states[-1]) ** 2).sum())


def test_boundary_adjacent_step_breaks_merit_but_not_descent():
    # With constant alpha = 1 the default step is 1.98, inside the descent
    # window 2 alpha/L but outside the merit window alpha/L: f stays
    # nonincreasing while E(k) visibly increases.
    p = get_problem("strongly-convex")
    seq = run_discrete(p, constant([1.0, 1.0]), [1.0, 1.0],
                       DiscreteConfig(max_iters=500))
    mon = discrete_monitors(seq)
    assert mon["f_excess"] <= 0.0
    assert mon["merit_excess"] > 1e-3


def test_merit_slack_is_absolute():
    # E(k) = [10, 10 + 5e-9, 0] at |E| ~ 10: a rise of 5e-9 exceeds the
    # absolute MERIT_SLACK, though a 1e-9 (1 + |E|) relative slack
    # (1.1e-8 here) would let it pass.
    root = np.sqrt([10.0, 10.0 + 5e-9, 0.0])
    seq = IterateSequence(
        ks=np.arange(3), states=root[:, None], f_values=np.ones((3, 1)),
        steps=np.full(3, 0.5), crit_unscaled=np.zeros(3),
        crit_scaled=np.zeros(3), weights=np.ones((3, 1)),
        alpha_bounds=(1.0, 1.0), s_min=0.5, problem_name="hand-built",
        rule_spec="const:1", config=DiscreteConfig(max_iters=2))
    mon = discrete_monitors(seq)
    rise = mon["merit"][1] - mon["merit"][0]
    assert rise == pytest.approx(5e-9, rel=1e-6)
    assert mon["merit_excess"] == rise - MERIT_SLACK > 0.0
    assert (rise - 1e-9 * (1.0 + abs(mon["merit"][0]))) < 0.0
    assert mon["f_excess"] == -1e-9 * 2.0


def test_shadowing_of_continuous_flow():
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    # safety * 2 * alpha_min / L_max = 5e-4 * 2 is 1e-3 exactly in floats
    cfg = DiscreteConfig(max_iters=2000, safety=5e-4)
    s = step_size(p, rule, cfg)
    assert s == 1e-3
    seq = run_discrete(p, rule, [1.0, 1.0], cfg)
    tr = integrate_first_order(p, rule, [1.0, 1.0],
                               FlowConfig(t_end=2.0, dt=s, record_every=1))
    assert seq.states.shape == tr.states.shape
    assert np.abs(seq.states - tr.states).max() <= 5.0 * s


def test_stop_tolerance():
    p = get_problem("strongly-convex")
    seq = run_discrete(p, constant([1.0, 1.0]), [1.0, 1.0],
                       DiscreteConfig(max_iters=10 ** 6, stop_tol=1e-6))
    assert seq.crit_scaled[-1] <= 1e-6
    assert np.all(seq.crit_scaled[:-1] > 1e-6)
    assert len(seq) < 10 ** 5


def test_start_points_checked_as_in_flow():
    # run_discrete shares the flow's start check: a (1, n) start is rejected
    # with the same message, and a scalar start of a 1-D problem is taken
    p, rule = ball_problem(), constant([1.0])
    cfg, fc = DiscreteConfig(max_iters=3), FlowConfig(t_end=1.0)
    assert np.array_equal(run_discrete(p, rule, 1.0, cfg).states,
                          run_discrete(p, rule, [1.0], cfg).states)
    for x0, msg in (([[1.0]], "finite vector of length 1"),
                    ([5.0], r"x0 \[5.0\] outside the region of ball")):
        with pytest.raises(InvalidInputError, match=msg):
            integrate_first_order(p, rule, x0, fc)
        with pytest.raises(InvalidInputError, match=msg):
            run_discrete(p, rule, x0, cfg)


def test_degenerate_scaling_propagates():
    p = ball_problem()
    # the step rule needs a declared positive floor, which eta = 0 lacks
    with pytest.raises(InvalidInputError):
        run_discrete(p, gradnorm_eta(0.0), [1.0], DiscreteConfig(max_iters=5))


def test_config_validation():
    p = ball_problem()
    rule = constant([1.0])
    for bad in [DiscreteConfig(max_iters=0),
                DiscreteConfig(max_iters=5, safety=0.0),
                DiscreteConfig(max_iters=5, safety=1.5),
                DiscreteConfig(max_iters=5, stop_tol=-1.0)]:
        with pytest.raises(InvalidInputError):
            run_discrete(p, rule, [1.0], bad)
    with pytest.raises(InvalidInputError):
        run_discrete(p, rule, [5.0], DiscreteConfig(max_iters=5))


def test_merit_rate_small_horizon():
    # k * min-gap at the final anchor stays O(1) against the declared
    # (alpha_max / s_min) R^2 envelope on P1.
    p = get_problem("unbalanced-convex")
    rule = gradnorm_eta_clamped(0.1, 0.1, 10.0)
    x0 = p.starts[1]
    seq = run_discrete(p, rule, x0, DiscreteConfig(max_iters=2000))
    R = p.level_set_bound(p.value(x0)).radius
    amax = seq.alpha_bounds[1]
    gaps = (seq.f_values - np.asarray(p.lower_bounds)).min(axis=-1)
    ks = seq.ks[1:]
    assert (ks * gaps[1:]).max() <= (amax / seq.s_min) * R * R * 1.05
