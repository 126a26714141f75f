import numpy as np
import pytest

from mbgf import discrete, flow
from mbgf.discrete import (MERIT_SLACK, DiscreteConfig, IterateSequence,
                           discrete_monitors, run_discrete, step_size)
from mbgf.errors import InvalidInputError
from mbgf.flow import FlowConfig, integrate_accelerated, integrate_first_order
from mbgf.geometry import _min_norm
from mbgf.problems import Box, Problem, get_problem, quadratic_problem
from mbgf.scaling import (constant, generator_map, gradnorm_eta,
                          gradnorm_eta_clamped, parse_scaling)


def ball_problem():
    return quadratic_problem("ball", [[1.0]], [[0.0]], convexity_class="convex",
                             region=Box([-2.0], [2.0]), starts=[[1.0]])


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
    assert seq.s_min == 2.0
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
        a = rule.alpha(p, x)
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
        crit_unscaled=np.zeros(3), crit_scaled=np.zeros(3),
        weights=np.ones((3, 1)), alpha_bounds=(1.0, 1.0), s_min=0.5,
        work={"grad_calls": 0, "cycle_k": None, "period": None})
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
    # a stop_tol or safety with no finite float is refused by name, not by
    # numpy or a comparison's TypeError, and so is a bool max_iters
    for tol in [10**400, "0.1", float("nan"), float("inf")]:
        with pytest.raises(InvalidInputError, match="stop_tol"):
            run_discrete(p, rule, [1.0], DiscreteConfig(max_iters=5, stop_tol=tol))
    for safety in [10**400, "0.5", float("nan"), float("inf")]:
        with pytest.raises(InvalidInputError, match="safety"):
            run_discrete(p, rule, [1.0], DiscreteConfig(max_iters=5, safety=safety))
    for it in [True, False, "5", 5.0, float("nan")]:
        with pytest.raises(InvalidInputError, match="max_iters"):
            run_discrete(p, rule, [1.0], DiscreteConfig(max_iters=it))
    assert len(run_discrete(p, rule, [1.0], DiscreteConfig(max_iters=np.int64(3)))) >= 1
    # a count numpy cannot index is refused by name, not by numpy's
    # OverflowError once the run's cycle is repeated (p4 from k = 9)
    p4, gradnorm = get_problem("scalar-pair"), gradnorm_eta(0.148939)
    for it in [10**400, np.iinfo(np.intp).max + 1]:
        with pytest.raises(InvalidInputError, match="max_iters must be at most"):
            run_discrete(p4, gradnorm, [2.0], DiscreteConfig(max_iters=it))
    assert len(run_discrete(p, rule, [1.0], DiscreteConfig(max_iters=5, stop_tol=0))) >= 1
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


# ------------------------------------------------ the cycle stop, checked
# against a plain loop that computes every iterate

def reference_run(p, rule, x0, cfg):
    """(states, f_values, crit_scaled, crit_unscaled, weights), every k."""
    s = step_size(p, rule, cfg)
    gens = generator_map(rule, p.m)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    states, cs, ws = [], [], []
    for k in range(cfg.max_iters + 1):
        w, d, crit_s = _min_norm(gens(p._grads(x)))
        states.append(x)
        cs.append(crit_s)
        ws.append(w)
        if crit_s <= cfg.stop_tol or k == cfg.max_iters:
            break
        x = x - s * d
    X = np.array(states)
    return X, p._value(X), np.array(cs), _min_norm(p._grads(X))[2], np.array(ws)


P1_CLAMPED = "gradnorm:eta=0.278754,min=0.419178,max=2.058262"


# (problem, scaling, start, max_iters, stop_tol, (cycle_k, period) or None):
# a fixed point is the cycle of period 1.  The test keeps its name from
# before the loop caught longer cycles.
@pytest.mark.parametrize("case", [
    ("scalar-pair", "gradnorm:eta=0.148939", [2.0], 8000, 0.0, (9, 1)),
    ("nonconvex-bounded-grad", "const:0.882142,0.548316", [0.9, 0.7],
     8000, 0.0, (90, 1)),
    ("unbalanced-convex", P1_CLAMPED, [0.25, 1.5], 8000, 0.0, (3980, 1)),
    ("strongly-convex", "const:1,1", [1.0, 1.0], 8000, 0.0, None),
    ("unbalanced-convex", P1_CLAMPED, [0.25, 1.5], 3000, 0.0, None),
    ("strongly-convex", "const:1,1", [1.0, 1.0], 8000, 1e-6, None),
    # x_6 == x_1: 6 gradient calls where the loop used to make 20001
    ("scalar-pair", "const:1,1", [2.0], 20000, 0.0, (1, 5)),
], ids=["p4-k9", "p3-k90", "p1-k3980", "p2-none", "p1-budget-first",
        "p2-stop-tol", "p4-period-5"])
def test_fixed_point_stop_matches_the_every_k_loop_bit_for_bit(case):
    # the run equals the every-k loop byte for byte, and stops stepping at
    # the first x_k that repeats, or at none
    name, spec, x0, max_iters, stop_tol, cycle = case
    p, rule = get_problem(name), parse_scaling(spec)
    cfg = DiscreteConfig(max_iters=max_iters, stop_tol=stop_tol)
    seq = run_discrete(p, rule, x0, cfg)
    ref = reference_run(p, rule, x0, cfg)
    got = (seq.states, seq.f_values, seq.crit_scaled, seq.crit_unscaled,
           seq.weights)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if cycle is None:
        assert (seq.work["cycle_k"], seq.work["period"]) == (None, None)
        assert seq.work["grad_calls"] == len(seq)
    else:
        k, period = cycle
        assert (seq.work["cycle_k"], seq.work["period"]) == cycle
        assert seq.work["grad_calls"] == k + period
        rows = [x.tobytes() for x in seq.states[:k + period + 1]]
        assert len(set(rows[:-1])) == k + period and rows[-1] == rows[k]
    if stop_tol > 0.0:
        assert len(seq) < max_iters + 1 and seq.crit_scaled[-1] <= stop_tol
    else:
        assert len(seq) == max_iters + 1


def test_a_two_cycle_is_caught():
    # x_{k+1} = -x_k: x_2 == x_0, and the records alternate up to k = 6
    seq = run_discrete(ball_problem(), constant([1.0]), [1.0],
                       DiscreteConfig(max_iters=6, safety=1.0))
    assert seq.work == {"grad_calls": 2, "cycle_k": 0, "period": 2}
    assert seq.states[:, 0].tolist() == [1.0, -1.0] * 3 + [1.0]
    for col in (seq.f_values, seq.crit_unscaled, seq.crit_scaled,
                seq.weights):
        assert col[2:].tobytes() == col[:-2].tobytes()


# ------------------------------------------- the stacked record pass, checked
# against the per-iterate solves it replaced

def three_quadratics():
    # m = 3: every iterate is solved by the triangle closed form
    return quadratic_problem(
        "three-quadratics", [[4.0, 1.0], [1.0, 9.0], [2.0, 0.5]],
        [[0.0, 0.0], [2.0, 0.5], [0.5, 2.0]], convexity_class="strongly_convex",
        region=Box([0.0, 0.0], [2.0, 2.0]), starts=[[1.0, 1.0]])


def four_quadratics():
    # m = 4 in n = 3: every iterate is solved by the tetrahedron closed
    # form, whose interior candidate holds inside the weak Pareto set
    return quadratic_problem(
        "four-quadratics",
        [[4.0, 1.0, 2.0], [1.0, 9.0, 1.0], [2.0, 0.5, 3.0], [1.0, 2.0, 6.0]],
        [[0.0, 0.0, 0.0], [2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.5, 0.5, 2.0]],
        convexity_class="strongly_convex", region=Box([-1.0] * 3, [3.0] * 3),
        starts=[[1.0, 1.0, 1.0]])


# discrete-rate's scaling and budget
CLAMPED = "gradnorm:eta=0.1,min=0.1,max=10"


# (problem, scaling, start, max_iters, cycle_k, records); every cycle here
# is a fixed point
@pytest.mark.parametrize("case", [
    ("unbalanced-convex", CLAMPED, 0, 10_000, None, 1),  # critical: k = 0
    ("unbalanced-convex", CLAMPED, 1, 10_000, None, 10_001),
    ("strongly-convex", CLAMPED, 0, 10_000, None, 1880),  # crit_scaled 0
    ("three-quadratics", "const:1,1.5,0.5", [0.3, 1.7], 2000, 108, 2001),
    # to a face of the tetrahedron, and from the weak Pareto set's interior,
    # where every iterate takes the interior candidate
    ("four-quadratics", "const:1,1.5,0.5,2", [0.3, 1.7, 0.2], 2000, 121, 2001),
    ("four-quadratics", "const:1,1.5,0.5,2", [0.4375, 0.52, 1.125], 2000, 2,
     2001),
], ids=["discrete-rate-p1-critical-start", "discrete-rate-p1-interior-start",
        "discrete-rate-p2", "m3-wolfe-k108", "m4-face-k121", "m4-interior-k2"])
def test_record_pass_matches_the_every_k_loop_bit_for_bit(case):
    # every record, weights and crit_scaled included, comes from one stacked
    # pass after the loop; row k must be the one-hull solve at x_k
    name, spec, x0, max_iters, fixed_k, records = case
    p = {"three-quadratics": three_quadratics,
         "four-quadratics": four_quadratics}.get(name, lambda: get_problem(name))()
    if isinstance(x0, int):
        x0 = p.starts[x0]
    rule, cfg = parse_scaling(spec), DiscreteConfig(max_iters=max_iters)
    seq = run_discrete(p, rule, x0, cfg)
    assert (seq.work["cycle_k"], len(seq)) == (fixed_k, records)
    assert seq.work["period"] == (None if fixed_k is None else 1)
    got = (seq.states, seq.f_values, seq.crit_scaled, seq.crit_unscaled,
           seq.weights)
    for a, b in zip(got, reference_run(p, rule, x0, cfg)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_each_dynamics_records_through_the_one_pass(monkeypatch):
    # one record pass per run, and the only value call of the run is the
    # pass's call on the (K, n) stack of recorded states
    passes, values = [], []
    real = flow._diagnostics

    def spy(p, gens, X):
        passes.append(X.shape)
        return real(p, gens, X)

    monkeypatch.setattr(flow, "_diagnostics", spy)
    monkeypatch.setattr(discrete, "_diagnostics", spy)
    p2 = get_problem("strongly-convex")

    def value(x):
        values.append(x.shape)
        return p2._value(x)

    p = Problem("counted", 2, 2, value, p2._grads,
                lipschitz=p2.lipschitz, lower_bounds=p2.lower_bounds,
                convexity_class=p2.convexity_class, region=p2.region,
                grad_bound=p2.grad_bound, starts=p2.starts)
    rule, x0 = constant([1.0, 2.0]), [1.0, 1.0]
    runs = [
        integrate_first_order(p, rule, x0, FlowConfig(t_end=1.0, dt=0.1)),
        integrate_accelerated(p, rule, x0, FlowConfig(t_end=1.0, dt=0.1,
                                                      mode="accelerated")),
        run_discrete(p, rule, x0, DiscreteConfig(max_iters=7)),
    ]
    assert passes == values == [(11, 2), (11, 2), (8, 2)]
    for run in runs:
        assert run.f_values.tobytes() == p2._value(run.states).tobytes()
