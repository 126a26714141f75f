"""The shared input rules of mbgf.errors, through every library input that
reads a real or a count: a value with no finite float, a string, a complex
number, a ragged row, or a count that is no int raises InvalidInputError
whose message names the input."""

import re

import pytest

from mbgf.discrete import DiscreteConfig, run_discrete
from mbgf.errors import InvalidInputError
from mbgf.flow import FlowConfig, integrate_accelerated
from mbgf.geometry import SimplexWeights, min_norm_point, project_onto_hull
from mbgf.merit_rates import (check_bound, fit_loglog_slope, monotone_excess,
                              u0_certified)
from mbgf.problems import Box, Problem, get_problem, quadratic_problem
from mbgf.scaling import constant, gradnorm_eta, gradnorm_eta_clamped

P4 = get_problem("scalar-pair")


def _flow(**kw):
    # the accelerated system reads every FlowConfig number, r and theta too
    cfg = FlowConfig(**{"t_end": 0.01, "mode": "accelerated", **kw})
    integrate_accelerated(P4, constant([1.0, 1.0]), [2.0], cfg)


def _discrete(**kw):
    cfg = DiscreteConfig(**{"max_iters": 5, **kw})
    run_discrete(P4, constant([1.0, 1.0]), [2.0], cfg)


BAD_REALS = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
             "10**400": 10 ** 400, "str": "1"}
BAD_COUNTS = {**BAD_REALS, "bool": True, "7.0": 7.0}
# an int of any size is a stride (max_iters refuses one numpy cannot index)
BAD_STRIDES = {k: v for k, v in BAD_COUNTS.items() if k != "10**400"}

# each input: how to feed it a value, the start of its refusal, and the
# values it refuses
INPUTS = {
    "t_end": (lambda v: _flow(t_end=v), "t_end must be a positive real", BAD_REALS),
    "dt": (lambda v: _flow(dt=v), "dt must be a positive real", BAD_REALS),
    "r": (lambda v: _flow(r=v), "r must be a positive real", BAD_REALS),
    "theta": (lambda v: _flow(theta=v), "theta must be a positive real", BAD_REALS),
    "record_every": (lambda v: _flow(record_every=v),
                     "record_every must be an integer >= 1", BAD_STRIDES),
    "max_iters": (lambda v: _discrete(max_iters=v), "max_iters must be", BAD_COUNTS),
    "safety": (lambda v: _discrete(safety=v), "safety must lie in (0, 1]", BAD_REALS),
    "stop_tol": (lambda v: _discrete(stop_tol=v),
                 "stop_tol must be a finite real >= 0", BAD_REALS),
    "eta": (gradnorm_eta, "eta must be a finite real >= 0", BAD_REALS),
    "clamped-eta": (lambda v: gradnorm_eta_clamped(v, 0.5, 1.0),
                    "eta must be a finite real >= 0", BAD_REALS),
    "alpha_min": (lambda v: gradnorm_eta_clamped(0.1, v, 1.0),
                  "clamp bounds need 0 < alpha_min <= alpha_max", BAD_REALS),
    "alpha_max": (lambda v: gradnorm_eta_clamped(0.1, 0.5, v),
                  "clamp bounds need 0 < alpha_min <= alpha_max", BAD_REALS),
    "constant": (lambda v: constant([v, 1.0]),
                 "constant scaling needs finite positive values", BAD_REALS),
    "box-lo": (lambda v: Box([v], [1.0]), "box bounds must be finite", BAD_REALS),
    "box-hi": (lambda v: Box([0.0], [v]), "box bounds must be finite", BAD_REALS),
    "h": (lambda v: u0_certified(P4, [2.0], P4.region, v),
          "grid spacing h must be > 0", BAD_REALS),
}


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{label}")
    for name, (_, _, bads) in INPUTS.items() for label, bad in bads.items()])
def test_a_bad_real_or_count_is_refused_by_name(name, bad):
    feed, message, _ = INPUTS[name]
    with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
        feed(bad)


P2 = get_problem("strongly-convex")


def _plugin(**kw):
    # p2's oracles with hand-declared constants, one of them replaced
    return Problem("plugin", 2, 2, P2._value, P2._grads, **{
        "lipschitz": [1.0, 1.0], "lower_bounds": [0.0, 0.0],
        "strong_convexity": [1.0, 1.0], "convexity_class": "strongly_convex",
        "region": P2.region, "grad_bound": P2.grad_bound, "starts": P2.starts,
        **kw})


def _quadratic(A=((1.0, 1.0),), C=((0.0, 0.0),)):
    return quadratic_problem("quadratic", A, C, convexity_class="convex",
                             region=P2.region, starts=[[0.0, 0.0]])


# entries that are no finite real, each put in the place of one number: a
# list there makes its row ragged
MALFORMED = {"str": "1", "complex": 1 + 1j, "row": [1.0, 2.0], **{
    k: v for k, v in BAD_REALS.items() if k != "str"}}

# each reader of reals: how to feed it one entry, and its refusal
READERS = {
    "generators": (lambda v: min_norm_point([[v, 2.0], [3.0, 4.0]]),
                   "generators contain non-finite entries"),
    "q": (lambda v: project_onto_hull([v, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
          "q contains non-finite entries"),
    "weights": (lambda v: SimplexWeights([v, 0.0]),
                "weights must be a finite 1-D vector"),
    "point": (lambda v: P2.value([v, 0.5]),
              "strongly-convex: non-finite input point"),
    "level": (lambda v: P2.level_set_bound([v, 1.0]),
              "level vector must be m finite reals"),
    "A": (lambda v: _quadratic(A=[[v, 1.0]]), "a quadratic problem takes "
          "finite (m, n) curvatures A > 0 and centers C of one shape"),
    "C": (lambda v: _quadratic(C=[[v, 0.0]]), "a quadratic problem takes "
          "finite (m, n) curvatures A > 0 and centers C of one shape"),
    "lipschitz": (lambda v: _plugin(lipschitz=[v, 1.0]),
                  "lipschitz must be finite reals"),
    "lower_bounds": (lambda v: _plugin(lower_bounds=[v, 0.0]),
                     "lower_bounds must be finite reals"),
    "strong_convexity": (lambda v: _plugin(strong_convexity=[v, 1.0]),
                         "strong_convexity must be finite reals"),
    "grad_bound": (lambda v: _plugin(grad_bound=v),
                   "grad_bound must be a finite real"),
    "start": (lambda v: _plugin(starts=[[v, 0.5]]),
              "plugin: non-finite input point"),
    "box-point": (lambda v: P2.region.contains([v, 0.5]),
                  "box point must be finite reals"),
    "bound-times": (lambda v: check_bound([v, 2.0], [0.5, 0.5], name="t",
                                          constant=1.0, bound_fn=lambda t: t),
                    "series must be finite reals"),
    "bound-values": (lambda v: check_bound([1.0, 2.0], [v, 0.5], name="t",
                                           constant=1.0, bound_fn=lambda t: t),
                     "series must be finite reals"),
    "slope": (lambda v: fit_loglog_slope([1.0, 2.0], [v, 0.5]),
              "series must be finite reals"),
    "monotone": (lambda v: monotone_excess([v, 2.0], 0.0),
                 "series must be finite reals"),
}


@pytest.mark.parametrize("name, label", [
    pytest.param(name, label, id=f"{name}-{label}")
    for name in READERS for label in MALFORMED])
def test_a_malformed_real_is_refused_by_its_reader(name, label):
    feed, message = READERS[name]
    with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
        feed(MALFORMED[label])
