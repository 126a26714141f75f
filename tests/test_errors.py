"""The shared input rules of mbgf.errors, through every library input that
reads a real or a count: a value with no finite float, a string, or a count
that is no int raises InvalidInputError whose message names the input."""

import re

import pytest

from mbgf.discrete import DiscreteConfig, run_discrete
from mbgf.errors import InvalidInputError
from mbgf.flow import FlowConfig, integrate_accelerated
from mbgf.merit_rates import u0_certified
from mbgf.problems import Box, get_problem
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
