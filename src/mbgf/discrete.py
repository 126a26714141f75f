"""Explicit multiobjective gradient iteration with the balanced-hull direction.

x_{k+1} = x_k - s * proj_{C_alpha(x_k)}(0), the explicit Euler step of the
first-order balanced flow.  There is one step rule: the constant step
s = safety * 2 * alpha_min / L_max derived from the declared scaling bounds,
so the rule must declare a positive floor alpha_min.  That step always
satisfies the admissible-step window
s_min <= s_k <= safety * min_i 2 alpha_i(x_k, k) / L_i.

An iteration pays one gradient call and one minimum-norm solve, whose point
is the step and whose norm is the stop test; the loop keeps only the
iterates.  Every record of the distinct iterates (f, both criticalities
and the min-norm weights) comes after the loop, from the one stacked
record pass the flows use (flow._diagnostics).  One point takes
ndarray.dot, a stack takes @: the same BLAS routine, the same bits
(geometry._dot has the rule).

The loop stops stepping at a floating-point fixed point, the first k with
x_{k+1} == x_k byte for byte, and every record of x_k (state, f, both
criticalities and weights) is repeated up to k = max_iters, so rows
fixed_point_k ... max_iters are byte copies of one row.  That is exact,
not an approximation: the step depends on x alone (s is constant and the
generator map reads only the gradients), and the loop did not stop at k,
so the scaled criticality exceeds stop_tol there and at every repeat of
x_k.  A byte compare keeps +0.0 and -0.0 apart, and the finiteness check
rules out NaN.  A cycle of two or more distinct iterates is not a fixed
point and is stepped through.

discrete_monitors checks a recorded run with merit_rates.monotone_excess:
f-nesting at the relative NESTING_SLACK, and the merit
E(k) = k min_i(f_i(x_k) - f_i(x_K)) + alpha_max / (2 s_min) ||x_k - x_K||^2
at the absolute MERIT_SLACK.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericDomainError
from .flow import _check_start, _diagnostics
from .geometry import _min_norm
from .merit_rates import NESTING_SLACK, monotone_excess
from .scaling import generator_map

# absolute per-step slack of the merit-decrease check in discrete_monitors
MERIT_SLACK = 1e-9


@dataclass(frozen=True)
class DiscreteConfig:
    """Iteration budget, the safety factor of the constant step
    s = safety * 2 * alpha_min / L_max, and the stopping tolerance."""

    max_iters: int
    safety: float = 0.99            # in (0, 1]
    stop_tol: float = 0.0           # stop when scaled criticality <= stop_tol


def _real_where(v, ok):
    # whether v has a finite float and ok(v) holds: as in
    # flow._check_positive, a value with no finite float (NaN, an infinity,
    # an int beyond the float range, a non-number) is refused by name
    try:
        return math.isfinite(v) and ok(v)
    except (TypeError, ValueError, OverflowError):
        return False


def _check_config(cfg):
    it = cfg.max_iters
    # a bool is an int, but no count of iterations; the repeated tail of a
    # fixed point is an array of up to max_iters rows, so numpy must index it
    if isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it < 1:
        raise InvalidInputError(f"max_iters must be a positive integer, got {it!r}")
    if it > np.iinfo(np.intp).max:
        raise InvalidInputError(
            f"max_iters must be at most {np.iinfo(np.intp).max}, got {it!r}")
    if not _real_where(cfg.safety, lambda v: 0.0 < v <= 1.0):
        raise InvalidInputError(f"safety must lie in (0, 1], got {cfg.safety!r}")
    if not _real_where(cfg.stop_tol, lambda v: v >= 0.0):
        raise InvalidInputError("stop_tol must be a finite real >= 0")


class IterateSequence:
    """Recorded iterates with the same diagnostics as a Trajectory, and
    s_min, the constant step of every iteration.

    work maps each work count, deterministic for a given input, to its
    value: grad_calls, the gradient evaluations of the loop (the stacked
    pass over the iterates adds one more), and fixed_point_k, the first k
    with x_{k+1} == x_k, or None.
    """

    __slots__ = ("ks", "states", "f_values", "crit_unscaled", "crit_scaled",
                 "weights", "alpha_bounds", "s_min", "work")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected fields: {sorted(kw)}")

    def __len__(self):
        return len(self.ks)


def step_size(p, rule, cfg):
    """The constant step s = safety * 2 * alpha_min / L_max."""
    alpha_min, _ = rule.declared_bounds(p)
    return cfg.safety * 2.0 * alpha_min / max(p.lipschitz)


def run_discrete(p, rule, x0, cfg):
    _check_config(cfg)
    x = _check_start(p, x0)

    s = step_size(p, rule, cfg)
    alpha_bounds = rule.declared_bounds(p)
    gens = generator_map(rule, p.m)
    states = []
    fixed_point_k = None
    grads, stop_tol, max_iters = p._grads, cfg.stop_tol, cfg.max_iters

    for k in range(max_iters + 1):
        if not all(map(math.isfinite, x.tolist())):
            raise NumericDomainError(f"non-finite iterate at k={k}")
        _, d, crit_s = _min_norm(gens(grads(x)))
        states.append(x)
        if crit_s <= stop_tol or k == max_iters:
            break
        x_new = x - s * d
        if x_new.tobytes() == x.tobytes():
            fixed_point_k = k  # every later iterate repeats x_k
            break
        x = x_new

    # the records of the distinct iterates in one stacked pass, then every
    # column's last row repeated up to max_iters
    X = np.array(states)
    F, cu, _, ws, cs = _diagnostics(p, gens, X)
    rest = 0 if fixed_point_k is None else max_iters - fixed_point_k
    X, F, cu, cs, ws = (_repeat_last(a, rest) for a in (X, F, cu, cs, ws))
    return IterateSequence(
        ks=np.arange(len(X)), states=X, f_values=F, crit_unscaled=cu,
        crit_scaled=cs, weights=ws, alpha_bounds=alpha_bounds, s_min=s,
        work={"grad_calls": len(states), "fixed_point_k": fixed_point_k})


def _repeat_last(rows, rest):
    """The rows as one array, its last row repeated rest more times."""
    a = np.array(rows)
    return np.concatenate([a, np.repeat(a[-1:], rest, axis=0)])


def merit_coefficient(seq):
    """alpha_max / (2 s_min), the quadratic weight in the discrete merit."""
    return seq.alpha_bounds[1] / (2.0 * seq.s_min)


def discrete_monitors(seq):
    """Per-step descent and merit-decrease checks for a recorded run.

    Returns the merit values E(k), taken at the final iterate x_K, and the
    monotone_excess of f (f_excess) and of E (merit_excess): <= 0 means
    the series is nonincreasing within its slack.
    """
    gaps = seq.f_values - seq.f_values[-1]
    dist2 = ((seq.states - seq.states[-1]) ** 2).sum(axis=-1)
    merit = seq.ks * gaps.min(axis=-1) + merit_coefficient(seq) * dist2
    return {"merit": merit,
            "f_excess": monotone_excess(seq.f_values, NESTING_SLACK),
            "merit_excess": monotone_excess(merit, 0.0, MERIT_SLACK)}
