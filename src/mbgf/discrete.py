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

The loop stops stepping at the first exact cycle, the first k with x_{k+1}
equal to an earlier x_j byte for byte, and the records of x_j ... x_k
(state, f, both criticalities and weights) repeat in turn up to
k = max_iters: cycle_k = j, period = k + 1 - j, and a fixed point is
period 1.  That is exact, not an approximation: the step depends on x alone
(s is constant and the generator map reads only the gradients), so stepping
on retraces the cycle, and the loop stopped at none of its iterates, so
their scaled criticality exceeds stop_tol.  A byte compare keeps +0.0 and
-0.0 apart, and the finiteness check rules out NaN.

discrete_monitors checks a recorded run with merit_rates.monotone_excess:
f-nesting at the relative NESTING_SLACK, and the merit
E(k) = k min_i(f_i(x_k) - f_i(x_K)) + alpha_max / (2 s_min) ||x_k - x_K||^2
at the absolute MERIT_SLACK.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericDomainError, finite_real, is_count
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


def _check_config(cfg):
    it = cfg.max_iters
    # a cycle is repeated into an array of up to max_iters rows, so numpy
    # must index it
    if not is_count(it) or it < 1:
        raise InvalidInputError(f"max_iters must be a positive integer, got {it!r}")
    if it > np.iinfo(np.intp).max:
        raise InvalidInputError(
            f"max_iters must be at most {np.iinfo(np.intp).max}, got {it!r}")
    safety, stop_tol = finite_real(cfg.safety), finite_real(cfg.stop_tol)
    if safety is None or not 0.0 < safety <= 1.0:
        raise InvalidInputError(f"safety must lie in (0, 1], got {cfg.safety!r}")
    if stop_tol is None or stop_tol < 0.0:
        raise InvalidInputError("stop_tol must be a finite real >= 0")


class IterateSequence:
    """Recorded iterates with the same diagnostics as a Trajectory, and
    s_min, the constant step of every iteration.

    work maps each work count, deterministic for a given input, to its
    value: grad_calls, the gradient evaluations of the loop (the stacked
    pass over the iterates adds one more), and cycle_k and period of the
    first exact cycle (see the module docstring), or None and None.
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
    seen = {}  # each distinct iterate's bytes -> its k, in k order
    cycle_k = None
    grads, stop_tol, max_iters = p._grads, cfg.stop_tol, cfg.max_iters

    for k in range(max_iters + 1):
        if not all(map(math.isfinite, x.tolist())):
            raise NumericDomainError(f"non-finite iterate at k={k}")
        _, d, crit_s = _min_norm(gens(grads(x)))
        seen[x.tobytes()] = k
        if crit_s <= stop_tol or k == max_iters:
            break
        x = x - s * d
        cycle_k = seen.get(x.tobytes())
        if cycle_k is not None:
            break  # x_{k+1} == x_{cycle_k}: every later iterate repeats

    # the records of the distinct iterates in one stacked pass, then the
    # cycle's rows repeated in turn up to max_iters
    X = np.frombuffer(b"".join(seen)).reshape(len(seen), -1)
    F, cu, _, ws, cs = _diagnostics(p, gens, X)
    rows, period = ((len(X), None) if cycle_k is None
                    else (max_iters + 1, len(X) - cycle_k))
    X, F, cu, cs, ws = (_repeat_cycle(a, cycle_k, rows) for a in (X, F, cu, cs, ws))
    return IterateSequence(
        ks=np.arange(len(X)), states=X, f_values=F, crit_unscaled=cu,
        crit_scaled=cs, weights=ws, alpha_bounds=alpha_bounds, s_min=s,
        work={"grad_calls": len(seen), "cycle_k": cycle_k, "period": period})


def _repeat_cycle(a, cycle_k, rows):
    """a's rows, then its rows cycle_k ... repeated in turn up to rows rows."""
    rest, block = rows - len(a), a[cycle_k:]
    tiled = np.tile(block, (-(-rest // len(block)),) + (1,) * (a.ndim - 1))
    return np.concatenate([a, tiled[:rest]])


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
