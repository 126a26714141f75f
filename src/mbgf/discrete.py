"""Explicit multiobjective gradient iteration with the balanced-hull direction.

x_{k+1} = x_k - s_k * proj_{C_alpha(x_k)}(0), with a constant step derived
from the declared scaling bounds: s = safety * 2 * alpha_min / L_max.  That
step always satisfies the admissible-step window
s_min <= s_k <= safety * min_i 2 alpha_i(x_k, k) / L_i.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericDomainError
from .geometry import _min_norm_weights
from .scaling import generator_map


@dataclass(frozen=True)
class DiscreteConfig:
    max_iters: int
    step: str = "paper_default"     # "paper_default" | "fixed"
    s: float = None                 # step size for step="fixed"
    safety: float = 0.99            # in (0, 1], for step="paper_default"
    stop_tol: float = 0.0           # stop when scaled criticality <= stop_tol


def _check_config(cfg):
    if not isinstance(cfg.max_iters, (int, np.integer)) or cfg.max_iters < 1:
        raise InvalidInputError(f"max_iters must be a positive integer, got {cfg.max_iters!r}")
    if cfg.step not in ("paper_default", "fixed"):
        raise InvalidInputError(f"unknown step rule {cfg.step!r}")
    if cfg.step == "fixed":
        if cfg.s is None or not np.isfinite(cfg.s) or cfg.s <= 0:
            raise InvalidInputError(f"fixed step rule needs s > 0, got {cfg.s!r}")
    else:
        if not (0.0 < cfg.safety <= 1.0):
            raise InvalidInputError(f"safety must lie in (0, 1], got {cfg.safety!r}")
    if not (np.isfinite(cfg.stop_tol) and cfg.stop_tol >= 0.0):
        raise InvalidInputError(f"stop_tol must be >= 0, got {cfg.stop_tol!r}")


class IterateSequence:
    """Recorded iterates with the same diagnostics as a Trajectory."""

    __slots__ = ("ks", "states", "f_values", "steps", "crit_unscaled",
                 "crit_scaled", "weights", "alpha_bounds", "s_min",
                 "problem_name", "rule_spec", "config")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected fields: {sorted(kw)}")

    def __len__(self):
        return len(self.ks)


def step_size(p, rule, cfg):
    """The constant step realized by the configured rule."""
    if cfg.step == "fixed":
        return float(cfg.s)
    alpha_min, _ = rule.declared_bounds(p)
    return cfg.safety * 2.0 * alpha_min / max(p.lipschitz)


def run_discrete(p, rule, x0, cfg):
    _check_config(cfg)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (p.n,) or not np.all(np.isfinite(x)):
        raise InvalidInputError(f"x0 must be a finite vector of length {p.n}")
    if not p.region.contains(x):
        raise InvalidInputError(f"x0 {x!r} lies outside the region box of {p.name}")

    s = step_size(p, rule, cfg)
    gens = generator_map(rule, p.m)
    try:
        alpha_bounds = rule.declared_bounds(p)
    except InvalidInputError:
        # fixed-step runs are allowed for rules without a declared floor;
        # merit monitors then have no coefficient to work with
        alpha_bounds = None
    ks, states, fvals, steps, cu, cs, ws = [], [], [], [], [], [], []

    for k in range(cfg.max_iters + 1):
        if not np.isfinite(x).all():
            raise NumericDomainError(f"non-finite iterate at k={k}")
        G = p._grads(x)
        Gs = gens(G)
        w = _min_norm_weights(Gs)
        d = w @ Gs
        crit_s = float(np.sqrt(d @ d))
        du = _min_norm_weights(G) @ G
        ks.append(k)
        states.append(x.copy())
        fvals.append(p._value(x))
        steps.append(s)
        cu.append(float(np.sqrt(du @ du)))
        cs.append(crit_s)
        ws.append(w)
        if crit_s <= cfg.stop_tol or k == cfg.max_iters:
            break
        x = x - s * d

    return IterateSequence(
        ks=np.array(ks), states=np.array(states), f_values=np.array(fvals),
        steps=np.array(steps), crit_unscaled=np.array(cu),
        crit_scaled=np.array(cs), weights=np.array(ws),
        alpha_bounds=alpha_bounds, s_min=s, problem_name=p.name,
        rule_spec=rule.spec_string(), config=cfg)


def merit_coefficient(seq):
    """alpha_max / (2 s_min), the quadratic weight in the discrete merit."""
    if seq.alpha_bounds is None:
        raise InvalidInputError(
            "merit monitors need a scaling rule with declared bounds")
    return seq.alpha_bounds[1] / (2.0 * seq.s_min)


def discrete_monitors(seq, z=None, p=None, slack=1e-9):
    """Per-step descent and merit-decrease checks for a recorded run.

    z defaults to the final iterate, which lies in its own level set; a
    user-supplied z must satisfy f(z) <= f(x_K) componentwise (p is needed
    to evaluate f(z) and defaults to the registered problem of the run).
    Returns a dict with the merit values E(k) and the worst signed
    violations (negative = satisfied with margin).
    """
    if z is None:
        z = seq.states[-1]
        fz = seq.f_values[-1]
    else:
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape != seq.states[-1].shape or not np.all(np.isfinite(z)):
            raise InvalidInputError("z must be a finite vector matching the iterate dimension")
        if p is None:
            from .problems import get_problem
            p = get_problem(seq.problem_name)
        fz = p.value(z)
        tail = seq.f_values[-1]
        if np.any(fz > tail + 1e-9 * (1.0 + np.abs(tail))):
            raise InvalidInputError("z must lie in the level set of the final iterate")

    df = np.diff(seq.f_values, axis=0)
    # same per-step relative slack as the continuous level-nesting check
    f_slack = 1e-9 * (1.0 + np.abs(seq.f_values[:-1]))
    gaps = seq.f_values - fz
    dist2 = ((seq.states - z) ** 2).sum(axis=-1)
    merit = seq.ks * gaps.min(axis=-1) + merit_coefficient(seq) * dist2
    d_merit = np.diff(merit)
    return {
        "z": z,
        "merit": merit,
        "f_decrease_worst": float(df.max()) if df.size else 0.0,
        "f_decrease_ok": bool(df.size == 0 or (df - f_slack).max() <= 0.0),
        "merit_worst_increase": float(d_merit.max()) if d_merit.size else 0.0,
        "merit_ok": bool(d_merit.size == 0 or d_merit.max() <= slack),
    }
