"""Integration of the balanced gradient flows.

First-order mode integrates xdot = -proj_{C_alpha(x,t)}(0) with classical
fixed-step RK4; accelerated mode integrates the damped second-order system

    xddot + r/(t+theta) xdot + proj_{C_alpha(x)}(-xddot) = 0

as a first-order system in (x, v), with the implicit xddot solved in closed
form each evaluation.  The right-hand side is only piecewise smooth (the
projection's active set can switch), so the step size stays fixed and the
theorem checks downstream carry slack for the O(dt) error near switches.

A state that one RK4 step maps to itself byte for byte is an exact fixed
point (in accelerated mode every stage velocity must also be zero, so the
step cannot depend on t).  Stepping stops there and the remaining records
are taken at that state; they are bit-identical to the ones stepping would
give.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericDomainError
from .geometry import (_as_generator_matrix, _as_vector, _min_norm_weights,
                       _support_weights)
from .scaling import generator_map

DIVERGENCE_SLACK = 0.1  # fraction of the region diameter a state may overshoot


@dataclass
class FlowConfig:
    """Integration window and mode.

    mode is "first_order" or "accelerated"; r and theta only apply to the
    accelerated system (r >= 3 is the regime the rate theory covers, smaller
    values run but void the guarantees).  v0 defaults to zero velocity.
    """

    t_end: float
    t0: float = 0.0
    dt: float = 1e-3
    mode: str = "first_order"
    r: float = 3.0
    theta: float = 1.0
    record_every: int = 1
    v0: object = field(default=None, repr=False)


def _check_config(cfg, n):
    if cfg.mode not in ("first_order", "accelerated"):
        raise InvalidInputError(f"unknown flow mode {cfg.mode!r}")
    if not (np.isfinite(cfg.t0) and np.isfinite(cfg.t_end)) or cfg.t_end <= cfg.t0:
        raise InvalidInputError("need finite t0 < t_end")
    if not np.isfinite(cfg.dt) or cfg.dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    if int(cfg.record_every) != cfg.record_every or cfg.record_every < 1:
        raise InvalidInputError("record_every must be an integer >= 1")
    v0 = None
    if cfg.mode == "accelerated":
        if not np.isfinite(cfg.r) or cfg.r <= 0.0:
            raise InvalidInputError("r must be a positive real")
        if not np.isfinite(cfg.theta) or cfg.theta < 0.0:
            raise InvalidInputError("theta must be >= 0")
        if cfg.t0 + cfg.theta <= 0.0:
            raise InvalidInputError("need t0 + theta > 0 for the damping term")
        v0 = np.zeros(n) if cfg.v0 is None else np.asarray(cfg.v0, dtype=float)
        if v0.shape != (n,) or not np.all(np.isfinite(v0)):
            raise InvalidInputError(f"v0 must be a finite vector of length {n}")
    return v0


class Trajectory:
    """Recorded flow data.

    times (K,), states (K, n), velocities (K, n) in accelerated mode else
    None, and per-record diagnostics: f_values (K, m), speeds ||xdot||,
    crit_unscaled ||proj_{conv grad f_i}(0)||, crit_scaled ||proj_{C_alpha}(0)||,
    energies W_i = f_i + (alpha_i/2)||xdot||^2 (accelerated only), weights of
    the active projection.
    """

    __slots__ = ("times", "states", "velocities", "f_values", "speeds",
                 "crit_unscaled", "crit_scaled", "energies", "weights",
                 "mode", "problem_name", "rule_spec", "config")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def __len__(self):
        return self.times.size

    def __repr__(self):
        return (f"Trajectory({self.problem_name}, {self.mode}, "
                f"{len(self)} records, t in [{self.times[0]:g}, {self.times[-1]:g}])")


def _prepare(p, rule, x0, cfg):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (p.n,) or not np.all(np.isfinite(x0)):
        raise InvalidInputError(f"x0 must be a finite vector of length {p.n}")
    if not p.region.contains(x0):
        raise InvalidInputError(f"x0 {x0.tolist()} outside the region of {p.name}")
    v0 = _check_config(cfg, p.n)
    steps = int(round((cfg.t_end - cfg.t0) / cfg.dt))
    if steps < 1:
        raise InvalidInputError("integration window shorter than one step")
    slack = DIVERGENCE_SLACK * p.region.diameter
    lo = p.region.lo - slack
    hi = p.region.hi + slack
    return x0, v0, steps, lo, hi


def _divergence_guard(x, t, lo, hi, p):
    if not np.all(np.isfinite(x)):
        raise NumericDomainError(f"non-finite state at t = {t:.6g}")
    if np.any(x < lo) or np.any(x > hi):
        raise DivergenceError(
            f"state {x.tolist()} left the region of {p.name} by more than "
            f"{DIVERGENCE_SLACK:.0%} of its diameter at t = {t:.6g}")


def _record_rest(record, k, steps, every, t0, dt, *state):
    # state is an exact fixed point from step k on: record it at every
    # record time stepping would still have reached.
    for j in range(k, steps + 1):
        if j % every == 0 or j == steps:
            record(t0 + j * dt, *state)


def integrate_first_order(p, rule, x0, cfg):
    """RK4 integration of xdot = -proj_{C_alpha(x,t)}(0) from x0."""
    x0, _, steps, lo, hi = _prepare(p, rule, x0, cfg)
    if cfg.mode != "first_order":
        raise InvalidInputError("integrate_first_order needs mode='first_order'")
    # Unvalidated inner path: the guard checks state finiteness every step.
    grads, gens = p._grads, generator_map(rule, p.m)
    t0, dt, every = cfg.t0, cfg.dt, int(cfg.record_every)

    def rhs(x):
        G = gens(grads(x))
        return -(_min_norm_weights(G) @ G)

    rec_t, rec_x, rec_f = [], [], []
    rec_speed, rec_cu, rec_w = [], [], []

    def record(t, x):
        # Returns rhs(x), which the next step reuses as its k1.
        graw = grads(x)
        G = gens(graw)
        w = _min_norm_weights(G)
        d = w @ G
        rec_t.append(t)
        rec_x.append(x.copy())
        rec_f.append(p._value(x))
        # ||xdot|| is the scaled criticality in the first-order flow
        rec_speed.append(float(np.linalg.norm(d)))
        rec_cu.append(float(np.linalg.norm(_min_norm_weights(graw) @ graw)))
        rec_w.append(w)
        return -d

    x = x0.copy()
    k1 = record(t0, x)
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(steps):
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x_new = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        t = t0 + (k + 1) * dt
        # NaN fails both comparisons; the guard tells the errors apart
        if not ((lo <= x_new) & (x_new <= hi)).all():
            _divergence_guard(x_new, t, lo, hi, p)
        if x_new.tobytes() == x.tobytes():
            _record_rest(record, k + 1, steps, every, t0, dt, x)
            break
        x = x_new
        if (k + 1) % every == 0 or k + 1 == steps:
            k1 = record(t, x)
        else:
            k1 = rhs(x)

    return Trajectory(
        times=np.array(rec_t), states=np.array(rec_x), velocities=None,
        f_values=np.array(rec_f), speeds=np.array(rec_speed),
        crit_unscaled=np.array(rec_cu), crit_scaled=np.array(rec_speed),
        energies=None, weights=np.array(rec_w), mode="first_order",
        problem_name=p.name, rule_spec=rule.spec_string(), config=cfg)


def solve_implicit_acceleration(generators, b):
    """Exact xddot with xddot + b + proj_hull(-xddot) = 0.

    The support point c* of the hull in direction b satisfies
    <b, y - c*> <= 0 for every hull point y, so w = b + c* projects onto the
    hull exactly at c*, and xddot = -w solves the implicit equation.  A tied
    support face resolves to its minimum-norm point.
    """
    G = _as_generator_matrix(generators)
    b = _as_vector(b, G.shape[1], "b")
    return -(b + _support_weights(G, b)[2])


def integrate_accelerated(p, rule, x0, cfg):
    """RK4 integration of the damped accelerated system from (x0, v0).

    Restricted to constant scaling rules; the damping coefficient is
    r/(t + theta) and xddot is recovered in closed form each evaluation.
    """
    if cfg.mode != "accelerated":
        raise InvalidInputError("integrate_accelerated needs mode='accelerated'")
    if rule.variant != "constant":
        raise InvalidInputError("accelerated flow requires a constant scaling rule")
    x0, v0, steps, lo, hi = _prepare(p, rule, x0, cfg)
    grads, gens = p._grads, generator_map(rule, p.m)
    t0, dt, every = cfg.t0, cfg.dt, int(cfg.record_every)
    r, theta = float(cfg.r), float(cfg.theta)
    alpha = np.asarray(rule.values, dtype=float)

    def accel(x, v, t):
        b = (r / (t + theta)) * v
        return -(b + _support_weights(gens(grads(x)), b)[2])

    rec_t, rec_x, rec_v, rec_f = [], [], [], []
    rec_speed, rec_cu, rec_cs, rec_en, rec_w = [], [], [], [], []

    def record(t, x, v):
        graw = grads(x)
        G = gens(graw)
        _, w, _ = _support_weights(G, (r / (t + theta)) * v)
        f = p._value(x)
        speed2 = float(v @ v)
        rec_t.append(t)
        rec_x.append(x.copy())
        rec_v.append(v.copy())
        rec_f.append(f)
        rec_speed.append(float(np.sqrt(speed2)))
        rec_cu.append(float(np.linalg.norm(_min_norm_weights(graw) @ graw)))
        d = _min_norm_weights(G) @ G
        rec_cs.append(float(np.linalg.norm(d)))
        rec_en.append(f + 0.5 * alpha * speed2)
        rec_w.append(w)

    x = x0.copy()
    v = v0.copy()
    record(t0, x, v)
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(steps):
        t = t0 + k * dt
        a1 = accel(x, v, t)
        x2, v2 = x + half * v, v + half * a1
        a2 = accel(x2, v2, t + half)
        x3, v3 = x + half * v2, v + half * a2
        a3 = accel(x3, v3, t + half)
        x4, v4 = x + dt * v3, v + dt * a3
        a4 = accel(x4, v4, t + dt)
        x_new = x + sixth * (v + 2.0 * (v2 + v3) + v4)
        v_new = v + sixth * (a1 + 2.0 * (a2 + a3) + a4)
        t = t0 + (k + 1) * dt
        if not ((lo <= x_new) & (x_new <= hi)).all():
            _divergence_guard(x_new, t, lo, hi, p)
        if not np.isfinite(v_new).all():
            raise NumericDomainError(f"non-finite velocity at t = {t:.6g}")
        # t enters a step only as the damping factor of a stage velocity,
        # so with every stage velocity zero the step is the same at all t.
        if (x_new.tobytes() == x.tobytes() and v_new.tobytes() == v.tobytes()
                and not (v.any() or v2.any() or v3.any() or v4.any())):
            _record_rest(record, k + 1, steps, every, t0, dt, x, v)
            break
        x, v = x_new, v_new
        if (k + 1) % every == 0 or k + 1 == steps:
            record(t, x, v)

    return Trajectory(
        times=np.array(rec_t), states=np.array(rec_x), velocities=np.array(rec_v),
        f_values=np.array(rec_f), speeds=np.array(rec_speed),
        crit_unscaled=np.array(rec_cu), crit_scaled=np.array(rec_cs),
        energies=np.array(rec_en), weights=np.array(rec_w), mode="accelerated",
        problem_name=p.name, rule_spec=rule.spec_string(), config=cfg)
