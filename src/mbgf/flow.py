"""Integration of the balanced gradient flows.

First-order mode integrates xdot = -proj_{C_alpha(x,t)}(0); accelerated mode
integrates the damped second-order system

    xddot + r/(t+theta) xdot + proj_{C_alpha(x)}(-xddot) = 0

as a first-order system in the stacked state y = (x, v), started at rest
(v = 0), with the implicit xddot solved in closed form each evaluation.
One classical fixed-step RK4 driver runs both modes over y (y = x in
first-order mode).  A mode supplies only its right-hand side and its record;
each record returns the right-hand side at the recorded state, which the
next step reuses as its first stage.  The right-hand side is only piecewise
smooth (the projection's active set can switch), so the step size stays
fixed and the theorem checks downstream carry slack for the O(dt) error
near switches.

A state that one RK4 step maps to itself byte for byte is an exact fixed
point (in accelerated mode every stage velocity must also be zero, so the
step cannot depend on t).  Stepping stops there and the remaining records
are taken at that state; they are bit-identical to the ones stepping would
give.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericDomainError
from .geometry import (_as_generator_matrix, _as_vector, _min_norm,
                       _min_norm_weights, _support_weights)
from .scaling import generator_map

DIVERGENCE_SLACK = 0.1  # fraction of the region diameter a state may overshoot


@dataclass
class FlowConfig:
    """Integration window and mode.

    mode is "first_order" or "accelerated"; r and theta only apply to the
    accelerated system, which starts at rest (r >= 3 is the regime the rate
    theory covers, smaller values run but void the guarantees).
    """

    t_end: float
    t0: float = 0.0
    dt: float = 1e-3
    mode: str = "first_order"
    r: float = 3.0
    theta: float = 1.0
    record_every: int = 1


def _check_config(cfg):
    if not (np.isfinite(cfg.t0) and np.isfinite(cfg.t_end)) or cfg.t_end <= cfg.t0:
        raise InvalidInputError("need finite t0 < t_end")
    if not np.isfinite(cfg.dt) or cfg.dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    if int(cfg.record_every) != cfg.record_every or cfg.record_every < 1:
        raise InvalidInputError("record_every must be an integer >= 1")
    if cfg.mode == "accelerated":
        if not np.isfinite(cfg.r) or cfg.r <= 0.0:
            raise InvalidInputError("r must be a positive real")
        if not np.isfinite(cfg.theta) or cfg.theta < 0.0:
            raise InvalidInputError("theta must be >= 0")
        if cfg.t0 + cfg.theta <= 0.0:
            raise InvalidInputError("need t0 + theta > 0 for the damping term")


class Trajectory:
    """Recorded flow data.

    times (K,), states (K, n), velocities (K, n) in accelerated mode else
    None, and per-record diagnostics: f_values (K, m), speeds ||xdot||,
    crit_unscaled ||proj_{conv grad f_i}(0)||, crit_scaled ||proj_{C_alpha}(0)||,
    energies W_i = f_i + (alpha_i/2)||xdot||^2 (accelerated only, else
    None), weights of the active projection.
    """

    __slots__ = ("times", "states", "velocities", "f_values", "speeds",
                 "crit_unscaled", "crit_scaled", "energies", "weights",
                 "mode", "problem_name", "rule_spec", "config")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    def __len__(self):
        return self.times.size

    def __repr__(self):
        return (f"Trajectory({self.problem_name}, {self.mode}, "
                f"{len(self)} records, t in [{self.times[0]:g}, {self.times[-1]:g}])")


def _prepare(p, x0, cfg):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (p.n,) or not np.all(np.isfinite(x0)):
        raise InvalidInputError(f"x0 must be a finite vector of length {p.n}")
    if not p.region.contains(x0):
        raise InvalidInputError(f"x0 {x0.tolist()} outside the region of {p.name}")
    _check_config(cfg)
    steps = int(round((cfg.t_end - cfg.t0) / cfg.dt))
    if steps < 1:
        raise InvalidInputError("integration window shorter than one step")
    return x0, steps


def _divergence_guard(x, t, lo, hi, p):
    if not np.all(np.isfinite(x)):
        raise NumericDomainError(f"non-finite state at t = {t:.6g}")
    if np.any(x < lo) or np.any(x > hi):
        raise DivergenceError(
            f"state {x.tolist()} left the region of {p.name} by more than "
            f"{DIVERGENCE_SLACK:.0%} of its diameter at t = {t:.6g}")


def _record_rest(record, rows, k, steps, every, t0, dt, y):
    # y is an exact fixed point from step k on: record it at every record
    # time stepping would still have reached.
    for j in range(k, steps + 1):
        if j % every == 0 or j == steps:
            rows.append(record(t0 + j * dt, y)[1])


def _run_rk4(p, rule, cfg, y0, steps, rhs, record, fields):
    """The RK4 loop of both modes over the stacked state y0 (x0, or x0 then
    the velocity).  rhs(y, t) is the mode's right-hand side; record(t, y)
    returns rhs(y, t), the next step's k1, and the row of recorded values
    named by fields."""
    n = p.n
    stacked = y0.size > n
    # x may overshoot the region by the slack, v may take any finite value:
    # one comparison per step checks both.
    slack = DIVERGENCE_SLACK * p.region.diameter
    big = np.full(y0.size - n, np.finfo(float).max)
    lo = np.concatenate((p.region.lo - slack, -big))
    hi = np.concatenate((p.region.hi + slack, big))
    t0, dt, every = cfg.t0, cfg.dt, int(cfg.record_every)
    half = 0.5 * dt
    sixth = dt / 6.0

    y = y0
    k1, row = record(t0, y)
    rows = [row]
    for k in range(steps):
        t = t0 + k * dt
        k2 = rhs(y + half * k1, t + half)
        k3 = rhs(y + half * k2, t + half)
        k4 = rhs(y + dt * k3, t + dt)
        y_new = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        t = t0 + (k + 1) * dt
        # NaN fails both comparisons; the guard tells the errors apart
        if not ((lo <= y_new) & (y_new <= hi)).all():
            _divergence_guard(y_new[:n], t, lo[:n], hi[:n], p)
            raise NumericDomainError(f"non-finite velocity at t = {t:.6g}")
        # t enters an accelerated step only as the damping factor of a
        # stage velocity, so with every stage velocity zero the step is the
        # same at all t.
        if y_new.tobytes() == y.tobytes() and not (stacked and (
                k1[:n].any() or k2[:n].any() or k3[:n].any() or k4[:n].any())):
            _record_rest(record, rows, k + 1, steps, every, t0, dt, y)
            break
        y = y_new
        if (k + 1) % every == 0 or k + 1 == steps:
            k1, row = record(t, y)
            rows.append(row)
        else:
            k1 = rhs(y, t)

    columns = {name: np.array(col) for name, col in zip(fields, zip(*rows))}
    return Trajectory(mode=cfg.mode, problem_name=p.name,
                      rule_spec=rule.spec_string(), config=cfg, **columns)


def _balanced_record(p, gens, x):
    """f(x); the weights w, the point d = w @ G and the norm ||d|| of the
    min-norm point of C_alpha(x), whose negative -d is the balanced
    direction; and the unscaled criticality at x."""
    graw = p._grads(x)
    w, d, norm = _min_norm(gens(graw))
    return p._value(x), w, d, norm, _min_norm(graw)[2]


def integrate_first_order(p, rule, x0, cfg):
    """RK4 integration of xdot = -proj_{C_alpha(x,t)}(0) from x0."""
    if cfg.mode != "first_order":
        raise InvalidInputError("integrate_first_order needs mode='first_order'")
    x0, steps = _prepare(p, x0, cfg)
    # Unvalidated inner path: the guard checks state finiteness every step.
    grads, gens = p._grads, generator_map(rule, p.m)

    def rhs(x, t):
        G = gens(grads(x))
        return -(_min_norm_weights(G) @ G)

    def record(t, x):
        f, w, d, speed, cu = _balanced_record(p, gens, x)
        # ||xdot|| is the scaled criticality in the first-order flow
        return -d, (t, x.copy(), f, speed, cu, speed, w)

    return _run_rk4(p, rule, cfg, x0, steps, rhs, record,
                    ("times", "states", "f_values", "speeds", "crit_unscaled",
                     "crit_scaled", "weights"))


def _implicit_acceleration(G, b):
    # Support weights w and xddot = -(b + c*) for the support point c* of
    # conv(rows of G) in direction b; see solve_implicit_acceleration.
    _, w, c = _support_weights(G, b)
    return w, -(b + c)


def solve_implicit_acceleration(generators, b):
    """Exact xddot with xddot + b + proj_hull(-xddot) = 0.

    The support point c* of the hull in direction b satisfies
    <b, y - c*> <= 0 for every hull point y, so w = b + c* projects onto the
    hull exactly at c*, and xddot = -w solves the implicit equation.  A tied
    support face resolves to its minimum-norm point.
    """
    G = _as_generator_matrix(generators)
    b = _as_vector(b, G.shape[1], "b")
    return _implicit_acceleration(G, b)[1]


def integrate_accelerated(p, rule, x0, cfg):
    """RK4 integration of the damped accelerated system from x0 at rest.

    Restricted to constant scaling rules; the damping coefficient is
    r/(t + theta) and xddot is recovered in closed form each evaluation.
    """
    if cfg.mode != "accelerated":
        raise InvalidInputError("integrate_accelerated needs mode='accelerated'")
    if rule.variant != "constant":
        raise InvalidInputError("accelerated flow requires a constant scaling rule")
    x0, steps = _prepare(p, x0, cfg)
    n = p.n
    grads, gens = p._grads, generator_map(rule, p.m)
    r, theta = float(cfg.r), float(cfg.theta)
    alpha = np.asarray(rule.values, dtype=float)

    def rhs(y, t):
        v = y[n:]
        xdd = _implicit_acceleration(gens(grads(y[:n])), (r / (t + theta)) * v)[1]
        return np.concatenate((v, xdd))

    def record(t, y):
        x, v = y[:n], y[n:]
        graw = grads(x)
        G = gens(graw)
        w, xdd = _implicit_acceleration(G, (r / (t + theta)) * v)
        f = p._value(x)
        speed2 = float(v @ v)
        return np.concatenate((v, xdd)), (
            t, x.copy(), v.copy(), f, float(np.sqrt(speed2)),
            _min_norm(graw)[2], _min_norm(G)[2], f + 0.5 * alpha * speed2, w)

    return _run_rk4(p, rule, cfg, np.concatenate((x0, np.zeros(n))), steps,
                    rhs, record,
                    ("times", "states", "velocities", "f_values", "speeds",
                     "crit_unscaled", "crit_scaled", "energies", "weights"))
