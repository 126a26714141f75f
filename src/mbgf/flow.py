"""Integration of the balanced gradient flows.

First-order mode integrates xdot = -proj_{C_alpha(x,t)}(0); accelerated mode
integrates the damped second-order system

    xddot + r/(t+theta) xdot + proj_{C_alpha(x)}(-xddot) = 0

as a first-order system in the stacked state y = (x, v), started at rest
(v = 0), with the implicit xddot solved in closed form each evaluation.
A mode supplies only its right-hand side and its record; each record
returns the right-hand side at the recorded state along with its row.
Both modes record at t0 + j dt for j = 0, record_every, 2 record_every, ...
and at the last step count j = round((t_end - t0) / dt), and both share the
divergence guard and the Trajectory assembly.

The first-order right-hand side is Lipschitz and smooth away from switches
of the projection's active set.  It is integrated by the embedded
Dormand-Prince 5(4) pair with step-size control (Hairer, Norsett & Wanner,
Solving ODEs I, II.4-II.6): the error estimate shrinks the step at a switch
and lets it grow where the flow is smooth.  dt sets the record grid and the
first trial step, not a step bound.  Records between step ends come from
the pair's 4th-order dense output; the last is the end of the last step,
where stepping stops.  At a fixed point every stage is zero, so the error
estimate is zero and every record repeats the first bit for bit.

The accelerated right-hand side jumps wherever the support face of the
hull switches, and an error control would collapse the step there.  That
mode keeps the classical RK4 step of size dt, and the theorem checks
downstream carry slack for the O(dt) error near switches.  A state that
one RK4 step maps to itself byte for byte, with every stage velocity zero
(so the step cannot depend on t), is an exact fixed point: stepping stops
and the remaining records are taken at that state, bit-identical to the
ones stepping would give.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergenceError, InvalidInputError, NoConvergenceError,
                     NumericDomainError)
from .geometry import (_as_generator_matrix, _as_vector, _min_norm,
                       _min_norm_weights, _support_weights)
from .scaling import generator_map

DIVERGENCE_SLACK = 0.1  # fraction of the region diameter a state may overshoot
# Error tolerance of the first-order step: the RMS over components of the
# local error estimate divided by TOL (1 + max(|y|, |y_new|)) must be <= 1.
TOL = 1e-11

# Dormand & Prince (1980), RK5(4)7M.  Row i of _DP_A holds the stage
# weights a_ij (j < i); row 6 is the 5th-order solution, so the 7th stage,
# taken at the new state, is the next step's first (FSAL).  _DP_E holds the
# differences of the 5th- and 4th-order weights, _DP_D the weights of the
# dense-output term of Hairer, Norsett & Wanner, II.6 (their CONTD5).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])


@dataclass
class FlowConfig:
    """Integration window and mode.

    mode is "first_order" or "accelerated".  Records are taken every
    record_every multiples of dt after t0.  In first-order mode dt is also
    the first trial step of the adaptive pair, which then sizes its own
    steps; in accelerated mode dt is the fixed RK4 step.  r and theta only
    apply to the accelerated system, which starts at rest (r >= 3 is the
    regime the rate theory covers, smaller values run but void the
    guarantees).
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
    every = cfg.record_every
    if not (np.isfinite(every) and every >= 1 and int(every) == every):
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

    Work counts, deterministic for a given input: steps accepted, steps
    rejected by the error control (always 0 for RK4), and rhs_evals, the
    right-hand-side evaluations of the stepping loop.  An RK4 record taken
    while stepping evaluates the next k1 and counts as one of them; in
    first-order mode only the t0 record does, and every later record costs
    one oracle call of its own.
    """

    __slots__ = ("times", "states", "velocities", "f_values", "speeds",
                 "crit_unscaled", "crit_scaled", "energies", "weights",
                 "rhs_evals", "steps", "rejected",
                 "mode", "problem_name", "rule_spec", "config")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    def __len__(self):
        return self.times.size

    def __repr__(self):
        return (f"Trajectory({self.problem_name}, {self.mode}, "
                f"{len(self)} records, t in [{self.times[0]:g}, {self.times[-1]:g}])")


def _check_start(p, x0):
    """x0 as a float vector: finite, of length p.n, inside p's region."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (p.n,) or not np.all(np.isfinite(x0)):
        raise InvalidInputError(f"x0 must be a finite vector of length {p.n}")
    if not p.region.contains(x0):
        raise InvalidInputError(f"x0 {x0.tolist()} outside the region of {p.name}")
    return x0


def _prepare(p, x0, cfg):
    x0 = _check_start(p, x0)
    _check_config(cfg)
    steps = int(round((cfg.t_end - cfg.t0) / cfg.dt))
    if steps < 1:
        raise InvalidInputError("integration window shorter than one step")
    # the recorded step counts: every record_every-th and the last
    return x0, [*range(0, steps, int(cfg.record_every)), steps]


def _guard_bounds(p, size):
    """Bounds on a state of the given size (x, then any velocity): x may
    overshoot the region by the slack, v may take any finite value, so
    one comparison per step checks both."""
    slack = DIVERGENCE_SLACK * p.region.diameter
    big = np.full(size - p.n, np.finfo(float).max)
    return (np.concatenate((p.region.lo - slack, -big)),
            np.concatenate((p.region.hi + slack, big)))


def _guard(y, t, lo, hi, p):
    # One comparison per accepted step; NaN fails it too, and only then
    # are the errors told apart.
    if ((lo <= y) & (y <= hi)).all():
        return
    n = p.n
    x = y[:n]
    if not np.isfinite(x).all():
        raise NumericDomainError(f"non-finite state at t = {t:.6g}")
    if (x < lo[:n]).any() or (x > hi[:n]).any():
        raise DivergenceError(
            f"state {x.tolist()} left the region of {p.name} by more than "
            f"{DIVERGENCE_SLACK:.0%} of its diameter at t = {t:.6g}")
    raise NumericDomainError(f"non-finite velocity at t = {t:.6g}")


def _trajectory(p, rule, cfg, fields, rows, **work):
    columns = {name: np.array(col) for name, col in zip(fields, zip(*rows))}
    return Trajectory(mode=cfg.mode, problem_name=p.name,
                      rule_spec=rule.spec_string(), config=cfg,
                      **columns, **work)


def _run_dp54(p, rule, cfg, y0, counts, rhs, record, fields):
    """The adaptive Dormand-Prince 5(4) loop of the first-order mode,
    recording at t0 + j dt for each step count j in counts.  rhs(y, t) is
    the right-hand side; record(t, y) returns rhs(y, t) and the row of
    recorded values named by fields.  Only the t0 record's right-hand side
    feeds a step; later steps take their first stage from the last stage
    of the step before."""
    lo, hi = _guard_bounds(p, y0.size)
    t0, dt = cfg.t0, cfg.dt
    times = [t0 + j * dt for j in counts]
    t_end = times[-1]
    h_min = math.ulp(max(abs(t0), abs(t_end)))
    A, C, E, D = _DP_A, _DP_C, _DP_E, _DP_D

    K = np.empty((7, y0.size))
    K[0], row = record(t0, y0)
    rows = [row]
    y, t, h = y0, t0, dt
    q, accepted, rejected = 1, 0, 0
    grow = True  # False on the step after a rejection
    while True:
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        for i in range(1, 6):
            K[i] = rhs(y + h * (A[i] @ K[:i]), t + C[i] * h)
        y_new = y + h * (A[6] @ K[:6])
        t_new = t_end if last else t + h
        K[6] = rhs(y_new, t_new)
        e = (h * (E @ K)) / (TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new))))
        err = math.sqrt(float(e @ e) / e.size)
        if not err <= 1.0:
            if not math.isfinite(err):
                what = "error estimate" if np.isfinite(y_new).all() else "state"
                raise NumericDomainError(f"non-finite {what} at t = {t_new:.6g}")
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            grow = False
            if h <= h_min:
                raise NoConvergenceError(
                    f"step size underflow ({h:.3g}) at t = {t:.17g}")
            continue
        _guard(y_new, t_new, lo, hi, p)
        accepted += 1
        if times[q] <= t_new:
            # dense output y + th (dy + (1-th) (b + th (c + (1-th) d)))
            dy = y_new - y
            b = h * K[0] - dy
            c = dy - h * K[6] - b
            d = h * (D @ K)
            while q < len(times) and times[q] <= t_new:
                tq = times[q]
                if tq == t_new:
                    x = y_new
                else:
                    th = (tq - t) / h
                    th1 = 1.0 - th
                    x = y + th * (dy + th1 * (b + th * (c + th1 * d)))
                rows.append(record(tq, x)[1])
                q += 1
        if last:
            break
        fac = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        h *= fac if grow else min(fac, 1.0)
        grow = True
        y, t = y_new, t_new
        K[0] = K[6]
    return _trajectory(p, rule, cfg, fields, rows, steps=accepted,
                       rejected=rejected,
                       rhs_evals=1 + 6 * (accepted + rejected))


def _run_rk4(p, rule, cfg, y0, counts, rhs, record, fields):
    """The fixed-step RK4 loop of the accelerated mode over the stacked
    state y0 = (x0, v0), recording after each step count in counts.
    rhs(y, t) is the right-hand side; record(t, y) returns rhs(y, t), the
    next step's k1, and the row of recorded values named by fields."""
    n = p.n
    lo, hi = _guard_bounds(p, y0.size)
    t0, dt, steps = cfg.t0, cfg.dt, counts[-1]
    half = 0.5 * dt
    sixth = dt / 6.0

    y = y0
    k1, row = record(t0, y)
    rows = [row]
    q, taken, evals = 1, steps, 4 * steps + 1
    for k in range(steps):
        t = t0 + k * dt
        k2 = rhs(y + half * k1, t + half)
        k3 = rhs(y + half * k2, t + half)
        k4 = rhs(y + dt * k3, t + dt)
        y_new = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        t = t0 + (k + 1) * dt
        _guard(y_new, t, lo, hi, p)
        # t enters a step only as the damping factor of a stage velocity,
        # so with every stage velocity zero the step is the same at all t.
        if y_new.tobytes() == y.tobytes() and not (
                k1[:n].any() or k2[:n].any() or k3[:n].any() or k4[:n].any()):
            # y is an exact fixed point: record it at every step count
            # stepping would still have reached
            rows.extend(record(t0 + j * dt, y)[1] for j in counts[q:])
            taken, evals = k + 1, 4 * (k + 1)
            break
        y = y_new
        if k + 1 == counts[q]:
            k1, row = record(t, y)
            rows.append(row)
            q += 1
        else:
            k1 = rhs(y, t)
    return _trajectory(p, rule, cfg, fields, rows, steps=taken, rejected=0,
                       rhs_evals=evals)


def _balanced_record(p, gens, x):
    """f(x); the weights w, the point d = w @ G and the norm ||d|| of the
    min-norm point of C_alpha(x), whose negative -d is the balanced
    direction; and the unscaled criticality at x."""
    graw = p._grads(x)
    w, d, norm = _min_norm(gens(graw))
    return p._value(x), w, d, norm, _min_norm(graw)[2]


def integrate_first_order(p, rule, x0, cfg):
    """Adaptive Dormand-Prince 5(4) integration of
    xdot = -proj_{C_alpha(x,t)}(0) from x0."""
    if cfg.mode != "first_order":
        raise InvalidInputError("integrate_first_order needs mode='first_order'")
    x0, counts = _prepare(p, x0, cfg)
    # Unvalidated inner path: the error estimate catches non-finite stages
    # and the guard checks every accepted state.
    grads, gens = p._grads, generator_map(rule, p.m)

    def rhs(x, t):
        G = gens(grads(x))
        return -(_min_norm_weights(G) @ G)

    def record(t, x):
        f, w, d, speed, cu = _balanced_record(p, gens, x)
        # ||xdot|| is the scaled criticality in the first-order flow
        return -d, (t, x.copy(), f, speed, cu, speed, w)

    return _run_dp54(p, rule, cfg, x0, counts, rhs, record,
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
    x0, counts = _prepare(p, x0, cfg)
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

    return _run_rk4(p, rule, cfg, np.concatenate((x0, np.zeros(n))), counts,
                    rhs, record,
                    ("times", "states", "velocities", "f_values", "speeds",
                     "crit_unscaled", "crit_scaled", "energies", "weights"))
