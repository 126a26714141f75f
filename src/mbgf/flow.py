"""Integration of the balanced gradient flows.

First-order mode integrates xdot = -proj_{C_alpha(x,t)}(0); accelerated mode
integrates the damped second-order system

    xddot + r/(t+theta) xdot + proj_{C_alpha(x)}(-xddot) = 0

as a first-order system in the stacked state y = (x, v), started at rest
(v = 0).  A mode supplies only its right-hand side.  Both modes run on one
stepping loop, the embedded Dormand-Prince 5(4) pair with step-size control
(Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6), and share the
divergence guard and the Trajectory assembly.  The loop keeps only the
recorded times and states.  Every recorded diagnostic then comes from one
stacked record pass over all K records, _diagnostics, which the discrete
method shares: one value and one grads call on the (K, n) stack of
recorded states and two minimum-norm solves on (K, m, n) stacks, plus, for
an accelerated pair, the central-difference grads call of its sliding
records.  Each record's values equal those of the record alone bit for bit.
Every flow starts at t = 0, the time of the paper's rates: in the
accelerated system theta is the clock shift, through the damping
r/(t + theta), and the first-order flow does not read t.  Both record at
j dt for j = 0, record_every, 2 record_every, ... and at the last step
count j = round(t_end / dt).  dt sets that grid and the first trial step,
not a step bound.  Records between step ends come from the pair's
4th-order dense output; the last is the end of the last step, where
stepping stops.  At a fixed point every stage is zero, so the
error estimate is zero and every record repeats the first bit for bit.
One point takes ndarray.dot, a stack takes @: the same BLAS routine, the
same bits (geometry._dot has the rule).
Every run is held by one stall guard: where the right-hand side is not
regular enough for a trajectory to exist, the flow chatters with steps of
about 1e-9, and the run stops with NoConvergenceError at its
CHATTER_STEPS-th accepted step shorter than CHATTER_STEP times the window.
A run that needs steps that short throughout would take more than about
1e8 steps, so no run that finishes in practice trips the guard.

The first-order right-hand side is the negated minimum-norm point of the
scaled hull, from geometry._min_norm, the kernel every other minimum-norm
point comes from.  It is Lipschitz and smooth away from switches of the
projection's active set: the error estimate shrinks the step at a switch
and lets it grow where the flow is smooth.

The accelerated right-hand side jumps wherever the support face of the
hull switches, so the system is a differential inclusion (Filippov,
Differential Equations with Discontinuous Righthand Sides, 1988).  For a
pair (m = 2), with u_i = g_i / alpha_i and delta = u_1 - u_2, the sign of
the switching function sigma(x, v) = <v, delta> picks the support point:
u_1 where sigma > 0 and u_2 where sigma < 0.  Each of three regimes has a
smooth right-hand side: c = u_1, c = u_2, and sliding on sigma = 0 with
c = lambda u_1 + (1 - lambda) u_2 and the equivalent control

    lambda = (-<b + u_2, delta> + <v, D delta v>) / |delta|^2,

b = r/(t+theta) v, which keeps d sigma/dt = 0.  D delta v, the derivative
of delta along v, comes from a central difference of the gradients, paid
only while sliding.  Sliding lasts while lambda is in [0, 1] and leaves
past either end to that end's side.  When an accepted step ends outside
its regime, the crossing is located on the step's dense output, the step
is cut there, and stepping restarts at that point in the next regime:
sliding if lambda is in [0, 1] there, else across the surface.  From rest
sigma = 0, and the first regime is the one of lambda at the start, where
it is the unclamped minimum-norm weight of the hull.  For other m the
right-hand side and its record weights take the support point from
geometry._support_weights, with its minimum-norm tie rule, and a run that
slides along a face chatters between support points until the stall guard
stops it.  Starts are read by the problem's point reader,
Problem._check_input, as one point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergenceError, InvalidInputError, NoConvergenceError,
                     NumericDomainError, finite_real, is_count)
from .geometry import (_dot, _min_norm, _pair_weights, _proper,
                       _support_weights)
from .scaling import generator_map

DIVERGENCE_SLACK = 0.1  # fraction of the region diameter a state may overshoot
# Error tolerance of a step: the RMS over components of the local error
# estimate divided by TOL (1 + max(|y|, |y_new|)) must be <= 1.
TOL = 1e-11
# A pair's regime c = u_1 (s = 1) or c = u_2 (s = -1) holds while
# s sigma >= -SIGMA_BAND (1 + |v| |delta|), so rounding alone never ends it.
SIGMA_BAND = 1e-10
# Central-difference step of D delta v along v, relative to 1 + |x|.
FD_STEP = 1e-5
# Event location stops when the bracket is this narrow, in units of the step.
ROOT_TOL = 1e-13
# The stall guard of every run.  Where the right-hand side jumps and no
# sliding rule holds the flow on the surface (an accelerated run with
# m >= 3 on a face of the hull, or a gradient that jumps), the flow
# chatters with steps of about 1e-9, which the error control sets from TOL
# and the jump, not from the flow's time scale.  A lone switch takes a few
# steps that short too, so a run stops with NoConvergenceError only at its
# CHATTER_STEPS-th accepted step shorter than CHATTER_STEP times the
# window.  A run that needs such steps throughout would take more than
# 1 / CHATTER_STEP = 1e8 steps, so the guard stops no run that would end.
CHATTER_STEP = 1e-8
CHATTER_STEPS = 1000

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


@dataclass(frozen=True)
class FlowConfig:
    """Integration window and mode.

    Every flow runs from t = 0 to t_end.  mode is "first_order" or
    "accelerated".  Records are taken every record_every multiples of dt.
    dt is also the first trial step of the adaptive pair, which then sizes
    its own steps in both modes.  r and theta only apply to the accelerated
    system, which starts at rest; theta > 0 is its clock shift, the damping
    being r/(t + theta) (r >= 3 is the regime the rate theory covers,
    smaller values run but void the guarantees).
    """

    t_end: float
    dt: float = 1e-3
    mode: str = "first_order"
    r: float = 3.0
    theta: float = 1.0
    record_every: int = 1
    # Not a field: the start time of every flow, kept for code that
    # computes the window as t_end - t0, as perfbench/tracing.py does.
    t0 = 0.0


def _check_config(cfg):
    # in turn: t_end, dt, record_every, and in accelerated mode r and theta
    names = ("t_end", "dt", "record_every") + (
        ("r", "theta") if cfg.mode == "accelerated" else ())
    for name in names:
        v = getattr(cfg, name)
        if name == "record_every":
            if not (is_count(v) and v >= 1):
                raise InvalidInputError("record_every must be an integer >= 1")
        elif (v := finite_real(v)) is None or v <= 0.0:
            raise InvalidInputError(f"{name} must be a positive real")


class Trajectory:
    """Recorded flow data.

    times (K,), states (K, n), velocities (K, n) in accelerated mode else
    None, and per-record diagnostics: f_values (K, m), speeds ||xdot||,
    crit_unscaled ||proj_{conv grad f_i}(0)||, crit_scaled ||proj_{C_alpha}(0)||,
    energies W_i = f_i + (alpha_i/2)||xdot||^2 (accelerated only, else
    None), weights of the active projection.

    times are measured from the start of the flow, t = 0, the time of the
    rate theorems.

    work maps each work count, deterministic for a given input, to its
    value: steps accepted, steps rejected by the error control, and
    rhs_evals = 1 + 6 (steps + rejected), the stage evaluations of the
    stepping loop, the first of them at t = 0.  The records add a fixed
    number of oracle calls, whatever their number: one value and one grads
    call on the stack of recorded states, and for an accelerated pair one
    more grads call on the central differences of the sliding records that
    have left rest.  An accelerated run adds switches, the located regime
    changes of a pair (sliding entries, sliding exits and crossings of
    sigma = 0), 0 for other m.  A located switch also evaluates the
    switching function on the dense output and the right-hand side at the
    restart point, outside the stage count.
    """

    __slots__ = ("times", "states", "velocities", "f_values", "speeds",
                 "crit_unscaled", "crit_scaled", "energies", "weights",
                 "work", "mode", "problem_name", "config")

    def __init__(self, **kw):
        # a slot left out, as velocities on a first-order run, is None
        for k in self.__slots__:
            setattr(self, k, kw.pop(k, None))
        if kw:
            raise TypeError(f"unexpected fields: {sorted(kw)}")

    def __len__(self):
        return self.times.size

    def __repr__(self):
        return (f"Trajectory({self.problem_name}, {self.mode}, "
                f"{len(self)} records, t in [{self.times[0]:g}, {self.times[-1]:g}])")


def _check_start(p, x0):
    """x0 read by p's point reader as one point inside p's region."""
    x0 = p._check_input(x0)
    if x0.ndim != 1:
        raise InvalidInputError(f"x0 must be a finite vector of length {p.n}")
    if not p.region.contains(x0):
        raise InvalidInputError(f"x0 {x0.tolist()} outside the region of {p.name}")
    return x0


def _prepare(p, x0, cfg):
    x0 = _check_start(p, x0)
    _check_config(cfg)
    steps = cfg.t_end / cfg.dt
    if not 0.5 < steps < math.inf:  # rounds to a count of at least 1
        raise InvalidInputError("integration window must hold 1 to finitely "
                                f"many steps of dt, got {steps:g}")
    steps = round(steps)
    # the recorded step counts: every record_every-th and the last
    return x0, [*range(0, steps, cfg.record_every), steps]


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
    if all(((lo <= y) & (y <= hi)).tolist()):
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


def _trajectory(p, cfg, work, **columns):
    return Trajectory(mode=cfg.mode, problem_name=p.name, config=cfg,
                      work=work, **columns)


def _diagnostics(p, gens, X):
    """The recorded diagnostics of a (K, n) stack of states X under the
    generator map gens: f (K, m), the unscaled criticality (K,), the scaled
    generators G (K, m, n), and the min-norm weights (K, m) and norms (K,)
    of their hulls, the scaled criticality.  One value call, one gradient
    call and two stacked minimum-norm solves; every row equals its state's
    values alone bit for bit."""
    graw = p._grads(X)
    G = gens(graw)
    w, _, crit_scaled = _min_norm(G)
    return p._value(X), _min_norm(graw)[2], G, w, crit_scaled


def _dense_output(y, y_new, h, K):
    """The pair's 4th-order interpolant on the step from y to y_new, as a
    function of the step fraction th: y + th (dy + (1-th) (b + th (c +
    (1-th) d)))."""
    dy = y_new - y
    b = h * K[0] - dy
    c = dy - h * K[6] - b
    d = h * _DP_D.dot(K)

    def at(th):
        th1 = 1.0 - th
        return y + th * (dy + th1 * (b + th * (c + th1 * d)))
    return at


def _run_dp54(p, cfg, y0, counts, rhs, events=None):
    """The adaptive Dormand-Prince 5(4) loop from t = 0, recording at j dt
    for each step count j in counts.  rhs(y, t) is the right-hand side; its
    value at (y0, 0) is the first stage, and every later step takes its
    first stage from the last stage of the step before.  Returns the record
    times (K,), the recorded states (K, y0.size), the regime of events at
    each record (None without events) and the work counts, a dict; the modes
    compute their recorded diagnostics from these in one stacked pass.

    events, when given, switches the right-hand side between smooth
    regimes: events.regime is the current one; events.left() tells whether
    the last stage, K[6] at the end of the accepted step, lies outside it;
    events.locate(dense, t, h) returns the step fraction of the crossing
    on the step's dense output; and events.switch(y, t) changes regime
    there and returns the new right-hand side, which starts the next step.

    Every run is held by the stall guard: it stops with NoConvergenceError
    at its CHATTER_STEPS-th accepted step shorter than CHATTER_STEP times
    the window.  A run that needed steps that short throughout would take
    more than about 1e8 steps.  A non-finite error estimate stops a run
    with NumericDomainError, which names the state or the velocity when
    that is non-finite, else the error estimate.
    """
    lo, hi = _guard_bounds(p, y0.size)
    times = [j * cfg.dt for j in counts]
    record_times = np.array(times)
    t_end = times[-1]
    h_min = math.ulp(t_end)
    floor = CHATTER_STEP * t_end
    short = 0  # accepted steps shorter than floor, the last excluded
    A, C, E = _DP_A, _DP_C, _DP_E

    K = np.empty((7, y0.size))
    heads = [K[:i] for i in range(7)]  # the stage views, built once
    K[0] = rhs(y0, 0.0)
    ys = [y0]
    regimes = None if events is None else [events.regime]
    y, t, h = y0, 0.0, cfg.dt
    q, accepted, rejected = 1, 0, 0
    grow = True  # False on the step after a rejection
    while True:
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        # stage 1 has one weight: @, as geometry._dot says
        K[1] = rhs(y + h * (A[1] @ K[:1]), t + C[1] * h)
        for i in range(2, 6):
            K[i] = rhs(y + h * A[i].dot(heads[i]), t + C[i] * h)
        y_new = y + h * A[6].dot(heads[6])
        t_new = t_end if last else t + h
        K[6] = rhs(y_new, t_new)
        e = (h * E.dot(K)) / (TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new))))
        err = math.sqrt(float(e.dot(e)) / e.size)
        if not err <= 1.0:
            if not math.isfinite(err):
                if not np.isfinite(y_new).all():
                    _guard(y_new, t_new, lo, hi, p)  # fails on NaN and inf
                raise NumericDomainError(
                    f"non-finite error estimate at t = {t_new:.6g}")
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            grow = False
            if h <= h_min:
                raise NoConvergenceError(
                    f"step size underflow ({h:.3g}) at t = {t:.17g}")
            continue
        accepted += 1
        if h < floor and not last:
            short += 1
            if short == CHATTER_STEPS:
                raise NoConvergenceError(
                    f"steps chatter: {short} accepted steps shorter than "
                    f"{floor:.3g} by t = {t + h:.6g}")
        dense = None
        switch = events is not None and events.left()
        if switch:
            # cut the step where it leaves its regime
            dense = _dense_output(y, y_new, h, K)
            th = events.locate(dense, t, h)
            if th < 1.0:
                t_new, y_new, last = t + th * h, dense(th), False
        _guard(y_new, t_new, lo, hi, p)
        if times[q] <= t_new:
            # every record on this step from one dense-output call
            dense = dense or _dense_output(y, y_new, h, K)
            q0 = q
            while q < len(times) and times[q] <= t_new:
                q += 1
            tq = record_times[q0:q]
            block = dense(((tq - t) / h)[:, None])
            block[tq == t_new] = y_new
            ys.extend(block)
            if regimes is not None:
                regimes.extend([events.regime] * (q - q0))
        if last:
            break
        if switch:
            K[6] = events.switch(y_new, t_new)
        fac = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        h *= fac if grow else min(fac, 1.0)
        grow = True
        y, t = y_new, t_new
        K[0] = K[6]
    return record_times, np.array(ys), regimes, dict(
        steps=accepted, rejected=rejected,
        rhs_evals=1 + 6 * (accepted + rejected))


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
        return -_min_norm(gens(grads(x)))[1]

    times, X, _, work = _run_dp54(p, cfg, x0, counts, rhs)
    f, crit, _, w, speed = _diagnostics(p, gens, X)
    # ||xdot|| is the scaled criticality in the first-order flow
    return _trajectory(p, cfg, work, times=times, states=X, f_values=f,
                       speeds=speed, crit_unscaled=crit, crit_scaled=speed,
                       weights=w)


_FD_ROWS = np.array([[0.0], [1.0], [-1.0]])


def _sliding_weight(grads, gens, x, v, k):
    """The generators U of a pair at x, delta = U[0] - U[1], and the
    equivalent control lambda = (-<b + u_2, delta> + <v, D delta v>) /
    |delta|^2 with b = k v, which keeps d<v, delta>/dt = 0.

    D delta v comes from a central difference of the gradients at
    x +- e v, with |e v| = FD_STEP (1 + |x|), evaluated in one stacked
    oracle call with x itself.  At v = 0 it is zero and x alone is
    evaluated, as it is at an infinite v, where the field is not finite.
    A degenerate delta, whose |delta|^2 is below the smallest normal
    float (geometry._proper), gives lambda = 1, as the min-norm
    weights of a zero-length segment do.
    """
    vv = float(v.dot(v))
    if 0.0 < vv < math.inf:
        e = FD_STEP * (1.0 + math.sqrt(float(x.dot(x)))) / math.sqrt(vv)
        U3 = gens(grads(x + (e * _FD_ROWS) * v))  # x, x + e v, x - e v
        D3 = U3[:, 0] - U3[:, 1]
        # sigma = <v, delta> and <v, delta> ahead of and behind x
        sigma, ahead, behind = D3.dot(v).tolist()
        U, delta = U3[0], D3[0]
        num = (ahead - behind) / (2.0 * e) - k * sigma
    else:
        U = gens(grads(x))
        delta = U[0] - U[1]
        num = -k * float(v.dot(delta))
    num -= float(U[1].dot(delta))
    dd = float(delta.dot(delta))
    return U, delta, num / dd if _proper(dd) else 1.0


def _sliding_weights(grads, gens, G, X, V, k):
    """The lambda of _sliding_weight at every row of the (K, n) stacks X and V,
    with generators G (K, 2, n) at X and damping coefficients k (K,), bit
    for bit the value of each row alone.  The central differences of the
    rows with 0 < |v| < inf take one oracle call on a (K', 3, n) stack."""
    vv = _dot(V, V)
    fd = (0.0 < vv) & (vv < math.inf)
    U, delta = G[:, 1].copy(), G[:, 0] - G[:, 1]
    num = -k * _dot(V, delta)
    if fd.any():
        x, v = X[fd], V[fd]
        e = FD_STEP * (1.0 + np.sqrt(_dot(x, x))) / np.sqrt(vv[fd])
        U3 = gens(grads(x[:, None] + (e[:, None, None] * _FD_ROWS) * v[:, None]))
        D3 = U3[:, :, 0] - U3[:, :, 1]
        sigma, ahead, behind = (D3 @ v[:, :, None])[:, :, 0].T
        num[fd] = (ahead - behind) / (2.0 * e) - k[fd] * sigma
        U[fd], delta[fd] = U3[:, 0, 1], D3[:, 0]
    num -= _dot(U, delta)
    dd = _dot(delta, delta)
    return np.divide(num, dd, out=np.ones_like(dd), where=_proper(dd))


_VERTICES = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class _SlidingPair:
    """The accelerated system of a pair (m = 2) as a Filippov system.

    regime is 1 (c = u_1), -1 (c = u_2) or 0 (sliding on sigma = 0); it is
    None until the evaluation at t = 0 picks it.  rhs() gives the right-hand side
    in the current regime and keeps the probe of its point, lambda while
    sliding and else (v, U), so after a step the probe is the one of the
    step's last stage, its end.
    """

    def __init__(self, p, gens, r, theta):
        self.n, self.grads, self.gens = p.n, p._grads, gens
        self.r, self.theta = r, theta
        self.regime = None
        self.switches = 0
        self._probe = None

    def rhs(self, y, t):
        n = self.n
        x, v = y[:n], y[n:]
        k = self.r / (t + self.theta)
        b = k * v
        if not self.regime:
            U, delta, lam = _sliding_weight(self.grads, self.gens, x, v, k)
            if self.regime is None:
                # from rest sigma = 0, and lambda is the unclamped min-norm
                # weight of the hull
                self.regime = 1 if lam > 1.0 else -1 if lam < 0.0 else 0
            if self.regime == 0:
                self._probe = lam
                return np.concatenate((v, -(b + (U[1] + lam * delta))))
        else:
            U = self.gens(self.grads(x))
        self._probe = (v, U)
        return np.concatenate((v, -(b + U[0 if self.regime > 0 else 1])))

    def weights(self, G, T, X, V, regimes):
        """The weights of the recorded states X, V at times T, with
        generators G, in their recorded regimes: the vertex of their side,
        or lambda clamped to [0, 1] while sliding."""
        regimes = np.array(regimes)
        w = np.where((regimes > 0)[:, None], _VERTICES[0], _VERTICES[1])
        sliding = regimes == 0
        if sliding.any():
            lam = _sliding_weights(self.grads, self.gens, G[sliding],
                                   X[sliding], V[sliding],
                                   self.r / (T[sliding] + self.theta))
            w[sliding] = _pair_weights(lam)
        return w

    def left(self):
        """Whether the last stage, the step's end, lies outside the regime."""
        if self.regime:
            v, U = self._probe
            delta = U[0] - U[1]
            band = SIGMA_BAND * (1.0 + math.sqrt(float(v.dot(v)) * float(delta.dot(delta))))
            return self.regime * float(v.dot(delta)) < -band
        return not 0.0 <= self._probe <= 1.0

    def locate(self, dense, t, h):
        """The step fraction where the step's dense output leaves the
        regime: the first point past the root of s sigma, or of lambda or
        1 - lambda, by Illinois regula falsi from the step's start to the
        last evaluated point, its end.  The start is in the regime, since
        the step before ended there, except for a regime +-1 start that
        rounding put inside the band; that one switches at once."""
        n, s = self.n, self.regime
        if s:
            v, U = self._probe
            g_hi = s * float(v.dot(U[0] - U[1]))

            def g(th):
                y = dense(th)
                U = self.gens(self.grads(y[:n]))
                return s * float(y[n:].dot(U[0] - U[1]))
        else:
            high = self._probe > 1.0
            g_hi = 1.0 - self._probe if high else self._probe

            def g(th):
                y = dense(th)
                lam = _sliding_weight(self.grads, self.gens, y[:n], y[n:],
                                      self.r / (t + th * h + self.theta))[2]
                return 1.0 - lam if high else lam
        g_lo = g(0.0)
        if not g_lo >= 0.0:
            return 0.0
        return _illinois(g, g_lo, g_hi)

    def switch(self, y, t):
        """Change regime at a located crossing; the right-hand side there."""
        n = self.n
        lam = _sliding_weight(self.grads, self.gens, y[:n], y[n:],
                              self.r / (t + self.theta))[2]
        if self.regime:
            # reached sigma = 0: slide if lambda holds it there, else cross
            self.regime = 0 if 0.0 <= lam <= 1.0 else -self.regime
        else:
            # lambda left [0, 1]: leave to the side of the end it passed
            self.regime = 1 if lam > 1.0 else -1
        self.switches += 1
        return self.rhs(y, t)


def _illinois(g, g_lo, g_hi):
    """The first point past the root of g on [0, 1], where g(0) = g_lo >= 0
    and g(1) = g_hi < 0: the upper end of a bracket narrowed below ROOT_TOL
    by the Illinois variant of regula falsi."""
    lo, hi = 0.0, 1.0
    kept = 0  # which end was kept last: -1 lower, 1 upper
    while hi - lo > ROOT_TOL:
        th = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < th < hi:
            th = 0.5 * (lo + hi)
        gt = g(th)
        if gt >= 0.0:
            lo, g_lo = th, gt
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = th, gt
            if kept == -1:
                g_lo *= 0.5
            kept = -1
    return hi


def integrate_accelerated(p, rule, x0, cfg):
    """Adaptive Dormand-Prince 5(4) integration of the damped accelerated
    system from x0 at rest.

    Restricted to constant scaling rules; the damping coefficient is
    r/(t + theta).  A pair (m = 2) runs as a Filippov system with a located
    sliding rule, see the module docstring; other m take xddot in closed
    form from the support point with its minimum-norm tie rule.  Like every
    run, it raises NoConvergenceError when its steps chatter, as a run
    that slides along a face of the hull with m >= 3 does (CHATTER_STEPS);
    a run that needed steps that short throughout would take more than
    about 1e8 steps.
    """
    if cfg.mode != "accelerated":
        raise InvalidInputError("integrate_accelerated needs mode='accelerated'")
    if rule.variant != "constant":
        raise InvalidInputError("accelerated flow requires a constant scaling rule")
    x0, counts = _prepare(p, x0, cfg)
    n = p.n
    grads, gens = p._grads, generator_map(rule, p.m)
    r, theta = float(cfg.r), float(cfg.theta)
    half_alpha = 0.5 * np.asarray(rule.values, dtype=float)

    if p.m == 2:
        events = _SlidingPair(p, gens, r, theta)
        rhs = events.rhs
    else:
        events = None

        def rhs(y, t):
            v = y[n:]
            b = (r / (t + theta)) * v
            c = _support_weights(gens(grads(y[:n])), b)[2]
            return np.concatenate((v, -(b + c)))

    times, Y, regimes, work = _run_dp54(
        p, cfg, np.concatenate((x0, np.zeros(n))), counts, rhs, events)
    X, V = Y[:, :n].copy(), Y[:, n:].copy()
    f, crit, G, _, crit_scaled = _diagnostics(p, gens, X)
    if events is None:
        b = (r / (times + theta))[:, None] * V
        w = np.array([_support_weights(Gk, bk)[1] for Gk, bk in zip(G, b)])
    else:
        w = events.weights(G, times, X, V, regimes)
    work["switches"] = 0 if events is None else events.switches
    speed2 = _dot(V, V)
    return _trajectory(p, cfg, work, times=times, states=X, velocities=V,
                       f_values=f, speeds=np.sqrt(speed2),
                       crit_unscaled=crit, crit_scaled=crit_scaled,
                       energies=f + half_alpha * speed2[:, None], weights=w)
