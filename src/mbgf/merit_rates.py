"""Merit-function estimation, criticality measures, rate checks, Lyapunov monitors.

The merit function is u0(x) = sup_z min_i (f_i(x) - f_i(z)) (Tanabe, Fukuda
& Yamashita, Optimization 2023): nonnegative everywhere and zero exactly at
weak Pareto points.  The sup is attained inside any box containing
L(f, f(x)) because z outside that level set makes some f_i(z) > f_i(x) and
hence the inner min negative.  Both estimators return a certified interval
for u0: u0_certified by a grid over that box, for any problem, and
u0_bracket by a primal-dual bracket, for convex problems.  Points are read
by the problem's one point reader, Problem._check_input, as Problem.value
reads them.  u0_certified, u0_bracket and criticality take one point or a
(P, n) stack (for n = 1 also a (P,) vector of P points), and a stack gives
per point the bits of that point's own call: u0_certified(p, X, boxes, h)
and u0_bracket(p, X) are tuples of P MeritEstimates, from one grid walk
and one loop, and criticality(p, X) two (P,) arrays.  lyapunov_monitors
takes one point z.  RATE_BOUNDS states each rate theorem's constant and
bound curve once, and a row refuses a scaling rule or a problem its
theorem does not cover; rate_report is the one place a row meets the
series of a run it bounds.  Every grid here (u0_certified's
P grids, one per point, the eta = 0 gradient range's and V0's) is walked in
chunks of at most _CHUNK points by _box_grid, which raises GridBudgetError
before it builds grids of more than GRID_BUDGET points together.

Every monotone gate of a recorded run is a monitor of lyapunov_monitors
that reads monotone_excess: the largest per-record increase of a series
beyond a slack defined once here (MONITOR_SLACK for the Lyapunov monitors,
NESTING_SLACK for f-nesting, MERIT_SLACK for the discrete merit,
ENERGY_SLACK for the accelerated energies).  An excess <= 0 means the
series is nonincreasing within its slack.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateScalingError, GridBudgetError, InvalidInputError,
                     finite_reals)
from .geometry import _min_norm
from .scaling import generator_map, gradnorm_eta

GRID_BUDGET = 20_000_000
# grid points per chunk: 64 kB per float column, so a walk adds little to a
# run's peak memory (problem-sanity's 2001 scalar-pair grids, 114k points
# in all, raised it by 8 MB when walked as one chunk)
_CHUNK = 8192

# u0_bracket search: a weight lattice with _LATTICE + 1 points per edge, _ROUNDS
# zooms, and per zoom at most _ITERS FISTA steps, until none moves by _STILL
_LATTICE = 8
_ROUNDS = 5
_ITERS = 400
_STILL = 1e-13

RATE_SLACK = 0.05  # a rate check passes iff value / bound <= 1 + RATE_SLACK
# per-record slack of the Lyapunov monitors: 1e-6 (1 + |V_k|)
MONITOR_SLACK = 1e-6
# per-record slack of f-nesting along flows and iterates: 1e-9 (1 + |f_i|)
NESTING_SLACK = 1e-9
# absolute per-step slack of the discrete merit E(k)
MERIT_SLACK = 1e-9
# slack of the accelerated energies W_i: 1e-7 per unit time
ENERGY_SLACK = 1e-7


@dataclass(frozen=True)
class MeritEstimate:
    """u0(x) lies in [value, value + certified_error]; witness attains value."""

    value: float
    certified_error: float
    witness: np.ndarray


@dataclass(frozen=True)
class RateReport:
    name: str
    constant: float
    observed_sup: float
    slack: float
    verdict: str
    slope: float = field(default=float("nan"))


def _box_grid(box, counts):
    """The grid of counts[j] points on axis j of a box, or the grids of
    counts[k, j] points on axis j of box k of a stack of boxes, box after
    box and each in C order, as chunks (Z, k) of at most _CHUNK points: Z
    the (c, n) points and k the (c,) box index of each.  Axis values are
    np.linspace's, bit for bit.  Raises GridBudgetError before building
    anything if the grids have more than GRID_BUDGET points together.
    Counts may be floats, so a count too large for an integer is refused,
    not wrapped."""
    lo, hi = np.atleast_2d(box.lo), np.atleast_2d(box.hi)
    counts = np.broadcast_to(np.asarray(counts, dtype=float), lo.shape)
    total = float(np.prod(counts, axis=1).sum())
    if total > GRID_BUDGET:
        raise GridBudgetError(
            f"grid needs {total:.6g} points (> {GRID_BUDGET}); shrink the box, "
            "coarsen the grid, or use u0_bracket for convex problems",
            requested=total, budget=GRID_BUDGET)
    counts = counts.astype(np.int64)
    sizes = np.prod(counts, axis=1)
    ends = np.cumsum(sizes)
    first = ends - sizes
    # np.linspace(lo, hi, c)[i] is i * step + lo with step = (hi - lo) /
    # (c - 1), or (i / (c - 1)) * (hi - lo) + lo where step underflows to
    # 0, and its last point is hi; one point is 0 * (hi - lo) + lo
    delta = hi - lo
    div = np.maximum(counts - 1, 1).astype(float)
    step = delta / div
    flat = step == 0.0
    div, mul = np.where(flat, div, 1.0), np.where(flat, delta, step)
    last = np.where(counts > 1, counts - 1, -1)
    size = int(total)
    for start in range(0, size, _CHUNK):
        g = np.arange(start, min(start + _CHUNK, size))
        k = np.searchsorted(ends, g, side="right")
        rest = g - first[k]
        Z = np.empty((len(g), lo.shape[1]))
        for j in range(lo.shape[1] - 1, -1, -1):
            rest, i = np.divmod(rest, counts[k, j]) if j else (None, rest)
            Z[:, j] = np.where(i == last[k, j], hi[k, j],
                               i / div[k, j] * mul[k, j] + lo[k, j])
        yield Z, k


def u0_certified(p, x, box, h):
    """Grid maximum of z -> min_i(f_i(x) - f_i(z)) over a covering box.

    The box must contain L(f, f(x)).  The returned value underestimates the
    true sup by at most certified_error = M_region * h * sqrt(n) / 2, since
    the inner function is M_region-Lipschitz in z; the witness is the first
    grid point in C order that attains the value, or x when no point beats
    0 (z = x is always admissible and gives 0).

    x is one (n,) point with one box, which gives one MeritEstimate, or a
    (P, n) stack with a stack of P boxes, which gives a tuple of P of them;
    h is one spacing or one per point.  u0_certified(p, X, boxes, h)[k]
    equals u0_certified(p, X[k], boxes[k], h[k]) bit for bit: one _box_grid
    walks every grid, and the budget bounds their sum.
    """
    X, one = p._check_input(x, stack=True)
    H = finite_reals(h)
    if H is None or H.ndim > 1 or H.size not in (1, len(X)) or not np.all(H > 0):
        raise InvalidInputError(
            f"grid spacing h must be > 0, one or one per point, got {h!r}")
    H = np.broadcast_to(H, len(X))
    if box.n != p.n or box.lo.size != X.size:
        raise InvalidInputError(f"u0_certified needs one box in R^{p.n} per point")
    fx = p.value(X)
    counts = np.maximum(1.0, np.ceil((box.hi - box.lo).reshape(X.shape)
                                     / H[:, None]) + 1.0)
    best_val, best_z = np.zeros(len(X)), X.copy()
    for Z, k in _box_grid(box, counts):
        inner = (fx[k] - p._value(Z)).min(axis=-1)
        # each box's points in the chunk are one run of k; the first
        # maximum of a run replaces its box's running one if it is larger
        run = np.flatnonzero(np.diff(k, prepend=-1))
        top = np.maximum.reduceat(inner, run)
        ties = inner == np.repeat(top, np.diff(run, append=len(k)))
        at = np.minimum.reduceat(np.where(ties, np.arange(len(k)), len(k)), run)
        owner = k[run]
        gain = top > best_val[owner]
        best_val[owner[gain]] = top[gain]
        best_z[owner[gain]] = Z[at[gain]]
    err = p.grad_bound * H * np.sqrt(p.n) / 2.0
    ests = tuple(MeritEstimate(value=v, certified_error=e, witness=z)
                 for v, e, z in zip(best_val.tolist(), err.tolist(), best_z))
    return ests[0] if one else ests


def u0_bracket(p, x):
    """Certified bracket [L, U] of u0(x) for a convex problem.

    With B the box of L(f, f(x)), Sion's minimax theorem gives u0(x) =
    min over simplex weights lam of lam.f(x) - min_{z in B} lam.f(z).  The
    linearization at any zbar, minimized over B in closed form, bounds the
    inner minimum below, so every (lam, zbar) gives an upper bound U however
    far the search is from converging, and every zbar the lower bound
    L = min_i(f_i(x) - f_i(zbar)).  Returns value = L, its witness (x when
    L = 0) and certified_error = U - L.

    x is one (n,) point, which gives one MeritEstimate, or a (P, n) stack,
    which gives a tuple of P of them: u0_bracket(p, X)[k] equals
    u0_bracket(p, X[k]) bit for bit.  Each point keeps its own box, lattice
    zooms and stop test; a point that stops leaves the active rows.
    """
    X, one = p._check_input(x, stack=True)
    if p.convexity_class not in ("convex", "strongly_convex"):
        raise InvalidInputError(
            f"u0_bracket needs a convex problem, got {p.convexity_class!r}")
    fx = p.value(X)
    box = p.level_set_bound(fx).box
    fx = fx[:, None]
    lo, hi = box.lo[:, None], box.hi[:, None]
    lattice = np.array([w for w in np.ndindex(*[_LATTICE + 1] * p.m)
                        if sum(w) == _LATTICE], dtype=float) / _LATTICE
    P, rows = len(X), np.arange(len(X))
    lam = np.repeat(lattice[None], P, axis=0)
    z_best = np.clip(X[:, None], lo, hi)
    upper, lower, witness = np.full(P, np.inf), np.zeros(P), X.copy()
    for r in range(1, _ROUNDS + 1):
        # projected FISTA with gradient restart (O'Donoghue & Candes 2015)
        # on z -> lam_k . f(z) over each point's box, one row per lam_k, from
        # the point's z_best; a point stops when none of its rows moves by
        # _STILL, and its rows then stay at that Z
        Z_end = np.empty(lam.shape[:2] + (p.n,))
        act = rows
        step = 1.0 / (lam @ p.lipschitz)[..., None]
        lam_a, step_a, lo_a, hi_a = lam, step, lo, hi  # the active points'
        Z = Y = np.broadcast_to(z_best, Z_end.shape)
        T = np.ones(step.shape)
        for _ in range(_ITERS):
            G = np.einsum("akm,akmn->akn", lam_a, p._grads(Y))
            Z_new = np.clip(Y - step_a * G, lo_a, hi_a)
            D, Z = Z_new - Z, Z_new
            still = (np.abs(D).max(axis=(1, 2))
                     <= _STILL * (1.0 + np.abs(Z).max(axis=(1, 2))))
            if still.any():
                Z_end[act[still]] = Z[still]
                go = ~still
                act = act[go]
                if not act.size:
                    break
                Z, D, G, T, lam_a, step_a, lo_a, hi_a = (
                    v[go] for v in (Z, D, G, T, lam_a, step_a, lo_a, hi_a))
            T_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * T * T))
            restart = (G * D).sum(axis=2, keepdims=True) > 0.0
            Y = Z + np.where(restart, 0.0, (T - 1.0) / T_new) * D
            T = np.where(restart, 1.0, T_new)
        else:
            Z_end[act] = Z
        Z = Z_end
        F = p._value(Z)
        G = np.einsum("akm,akmn->akn", lam, p._grads(Z))
        U = ((lam * (fx - F)).sum(axis=2)
             - np.minimum(G * (lo - Z), G * (hi - Z)).sum(axis=2))
        j = np.argmin(U, axis=1)
        upper = np.where(U[rows, j] < upper, U[rows, j], upper)
        inner = (fx - F).min(axis=2)
        i = np.argmax(inner, axis=1)
        gain = inner[rows, i] > lower
        lower = np.where(gain, inner[rows, i], lower)
        witness[gain] = Z[rows, i][gain]
        # the next lattice spans two spacings of this one around lam[j]
        zoom = (2.0 / _LATTICE) ** r
        lam = np.maximum(lam[rows, j][:, None] + zoom * (lattice - 1.0 / p.m), 0.0)
        lam /= lam.sum(axis=2, keepdims=True)
        z_best = Z[rows, j][:, None]
    ests = tuple(MeritEstimate(value=lo_k, certified_error=max(up_k, lo_k) - lo_k,
                               witness=w)
                 for up_k, lo_k, w in zip(upper.tolist(), lower.tolist(), witness))
    return ests[0] if one else ests


def criticality(p, x, rule=None):
    """(unscaled, scaled) min-norm criticality measures at x.

    unscaled uses the raw gradient hull; scaled uses the gradient-norm
    balanced hull (eta = 0 by default).  x is one (n,) point, which gives
    two floats, or an (N, n) stack, which gives two (N,) arrays from one
    gradient call and two stacked min-norm solves, each entry equal to its
    point's own call bit for bit.  A degenerate scaling only affects the
    scaled figure; the raised error carries the unscaled value (the array
    for a stack).
    """
    X, one = p._check_input(x, stack=True)
    G = p.grads(X)
    unscaled = _min_norm(G)[2]
    if rule is None:
        rule = gradnorm_eta(0.0)
    try:
        Gs = generator_map(rule, p.m)(G)
    except DegenerateScalingError as e:
        e.unscaled_criticality = float(unscaled[0]) if one else unscaled
        raise
    scaled = _min_norm(Gs)[2]
    return (float(unscaled[0]), float(scaled[0])) if one else (unscaled, scaled)


def _series(v):
    # the one reader of the series a rate check or a monotone gate reads
    a = finite_reals(v)
    if a is None:
        raise InvalidInputError("series must be finite reals")
    return a


def fit_loglog_slope(ts, values):
    """Least-squares slope of log value vs log t over the final decade,
    excluding the first 10% of the horizon and nonpositive values."""
    ts, values = _series(ts), _series(values)
    t_max = ts.max()
    mask = (ts >= t_max / 10.0) & (ts >= ts.min() + 0.1 * (t_max - ts.min()))
    mask &= (values > 0) & (ts > 0)
    if mask.sum() < 2:
        return float("nan")
    A = np.vstack([np.log(ts[mask]), np.ones(mask.sum())]).T
    coef, *_ = np.linalg.lstsq(A, np.log(values[mask]), rcond=None)
    return float(coef[0])


def check_bound(ts, values, *, name, constant, bound_fn):
    """Compare a (t, value) series against a theoretical bound curve.

    bound_fn maps the time grid to the bound values; the verdict passes iff
    sup_t value/bound <= 1 + RATE_SLACK.  For min-over-prefix statements pass
    the running minimum as values.
    """
    ts, values = _series(ts), _series(values)
    if ts.shape != values.shape or ts.ndim != 1 or ts.size == 0:
        raise InvalidInputError("series must be matching 1-D arrays")
    bounds = np.asarray(bound_fn(ts), dtype=float)
    if np.any(bounds <= 0):
        raise InvalidInputError("bound curve must be positive on the series")
    observed = float((values / bounds).max())
    return RateReport(
        name=name, constant=float(constant), observed_sup=observed,
        slack=RATE_SLACK,
        verdict="pass" if observed <= 1.0 + RATE_SLACK else "fail",
        slope=fit_loglog_slope(ts, values))


def monotone_excess(values, rel, per_step=0.0):
    """Largest values[k+1] - values[k] beyond rel (1 + |values[k]|) + per_step.

    Differences run along axis 0, so an (N, m) series is checked per
    column; per_step may be an array broadcast against the differences.
    Returns 0.0 for fewer than two records.
    """
    values = _series(values)
    if len(values) < 2:
        return 0.0
    slack = rel * (1.0 + np.abs(values[:-1])) + per_step
    return float((np.diff(values, axis=0) - slack).max())


def lyapunov_monitors(run, which, z, p, rule):
    """The monotone_excess of named monitors on a recorded run (Trajectory
    or IterateSequence) of problem p under scaling rule.

    which: iterable from the flows' Lyapunov functions {"h", "convex",
    "strongly_convex", "accelerated"}, at MONITOR_SLACK; "nesting", each
    f_i, at NESTING_SLACK; "merit", the discrete E(k) = k min_i(f_i(x_k) -
    f_i(z)) + alpha_max / (2 s_min) ||x_k - z||^2 for z the final iterate,
    at MERIT_SLACK; "energy", the accelerated W_i, at ENERGY_SLACK.
    alpha_max is the rule's declared bound on p.  The convex and strongly
    convex monitors read the run's times, measured from the start of the
    flow at t = 0 as their theorems' time is; the accelerated one reads
    t + theta, the time of the damping r/(t + theta).  z must lie in the
    level set of the final record, within NESTING_SLACK (1 + |f_i|); it may
    be None when which names only nesting and energy.
    """
    which = tuple(which)
    if set(which) - {"nesting", "energy"}:
        z = p._check_input(z)
        if z.ndim != 1:
            raise InvalidInputError(
                f"z must be one point in R^{p.n}, got shape {z.shape}")
        fz = p.value(z)
        f_final = run.f_values[-1]
        if np.any(fz > f_final + NESTING_SLACK * (1.0 + np.abs(f_final))):
            raise InvalidInputError("z must lie in the level set of the final record")
        gaps = run.f_values - fz              # (N, m)
        d2 = ((run.states - z) ** 2).sum(axis=-1)

    gates = {}  # key -> the arguments of its monotone_excess
    for name in which:
        if name == "h":
            gates["h"] = 0.5 * d2, MONITOR_SLACK
        elif name == "convex":
            amax = rule.declared_bounds(p)[1]
            gates["convex_E"] = ((run.times / amax) * gaps.min(axis=-1)
                                 + 0.5 * d2, MONITOR_SLACK)
        elif name == "strongly_convex":
            amax = rule.declared_bounds(p)[1]
            gates["strongly_convex_W"] = (np.exp(run.times / amax)
                                          * (gaps.min(axis=-1) + 0.5 * d2),
                                          MONITOR_SLACK)
        elif name == "accelerated":
            if run.velocities is None:
                raise InvalidInputError("accelerated monitor needs recorded velocities")
            alphas = np.asarray(rule.values, dtype=float)
            theta = run.config.theta
            w = (run.times + theta)[:, None]
            shifted = 2.0 * (run.states - z) + w * run.velocities
            norm2 = 0.5 * (shifted ** 2).sum(axis=-1)
            E = (w ** 2) * gaps / alphas + norm2[:, None]
            for i in range(p.m):
                gates[f"accel_E_{i}"] = E[:, i], MONITOR_SLACK
            gates["accel_E_min"] = E.min(axis=-1), MONITOR_SLACK
        elif name == "nesting":
            gates["nesting"] = run.f_values, NESTING_SLACK
        elif name == "merit":
            if not hasattr(run, "s_min"):
                raise InvalidInputError("merit monitor needs an iterate sequence")
            amax = rule.declared_bounds(p)[1]
            gates["merit"] = (run.ks * gaps.min(axis=-1)
                              + amax / (2.0 * run.s_min) * d2, 0.0, MERIT_SLACK)
        elif name == "energy":
            gates["energy"] = (run.energies, 0.0,
                               ENERGY_SLACK * np.diff(run.times)[:, None])
        else:
            raise InvalidInputError(f"unknown monitor {name!r}")
    return {key: monotone_excess(*gate) for key, gate in gates.items()}


# -- rate bounds: row(p, rule, x0[, theta | s_min]) = (constant, bound_fn) on
# t or k; gap = min_i(f_i(x0) - inf f_i) and R the radius of L(f, f(x0))

def level_set_grad_range(p, x0):
    """Certified [lo, hi] of max_i ||grad f_i|| on L(f, f(x0)): all of L lies
    within hd, half a cell diagonal, of the 500^n box-grid points with f <=
    f(x0) + grad_bound hd, whose min and max widen by hd max_i lipschitz_i.
    The range is kept on p per start, so an instance walks each grid once."""
    key = ("level_set_grad_range", np.asarray(x0, dtype=float).tobytes())
    if key in p._memo:
        return p._memo[key]
    fx = p.value(x0)
    box = p.level_set_bound(fx).box
    hd = np.linalg.norm((box.hi - box.lo) / 499) / 2.0
    lo, hi = np.inf, -np.inf
    for Z, _ in _box_grid(box, [500] * p.n):
        keep = np.all(p._value(Z) <= fx + p.grad_bound * hd, axis=-1)
        g = np.linalg.norm(p._grads(Z[keep]), axis=-1).max(axis=-1)
        lo, hi = min(lo, g.min(initial=np.inf)), max(hi, g.max(initial=-np.inf))
    Lhd = p.lipschitz.max() * hd
    p._memo[key] = float(lo - Lhd), float(hi + Lhd)
    return p._memo[key]


def _refuse_unless(covered, row, needs, got):
    # a row's constant holds only for the rules and problems its theorem
    # states
    if not covered:
        raise InvalidInputError(f"rate row {row!r} needs {needs}, got {got}")


def _unit_weights(row, rule):
    _refuse_unless(rule.variant == "constant"
                   and bool(np.all(rule.values == 1.0)),
                   row, "constant weights all 1", rule.spec_string())


def _convex_problem(row, p):
    _refuse_unless(p.convexity_class != "nonconvex", row, "a convex problem",
                   f"{p.name} ({p.convexity_class})")


def _convex(p, rule, x0):
    """Convex flow, O(1/t): C = R^2 alpha_max."""
    _convex_problem("convex", p)
    R = p.level_set_bound(p.value(x0)).radius
    C = R ** 2 * rule.declared_bounds(p)[1]
    return C, lambda t: C / t


def _strongly_convex(p, rule, x0):
    """Strongly convex flow, unit weights and modulus, O(e^-t): C = gap + R^2.
    The sup of ||x0 - z||^2 / 2 may reach 2 R^2, so C errs strict."""
    _unit_weights("strongly-convex", rule)
    mu = p.strong_convexity
    _refuse_unless(mu is not None and bool(np.all(mu >= 1.0)),
                   "strongly-convex", "a declared strong convexity >= 1",
                   f"{p.name} ({None if mu is None else mu.tolist()})")
    fx = p.value(x0)
    C = float((fx - p.lower_bounds).min()) + p.level_set_bound(fx).radius ** 2
    return C, lambda t: C * np.exp(-t)


def _nonconvex(p, rule, x0):
    """Nonconvex flow, gradnorm scaling with eta > 0: running-min criticality
    O(1/sqrt(t)), C = gap."""
    _refuse_unless(rule.variant.startswith("gradnorm") and rule.eta > 0.0,
                   "nonconvex", "a gradnorm scaling with eta > 0",
                   rule.spec_string())
    C = float((p.value(x0) - p.lower_bounds).min())
    return C, lambda t: np.sqrt(C) / np.sqrt(rule.eta * t)


def _nonconvex_eta0(p, rule, x0):
    """The nonconvex rate at eta = 0 (unclamped gradnorm scaling): eta becomes
    m1 = max of max_i ||grad f_i|| on L(f, f(x0)), a certified upper bound,
    so it errs strict."""
    _refuse_unless(rule.variant == "gradnorm_eta" and rule.eta == 0.0,
                   "nonconvex-eta0", "gradnorm scaling with eta = 0",
                   rule.spec_string())
    gap = float((p.value(x0) - p.lower_bounds).min())
    m1 = level_set_grad_range(p, x0)[1]
    return m1, lambda t: np.sqrt(gap) / np.sqrt(m1 * t)


def _accelerated(p, rule, x0, theta):
    """Accelerated flow, unit weights, r >= 3: V0 = sup_z theta^2 min_i(f_i(x0)
    - f_i(z)) + 2 ||x0 - z||^2, an 800^n box-grid max <= the sup: errs strict."""
    _unit_weights("accelerated", rule)
    _convex_problem("accelerated", p)
    fx = p.value(x0)
    V0 = -np.inf
    for Z, _ in _box_grid(p.level_set_bound(fx).box, [800] * p.n):
        vals = (theta ** 2 * (fx - p._value(Z)).min(axis=-1)
                + 2.0 * ((Z - np.asarray(x0)) ** 2).sum(axis=-1))
        V0 = max(V0, float(vals.max()))
    return V0, lambda t: V0 / (t + theta) ** 2


def _discrete(p, rule, x0, s_min):
    """Discrete method, step floor s_min, O(1/k): C = alpha_max R^2 / s_min."""
    _convex_problem("discrete", p)
    R = p.level_set_bound(p.value(x0)).radius
    C = rule.declared_bounds(p)[1] / s_min * R ** 2
    return C, lambda k: C / k


RATE_BOUNDS = {"convex": _convex, "strongly-convex": _strongly_convex,
               "nonconvex": _nonconvex, "nonconvex-eta0": _nonconvex_eta0,
               "accelerated": _accelerated, "discrete": _discrete}


def rate_report(name, row, p, rule, x0, run):
    """The RateReport, under name, of RATE_BOUNDS[row] on the series it
    bounds, read off the run from k >= 1, or from t >= 1 since the flow's
    start at t = 0, on: the running minimum of crit_scaled for nonconvex and
    nonconvex-eta0, and min_i(f_i - inf f_i), an upper bound on u0, for
    discrete (at run.s_min).
    A window with no record, as when the discrete method stops at a
    critical start before k = 1, passes with observed_sup 0.  So does a
    zero bound curve, the row's bound at a start where an objective sits at
    its lower bound, on a series of zeros; a positive value fails it, with
    observed_sup inf."""
    if row == "discrete":
        C, bound = RATE_BOUNDS[row](p, rule, x0, run.s_min)
        ts = np.asarray(run.ks, dtype=float)
        values = (run.f_values - p.lower_bounds).min(axis=1)
    elif row in ("nonconvex", "nonconvex-eta0"):
        C, bound = RATE_BOUNDS[row](p, rule, x0)
        ts = run.times
        values = np.minimum.accumulate(run.crit_scaled)
    else:
        raise InvalidInputError(f"rate row {row!r} is checked on u0, not on a "
                                "series of the run")
    keep = ts >= 1.0
    ts, values = ts[keep], values[keep]
    if not ts.size or not np.any(bound(ts)):
        observed = float("inf") if np.any(values > 0.0) else 0.0
        return RateReport(name=name, constant=float(C), observed_sup=observed,
                          slack=RATE_SLACK,
                          verdict="pass" if observed == 0.0 else "fail")
    return check_bound(ts, values, name=name, constant=C, bound_fn=bound)
