"""Bound-based verification suites behind `mbgf verify`.

Each suite re-derives its expected numbers from problem/rule metadata or an
independent brute-force oracle, runs the package code, and reports
{suite, seed, checks: [{name, observed, bound, slack, verdict}]} where a
check passes iff observed <= bound + slack.  Reports carry no wall-clock
data, so a fixed seed yields byte-identical JSON.  Every monotone gate of
a run is a monitor of merit_rates.lyapunov_monitors, at its slack there.

The min-norm oracle here is deliberately independent of the geometry
module: it enumerates every support subset of the generators and keeps
the smallest affine minimizer with nonnegative weights, which is exact up
to rounding for the m <= 5 hulls it is used on.  It takes a stack of hulls
of one (m, n) shape and solves each subset for the whole stack with one
batched least-squares (an SVD of the difference vectors), so
geometry-oracle calls it once per shape.  The test suite checks the
geometry module against this same oracle.
"""

import itertools

import numpy as np

from .discrete import DiscreteConfig, run_discrete
from .errors import ConfigError
from .flow import FlowConfig, integrate_accelerated, integrate_first_order
from .geometry import (_dot, _min_norm, certificate_tolerance,
                       certificate_violation, hausdorff_hull_distance)
from .merit_rates import (RATE_BOUNDS, RATE_SLACK, criticality,
                          level_set_grad_range, lyapunov_monitors,
                          monotone_excess, rate_report, u0_bracket,
                          u0_certified)
from .problems import get_problem, list_problems
from .scaling import (constant, gradnorm_eta, gradnorm_eta_clamped,
                      scaled_hull_generators)

DEFAULT_SEED = 0


def _check(name, observed, bound, slack=0.0):
    observed = float(observed)
    bound = float(bound)
    slack = float(slack)
    return {"name": name, "observed": observed, "bound": bound,
            "slack": slack,
            "verdict": "pass" if observed <= bound + slack else "fail"}


def suite_passed(report):
    return all(c["verdict"] == "pass" for c in report["checks"])


def format_report(report):
    """Human-readable table for one suite report."""
    checks = report["checks"]
    width = max(len(c["name"]) for c in checks) if checks else 4
    lines = [f"suite {report['suite']} (seed {report['seed']})"]
    for c in checks:
        lines.append(f"  {c['verdict']:<4s}  {c['name']:<{width}s}  "
                     f"observed {c['observed']:>13.6g}  "
                     f"bound {c['bound']:>13.6g}  slack {c['slack']:g}")
    n_pass = sum(c["verdict"] == "pass" for c in checks)
    lines.append(f"  {n_pass}/{len(checks)} checks passed")
    return "\n".join(lines)


# -- shared helpers --------------------------------------------------------

def _checkpoint_indices(times, targets):
    """Distinct indices of the first record at or after each target time,
    the last record standing in for targets past the end."""
    return np.unique(np.minimum(np.searchsorted(times, targets), times.size - 1))


def _descent(tr, alphas):
    """Worst descent-inequality violation, with the conservative endpoint
    minimum of min_i alpha_i and ||xdot||^2 on each recorded interval and
    slack 1e-6 (1 + ||xdot||^2)."""
    if len(tr) < 2:
        return 0.0
    dt = np.diff(tr.times)[:, None]
    dfdt = np.diff(tr.f_values, axis=0) / dt
    v2 = np.minimum(tr.speeds[:-1], tr.speeds[1:]) ** 2
    amin = np.minimum(alphas[:-1].min(axis=-1), alphas[1:].min(axis=-1))
    return float(((amin * v2)[:, None] + dfdt - 1e-6 * (1.0 + v2)[:, None]).max())


def _flow_sanity_checks(tag, tr, p, rule, checks):
    desc = _descent(tr, rule.alpha(p, tr.states))
    nest = lyapunov_monitors(tr, ("nesting",), None, p, rule)["nesting"]
    checks.append(_check(f"{tag}-descent-violation", desc, 0.0))
    checks.append(_check(f"{tag}-nesting-violation", nest, 0.0))


def _merit_checks(p, points, bounds, rate_name, run, checks):
    """Check max U / bound of the u0 brackets at the points against 1, and
    max (U - L) / bound against RATE_SLACK.  Returns the brackets."""
    ests = u0_bracket(p, points)
    rate = max((e.value + e.certified_error) / b for e, b in zip(ests, bounds))
    gap = max(e.certified_error / b for e, b in zip(ests, bounds))
    checks.append(_check(rate_name, rate, 1.0, RATE_SLACK))
    checks.append(_check(f"{run}-merit-gap-ratio", gap, RATE_SLACK))
    return ests


# -- independent min-norm oracle -------------------------------------------

def _combine(c, A):
    # sum_j c[:, j] A[:, j] for a (B, K) stack of coefficients and a
    # (B, K, N) stack of rows, summed term by term in index order, so that
    # a row has the same bits in a stack of any size
    out = c[:, 0, None] * A[:, 0]
    for j in range(1, c.shape[1]):
        out = out + c[:, j, None] * A[:, j]
    return out


def _lstsq(A, y):
    # the minimum-norm least-squares solution of A_b c = y_b for each matrix
    # of a (B, M, N) stack, from its SVD with lstsq's default cutoff stated
    # outright: singular values <= eps * max(M, N) * s_max count as zero,
    # and so do subnormal ones, whose reciprocal can overflow (a direction
    # that short moves no candidate by more than it)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cut = np.maximum(np.finfo(float).eps * max(A.shape[1:]) * s[:, :1],
                     np.finfo(float).tiny)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    return _combine(inv * _combine(y, u), vt)


def _exact_min_norm(G):
    """min_w ||w @ G|| over the simplex, by enumerating every support.

    G is one (m, n) hull, which gives a float, or a (B, m, n) stack of
    hulls, which gives an array of B values; a hull alone is the B = 1
    stack, and each row equals its hull's value bit for bit.  For each
    nonempty subset S of the rows, a0 = G[S[0]], D = G[S[1:]] - a0 and c
    solves min ||a0 + c @ D|| by least squares, one batched solve per
    subset over the whole stack; a0 + c @ D is a candidate iff its weights
    (1 - sum(c), c) are all >= -1e-12.  By Caratheodory the optimum is the
    affine minimizer of some affinely independent support with positive
    weights, so the smallest candidate norm is exact up to rounding.
    """
    G = np.asarray(G, dtype=float)
    one = G.ndim == 2
    if one:
        G = G[None]
    m = G.shape[1]
    best = np.full(G.shape[0], np.inf)
    for k in range(1, m + 1):
        for S in itertools.combinations(range(m), k):
            a0 = G[:, S[0]]
            if k == 1:
                x, ok = a0, True
            else:
                D = G[:, S[1:]] - a0[:, None]
                c = _lstsq(D.mT, -a0)
                x = a0 + _combine(c, D)
                # sum() over the columns adds them in index order, as
                # _combine does
                ok = np.minimum(1.0 - sum(c.T), c.min(axis=1)) >= -1e-12
            norm = np.sqrt(sum(x.T * x.T))
            best = np.where(ok & (norm < best), norm, best)
    return float(best[0]) if one else best


# -- suites -----------------------------------------------------------------

def _suite_problem_sanity(rng):
    checks = []
    for name in list_problems():
        p = get_problem(name)
        lo, hi = p.region.lo, p.region.hi
        outside = sum(0 if p.region.contains(s, slack=1e-12) else 1
                      for s in p.starts)
        checks.append(_check(f"{name}-starts-in-region", outside, 0.0))

        corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"),
                           axis=-1).reshape(-1, p.n)
        X = np.vstack([lo + rng.random((60, p.n)) * (hi - lo),
                       corners, np.stack(p.starts)])
        F = p.value(X)
        G = p.grads(X)

        fd = np.empty_like(G)
        h = 1e-6
        for j in range(p.n):
            e = np.zeros(p.n)
            e[j] = h
            fd[:, :, j] = (p.value(X + e) - p.value(X - e)) / (2.0 * h)
        rel = np.abs(fd - G).max(axis=-1) / (1.0 + np.linalg.norm(G, axis=-1))
        checks.append(_check(f"{name}-fd-gradient-error", rel.max(), 0.0, 1e-5))

        gmax = np.linalg.norm(G, axis=-1).max()
        checks.append(_check(f"{name}-grad-bound-excess",
                             gmax - p.grad_bound, 0.0, 1e-12))
        checks.append(_check(f"{name}-lower-bound-excess",
                             (p.lower_bounds - F.min(axis=0)).max(), 0.0))

        # level-set bound containment: every sampled member of L(f, f(x))
        # lies in the certified box and ball, for the first 10 levels
        lsb = p.level_set_bound(F[:10])
        member = np.all(F <= F[:10, None] + 1e-12, axis=-1)
        inside = (np.all(X >= lsb.box.lo[:, None] - 1e-9, axis=-1)
                  & np.all(X <= lsb.box.hi[:, None] + 1e-9, axis=-1))
        box_misses = int((member & ~inside).sum())
        excess = np.sqrt(_dot(X, X)) - lsb.radius[:, None]
        radius_excess = max(0.0, float(excess[member].max()))
        checks.append(_check(f"{name}-level-set-box-misses", box_misses, 0.0))
        checks.append(_check(f"{name}-level-set-radius-excess",
                             radius_excess, 0.0, 1e-9))

    # scalar-pair sweep: the weak-Pareto set found by the merit estimator
    # must coincide with criticality <= 1e-8, and the grid value must match
    # the closed forms u0 = (|x|-1)^2 and crit = 2(|x|-1) off [-1, 1]
    p4 = get_problem("scalar-pair")
    unit = constant(np.ones(p4.m))
    mismatches = 0
    value_excess = -np.inf
    crit_err = 0.0
    xs = np.linspace(-2.5, 2.5, 2001)
    crits, _ = criticality(p4, xs[:, None], rule=unit)
    box = p4.level_set_bound(p4.value(xs[:, None])).box
    side = box.hi[:, 0] - box.lo[:, 0]
    ests = u0_certified(p4, xs[:, None], box,
                        np.maximum(1e-9, side * side / 40.0))
    for x, crit_u, est in zip(xs, crits.tolist(), ests):
        if (est.value <= est.certified_error) != (crit_u <= 1e-8):
            mismatches += 1
        exact = (abs(x) - 1.0) ** 2 if abs(x) > 1.0 else 0.0
        value_excess = max(value_excess,
                           abs(est.value - exact) - est.certified_error)
        crit_err = max(crit_err, abs(crit_u - 2.0 * max(abs(x) - 1.0, 0.0)))
    checks.append(_check("scalar-pair-sweep-classification-mismatches",
                         mismatches, 0.0))
    checks.append(_check("scalar-pair-sweep-u0-error-beyond-certificate",
                         value_excess, 0.0, 1e-12))
    checks.append(_check("scalar-pair-sweep-criticality-error",
                         crit_err, 0.0, 1e-9))
    return checks


def _draw_hull(rng):
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    return rng.normal(0.0, 0.1, size=(m, n))


def _by_shape(hulls):
    """The hulls grouped by (m, n) shape, as (k, m, n) stacks."""
    groups = {}
    for G in hulls:
        groups.setdefault(G.shape, []).append(G)
    return [np.stack(group) for group in groups.values()]


def _suite_geometry_oracle(rng):
    # every hull is drawn first, in the rng order of a hull-by-hull loop,
    # then each (m, n) shape is solved and certified as one stack
    hulls = []
    for i in range(1000):
        G = _draw_hull(rng)
        m, k = G.shape[0], i % 10
        if k == 3 and m >= 2:
            G[1] = G[0]            # duplicated generator
        elif k == 5 and m >= 2:
            G[1] = -G[0]           # zero inside the hull
        elif k == 7:
            G *= 1e-3              # tiny scale
        hulls.append(G)
    worst_gap = 0.0
    worst_cert = -np.inf
    failures = 0
    for Gs in _by_shape(hulls):
        _, points, norms = _min_norm(Gs)
        q = np.zeros(Gs.shape[-1])
        # the projection of q onto the hull is q + points, as
        # project_onto_hull forms it
        cert = (certificate_violation(q, Gs, q + points)
                - certificate_tolerance(q, Gs))
        gap = np.abs(norms - _exact_min_norm(Gs))
        worst_gap = max(worst_gap, float(gap.max()))
        worst_cert = max(worst_cert, float(cert.max()))
        failures += int(((gap > 1e-4) | (cert > 0.0)).sum())
    checks = [_check("min-norm-vs-grid-worst-gap", worst_gap, 1e-4),
              _check("min-norm-certificate-excess", worst_cert, 0.0),
              _check("min-norm-failures", failures, 0.0)]

    # projections of nonzero points, via the same oracle on shifted hulls
    shifted = []
    for _ in range(300):
        G = _draw_hull(rng)
        shifted.append(G - rng.normal(0.0, 0.1, size=G.shape[1]))
    worst_proj = 0.0
    for Gs in _by_shape(shifted):
        gap = np.abs(_min_norm(Gs)[2] - _exact_min_norm(Gs))
        worst_proj = max(worst_proj, float(gap.max()))
    checks.append(_check("projection-vs-grid-worst-gap", worst_proj, 1e-4))
    return checks


def _suite_convex_rate(rng):
    del rng  # fully deterministic suite
    p = get_problem("unbalanced-convex")
    rule = constant([1.0, 1.0])
    checks = []
    for tag, x0 in zip(("critical-start", "interior-start"), p.starts):
        _, bound = RATE_BOUNDS["convex"](p, rule, x0)
        tr = integrate_first_order(p, rule, x0,
                                   FlowConfig(t_end=100.0, dt=1e-3,
                                              record_every=100))
        _flow_sanity_checks(f"p1-{tag}", tr, p, rule, checks)
        idx = _checkpoint_indices(tr.times, np.geomspace(1.0, 100.0, 20))
        ests = _merit_checks(p, tr.states[idx], bound(tr.times[idx]),
                             f"p1-{tag}-merit-rate-ratio", f"p1-{tag}", checks)
        witness_err = max(
            abs(float((p.value(x) - p.value(e.witness)).min()) - e.value)
            for x, e in zip(tr.states[idx], ests))
        checks.append(_check(f"p1-{tag}-witness-consistency",
                             witness_err, 0.0, 1e-9))
    return checks


def _suite_strongly_convex_rate(rng):
    del rng  # fully deterministic suite
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    x0 = p.starts[0]
    _, bound = RATE_BOUNDS["strongly-convex"](p, rule, x0)
    tr = integrate_first_order(p, rule, x0,
                               FlowConfig(t_end=10.0, dt=1e-3, record_every=10))
    checks = []
    _flow_sanity_checks("p2", tr, p, rule, checks)

    idx = _checkpoint_indices(tr.times, np.linspace(0.0, 10.0, 21))
    _merit_checks(p, tr.states[idx], bound(tr.times[idx]),
                  "p2-exp-rate-merit-ratio", "p2", checks)

    # squared distance to the observed limit stays below twice the bound
    xstar = tr.states[-1]
    d2 = ((tr.states - xstar) ** 2).sum(axis=-1)
    dist_ratio = float((d2 / (2.0 * bound(tr.times))).max())
    checks.append(_check("p2-distance-rate-ratio", dist_ratio, 1.0, RATE_SLACK))

    mons = lyapunov_monitors(tr, ("strongly_convex", "h"), xstar, p=p, rule=rule)
    checks.append(_check("p2-exp-energy-monotone", mons["strongly_convex_W"],
                         0.0))
    checks.append(_check("p2-distance-monotone", mons["h"], 0.0))
    return checks


def _suite_nonconvex_rate(rng):
    del rng  # fully deterministic suite
    p = get_problem("nonconvex-bounded-grad")
    x0 = p.starts[0]
    checks = []
    for tag, rule, row in (("p3-eta02", gradnorm_eta(0.2), "nonconvex"),
                           ("p3-eta0", gradnorm_eta(0.0), "nonconvex-eta0")):
        tr = integrate_first_order(p, rule, x0,
                                   FlowConfig(t_end=200.0, dt=2e-3,
                                              record_every=50))
        _flow_sanity_checks(tag, tr, p, rule, checks)
        if rule.eta == 0.0:  # eta = 0 needs no common stationary point on L
            checks.append(_check(f"{tag}-no-common-stationary-point",
                                 -level_set_grad_range(p, x0)[0], -1e-3))
        rep = rate_report(tag, row, p, rule, x0, tr)
        checks.append(_check(f"{tag}-runmin-rate-ratio",
                             rep.observed_sup, 1.0, RATE_SLACK))
        if rule.eta > 0.0:
            checks.append(_check(f"{tag}-runmin-slope", rep.slope, -0.4))
    return checks


def _suite_accelerated_rate(rng):
    del rng  # fully deterministic suite
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    x0 = p.starts[0]
    theta = 1.0
    _, bound = RATE_BOUNDS["accelerated"](p, rule, x0, theta=theta)
    checks = []
    for r in (3.0, 4.0):
        tag = f"p2-r{int(r)}"
        tr = integrate_accelerated(p, rule, x0,
                                   FlowConfig(t_end=100.0, dt=1e-3,
                                              mode="accelerated", r=r,
                                              theta=theta, record_every=100))
        idx = _checkpoint_indices(tr.times, np.geomspace(1.0, 100.0, 20))
        _merit_checks(p, tr.states[idx], bound(tr.times[idx]),
                      f"{tag}-merit-rate-ratio", tag, checks)

        energy = lyapunov_monitors(tr, ("energy",), None, p, rule)["energy"]
        checks.append(_check(f"{tag}-energy-monotone-violation", energy, 0.0))

        if r == 4.0:
            # integrability of t||xdot||^2: doubling-window tail integrals
            # decay and stay below the head integral
            integrand = tr.times * tr.speeds ** 2
            def seg(a, b):
                m = (tr.times >= a) & (tr.times <= b)
                return float(np.trapezoid(integrand[m], tr.times[m]))
            head = seg(0.0, 5.0)
            tails = [seg(T, 2.0 * T) for T in (5.0, 10.0, 20.0, 40.0)]
            checks.append(_check(f"{tag}-omega-tail-increase",
                                 monotone_excess(tails, 0.0), 0.0))
            checks.append(_check(f"{tag}-omega-tail-vs-head",
                                 max(tails) - head, 0.0))

    # off p2's symmetry axis the support face switches, and the flow slides
    # on sigma = 0; W_i stays nonincreasing there too
    for tag, pname, start in (("p1-r3", "unbalanced-convex", 1),
                              ("p3-r3", "nonconvex-bounded-grad", 0)):
        q = get_problem(pname)
        tr = integrate_accelerated(q, rule, q.starts[start],
                                   FlowConfig(t_end=20.0, dt=1e-3,
                                              mode="accelerated", r=3.0,
                                              theta=theta, record_every=10))
        energy = lyapunov_monitors(tr, ("energy",), None, q, rule)["energy"]
        checks.append(_check(f"{tag}-energy-monotone-violation", energy, 0.0))
    return checks


def _suite_discrete_rate(rng):
    del rng  # fully deterministic suite
    rule = gradnorm_eta_clamped(0.1, 0.1, 10.0)
    cfg = DiscreteConfig(max_iters=10_000, safety=0.99)
    horizon = 10_000
    checks = []
    for tag, pname, start in (("p1-critical-start", "unbalanced-convex", 0),
                              ("p1-interior-start", "unbalanced-convex", 1),
                              ("p2", "strongly-convex", 0)):
        p = get_problem(pname)
        x0 = p.starts[start]
        seq = run_discrete(p, rule, x0, cfg)

        mon = lyapunov_monitors(seq, ("nesting", "merit"), seq.states[-1],
                                p, rule)
        checks.append(_check(f"{tag}-f-monotone-violation", mon["nesting"], 0.0))
        checks.append(_check(f"{tag}-merit-monotone-violation", mon["merit"],
                             0.0))

        # u0 is nonincreasing along componentwise-descent iterates, so
        # checking k_{j+1} u0(x_{k_j}) on a geometric ladder and horizon
        # u0(x_K) covers every k in [1, horizon]
        _, bound = RATE_BOUNDS["discrete"](p, rule, x0, s_min=seq.s_min)
        K = int(seq.ks[-1])
        cps = []
        k = 1
        while k < K:
            cps.append(k)
            k = max(k + 1, int(1.6 * k))
        cps.append(K)
        _merit_checks(p, seq.states[cps],
                      bound(np.array(cps[1:] + [horizon], dtype=float)),
                      f"{tag}-rate-ratio", tag, checks)

        if tag == "p1-interior-start":
            # fully certified variant: u0 <= min_i(f_i - inf f_i)
            rep = rate_report(tag, "discrete", p, rule, x0, seq)
            checks.append(_check(f"{tag}-rate-ratio-certified",
                                 rep.observed_sup, 1.0, RATE_SLACK))
    return checks


def _suite_lyapunov(rng):
    del rng  # fully deterministic suite
    checks = []
    clamped = gradnorm_eta_clamped(0.1, 0.1, 10.0)
    runs = [
        ("p1-critical", "unbalanced-convex", constant([1.0, 1.0]), 0, 20.0),
        ("p1-interior", "unbalanced-convex", constant([1.0, 1.0]), 1, 20.0),
        ("p2-const", "strongly-convex", constant([1.0, 1.0]), 0, 20.0),
        ("p2-clamped", "strongly-convex", clamped, 0, 20.0),
        ("p3-eta02", "nonconvex-bounded-grad", gradnorm_eta(0.2), 0, 20.0),
        ("p3-eta0", "nonconvex-bounded-grad", gradnorm_eta(0.0), 0, 20.0),
        ("p4-const", "scalar-pair", constant([1.0, 1.0]), 0, 5.0),
        ("p4-gradnorm", "scalar-pair", gradnorm_eta(0.1), 0, 5.0),
    ]
    kept = {}
    for tag, pname, rule, start, t_end in runs:
        p = get_problem(pname)
        tr = integrate_first_order(p, rule, p.starts[start],
                                   FlowConfig(t_end=t_end, dt=1e-3,
                                              record_every=10))
        _flow_sanity_checks(tag, tr, p, rule, checks)
        kept[tag] = (p, rule, tr)

    p1, rule1, tr1 = kept["p1-interior"]
    mons = lyapunov_monitors(tr1, ("convex", "h"), tr1.states[-1],
                             p=p1, rule=rule1)
    checks.append(_check("p1-interior-convex-energy-monotone",
                         mons["convex_E"], 0.0))
    checks.append(_check("p1-interior-distance-monotone", mons["h"], 0.0))

    p2, rule2, tr2 = kept["p2-const"]
    mons = lyapunov_monitors(tr2, ("strongly_convex", "h"), tr2.states[-1],
                             p=p2, rule=rule2)
    checks.append(_check("p2-const-exp-energy-monotone",
                         mons["strongly_convex_W"], 0.0))
    checks.append(_check("p2-const-distance-monotone", mons["h"], 0.0))

    # distance monotonicity for the midpoint of the Pareto segment, a weak
    # Pareto point dominated along the whole trajectory
    mons = lyapunov_monitors(tr2, ("h",), np.array([1.0, 0.0]),
                             p=p2, rule=rule2)
    checks.append(_check("p2-midpoint-distance-monotone", mons["h"], 0.0))

    # accelerated Lyapunov terms, checked per objective and as the minimum
    accel = integrate_accelerated(p2, rule2, p2.starts[0],
                                  FlowConfig(t_end=20.0, dt=1e-3,
                                             mode="accelerated", r=3.0,
                                             theta=1.0, record_every=10))
    mons = lyapunov_monitors(accel, ("accelerated",), accel.states[-1],
                             p=p2, rule=rule2)
    for key in ("accel_E_0", "accel_E_1", "accel_E_min"):
        checks.append(_check(f"p2-accel-{key.replace('_', '-')}-monotone",
                             mons[key], 0.0))

    # discrete merit monitor on a clamped-rule iterate sequence
    seq = run_discrete(p2, clamped, p2.starts[0],
                       DiscreteConfig(max_iters=2000, safety=0.99))
    mons = lyapunov_monitors(seq, ("merit",), seq.states[-1], p2, clamped)
    checks.append(_check("p2-discrete-merit-monotone", mons["merit"], 0.0))
    return checks


def _hausdorff_pairs(rng):
    """The hausdorff-lipschitz draws on p1 and p2, in the rng's order.

    Yields the tag, the Lipschitz constant K of the clamped scaled hull map,
    the (N, m, n) generator stacks at u and v, and ||(u, t) - (v, s)|| for
    N = 10 000 pairs: local perturbations across six decades of
    displacement, then fully independent pairs.
    """
    rule = gradnorm_eta_clamped(0.1, 0.5, 10.0)
    for tag, pname in (("p1", "unbalanced-convex"), ("p2", "strongly-convex")):
        p = get_problem(pname)
        amin = rule.declared_bounds(p)[0]
        L = float(p.lipschitz.max())
        K = L / amin + rule.declared_l_alpha(p) * p.grad_bound / amin ** 2
        lo, hi = p.region.lo, p.region.hi
        N = 10_000
        half = N // 2
        U = lo + rng.random((N, p.n)) * (hi - lo)
        T = 10.0 * rng.random(N)
        V = np.empty_like(U)
        S = np.empty(N)
        scale = 10.0 ** rng.uniform(-6.0, -1.0, half)
        dirs = rng.normal(size=(half, p.n + 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        V[:half] = np.clip(U[:half]
                           + (scale * p.region.diameter)[:, None]
                           * dirs[:, :p.n], lo, hi)
        S[:half] = np.clip(T[:half] + scale * 10.0 * dirs[:, -1], 0.0, 10.0)
        V[half:] = lo + rng.random((N - half, p.n)) * (hi - lo)
        S[half:] = 10.0 * rng.random(N - half)

        GU = scaled_hull_generators(rule, p, U)
        GV = scaled_hull_generators(rule, p, V)
        dist = np.sqrt(((U - V) ** 2).sum(axis=-1) + (T - S) ** 2)
        yield tag, K, GU, GV, dist


def _suite_hausdorff_lipschitz(rng):
    checks = []
    for tag, K, GU, GV, dist in _hausdorff_pairs(rng):
        margin = hausdorff_hull_distance(GU, GV) - K * dist - 1e-8
        checks.append(_check(f"{tag}-violations", int((margin > 0.0).sum()), 0.0))
        checks.append(_check(f"{tag}-worst-margin", margin.max(), 0.0))
    return checks


_SUITE_FNS = {
    "problem-sanity": _suite_problem_sanity,
    "geometry-oracle": _suite_geometry_oracle,
    "convex-rate": _suite_convex_rate,
    "strongly-convex-rate": _suite_strongly_convex_rate,
    "nonconvex-rate": _suite_nonconvex_rate,
    "accelerated-rate": _suite_accelerated_rate,
    "discrete-rate": _suite_discrete_rate,
    "lyapunov": _suite_lyapunov,
    "hausdorff-lipschitz": _suite_hausdorff_lipschitz,
}
SUITES = tuple(_SUITE_FNS)  # the index of a suite seeds its rng


def run_suite(name, seed=DEFAULT_SEED):
    """Run one named suite; the report is deterministic for a given seed."""
    if name not in _SUITE_FNS:
        raise ConfigError(
            f"unknown suite {name!r}; choose from: {', '.join(SUITES)}")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed),
                                                        SUITES.index(name)]))
    checks = _SUITE_FNS[name](rng)
    return {"suite": name, "seed": int(seed), "checks": checks}


def run_all(seed=DEFAULT_SEED):
    return [run_suite(name, seed) for name in SUITES]
