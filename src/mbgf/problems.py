"""Multiobjective problem abstraction and the built-in test problems.

Each problem carries the metadata the rate checks rely on: per-objective
Lipschitz constants valid on a declared region, lower bounds, optional
strong-convexity moduli, a regional gradient bound, and an analytic
level-set over-approximation.  Oracles are vectorized over leading axes:
value maps (..., n) to (..., m) and gradients maps (..., n) to (..., m, n).
Problem._check_input is the package's one reader of points: a scalar or an
(n,) vector is one point, (..., n) a stack, and for n = 1 a (P,) vector is
P points.  value and grads read through it, and so do the scaling rules,
the flows, the discrete method and the merit_rates estimators.
The level-set bound takes one (m,) level or a (P, m) stack of levels, and
a stack gives every radius and box in one call (a stack of P boxes), each
equal to its level's own call bit for bit: an analytic bound is one
vectorized function of a (P, m) stack, and one level is its P = 1 case.
"""

import numpy as np

from .errors import ConfigError, InvalidInputError, NumericDomainError
from .geometry import _dot, _pow2


def _norm(v):
    # Euclidean norm over the last axis, rounded as np.linalg.norm rounds
    # one vector; a float for one vector
    r = np.sqrt(_dot(v, v))
    return float(r) if r.ndim == 0 else r


def _intersect(lo1, hi1, lo2, hi2):
    # corners of the intersection of boxes (or of two stacks of boxes)
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    # boxes touching along a face may cross by roundoff; collapse to
    # the shared face instead of declaring them disjoint
    tol = 1e-12 * (1.0 + np.abs(lo) + np.abs(hi))
    touching = (lo > hi) & (lo - hi <= tol)
    if np.any(touching):
        mid = 0.5 * (lo + hi)
        lo = np.where(touching, mid, lo)
        hi = np.where(touching, mid, hi)
    if np.any(lo > hi):
        raise InvalidInputError("empty box intersection")
    return lo, hi


class Box:
    """Axis-aligned box [lo, hi] in R^n, or a stack of P boxes: lo and hi
    of shape (P, n), and box[k] the k-th.  intersect and max_norm act box
    by box on a stack; contains and diameter take one box."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim > 2:
            raise InvalidInputError("box bounds must be 1-D vectors of equal "
                                    "length, or (P, n) stacks of them")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidInputError("box bounds must be finite")
        if np.any(lo > hi):
            raise InvalidInputError("box has lo > hi")
        self.lo = lo
        self.hi = hi

    @property
    def n(self):
        return self.lo.shape[-1]

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x, slack=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack))

    def intersect(self, other):
        return Box(*_intersect(self.lo, self.hi, other.lo, other.hi))

    def max_norm(self):
        """Largest ||x|| over the box, attained at a corner; (P,) for a stack."""
        return _norm(np.maximum(np.abs(self.lo), np.abs(self.hi)))

    def __getitem__(self, k):
        return Box(self.lo[k], self.hi[k])

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class LevelSetBound:
    """Certified over-approximation of a sublevel set L(f, a).

    a       the level vector
    radius  R with ||x|| <= R for every x in L(f, a)
    box     axis-aligned box containing L(f, a)

    For a (P, m) stack of levels, radius is (P,), box a stack of P boxes,
    and bound[k] the bound of level k.
    """

    __slots__ = ("a", "radius", "box")

    def __init__(self, a, radius, box):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        radius = np.asarray(radius, dtype=float)
        self.radius = float(radius) if radius.ndim == 0 else radius
        self.box = box

    def __getitem__(self, k):
        return LevelSetBound(self.a[k], self.radius[k], self.box[k])

    def __repr__(self):
        radius = (f"{self.radius:.6g}" if np.ndim(self.radius) == 0
                  else np.array2string(self.radius, precision=6))
        return f"LevelSetBound(a={self.a.tolist()}, radius={radius}, box={self.box})"


class Problem:
    """A smooth multiobjective instance f: R^n -> R^m with declared constants.

    lipschitz[i] bounds ||grad f_i(x) - grad f_i(y)|| / ||x - y|| on the
    region, lower_bounds[i] <= inf f_i, grad_bound bounds max_i ||grad f_i||
    on the region, and region contains L(f, f(x0)) for every shipped start.
    An analytic level_set_bound maps a (P, m) stack of levels to their
    stacked LevelSetBound.

    _memo keeps values that other modules derive from this instance alone
    (merit_rates.level_set_grad_range), so one instance computes each once.
    """

    __slots__ = ("name", "n", "m", "_value", "_grads", "lipschitz",
                 "lower_bounds", "strong_convexity", "convexity_class",
                 "region", "grad_bound", "starts", "_level_set_bound",
                 "_memo")

    def __init__(self, name, n, m, value, grads, lipschitz, lower_bounds,
                 convexity_class, region, grad_bound, starts,
                 strong_convexity=None, level_set_bound=None):
        if convexity_class not in ("convex", "strongly_convex", "nonconvex"):
            raise InvalidInputError(f"unknown convexity class {convexity_class!r}")
        self.name = str(name)
        self.n = int(n)
        self.m = int(m)
        self._value = value
        self._grads = grads
        self.lipschitz = np.atleast_1d(np.asarray(lipschitz, dtype=float))
        self.lower_bounds = np.atleast_1d(np.asarray(lower_bounds, dtype=float))
        self.strong_convexity = (None if strong_convexity is None
                                 else np.atleast_1d(np.asarray(strong_convexity, dtype=float)))
        self.convexity_class = convexity_class
        self.region = region
        self.grad_bound = float(grad_bound)
        self.starts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in starts]
        self._level_set_bound = level_set_bound
        self._memo = {}
        if self.lipschitz.shape != (self.m,) or np.any(self.lipschitz <= 0):
            raise InvalidInputError("lipschitz must be m positive reals")
        if self.lower_bounds.shape != (self.m,):
            raise InvalidInputError("lower_bounds must have length m")

    def _check_input(self, x, stack=False):
        """x as finite points in R^n, the one reader of points: a scalar or
        an (n,) vector is one point and (..., n) a stack, and for n = 1 a
        (P,) vector is P points.  With stack=True x must be one point or a
        (P, n) stack, and the reader returns the (P, n) stack and whether
        x was one point (then P = 1)."""
        x = np.asarray(x, dtype=float)
        if self.n == 1 and x.ndim >= 1 and x.shape[-1] != 1:
            x = x[..., None]
        if x.ndim == 0:
            x = x[None]
        if x.shape[-1] != self.n or stack and x.ndim > 2:
            what = "one point or a (P, n) stack" if stack else "points"
            raise InvalidInputError(
                f"{self.name}: expected {what} in R^{self.n}, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError(f"{self.name}: non-finite input point")
        return (x.reshape(-1, self.n), x.ndim == 1) if stack else x

    def value(self, x):
        x = self._check_input(x)
        f = np.asarray(self._value(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise NumericDomainError(f"{self.name}: non-finite objective value")
        return f

    def grads(self, x):
        x = self._check_input(x)
        g = np.asarray(self._grads(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericDomainError(f"{self.name}: non-finite gradient")
        return g

    def level_set_bound(self, a):
        """LevelSetBound of L(f, a) for one (m,) level, or the stacked bound
        of a (P, m) stack of levels, whose entry k equals the call on a[k]
        bit for bit."""
        A = np.atleast_1d(np.asarray(a, dtype=float))
        one = A.ndim == 1
        if one:
            A = A[None]
        if A.ndim != 2 or A.shape[1] != self.m or not np.all(np.isfinite(A)):
            raise InvalidInputError(
                "level vector must be m finite reals, or a (P, m) stack of them")
        if self._level_set_bound is not None:
            bound = self._level_set_bound(A)
        else:
            # Fallback for plugins without analytic bounds: the declared
            # region, valid whenever a comes from a shipped start.
            shape = (len(A), self.n)
            bound = LevelSetBound(
                A, np.full(len(A), self.region.max_norm()),
                Box(np.broadcast_to(self.region.lo, shape),
                    np.broadcast_to(self.region.hi, shape)))
        return bound[0] if one else bound

    def __repr__(self):
        return f"Problem({self.name!r}, n={self.n}, m={self.m}, {self.convexity_class})"


def _refuse_negative(A):
    if np.any(A < 0.0):
        raise InvalidInputError("empty sublevel set (level below the objective minimum)")


def _ball_bound(a_i, center):
    # Sublevel sets of 0.5*||x - c||^2 at the (P,) levels a_i: balls of
    # radius sqrt(2 a_i).  Returns their norm bounds and box corners.
    r = np.sqrt(np.maximum(0.0, 2.0 * a_i))
    c = np.asarray(center, dtype=float)
    return _norm(c) + r, c - r[:, None], c + r[:, None]


# ------------------------------------------------------------ built-ins

# The built-in oracles fill a preallocated result instead of calling
# np.stack, whose per-call overhead dominates at a single point.  They
# square by multiplication: ** 2 on a numpy scalar calls pow(), which can
# round differently from the x * x that ** 2 gives on an array, and a point
# must get the same value alone and inside a stack.

def _p1_value(x):
    x1, x2 = x[..., 0], x[..., 1]
    u1, u2 = x1 - 1.0, x2 - 1.0
    f = np.empty(x.shape[:-1] + (2,))
    f[..., 0] = 0.5 * (100.0 * (x1 * x1) + x2 * x2)
    f[..., 1] = 0.5 * (u1 * u1 + u2 * u2)
    return f


_P1_CURVATURE = np.array([100.0, 1.0])


def _p1_grads(x):
    # x * 1.0 is x exactly, so the first row takes one product
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, :] = x * _P1_CURVATURE
    g[..., 1, :] = x - 1.0
    return g


def _p1_level_set_bound(A):
    _refuse_negative(A)
    # f1-sublevel: ellipse 100 x1^2 + x2^2 <= 2 a1.  Its largest norm sits on
    # the x2 axis because that is the flattest direction.
    r1 = np.sqrt(2.0 * A[:, 0])
    radius2, lo2, hi2 = _ball_bound(A[:, 1], [1.0, 1.0])
    box = Box(*_intersect(np.stack([-r1 / 10.0, -r1], axis=-1),
                          np.stack([r1 / 10.0, r1], axis=-1), lo2, hi2))
    radius = np.minimum.reduce([r1, radius2, box.max_norm()])
    return LevelSetBound(A, radius, box)


def _make_p1():
    return Problem(
        name="unbalanced-convex", n=2, m=2,
        value=_p1_value, grads=_p1_grads,
        lipschitz=[100.0, 1.0], lower_bounds=[0.0, 0.0],
        convexity_class="convex",
        region=Box([-0.5, -0.5], [1.5, 2.0]),
        grad_bound=float(np.hypot(150.0, 2.0)),
        starts=[[1.0, 1.0], [0.25, 1.5]],
        level_set_bound=_p1_level_set_bound,
    )


_P2_C = np.array([[0.0, 0.0], [2.0, 0.0]])


def _p2_value(x):
    d = x[..., None, :] - _P2_C
    return 0.5 * (d * d).sum(axis=-1)


def _p2_grads(x):
    return x[..., None, :] - _P2_C


def _p2_level_set_bound(A):
    _refuse_negative(A)
    r1, lo1, hi1 = _ball_bound(A[:, 0], _P2_C[0])
    r2, lo2, hi2 = _ball_bound(A[:, 1], _P2_C[1])
    box = Box(*_intersect(lo1, hi1, lo2, hi2))
    radius = np.minimum.reduce([r1, r2, box.max_norm()])
    return LevelSetBound(A, radius, box)


def _make_p2():
    return Problem(
        name="strongly-convex", n=2, m=2,
        value=_p2_value, grads=_p2_grads,
        lipschitz=[1.0, 1.0], lower_bounds=[0.0, 0.0],
        strong_convexity=[1.0, 1.0],
        convexity_class="strongly_convex",
        region=Box([-2.0, -2.0], [4.0, 2.0]),
        grad_bound=float(np.sqrt(20.0)),
        starts=[[1.0, 1.0]],
        level_set_bound=_p2_level_set_bound,
    )


# Coordinatewise term g(u) = sqrt(1 + u^2) + 0.4 cos(u) - 1.4.  g >= 0 with
# the unique zero at u = 0, |g'| <= 1.4, |g''| <= 1.4, and g is nonconvex
# (g'' changes sign).  The constant 1.4 makes inf f_i = 0 at the centers.
_P3_C = np.array([[0.0, 0.0], [2.0, 1.0]])


def _p3_value(x):
    u = x[..., None, :] - _P3_C
    g = np.sqrt(1.0 + u * u) + 0.4 * np.cos(u) - 1.4
    return g.sum(axis=-1)


def _p3_grads(x):
    u = x[..., None, :] - _P3_C
    return u / np.sqrt(1.0 + u * u) - 0.4 * np.sin(u)


def _p3_level_set_bound(A):
    # Per coordinate, g(u) >= sqrt(1 + u^2) - 1.8, and every term is
    # nonnegative, so f_i <= a_i confines |x_j - c_ij| within r_i below.
    # The bound has always squared a + 1.8 by pow(), so it still does
    # (_pow2; see the note above the built-ins).
    _refuse_negative(A)
    r = np.sqrt(_pow2(A + 1.8) - 1.0)[:, :, None]
    lo, hi = _P3_C - r, _P3_C + r
    box = Box(*_intersect(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]))
    corners = np.maximum(np.abs(lo), np.abs(hi))
    radius = np.minimum.reduce([_norm(corners[:, 0]), _norm(corners[:, 1]),
                                box.max_norm()])
    return LevelSetBound(A, radius, box)


def _make_p3():
    return Problem(
        name="nonconvex-bounded-grad", n=2, m=2,
        value=_p3_value, grads=_p3_grads,
        lipschitz=[1.4, 1.4], lower_bounds=[0.0, 0.0],
        convexity_class="nonconvex",
        region=Box([-4.0, -4.0], [6.0, 5.0]),
        grad_bound=float(1.4 * np.sqrt(2.0)),
        starts=[[0.9, 0.7]],
        level_set_bound=_p3_level_set_bound,
    )


def _p4_value(x):
    x0 = x[..., 0]
    f = np.empty(x0.shape + (2,))
    u0, u1 = x0 + 1.0, x0 - 1.0
    f[..., 0] = u0 * u0
    f[..., 1] = u1 * u1
    return f


def _p4_grads(x):
    x0 = x[..., 0]
    g = np.empty(x0.shape + (2, 1))
    g[..., 0, 0] = 2.0 * (x0 + 1.0)
    g[..., 1, 0] = 2.0 * (x0 - 1.0)
    return g


def _p4_level_set_bound(A):
    _refuse_negative(A)
    r1, r2 = np.sqrt(A[:, :1]), np.sqrt(A[:, 1:])
    box = Box(*_intersect(-1.0 - r1, -1.0 + r1, 1.0 - r2, 1.0 + r2))
    radius = np.minimum.reduce([1.0 + r1[:, 0], 1.0 + r2[:, 0], box.max_norm()])
    return LevelSetBound(A, radius, box)


def _make_p4():
    return Problem(
        name="scalar-pair", n=1, m=2,
        value=_p4_value, grads=_p4_grads,
        lipschitz=[2.0, 2.0], lower_bounds=[0.0, 0.0],
        convexity_class="convex",
        region=Box([-2.5], [2.5]),
        grad_bound=7.0,
        starts=[[2.0]],
        level_set_bound=_p4_level_set_bound,
    )


_REGISTRY = {}


def register_problem(factory):
    """Register a problem factory under its problem's name; returns the name."""
    name = factory().name
    _REGISTRY[name] = factory
    return name


def get_problem(name):
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown problem {name!r} (known: {known})") from None


def list_problems():
    return sorted(_REGISTRY)


for _f in (_make_p1, _make_p2, _make_p3, _make_p4):
    register_problem(_f)


def make_problem(name, n, m, value, grads, *, lipschitz, lower_bounds,
                 convexity_class, region, grad_bound, starts,
                 strong_convexity=None, level_set_bound=None):
    """Construct a user-defined problem."""
    return Problem(name, n, m, value, grads, lipschitz, lower_bounds,
                   convexity_class, region, grad_bound, starts,
                   strong_convexity=strong_convexity,
                   level_set_bound=level_set_bound)
