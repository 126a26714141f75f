"""Multiobjective problem abstraction and the built-in test problems.

Each problem carries the metadata the rate checks rely on: per-objective
Lipschitz constants valid on a declared region, lower bounds, optional
strong-convexity moduli, a regional gradient bound, and an analytic
level-set over-approximation.  Oracles are vectorized over leading axes:
value maps (..., n) to (..., m) and gradients maps (..., n) to (..., m, n).
"""

import numpy as np

from .errors import ConfigError, InvalidInputError, NumericDomainError


class Box:
    """Axis-aligned box [lo, hi] in R^n."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidInputError("box bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidInputError("box bounds must be finite")
        if np.any(lo > hi):
            raise InvalidInputError("box has lo > hi")
        self.lo = lo
        self.hi = hi

    @property
    def n(self):
        return self.lo.size

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x, slack=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack))

    def intersect(self, other):
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
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
        return Box(lo, hi)

    def max_norm(self):
        """Largest ||x|| over the box, attained at a corner."""
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class LevelSetBound:
    """Certified over-approximation of a sublevel set L(f, a).

    a       the level vector
    radius  R with ||x|| <= R for every x in L(f, a)
    box     axis-aligned box containing L(f, a)
    """

    __slots__ = ("a", "radius", "box")

    def __init__(self, a, radius, box):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.radius = float(radius)
        self.box = box

    def __repr__(self):
        return f"LevelSetBound(a={self.a.tolist()}, radius={self.radius:.6g}, box={self.box})"


class Problem:
    """A smooth multiobjective instance f: R^n -> R^m with declared constants.

    lipschitz[i] bounds ||grad f_i(x) - grad f_i(y)|| / ||x - y|| on the
    region, lower_bounds[i] <= inf f_i, grad_bound bounds max_i ||grad f_i||
    on the region, and region contains L(f, f(x0)) for every shipped start.
    """

    __slots__ = ("name", "n", "m", "_value", "_grads", "lipschitz",
                 "lower_bounds", "strong_convexity", "convexity_class",
                 "region", "grad_bound", "starts", "_level_set_bound")

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
        if self.lipschitz.shape != (self.m,) or np.any(self.lipschitz <= 0):
            raise InvalidInputError("lipschitz must be m positive reals")
        if self.lower_bounds.shape != (self.m,):
            raise InvalidInputError("lower_bounds must have length m")

    def _check_input(self, x):
        x = np.asarray(x, dtype=float)
        if self.n == 1 and x.ndim >= 1 and x.shape[-1] != 1:
            x = x[..., None]
        if x.ndim == 0:
            x = x[None]
        if x.shape[-1] != self.n:
            raise InvalidInputError(f"{self.name}: expected points in R^{self.n}, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError(f"{self.name}: non-finite input point")
        return x

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
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a.shape != (self.m,) or not np.all(np.isfinite(a)):
            raise InvalidInputError("level vector must be m finite reals")
        if self._level_set_bound is not None:
            return self._level_set_bound(a)
        # Fallback for plugins without analytic bounds: the declared region,
        # valid whenever a comes from a shipped start.
        return LevelSetBound(a, self.region.max_norm(), self.region)

    def __repr__(self):
        return f"Problem({self.name!r}, n={self.n}, m={self.m}, {self.convexity_class})"


def level_set_bound(p, a):
    """Certified radius and box containing the sublevel set L(f, a)."""
    return p.level_set_bound(a)


def _ball_bound(a_i, center, lower=0.0):
    # Sublevel set of 0.5*||x - c||^2 at level a_i: ball of radius sqrt(2 a_i).
    if a_i < lower:
        raise InvalidInputError("empty sublevel set (level below the objective minimum)")
    r = np.sqrt(max(0.0, 2.0 * a_i))
    c = np.asarray(center, dtype=float)
    box = Box(c - r, c + r)
    return float(np.linalg.norm(c) + r), box


# ------------------------------------------------------------ built-ins

# The built-in oracles fill a preallocated result instead of calling
# np.stack, whose per-call overhead dominates at a single point.

def _p1_value(x):
    x1, x2 = x[..., 0], x[..., 1]
    f = np.empty(x.shape[:-1] + (2,))
    f[..., 0] = 0.5 * (100.0 * x1 ** 2 + x2 ** 2)
    f[..., 1] = 0.5 * ((x1 - 1.0) ** 2 + (x2 - 1.0) ** 2)
    return f


def _p1_grads(x):
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 100.0 * x[..., 0]
    g[..., 0, 1] = x[..., 1]
    g[..., 1, :] = x - 1.0
    return g


def _p1_level_set_bound(a):
    if a[0] < 0.0 or a[1] < 0.0:
        raise InvalidInputError("empty sublevel set (level below the objective minimum)")
    # f1-sublevel: ellipse 100 x1^2 + x2^2 <= 2 a1.  Its largest norm sits on
    # the x2 axis because that is the flattest direction.
    r1 = np.sqrt(2.0 * a[0])
    box1 = Box([-r1 / 10.0, -r1], [r1 / 10.0, r1])
    radius2, box2 = _ball_bound(a[1], [1.0, 1.0])
    box = box1.intersect(box2)
    radius = min(r1, radius2, box.max_norm())
    return LevelSetBound(a, radius, box)


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


def _p2_level_set_bound(a):
    r1, box1 = _ball_bound(a[0], _P2_C[0])
    r2, box2 = _ball_bound(a[1], _P2_C[1])
    box = box1.intersect(box2)
    return LevelSetBound(a, min(r1, r2, box.max_norm()), box)


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


def _p3_level_set_bound(a):
    # Per coordinate, g(u) >= sqrt(1 + u^2) - 1.8, and every term is
    # nonnegative, so f_i <= a_i confines |x_j - c_ij| within r_i below.
    if np.any(a < 0.0):
        raise InvalidInputError("empty sublevel set (level below the objective minimum)")
    radius = np.inf
    box = None
    for i, c in enumerate(_P3_C):
        r_i = float(np.sqrt((a[i] + 1.8) ** 2 - 1.0))
        box_i = Box(c - r_i, c + r_i)
        box = box_i if box is None else box.intersect(box_i)
        radius = min(radius, box_i.max_norm())
    return LevelSetBound(a, min(radius, box.max_norm()), box)


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
    f[..., 0] = (x0 + 1.0) ** 2
    f[..., 1] = (x0 - 1.0) ** 2
    return f


def _p4_grads(x):
    x0 = x[..., 0]
    g = np.empty(x0.shape + (2, 1))
    g[..., 0, 0] = 2.0 * (x0 + 1.0)
    g[..., 1, 0] = 2.0 * (x0 - 1.0)
    return g


def _p4_level_set_bound(a):
    if np.any(a < 0.0):
        raise InvalidInputError("empty sublevel set (level below the objective minimum)")
    r1, r2 = np.sqrt(a[0]), np.sqrt(a[1])
    box = Box([-1.0 - r1], [-1.0 + r1]).intersect(Box([1.0 - r2], [1.0 + r2]))
    return LevelSetBound(a, min(1.0 + r1, 1.0 + r2, box.max_norm()), box)


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


def register_problem(factory, name=None):
    """Register a problem factory under its name; returns the name."""
    p = factory()
    key = name or p.name
    _REGISTRY[key] = factory
    return key


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
                 strong_convexity=None, level_set_bound=None, register=False):
    """Construct (and optionally register) a user-defined problem."""
    def factory():
        return Problem(name, n, m, value, grads, lipschitz, lower_bounds,
                       convexity_class, region, grad_bound, starts,
                       strong_convexity=strong_convexity,
                       level_set_bound=level_set_bound)
    if register:
        register_problem(factory, name)
    return factory()
