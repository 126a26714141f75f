"""Multiobjective problem abstraction and the built-in test problems.

Each problem carries the metadata the rate checks rely on: per-objective
Lipschitz constants valid on a declared region, lower bounds, optional
strong-convexity moduli, a regional gradient bound, and an analytic
level-set over-approximation.  Oracles are vectorized over leading axes:
value maps (..., n) to (..., m) and gradients maps (..., n) to (..., m, n).
Problem._check_input is the package's one reader of points: a scalar or an
(n,) vector is one point, (..., n) a stack, and for n = 1 a (P,) vector is
P points.  value and grads read through it, and so do the starts, the
scaling rules, the flows, the discrete method and the merit_rates
estimators.  It reads reals by errors.finite_reals, as do the levels, the
declared constants, quadratic_problem's A and C and the oracles' outputs.
The level-set bound takes one (m,) level or a (P, m) stack of levels, and
a stack gives every radius and box in one call (a stack of P boxes), each
equal to its level's own call bit for bit: an analytic bound is one
vectorized function of a (P, m) stack, and one level is its P = 1 case.

quadratic_problem builds the diagonal quadratics f_i(x) = 1/2 sum_j
A_ij (x_j - c_ij)^2 from their curvatures and centers, and derives their
constants and level-set bound.  The built-ins p1, p2 and p4 are instances
of it; p3 is written by hand, and Problem takes any other plugin.
"""

import numpy as np

from .errors import (ConfigError, InvalidInputError, NumericDomainError,
                     finite_real, finite_reals)
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
        lo, hi = finite_reals(lo), finite_reals(hi)
        if lo is None or hi is None:
            raise InvalidInputError("box bounds must be finite")
        lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
        if lo.shape != hi.shape or lo.ndim > 2:
            raise InvalidInputError("box bounds must be 1-D vectors of equal "
                                    "length, or (P, n) stacks of them")
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
        x = finite_reals(x)
        if x is None:
            raise InvalidInputError("box point must be finite reals")
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


def _declared(name, v):
    # a declared constant as a 1-D array of finite reals
    if (a := finite_reals(v)) is None:
        raise InvalidInputError(f"{name} must be finite reals")
    return np.atleast_1d(a)


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

    def __init__(self, name, n, m, value, grads, *, lipschitz, lower_bounds,
                 convexity_class, region, grad_bound, starts,
                 strong_convexity=None, level_set_bound=None):
        if convexity_class not in ("convex", "strongly_convex", "nonconvex"):
            raise InvalidInputError(f"unknown convexity class {convexity_class!r}")
        self.name = str(name)
        self.n = int(n)
        self.m = int(m)
        self._value = value
        self._grads = grads
        self.lipschitz = _declared("lipschitz", lipschitz)
        self.lower_bounds = _declared("lower_bounds", lower_bounds)
        self.strong_convexity = (None if strong_convexity is None else
                                 _declared("strong_convexity", strong_convexity))
        if self.lipschitz.shape != (self.m,) or np.any(self.lipschitz <= 0):
            raise InvalidInputError("lipschitz must be m positive reals")
        if self.lower_bounds.shape != (self.m,):
            raise InvalidInputError("lower_bounds must have length m")
        if (grad_bound := finite_real(grad_bound)) is None:
            raise InvalidInputError("grad_bound must be a finite real")
        self.convexity_class = convexity_class
        self.region = region
        self.grad_bound = grad_bound
        self.starts = [self._check_input(s) for s in starts]
        if any(s.ndim != 1 for s in self.starts):
            raise InvalidInputError(f"{self.name}: a start must be one point")
        self._level_set_bound = level_set_bound
        self._memo = {}

    def _check_input(self, x, stack=False):
        """x as finite points in R^n, the one reader of points: a scalar or
        an (n,) vector is one point and (..., n) a stack, and for n = 1 a
        (P,) vector is P points.  With stack=True x must be one point or a
        (P, n) stack, and the reader returns the (P, n) stack and whether
        x was one point (then P = 1)."""
        if (x := finite_reals(x)) is None:
            raise InvalidInputError(f"{self.name}: non-finite input point")
        if self.n == 1 and x.ndim >= 1 and x.shape[-1] != 1:
            x = x[..., None]
        if x.ndim == 0:
            x = x[None]
        if x.shape[-1] != self.n or stack and x.ndim > 2:
            what = "one point or a (P, n) stack" if stack else "points"
            raise InvalidInputError(
                f"{self.name}: expected {what} in R^{self.n}, got shape {x.shape}")
        return (x.reshape(-1, self.n), x.ndim == 1) if stack else x

    def value(self, x):
        if (f := finite_reals(self._value(self._check_input(x)))) is None:
            raise NumericDomainError(f"{self.name}: non-finite objective value")
        return f

    def grads(self, x):
        if (g := finite_reals(self._grads(self._check_input(x)))) is None:
            raise NumericDomainError(f"{self.name}: non-finite gradient")
        return g

    def level_set_bound(self, a):
        """LevelSetBound of L(f, a) for one (m,) level, or the stacked bound
        of a (P, m) stack of levels, whose entry k equals the call on a[k]
        bit for bit."""
        A = finite_reals(a)
        if one := A is not None and A.ndim <= 1:
            A = np.atleast_2d(A)
        if A is None or A.ndim != 2 or A.shape[1] != self.m:
            raise InvalidInputError(
                "level vector must be m finite reals, or a (P, m) stack of them")
        if self._level_set_bound is not None:
            bound = self._level_set_bound(A)
        else:
            # Fallback for plugins without analytic bounds: the region for
            # every objective, valid whenever a comes from a shipped start.
            shape = A.shape + (self.n,)
            bound = _level_set(A, np.broadcast_to(self.region.lo, shape),
                               np.broadcast_to(self.region.hi, shape),
                               np.full(A.shape, self.region.max_norm()))
        return bound[0] if one else bound

    def __repr__(self):
        return f"Problem({self.name!r}, n={self.n}, m={self.m}, {self.convexity_class})"


def _level_set(A, lo, hi, radii):
    # the bound of a (P, m) stack of levels A from each objective's box
    # [lo, hi], (P, m, n), and ball radius, (P, m): the boxes' intersection
    # and the smallest radius, or the box's largest norm when that is smaller
    box_lo, box_hi = lo[:, 0], hi[:, 0]
    for i in range(1, lo.shape[1]):
        box_lo, box_hi = _intersect(box_lo, box_hi, lo[:, i], hi[:, i])
    box = Box(box_lo, box_hi)
    return LevelSetBound(A, np.minimum(radii.min(axis=1), box.max_norm()), box)


def _refuse_negative(A):
    if np.any(A < 0.0):
        raise InvalidInputError("empty sublevel set (level below the objective minimum)")


# ------------------------------------------------------------ built-ins

# The built-ins are the quadratic family's p1, p2 and p4 and the
# hand-written p3.  Their oracles square by multiplication: ** 2 on a numpy
# scalar calls pow(), which can round differently from the x * x that ** 2
# gives on an array, and a point must get the same value alone and inside
# a stack.

def quadratic_problem(name, A, C, *, convexity_class, region, starts):
    """The diagonal quadratics f_i(x) = 1/2 sum_j A_ij (x_j - C_ij)^2.

    A holds the (m, n) positive curvatures and C the (m, n) centers, and
    every declared constant follows from them and the region: lipschitz_i
    = max_j A_ij, lower bounds 0, strong_convexity_i = min_j A_ij when the
    declared class is strongly_convex, and grad_bound the largest
    ||A_i (x - c_i)|| over the region's corners.  The level-set bound of
    levels a is the intersection of the boxes c_i +- sqrt(2 a_i / A_i),
    with the radius min_i ||c_i|| + sqrt(2 a_i / min_j A_ij), or the box's
    largest norm when that is smaller.
    """
    A, C = finite_reals(A), finite_reals(C)
    if (A is None or C is None or A.ndim != 2 or A.shape != C.shape
            or not np.all(A > 0.0)):
        raise InvalidInputError("a quadratic problem takes finite (m, n) "
                                "curvatures A > 0 and centers C of one shape")
    A, C = A.copy(), C.copy()  # the problem keeps its own data

    def value(x):
        d = x[..., None, :] - C
        return 0.5 * np.add.reduce(A * (d * d), axis=-1)

    def grads(x):
        return (x[..., None, :] - C) * A

    def level_set_bound(a):
        _refuse_negative(a)
        half = np.sqrt(2.0 * a[:, :, None] / A)
        return _level_set(a, C - half, C + half,
                          _norm(C) + np.sqrt(2.0 * a / A.min(axis=1)))

    far = np.maximum(np.abs(region.lo - C), np.abs(region.hi - C))
    return Problem(
        name, A.shape[1], A.shape[0], value, grads,
        lipschitz=A.max(axis=1), lower_bounds=np.zeros(len(A)),
        convexity_class=convexity_class, region=region,
        grad_bound=_norm(A * far).max(), starts=starts,
        strong_convexity=(A.min(axis=1) if convexity_class == "strongly_convex"
                          else None),
        level_set_bound=level_set_bound)


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
    return _level_set(A, lo, hi, _norm(np.maximum(np.abs(lo), np.abs(hi))))


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


for _f in (
        lambda: quadratic_problem(
            "unbalanced-convex", [[100.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [1.0, 1.0]], convexity_class="convex",
            region=Box([-0.5, -0.5], [1.5, 2.0]),
            starts=[[1.0, 1.0], [0.25, 1.5]]),
        lambda: quadratic_problem(
            "strongly-convex", [[1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [2.0, 0.0]], convexity_class="strongly_convex",
            region=Box([-2.0, -2.0], [4.0, 2.0]), starts=[[1.0, 1.0]]),
        _make_p3,
        lambda: quadratic_problem(
            "scalar-pair", [[2.0], [2.0]], [[-1.0], [1.0]],
            convexity_class="convex", region=Box([-2.5], [2.5]),
            starts=[[2.0]])):
    register_problem(_f)
