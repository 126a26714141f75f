"""Convex geometry kernel for generator hulls.

A hull is given in V-representation by an (m, n) matrix whose rows are the
generators g_1, ..., g_m.  The operations here are the ones the balanced
flows need: the minimum-norm point of a hull, the Euclidean projection of an
arbitrary point onto a hull, support points in a given direction with a
deterministic tie rule, and the Hausdorff distance between two hulls.

The Hausdorff distance also takes stacks: (..., mA, n) and (..., mB, n)
generator arrays with equal leading shapes give an array of distances.  One
implementation serves one pair and a stack; each direction projects every
vertex of every hull in one stacked solve, and its distances equal the
one-pair values bit for bit.  It does so through the stack form of
_min_norm, the one internal minimum-norm kernel: every minimum-norm point
of the package is formed there, with one dispatch on m for one (m, n) hull
and an (..., m, n) stack alike.  Its one-hull form gives the first-order
right-hand side of mbgf.flow its velocity, the discrete method its step,
project_onto_hull its weights and point, and a tied support face its
point; its stack form gives the recorded criticalities and weights of the
flows and the discrete method.  One point takes ndarray.dot, a stack
takes @: the same BLAS routine, the same bits (_dot has the rule).

Projections are solved on the shifted generators by closed forms for one,
two, three and four generators, on a stack of hulls as on one, and by an
active-set minimum-norm-point method (Wolfe's algorithm) hull by hull for
five or more.  A closed form divides only by a value at or above the
smallest normal float (_proper).  A pair whose |g_1 - g_2|^2 is below it,
or NaN, is degenerate and takes weight 1 on g_1, as a zero-length segment
does; every two-generator closed form, here and in mbgf.flow's sliding
weights, keeps that one rule.  A huge hull, one whose |g_1 - g_2|^2 or
minimum norm could overflow, is solved scaled by a power of two to unit
size, and its norm is taken the same way.  Three and four generators
share one face-recursive closed form, _simplex_weights.  It scales every
hull that way and takes the best point of its faces, a triangle's
edges by the pair closed form and a tetrahedron's triangles by itself, and
of its interior: the minimum-norm point of the affine hull, solved on the
edge vectors d_i = g_1 - g_i, when that point's weights are nonnegative
and the Gram determinant of the d_i is proper.  With as many d_i as
dimensions that point is 0, by Cramer's rule on the d_i; with fewer, it
comes from the Gram system and one correction step; with more, the hull
has no interior candidate, since its minimum lies on a face.
Every result carries simplex weights and satisfies the standard
variational certificate

    <point - q, g_i - point> >= -CERTIFICATE_TOL * scale   for all i,

where scale = (1 + max(max_i ||g_i - q||, 0))^2 absorbs the data magnitude.
"""

import itertools
import math

import numpy as np

from .errors import InvalidInputError, NoConvergenceError, NumericDomainError

# Tolerances, fixed by the public contracts of this module.
MEMBERSHIP_TOL = 1e-9        # residual_norm <= MEMBERSHIP_TOL * (1 + max generator norm)
CERTIFICATE_TOL = 1e-8       # certificate slack factor, see module docstring
SUPPORT_TIE_TOL = 1e-10      # relative tie width in support_point
WEIGHT_NEG_TOL = 1e-12       # weights below -WEIGHT_NEG_TOL are rejected
WEIGHT_SUM_TOL = 1e-10       # |sum - 1| beyond this is rejected
ITER_FACTOR = 50             # solver iteration cap is ITER_FACTOR * m

# Internal duality-gap target, tighter than the published certificate so that
# returned projections pass it with margin.
_STOP_TOL = 1e-10
_DROP_TOL = 1e-14
_MIN_NORMAL = float(np.finfo(float).tiny)
# a hull of n columns is huge when an entry reaches _HUGE / sqrt(n): below
# that, no |g_i - g_j|^2 or |d|^2 of its points can overflow
_HUGE = 2.0 ** 510


def _as_generator_matrix(generators, stacked=False):
    # An (m, n) matrix; with stacked=True also an (..., m, n) stack of them.
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G[None, :]
    if not (G.ndim == 2 or stacked and G.ndim > 2) or G.shape[-2] < 1 or G.shape[-1] < 1:
        stack = " or (..., m, n) stack" if stacked else ""
        raise InvalidInputError(
            f"generators must be a nonempty (m, n) matrix{stack}, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise InvalidInputError("generators contain non-finite entries")
    return G


def _as_vector(v, n, name, lead=()):
    # One (n,) vector; with lead, the leading shape of a stack of hulls,
    # also one vector per hull.
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 and n == 1:
        v = v[None]
    if v.shape not in ((n,), tuple(lead) + (n,)):
        per_hull = ", or one per hull" if lead else ""
        raise InvalidInputError(
            f"{name} must be a vector of length {n}{per_hull}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return v


class SimplexWeights:
    """Barycentric weights on the unit simplex.

    Entries below -1e-12 or a sum off 1 by more than 1e-10 are rejected;
    small negative entries are clamped to zero and the vector is
    renormalized so it sums to one exactly.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be a finite 1-D vector")
        wmin = float(w.min())
        if wmin < -WEIGHT_NEG_TOL:
            raise InvalidInputError(f"negative simplex weight {wmin:.3e}")
        np.clip(w, 0.0, None, out=w)
        s = float(w.sum())
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(f"simplex weights sum to {s:.17g}, expected 1")
        w /= s
        w.flags.writeable = False
        self.weights = w

    def __len__(self):
        return self.weights.size

    def __repr__(self):
        return f"SimplexWeights({self.weights.tolist()})"


class HullProjection:
    """A hull point with the simplex weights that produce it.

    point          the hull point (for projections, the argmin of ||p - q||)
    weights        SimplexWeights w with point ~= sum_i w_i g_i
    residual_norm  ||point - sum_i w_i g_i|| after weight cleanup
    """

    __slots__ = ("point", "weights", "residual_norm")

    def __init__(self, point, weights, residual_norm):
        self.point = point
        self.weights = weights
        self.residual_norm = residual_norm

    def __repr__(self):
        return (f"HullProjection(point={self.point.tolist()}, "
                f"weights={self.weights.weights.tolist()}, "
                f"residual_norm={self.residual_norm:.3e})")


def certificate_tolerance(q, generators):
    """Absolute certificate tolerance for projecting q onto the hull.

    One (m, n) hull gives a float.  An (..., m, n) stack of hulls, with q
    one (n,) point or one per hull, gives an array of tolerances, each
    equal to its hull's own call bit for bit, as certificate_violation's.
    """
    G = _as_generator_matrix(generators, stacked=True)
    q = _as_vector(q, G.shape[-1], "q", G.shape[:-2])
    d = np.sqrt(((G - q[..., None, :]) ** 2).sum(axis=-1).max(axis=-1))
    tol = CERTIFICATE_TOL * _pow2(1.0 + d)
    return float(tol) if tol.ndim == 0 else tol


def certificate_violation(q, generators, point):
    """Largest violation of <point - q, g_i - point> >= 0 over the generators.

    Zero means the variational characterization of the projection holds
    exactly; compare against certificate_tolerance(q, generators).  Takes
    one hull or a stack, as certificate_tolerance does, with one point per
    hull.
    """
    G = _as_generator_matrix(generators, stacked=True)
    q = _as_vector(q, G.shape[-1], "q", G.shape[:-2])
    point = _as_vector(point, G.shape[-1], "point", G.shape[:-2])
    # (m, n) @ (n, 1) per hull: the matrix-vector product a one-hull
    # (m, n) @ (n,) makes
    inner = ((G - point[..., None, :]) @ (point - q)[..., :, None])[..., 0]
    worst = -inner.min(axis=-1)
    # max(0.0, worst), which keeps +0.0 where np.maximum would not
    viol = np.where(worst > 0.0, worst, 0.0)
    return float(viol) if viol.ndim == 0 else viol


def _affine_minimizer(A):
    # Minimum-norm point of the affine hull of the rows of A, as weights u
    # with sum(u) = 1 (entries may be negative).  KKT system solved by least
    # squares so rank-deficient (affinely dependent) corrals are handled.
    k = A.shape[0]
    M = np.zeros((k + 1, k + 1))
    M[0, 1:] = 1.0
    M[1:, 0] = 1.0
    M[1:, 1:] = A @ A.T
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    u = sol[1:]
    s = u.sum()
    if s != 0.0:
        u = u / s
    return u


def _wolfe_min_norm(P):
    # Wolfe's minimum-norm-point algorithm over the rows of P (m >= 3;
    # _min_norm runs it for m >= 5, the tests as a reference).
    # Returns full-length weights.  Deterministic: ties in argmin/argmax
    # resolve to the lowest index.
    m = P.shape[0]
    norms2 = np.einsum("ij,ij->i", P, P)
    dmax = float(np.sqrt(norms2.max()))
    # a stop relative to the hull's scale solves tiny hulls as well as unit ones
    stop_tol = _STOP_TOL * dmax ** 2
    cert_tol = CERTIFICATE_TOL * (1.0 + dmax) ** 2
    cap = ITER_FACTOR * m

    S = [int(np.argmin(norms2))]
    w = np.array([1.0])
    x = P[S[0]].copy()

    for _ in range(cap):
        dots = P @ x
        gap = float(x @ x - dots.min())
        if gap <= stop_tol:
            break
        j = int(np.argmin(dots))
        if j in S:
            # No improving vertex distinguishable at working precision.
            break
        S.append(j)
        w = np.append(w, 0.0)
        while True:
            u = _affine_minimizer(P[S])
            if u.min() > _DROP_TOL:
                w = u
                break
            # Step as far toward u as feasibility allows, then drop the
            # generators whose weight hit zero.
            mask = u <= _DROP_TOL
            denom = w[mask] - u[mask]
            ratios = np.where(denom > 0.0, w[mask] / np.where(denom > 0.0, denom, 1.0), 0.0)
            theta = float(min(1.0, max(0.0, ratios.min())))
            w = (1.0 - theta) * w + theta * u
            w[w < _DROP_TOL] = 0.0
            if w.max() <= 0.0:
                raise NoConvergenceError("minimum-norm-point weights collapsed",
                                         best_point=x, violation=gap)
            keep = np.flatnonzero(w > 0.0)
            if keep.size == len(S):
                # Force progress: remove the smallest offending weight.
                drop = int(np.flatnonzero(mask)[np.argmin(ratios)])
                keep = np.array([i for i in range(len(S)) if i != drop])
            S = [S[i] for i in keep]
            w = w[keep]
            w /= w.sum()
        x = np.asarray(w) @ P[S]

    dots = P @ x
    gap = float(x @ x - dots.min())
    if gap > cert_tol:
        raise NoConvergenceError(
            f"minimum-norm point not certified after {cap} iterations "
            f"(violation {gap:.3e}, tolerance {cert_tol:.3e})",
            best_point=x, best_weights=(list(S), np.asarray(w)), violation=gap)
    w_full = np.zeros(m)
    w_full[list(S)] = w
    return w_full


def _dot(a, b):
    # row-wise <a, b> over (..., n) stacks.  One point: ndarray.dot; stacks:
    # @; the same BLAS routine, the same bits, when the contracted axis has
    # two or more entries.  With one, dot does not sum from +0.0: a -0.0
    # product keeps its sign and 0 * inf can read 0.  Such a product keeps
    # @ where a result reads it (flow's stage 1, a one-generator hull, the
    # support scores at b = 0); at n = 1 the rest are squared, clamped,
    # compared, or meet b = k v (never -0.0) in the sliding control.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pow2(x):
    # x ** 2 per entry, rounded by pow() as ** 2 on a Python float or a
    # numpy scalar is; ** 2 on an array multiplies and can differ in the
    # last bit, so code that squared one value at a time keeps its bits
    # on a stack through this
    return np.array([v ** 2 for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _proper(x):
    # whether a closed form may divide by x: a pair's |delta|^2, or the
    # Gram determinant of a scaled hull's edge vectors, is at least the
    # smallest normal float.  Below it, or NaN, the pair or hull is
    # degenerate: a pair takes weight 1 on its first generator, as a
    # zero-length segment does, and a hull has no interior candidate.
    # Works on a float and on an array of them.
    return x >= _MIN_NORMAL


def _pair_weights(theta):
    # the pair weights (theta, 1 - theta), (..., 2), with each theta clamped
    # to [0, 1] as max(0.0, theta) and min(1.0, theta) clamp: +0.0 where
    # np.clip would keep the -0.0 of a zero numerator
    theta = np.where(theta > 0.0, theta, 0.0)
    theta = np.where(theta < 1.0, theta, 1.0)
    w = np.empty(theta.shape + (2,))
    w[..., 0], w[..., 1] = theta, 1.0 - theta
    return w


def _unit_scale(P, where=True):
    # each hull of an (..., m, n) stack, or each one where it is True,
    # scaled by the power of two 2 ** -e that brings its largest entry into
    # [0.5, 1), and e (0 for the rest); exact for normal entries
    e = np.where(where, np.frexp(np.abs(P).max(axis=(-2, -1)))[1], 0)
    return np.ldexp(P, -e[..., None, None]), e


def _segment_weights(P):
    # the pair closed form on an (..., 2, n) stack of hulls that are not
    # huge: minimize ||theta p0 + (1 - theta) p1|| over theta in [0, 1]
    d = P[..., 0, :] - P[..., 1, :]
    dd = _dot(d, d)
    return _pair_weights(np.divide(-_dot(P[..., 1, :], d), dd,
                                   out=np.ones_like(dd), where=_proper(dd)))


# the cofactor signs of a 2x2 matrix; each index's successor and
# predecessor mod 3, which form cross products
_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cofactors(V):
    # the rows C_i with <V_j, C_i> = det V * delta_ij, and det V, for a
    # (..., k, k) stack with k = 2 (perpendiculars) or k = 3 (cross products)
    if V.shape[-1] == 2:
        C = V[..., ::-1, ::-1] * _SIGNS
    else:
        A, B = V.take(_NEXT, axis=-2), V.take(_PREV, axis=-2)
        C = (A.take(_NEXT, axis=-1) * B.take(_PREV, axis=-1)
             - A.take(_PREV, axis=-1) * B.take(_NEXT, axis=-1))
    return C, _dot(V[..., 0, :], C[..., 0, :])


def _interior(P):
    # the interior candidate of an (..., m, n) stack with k = m - 1 <= n
    # edge vectors d_i = p0 - p_i: the weights (1 - sum_i a_i, a) of the
    # minimum-norm point x = p0 - sum_i a_i d_i of the affine hull, +0.0
    # for -0.0, and whether they are >= 0 with a _proper Gram determinant
    p0 = P[..., :1, :]
    D = p0 - P[..., 1:, :]
    k, n = D.shape[-2:]
    if n == k:
        # a @ D = p0 by Cramer's rule on the d_i themselves, whose
        # determinant squared is the Gram determinant: the Gram system
        # squares their condition number
        C, vol = _cofactors(D)
        det = vol * vol
        y, q = p0, vol
    else:
        # the Gram system, then one correction by the residual <x, d_i> of
        # its point x (the corrected seminormal equations)
        C, det = _cofactors(_dot(D[..., :, None, :], D[..., None, :, :]))
        y, q = _dot(p0, D)[..., None, :], det
    proper = _proper(det)
    a = np.divide(_dot(y, C), q[..., None], out=np.zeros(D.shape[:-1]),
                  where=proper[..., None])
    if n > k:
        x = p0 - a[..., None, :] @ D
        a = a + np.divide(_dot(_dot(x, D)[..., None, :], C), q[..., None],
                          out=np.zeros(D.shape[:-1]), where=proper[..., None])
    w = np.empty(P.shape[:-1])
    w[..., 0], w[..., 1:] = 1.0, a
    for i in range(k):
        w[..., 0] -= a[..., i]
    return np.where(w > 0.0, w, 0.0), proper & (w >= 0.0).all(axis=-1)


# the faces of an m-generator hull, in the order of its candidates, and
# where their weights go in its (m + 1, m) candidate weights
_FACES = {m: np.array(list(itertools.combinations(range(m), m - 1)))
          for m in (3, 4)}
_FACE_AT = {m: (np.repeat(np.arange(m), m - 1), F.ravel())
            for m, F in _FACES.items()}


def _simplex_weights(P):
    # the m = 3 and m = 4 closed form on an (..., m, n) stack: the
    # candidates are the m faces, by the pair closed form for a triangle's
    # edges and by this closed form for a tetrahedron's triangles, whose
    # clamps give the lower faces, and for n >= m - 1 the interior point
    # (for n < m - 1 a minimum lies on a face, by Caratheodory's theorem).
    # Every row takes the first candidate of least norm.  Each hull is
    # scaled by the power of two that brings its largest entry into
    # [0.5, 1): exact for normal entries, so the weights are those of the
    # hull itself, and the determinant test is relative to the hull's size
    # rather than underflowing on a hull of size 1e-77 or overflowing on
    # one of size 1e77.  Elementwise, so no row's bits depend on the rest
    # of the stack.
    lead, (m, n) = P.shape[:-2], P.shape[-2:]
    P = _unit_scale(P)[0]
    F = P[..., _FACES[m], :]
    W = np.zeros(lead + (m + (n >= m - 1), m))
    W[(...,) + _FACE_AT[m]] = (
        _simplex_weights(F) if m == 4 else _segment_weights(F)
    ).reshape(lead + (m * (m - 1),))
    if n >= m - 1:
        W[..., m, :], inside = _interior(P)
    # each candidate's point as the (1, m) @ (m, n) product of the result
    X = (W[..., None, :] @ P[..., None, :, :])[..., 0, :]
    nn = _dot(X, X)
    if n >= m - 1:
        nn[..., m] = np.where(inside, nn[..., m], np.inf)
    k = np.argmin(nn, axis=-1).ravel()
    W = W.reshape((-1,) + W.shape[-2:])
    return W[np.arange(k.size), k].reshape(lead + (m,))


def _min_norm(P):
    """Weights w, point d = w @ P and norm ||d|| of the minimum-norm point
    of conv(rows of P).

    P is one (m, n) hull, which gives a float norm, or an (..., m, n) stack
    of hulls, which gives stacks of weights, points and norms.  One
    dispatch on m serves both.  A stacked result equals the result of its
    hull alone bit for bit: m = 2, 3 and 4 take closed forms on every hull
    at once, the segment's (_segment_weights) and the face-recursive one of
    triangles and tetrahedra (_simplex_weights, which solves one hull as a
    stack of one), and m >= 5 runs Wolfe hull by hull.  A huge hull (see
    _HUGE) takes the stack form, which solves it and takes its norm at unit
    scale.
    """
    one = P.ndim == 2
    m, n = P.shape[-2:]
    huge = _HUGE / math.sqrt(n)
    # one hull takes the stack form when its Frobenius norm, a bound on its
    # entries, reaches huge, and the stack form finds whether it is huge
    if one and math.hypot(*P.ravel().tolist()) >= huge:
        w, d, norm = _min_norm(P[None])
        return w[0], d[0], float(norm[0])
    # the hulls the weights are solved on, each huge one at unit scale
    scaled = not one and not np.abs(P).max() < huge
    Q = _unit_scale(P, np.abs(P).max(axis=(-2, -1)) >= huge)[0] if scaled else P
    if m == 1:
        w = np.ones(P.shape[:-1])
    elif m == 2 and one:
        # the closed form: minimize ||theta p0 + (1 - theta) p1||
        p1 = P[1]
        d = P[0] - p1
        dd = float(d.dot(d))
        theta = float(-p1.dot(d)) / dd if _proper(dd) else 1.0
        theta = min(1.0, max(0.0, theta))
        w = np.array([theta, 1.0 - theta])
    elif m == 2:
        # the same closed form on every hull at once
        w = _segment_weights(Q)
    elif m <= 4:
        w = _simplex_weights(P[None])[0] if one else _simplex_weights(P)
    else:
        hulls = Q.reshape((-1, m, n))
        w = np.array([_wolfe_min_norm(Pk) for Pk in hulls]).reshape(P.shape[:-1])
    if one:
        d = w @ P if m == 1 else w.dot(P)  # one contracted entry: see _dot
        return w, d, math.sqrt(d.dot(d))
    d = (w[..., None, :] @ P)[..., 0, :]
    if scaled:
        # at unit scale, the norm of each point whose |d|^2 could overflow
        u, e = _unit_scale(d[..., None, :], np.abs(d).max(axis=-1) >= huge)
        return w, d, np.ldexp(np.sqrt(_dot(u[..., 0, :], u[..., 0, :])), e)
    return w, d, np.sqrt(_dot(d, d))


def project_onto_hull(q, generators):
    """Euclidean projection of the point q onto conv{g_1, ..., g_m}.

    Returns a HullProjection whose point minimizes ||p - q|| over the hull
    and whose certificate <point - q, g_i - point> >= -tol holds for all i.
    """
    G = _as_generator_matrix(generators)
    q = _as_vector(q, G.shape[1], "q")
    w, d, _ = _min_norm(G - q)
    point = q + d
    sw = SimplexWeights(w)
    residual = float(np.linalg.norm(point - sw.weights @ G))
    return HullProjection(point, sw, residual)


def min_norm_point(generators):
    """Minimum-norm point of conv{g_1, ..., g_m}.

    Equivalent to project_onto_hull(0, generators).
    """
    G = _as_generator_matrix(generators)
    return project_onto_hull(np.zeros(G.shape[1]), G)


def _support_weights(G, b):
    # Unvalidated support point of conv(rows of G) in direction b: returns
    # the tied indices (a list), full-length simplex weights and the point.
    # The scores are scanned as Python floats, which is cheaper than numpy
    # reductions at small m; max(top, -min) is the largest |score|.
    s = (G @ b).tolist()  # n may be 1 and b 0: see _dot
    top = max(s)
    cut = top - SUPPORT_TIE_TOL * (1.0 + max(top, -min(s)))
    tied = [i for i, v in enumerate(s) if v >= cut]
    if not tied or math.isnan(sum(s)):
        # a NaN score, or a +inf one that leaves no finite cut
        raise NumericDomainError("non-finite support scores")
    w = np.zeros(G.shape[0])
    if len(tied) == 1:
        i = tied[0]
        w[i] = 1.0
        return tied, w, G[i].copy()
    w[tied], point, _ = _min_norm(G[tied])
    return tied, w, point


def support_point(b, generators):
    """Maximize <b, .> over the hull.

    Returns (indices, point).  indices is the tuple of all generator indices
    whose score ties the maximum within 1e-10 * (1 + max |score|).  With a
    unique maximizer the point is that generator; under a tie the point is
    the minimum-norm point of the tied face, which makes the selection
    deterministic.  Scores that overflow to NaN, or to +inf, raise
    NumericDomainError.
    """
    G = _as_generator_matrix(generators)
    b = _as_vector(b, G.shape[1], "b")
    tied, _, point = _support_weights(G, b)
    return tuple(tied), point


def _excess(P, Q):
    # max over the vertices p of P of dist(p, conv Q), in one solve on the
    # (..., mP, mQ, n) stack Q - p, rounded as project_onto_hull rounds it:
    # V the min-norm point of Q - p, distance ||(p + V) - p||
    V = _min_norm(Q[..., None, :, :] - P[..., :, None, :])[1]
    diff = (P + V) - P
    return np.sqrt(_dot(diff, diff)).max(axis=-1)


def hausdorff_hull_distance(generators_a, generators_b):
    """Hausdorff distance between conv(A) and conv(B).

    A and B are one pair of (mA, n) and (mB, n) generator matrices, which
    gives a float, or two stacks (..., mA, n) and (..., mB, n) with equal
    leading shapes, which give an array of the pairwise distances.  Both go
    through one implementation, and a stacked distance equals the distance
    of its pair bit for bit.

    For polytopes the excess of A over B is attained at a vertex of A, since
    the distance to a convex set is a convex function, so it suffices to
    project the generators of each hull onto the other.
    """
    A = _as_generator_matrix(generators_a, stacked=True)
    B = _as_generator_matrix(generators_b, stacked=True)
    if A.shape[-1] != B.shape[-1]:
        raise InvalidInputError("hulls live in different dimensions")
    if A.shape[:-2] != B.shape[:-2]:
        raise InvalidInputError(f"hull stacks have different leading shapes "
                                f"{A.shape[:-2]} and {B.shape[:-2]}")
    h = np.maximum(_excess(A, B), _excess(B, A))
    return float(h) if h.ndim == 0 else h
