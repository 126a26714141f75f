"""Convex geometry kernel for generator hulls.

A hull is given in V-representation by an (m, n) matrix whose rows are the
generators g_1, ..., g_m.  The operations here are the ones the balanced
flows need: the minimum-norm point of a hull, the Euclidean projection of an
arbitrary point onto a hull, support points in a given direction with a
deterministic tie rule, and the Hausdorff distance between two hulls.

Projections are solved with an active-set minimum-norm-point method (Wolfe's
algorithm) on the shifted generators, with closed forms for one or two
generators.  Every result carries simplex weights and satisfies the standard
variational certificate

    <point - q, g_i - point> >= -CERTIFICATE_TOL * scale   for all i,

where scale = (1 + max(max_i ||g_i - q||, 0))^2 absorbs the data magnitude.
"""

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


def _as_generator_matrix(generators):
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G[None, :]
    if G.ndim != 2 or G.shape[0] < 1 or G.shape[1] < 1:
        raise InvalidInputError(f"generators must be a nonempty (m, n) matrix, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise InvalidInputError("generators contain non-finite entries")
    return G


def _as_vector(v, n, name):
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 and n == 1:
        v = v[None]
    if v.shape != (n,):
        raise InvalidInputError(f"{name} must be a vector of length {n}, got shape {v.shape}")
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
    """Absolute certificate tolerance for projecting q onto the hull."""
    G = _as_generator_matrix(generators)
    q = _as_vector(q, G.shape[1], "q")
    d = float(np.sqrt(((G - q) ** 2).sum(axis=1).max()))
    return CERTIFICATE_TOL * (1.0 + d) ** 2


def certificate_violation(q, generators, point):
    """Largest violation of <point - q, g_i - point> >= 0 over the generators.

    Zero means the variational characterization of the projection holds
    exactly; compare against certificate_tolerance(q, generators).
    """
    G = _as_generator_matrix(generators)
    q = _as_vector(q, G.shape[1], "q")
    point = _as_vector(point, G.shape[1], "point")
    inner = (G - point) @ (point - q)
    return float(max(0.0, -inner.min()))


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


def _segment_weights(P):
    # Closed form for two rows: minimize ||theta p0 + (1 - theta) p1||.
    d = P[0] - P[1]
    dd = float(d @ d)
    if dd == 0.0:
        return np.array([1.0, 0.0])
    theta = float(-(P[1] @ d)) / dd
    theta = min(1.0, max(0.0, theta))
    return np.array([theta, 1.0 - theta])


def _wolfe_min_norm(P):
    # Wolfe's minimum-norm-point algorithm over the rows of P (m >= 3).
    # Returns full-length weights.  Deterministic: ties in argmin/argmax
    # resolve to the lowest index.
    m = P.shape[0]
    norms2 = np.einsum("ij,ij->i", P, P)
    dmax = float(np.sqrt(norms2.max()))
    scale = (1.0 + dmax) ** 2
    stop_tol = _STOP_TOL * scale
    cert_tol = CERTIFICATE_TOL * scale
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


def _min_norm_weights(P):
    """Full-length simplex weights of the minimum-norm point of conv(rows of P)."""
    m = P.shape[0]
    if m == 1:
        return np.array([1.0])
    if m == 2:
        return _segment_weights(P)
    return _wolfe_min_norm(P)


def _project_weights(q, G):
    # Shared implementation: project q onto conv(rows of G).
    w = _min_norm_weights(G - q)
    point = q + w @ (G - q)
    return w, point


def project_onto_hull(q, generators):
    """Euclidean projection of the point q onto conv{g_1, ..., g_m}.

    Returns a HullProjection whose point minimizes ||p - q|| over the hull
    and whose certificate <point - q, g_i - point> >= -tol holds for all i.
    """
    G = _as_generator_matrix(generators)
    q = _as_vector(q, G.shape[1], "q")
    w, point = _project_weights(q, G)
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
    s = (G @ b).tolist()
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
    face = G[tied]
    wf = _min_norm_weights(face)
    w[tied] = wf
    return tied, w, wf @ face


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


def hausdorff_hull_distance(generators_a, generators_b):
    """Hausdorff distance between conv(A) and conv(B).

    For polytopes the excess of A over B is attained at a vertex of A, since
    the distance to a convex set is a convex function, so it suffices to
    project the generators of each hull onto the other.
    """
    A = _as_generator_matrix(generators_a)
    B = _as_generator_matrix(generators_b)
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError("hulls live in different dimensions")

    def excess(P, Q):
        worst = 0.0
        for p in P:
            _, point = _project_weights(p, Q)
            worst = max(worst, float(np.linalg.norm(point - p)))
        return worst

    return max(excess(A, B), excess(B, A))
