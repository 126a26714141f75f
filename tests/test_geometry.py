import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mbgf import (
    InvalidInputError,
    SimplexWeights,
    certificate_tolerance,
    certificate_violation,
    hausdorff_hull_distance,
    min_norm_point,
    project_onto_hull,
    support_point,
)
from mbgf.errors import NumericDomainError
from mbgf import verify
from mbgf.geometry import (CERTIFICATE_TOL, MEMBERSHIP_TOL, SUPPORT_TIE_TOL,
                           _excess, _min_norm, _support_weights,
                           _wolfe_min_norm)
from mbgf.verify import _exact_min_norm

def hulls(max_m=5, max_n=4, scale=5.0):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-scale, scale, allow_nan=False, width=64),
                         min_size=n, max_size=n),
                min_size=m, max_size=m,
            )
        )
    ).map(lambda rows: np.array(rows, dtype=float))


# ---------------------------------------------------------------- fixed values

def test_min_norm_point_of_symmetric_segment():
    # Segment from (3,1) to (1,3): closest point to the origin is the
    # midpoint (2,2) at equal weights.
    r = min_norm_point([[3.0, 1.0], [1.0, 3.0]])
    assert np.allclose(r.point, [2.0, 2.0], atol=1e-12)
    assert np.allclose(r.weights.weights, [0.5, 0.5], atol=1e-12)
    assert abs(float(r.point @ r.point) - 8.0) < 1e-10


def test_min_norm_point_of_a_segment_past_1e154():
    # |delta|^2 overflows at this size: the pair closed form solves the
    # segment scaled to unit size, alone and as a row of a stack.  The
    # norm, sqrt(d . d), still overflows to inf here, hence the errstate.
    G = np.array([[3.0, 1.0], [1.0, 3.0]]) * 1e155
    with np.errstate(over="ignore"):
        r = min_norm_point(G)
        w = _min_norm(G)[0]
        W = _min_norm(np.stack([G * 1e-155, G, -G]))[0]
    assert np.abs(r.weights.weights - 0.5).max() <= 1e-15
    assert np.allclose(r.point, [2e155, 2e155], rtol=1e-15, atol=0.0)
    assert np.abs(W - 0.5).max() <= 1e-15
    assert W[1].tobytes() == w.tobytes()
    assert W[0].tobytes() == _min_norm(G * 1e-155)[0].tobytes()


def test_projection_clamps_to_endpoint():
    # Projecting (0,2) onto the segment {(2,0),(0,1)}: the unconstrained
    # affine solution has a negative weight, so the answer is the endpoint
    # (0,1) at distance 1.
    r = project_onto_hull([0.0, 2.0], [[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(r.point, [0.0, 1.0], atol=1e-12)
    assert abs(np.linalg.norm(r.point - np.array([0.0, 2.0])) - 1.0) < 1e-12
    assert np.allclose(r.weights.weights, [0.0, 1.0], atol=1e-12)


def test_min_norm_point_interior_origin():
    g = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0], [2.0, 2.0]])
    r = min_norm_point(g)
    assert np.linalg.norm(r.point) < 1e-10


def test_tiny_hull_around_origin_is_solved_to_its_scale():
    # Four generators of size 1e-6 to 6e-5 on a line, with 0 inside the
    # hull: the closed form solves the hull scaled to unit size, and with a
    # fifth generator the Wolfe stop is relative to the hull's scale, so
    # the point found is 0 up to rounding, not ~1e-6 as an absolute stop
    # would allow.
    G = np.array([[-6.369867788021516e-05], [8.317504988157094e-06],
                  [-8.135689145345654e-06], [-1.1290484673047792e-06]])
    assert np.linalg.norm(min_norm_point(G).point) < 1e-9
    assert np.linalg.norm(min_norm_point(np.vstack([G, G[:1]])).point) < 1e-9


def test_single_generator():
    r = min_norm_point([[3.0, 4.0]])
    assert np.allclose(r.point, [3.0, 4.0])
    assert r.weights.weights.tolist() == [1.0]
    assert np.isclose(np.linalg.norm(r.point), 5.0)


def test_duplicate_generators():
    r = min_norm_point([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(r.point, [1.0, 1.0])


def test_support_point_unique_and_tied():
    G = [[3.0, 1.0], [1.0, 3.0], [3.0, -1.0]]
    idx, pt = support_point([0.0, 1.0], G)
    assert idx == (1,)
    assert np.allclose(pt, [1.0, 3.0])
    # Direction (1,0) ties generators 0 and 2; the tie resolves to the
    # minimum-norm point of that face, here (3,0).
    idx, pt = support_point([1.0, 0.0], G)
    assert idx == (0, 2)
    assert np.allclose(pt, [3.0, 0.0], atol=1e-12)


def test_hausdorff_of_point_hulls_is_distance():
    assert np.isclose(hausdorff_hull_distance([[0.0, 0.0]], [[3.0, 4.0]]), 5.0)


def test_hausdorff_invariant_under_hull_representation():
    A = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    # Same hull: rows permuted, plus a redundant interior generator.
    B = np.array([[0.0, 2.0], [0.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
    assert hausdorff_hull_distance(A, B) < 1e-10


# ------------------------------------------------------------- oracle parity

def test_min_norm_matches_grid_oracle():
    rng = np.random.default_rng(514)
    for i in range(300):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        G = rng.normal(scale=0.1, size=(m, n))
        kind = int(rng.integers(0, 10))
        if kind == 0 and m >= 2:
            G[1] = G[0]
        elif kind == 1 and m >= 3:
            G[2] = 0.5 * (G[0] + G[1])
        elif kind == 2:
            G *= 1e-3
        r = min_norm_point(G)
        v_oracle = _exact_min_norm(G)
        assert abs(float(np.linalg.norm(r.point)) - v_oracle) <= 1e-4
        z = np.zeros(n)
        assert certificate_violation(z, G, r.point) <= certificate_tolerance(z, G)


def test_exact_oracle_closed_forms():
    segment = np.array([[3.0, 1.0], [1.0, 3.0]])
    triangle = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    assert _exact_min_norm([[3.0, 4.0]]) == 5.0
    assert abs(_exact_min_norm(segment) - np.sqrt(8.0)) <= 1e-15
    assert _exact_min_norm(triangle) <= 1e-15
    assert abs(_exact_min_norm(segment[[0, 0, 1]]) - np.sqrt(8.0)) <= 1e-15
    midpoint = np.vstack([segment, 0.5 * (segment[0] + segment[1])])
    assert abs(_exact_min_norm(midpoint) - np.sqrt(8.0)) <= 1e-15
    assert abs(_exact_min_norm(1e-3 * midpoint) - 1e-3 * np.sqrt(8.0)) <= 1e-18


# ---------------------------------------------------------------- properties

@given(hulls(), st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_min_norm_and_projection_match_exact_oracle(G, qraw):
    # For a hull point x with gap g = ||x||^2 - min_i <x, g_i>, the distance
    # to the minimum-norm point satisfies ||x - x*||^2 <= g, so a certified
    # point is within sqrt(certificate_tolerance) of the oracle's value.
    z = np.zeros(G.shape[1])
    r = min_norm_point(G)
    assert (abs(float(np.linalg.norm(r.point)) - _exact_min_norm(G))
            <= np.sqrt(certificate_tolerance(z, G)))
    q = np.array(qraw[: G.shape[1]])
    r = project_onto_hull(q, G)
    assert (abs(float(np.linalg.norm(r.point - q)) - _exact_min_norm(G - q))
            <= np.sqrt(certificate_tolerance(q, G)))


@given(hulls())
def test_certificate_and_membership(G):
    r = min_norm_point(G)
    z = np.zeros(G.shape[1])
    assert certificate_violation(z, G, r.point) <= certificate_tolerance(z, G)
    max_norm = float(np.sqrt((G * G).sum(axis=1).max()))
    assert r.residual_norm <= MEMBERSHIP_TOL * (1.0 + max_norm)
    w = r.weights.weights
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-10


@given(hulls(), st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_projection_certificate_and_idempotence(G, qraw):
    q = np.array(qraw[: G.shape[1]])
    r = project_onto_hull(q, G)
    assert certificate_violation(q, G, r.point) <= certificate_tolerance(q, G)
    scale = 1.0 + float(np.sqrt(((G - q) ** 2).sum(axis=1).max()))
    again = project_onto_hull(r.point, G)
    assert np.linalg.norm(again.point - r.point) <= 3e-5 * scale


@given(hulls(),
       st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_projection_nonexpansive(G, araw, braw):
    a = np.array(araw[: G.shape[1]])
    b = np.array(braw[: G.shape[1]])
    pa = project_onto_hull(a, G).point
    pb = project_onto_hull(b, G).point
    scale = 1.0 + float(np.abs(G).max()) + float(np.abs(a).max()) + float(np.abs(b).max())
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-8 * scale


@given(hulls())
def test_min_norm_equals_projection_of_origin(G):
    a = min_norm_point(G)
    b = project_onto_hull(np.zeros(G.shape[1]), G)
    assert np.allclose(a.point, b.point, atol=1e-12)


@given(hulls(), st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4))
def test_support_point_maximizes_score(G, braw):
    b = np.array(braw[: G.shape[1]])
    idx, pt = support_point(b, G)
    scores = G @ b
    tol = 1e-9 * (1.0 + float(np.abs(scores).max()))
    assert float(pt @ b) >= scores.max() - tol
    assert all(scores[i] >= scores.max() - tol for i in idx)


# The support routine scans the scores as Python floats; this is the numpy
# formula it replaced, kept as the reference.
def _flatnonzero_support(G, b):
    scores = G @ b
    tol = SUPPORT_TIE_TOL * (1.0 + float(np.abs(scores).max()))
    tied = np.flatnonzero(scores >= scores.max() - tol)
    w = np.zeros(G.shape[0])
    if tied.size == 1:
        w[tied[0]] = 1.0
        return tied, w, G[tied[0]].copy()
    w[tied], point, _ = _min_norm(G[tied])
    return tied, w, point


def _assert_same_support(G, b):
    tied, w, point = _support_weights(G, b)
    ref_tied, ref_w, ref_point = _flatnonzero_support(G, b)
    assert list(tied) == ref_tied.tolist()
    assert w.tobytes() == ref_w.tobytes()
    assert point.shape == ref_point.shape
    assert point.tobytes() == ref_point.tobytes()
    return tied


@st.composite
def support_cases(draw):
    G = draw(hulls(max_m=5, max_n=4))
    m, n = G.shape
    b = np.array(draw(st.lists(st.floats(-3, 3, allow_nan=False, width=64),
                               min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["plain", "zero-b", "duplicate", "near-tie"]))
    if kind == "zero-b":
        b = np.zeros(n)
    elif kind == "duplicate" and m > 1:
        G[draw(st.integers(1, m - 1))] = G[0]
    elif kind == "near-tie" and m > 1 and b @ b > 0.0:
        # move a second row to score the tie width times c below the top
        scores = G @ b
        top = int(np.argmax(scores))
        tol = SUPPORT_TIE_TOL * (1.0 + np.abs(scores).max())
        c = draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0]))
        G[(top + 1) % m] = G[top] - (c * tol / (b @ b)) * b
    return G, b


@given(support_cases())
def test_support_scan_matches_flatnonzero_formula(case):
    _assert_same_support(*case)


def test_support_scan_tie_width_edges():
    # n = 1 and b = 1 make the scores the generators themselves.
    b = np.array([1.0])
    for top in (0.0, 1.0, -3.0, 1e6):
        tol = SUPPORT_TIE_TOL * (1.0 + abs(top))
        G = np.array([[top], [top - 0.999 * tol], [top - 1.001 * tol], [top]])
        assert _assert_same_support(G, b) == [0, 1, 3]
    # an exact tie between duplicate rows, and b = 0 tying everything
    G = np.array([[1.0, 2.0], [0.5, 0.5], [1.0, 2.0]])
    assert _assert_same_support(G, np.array([1.0, 1.0])) == [0, 2]
    assert _assert_same_support(G, np.zeros(2)) == [0, 1, 2]


def test_support_scan_non_finite_scores():
    # NaN anywhere, or a +inf top score, leaves the old formula no tied
    # face (it failed inside the min-norm solver); the scan raises.
    for G, b in (([[1.0], [2.0]], [np.nan]),
                 ([[2.0], [np.nan]], [1.0]),
                 ([[1e308], [1.0]], [10.0])):
        G, b = np.array(G), np.array(b)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                _flatnonzero_support(G, b)
            with pytest.raises(NumericDomainError):
                _support_weights(G, b)
    # A -inf score under a finite top ties every row in both.
    with np.errstate(over="ignore", invalid="ignore"):
        assert _assert_same_support(np.array([[1.0], [-1e308]]),
                                    np.array([10.0])) == [0, 1]


@given(hulls(max_m=4, max_n=3), hulls(max_m=4, max_n=3),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=3, max_size=3))
def test_projection_holder_in_the_set_argument(A, B, xraw):
    n = min(A.shape[1], B.shape[1])
    A, B = A[:, :n], B[:, :n]
    x = np.array(xraw[:n])
    pa = project_onto_hull(x, A).point
    pb = project_onto_hull(x, B).point
    h = hausdorff_hull_distance(A, B)
    da = float(np.linalg.norm(pa - x))
    db = float(np.linalg.norm(pb - x))
    rho = float(np.linalg.norm(x)) + da + db
    lhs = float(np.linalg.norm(pa - pb)) ** 2
    scale = (1.0 + float(np.abs(A).max()) + float(np.abs(B).max()) + float(np.abs(x).max())) ** 2
    assert lhs <= rho * h + 1e-8 * scale


def test_projection_holder_unsquared_empirical(record_property):
    # The squared bound is a theorem; here we only record how often the
    # unsquared variant holds on random data.
    rng = np.random.default_rng(99)
    holds = 0
    trials = 500
    for _ in range(trials):
        A = rng.normal(size=(int(rng.integers(1, 5)), 2))
        B = rng.normal(size=(int(rng.integers(1, 5)), 2))
        x = rng.normal(size=2) * 2.0
        pa = project_onto_hull(x, A).point
        pb = project_onto_hull(x, B).point
        h = hausdorff_hull_distance(A, B)
        rho = np.linalg.norm(x) + np.linalg.norm(pa - x) + np.linalg.norm(pb - x)
        if np.linalg.norm(pa - pb) <= rho * h + 1e-9:
            holds += 1
    record_property("unsquared_holds_fraction", holds / trials)
    assert 0 <= holds <= trials


@given(hulls(max_m=4, max_n=3), hulls(max_m=4, max_n=3))
def test_hausdorff_symmetry(A, B):
    n = min(A.shape[1], B.shape[1])
    A, B = A[:, :n], B[:, :n]
    d1 = hausdorff_hull_distance(A, B)
    d2 = hausdorff_hull_distance(B, A)
    assert d1 >= 0.0
    assert abs(d1 - d2) <= 1e-12 * (1.0 + d1)


# hausdorff_hull_distance projects whole stacks at once; this is the per-pair
# loop it replaced, kept as the reference, one project_onto_hull per vertex.
def _per_pair_hausdorff(A, B):
    def excess(P, Q):
        worst = 0.0
        for p in P:
            point = project_onto_hull(p, Q).point
            worst = max(worst, float(np.linalg.norm(point - p)))
        return worst

    return max(excess(A, B), excess(B, A))


def _pairs(A, B):
    return zip(A.reshape((-1,) + A.shape[-2:]), B.reshape((-1,) + B.shape[-2:]))


@st.composite
def hull_stack_pairs(draw):
    k = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(k,), (draw(st.integers(1, 3)), k)]))
    n = draw(st.integers(1, 3))

    def stack(m):
        size = int(np.prod(lead)) * m * n
        rows = draw(st.lists(st.floats(-4, 4, allow_nan=False, width=64),
                             min_size=size, max_size=size))
        return np.array(rows).reshape(lead + (m, n))

    A, B = stack(draw(st.integers(1, 4))), stack(draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["plain", "duplicate", "vertex-inside", "centered"]))
    if kind == "duplicate":
        # repeated generators; a two-row hull becomes a zero-length segment
        A[..., -1, :] = A[..., 0, :]
        B[..., -1, :] = B[..., 0, :]
    elif kind == "vertex-inside":
        # a vertex p of A inside conv(B), so 0 is inside conv(B - p)
        A[..., 0, :] = B.mean(axis=-2)
    elif kind == "centered":
        # 0 inside both hulls
        A -= A.mean(axis=-2, keepdims=True)
        B -= B.mean(axis=-2, keepdims=True)
    scale = draw(st.sampled_from([1.0, 1e-3]))
    return scale * A, scale * B


@given(hull_stack_pairs())
def test_stacked_hausdorff_bit_equals_per_pair_loop(case):
    A, B = case
    h = hausdorff_hull_distance(A, B)
    assert isinstance(h, np.ndarray) and h.shape == A.shape[:-2]
    ref = np.array([_per_pair_hausdorff(a, b) for a, b in _pairs(A, B)])
    assert h.tobytes() == ref.tobytes()


@given(hull_stack_pairs())
def test_stacked_excess_matches_exact_oracle(case):
    A, B = case
    tol = 1e-9 * (1.0 + max(np.abs(A).max(), np.abs(B).max()))
    for P, Q in ((A, B), (B, A)):
        ex = _excess(P, Q).ravel()
        ref = [max(_exact_min_norm(q - p) for p in ps) for ps, q in _pairs(P, Q)]
        assert np.all(np.abs(ex - ref) <= tol)


def test_stacked_hausdorff_bit_equals_per_pair_on_suite_pairs():
    # 2 000 hausdorff-lipschitz pairs of each problem at seed 0, the first
    # 1 000 local and the first 1 000 independent ones; the unchanged verify
    # report rests on this equality.  Rounding the segment weight's dot
    # products another way moves only independent pairs.
    rng = np.random.default_rng(np.random.SeedSequence(
        [0, verify.SUITES.index("hausdorff-lipschitz")]))
    for _, _, GU, GV, _ in verify._hausdorff_pairs(rng):
        half = len(GU) // 2
        pick = np.r_[:1000, half:half + 1000]
        A, B = GU[pick], GV[pick]
        ref = np.array([_per_pair_hausdorff(a, b) for a, b in _pairs(A, B)])
        assert hausdorff_hull_distance(A, B).tobytes() == ref.tobytes()


@st.composite
def hull_stacks(draw):
    # a stack of hulls with one m, plus the degenerate cases: duplicate
    # generators, 0 inside the hull, a 1e-3 scale, and a zero generator,
    # whose segment weight is -0.0 / |d|^2 before the clamp
    lead = draw(st.sampled_from([(1,), (5,), (2, 3)]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    flat = draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False, width=64),
                         min_size=m * n, max_size=m * n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    P = np.random.default_rng(seed).uniform(-5.0, 5.0, lead + (m, n))
    P[(0,) * len(lead)] = np.reshape(flat, (m, n))
    kind = draw(st.sampled_from(["plain", "duplicate", "zero-inside", "tiny",
                                 "zero-generator"]))
    if kind == "duplicate":
        P[..., -1, :] = P[..., 0, :]
    elif kind == "zero-inside":
        P -= P.mean(axis=-2, keepdims=True)
    elif kind == "tiny":
        P *= 1e-3
    elif kind == "zero-generator":
        P[..., -1, :] = np.where(P[..., 0, :] > 0.0, 0.0, -0.0)
    return P


@given(hull_stacks())
def test_stacked_min_norm_bit_equals_each_hull(P):
    # Weights, points and norms of a stack equal those of each hull alone
    # byte for byte, signed zeros included, and the norms are the exact
    # oracle's to rounding.
    w, d, norm = _min_norm(P)
    m, n = P.shape[-2:]
    assert w.shape == P.shape[:-1] and d.shape == P.shape[:-2] + (n,)
    assert norm.shape == P.shape[:-2]
    for Pk, wk, dk, nk in zip(P.reshape(-1, m, n), w.reshape(-1, m),
                              d.reshape(-1, n), norm.ravel()):
        w1, d1, n1 = _min_norm(Pk)
        assert wk.tobytes() == w1.tobytes()
        assert dk.tobytes() == d1.tobytes()
        assert np.float64(n1).tobytes() == nk.tobytes()
        assert abs(n1 - _exact_min_norm(Pk)) <= 1e-9 * (1.0 + np.abs(Pk).max())


def test_stacked_min_norm_keeps_positive_zero_weights():
    # theta = -<p_2, d> / |d|^2 is -0.0 when p_2 = 0; the clamp returns the
    # +0.0 that max(0.0, theta) gives for one hull
    P = np.array([[[1.0, 2.0], [0.0, 0.0]], [[3.0, 0.0], [-0.0, 0.0]]])
    w = _min_norm(P)[0]
    assert w.tobytes() == np.array([[0.0, 1.0], [0.0, 1.0]]).tobytes()
    # a one-generator hull of n = 1 contracts one entry: alone as in a
    # stack its point is w @ P, +0.0 for the generator -0.0 (geometry._dot)
    P1 = np.array([[-0.0]])
    assert (_min_norm(P1)[1].tobytes() == _min_norm(P1[None])[1][0].tobytes()
            == np.zeros(1).tobytes())


@st.composite
def one_point_products(draw):
    # the operand pairs of the one-point products of mbgf, with entries
    # w 2^e of exponents far apart, so that a sum taken in another order
    # rounds differently, and some signed zeros.  Two or more contracted
    # entries: vector . vector, as the tail view y[n:] of a stacked state
    # and as strided views; (k,) . (k, n) on the leading-rows view K[:k] of
    # the (7, n) stage array; (k, n) . (n,).  Every matrix has contiguous
    # rows: on strided columns numpy's matmul runs its own loop, not BLAS.
    # One contracted entry: the n = 1 products, by a nonzero vector.
    k, n = draw(st.integers(2, 7)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def wide(*shape):
        a = rng.standard_normal(shape) * np.exp2(rng.integers(-400, 400, shape))
        a[rng.random(shape) < 0.2] = -0.0
        return a

    y, K, w, G = wide(2 * n), wide(7, n), wide(k), wide(k, n)
    y1, v1 = wide(2), wide(1)
    v1[v1 == 0.0] = 1.0
    return ([(y[n:], y[:n]), (y[::2], y[1::2]), (K[:, 0], K[:, -1]),
             (w, K[:k]), (G, y[n:]), (G, y[::2]), (K[:k], y[1::2])],
            [(y1[1:], y1[:1]), (K[:3, :1], v1)])


@settings(max_examples=2000)
@given(one_point_products())
def test_one_point_dot_is_bit_equal_to_matmul(case):
    # One point takes ndarray.dot, a stack takes @ (geometry._dot): with
    # two or more contracted entries the same bits, which every pin of a
    # run's output rests on; with one, the same bits up to the sign of a
    # zero, which @ sums from +0.0 and dot does not.
    several, one = case
    for a, b in several:
        assert a.dot(b).tobytes() == (a @ b).tobytes()
    for a, b in one:
        assert (a.dot(b) + 0.0).tobytes() == (a @ b).tobytes()


def test_stacked_hausdorff_input_contract():
    A = np.zeros((3, 2, 2))
    B = np.ones((3, 1, 2))
    assert hausdorff_hull_distance(A, B).shape == (3,)
    assert type(hausdorff_hull_distance([[0.0, 0.0]], [[3.0, 4.0]])) is float
    for bad in (np.nan, np.inf, -np.inf):
        X = A.copy()
        X[2, 1, 0] = bad
        for args in ((X, B), (B, X)):
            with pytest.raises(InvalidInputError, match="non-finite entries"):
                hausdorff_hull_distance(*args)
    with pytest.raises(InvalidInputError, match="hulls live in different dimensions"):
        hausdorff_hull_distance(A, np.ones((3, 1, 3)))
    for other in (np.ones((4, 1, 2)), np.ones((1, 3, 1, 2)), np.ones((1, 2))):
        with pytest.raises(InvalidInputError, match="different leading shapes"):
            hausdorff_hull_distance(A, other)
    for empty in (np.zeros((3, 0, 2)), np.zeros((0, 2))):
        with pytest.raises(InvalidInputError,
                           match=r"generators must be a nonempty \(m, n\) matrix"):
            hausdorff_hull_distance(empty, B)


def test_wolfe_scales_to_many_generators():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(40, 6))
    r = min_norm_point(G)
    z = np.zeros(6)
    assert certificate_violation(z, G, r.point) <= certificate_tolerance(z, G)


# ----------------------------------------------------------------- validation

def test_simplex_weights_clamp_and_renormalize():
    w = SimplexWeights([0.5, 0.5 + 4e-11, -1e-13])
    assert w.weights.min() == 0.0
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert len(w) == 3


def test_simplex_weights_rejections():
    with pytest.raises(InvalidInputError):
        SimplexWeights([0.5, 0.5, -1e-9])
    with pytest.raises(InvalidInputError):
        SimplexWeights([0.7, 0.7])
    with pytest.raises(InvalidInputError):
        SimplexWeights([np.nan, 1.0])


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidInputError):
        min_norm_point([[np.inf, 0.0]])
    with pytest.raises(InvalidInputError):
        project_onto_hull([1.0], [[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        support_point([np.nan, 0.0], [[1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        hausdorff_hull_distance([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        min_norm_point(np.zeros((0, 2)))


# ------------------------------------------------------ stacked certificates

def _ref_violation(q, G, point):
    # the one-hull formula before stacks
    return float(max(0.0, -((G - point) @ (point - q)).min()))


def _ref_tolerance(q, G):
    d = float(np.sqrt(((G - q) ** 2).sum(axis=1).max()))
    return CERTIFICATE_TOL * (1.0 + d) ** 2


def _geometry_oracle_stacks():
    # the (k, m, n) hull stacks geometry-oracle certifies at seed 0
    stacks = []
    by_shape = verify._by_shape

    def recording(hulls):
        groups = by_shape(hulls)
        stacks.extend(groups)
        return groups

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_by_shape", recording)
        verify.run_suite("geometry-oracle", seed=0)
    return stacks


def _degenerate_stacks(rng):
    # duplicate generators, 0 inside the hull and 1e-3 scale, per shape
    stacks = []
    for m in range(1, 5):
        for n in range(1, 4):
            G = rng.normal(0.0, 0.1, size=(40, m, n))
            if m >= 2:
                G[:10, 1] = G[:10, 0]
                G[10:20, 1] = -G[10:20, 0]
            G[20:30] *= 1e-3
            stacks.append(G)
    return stacks


def test_stacked_certificates_equal_per_hull_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    stacks = _geometry_oracle_stacks() + _degenerate_stacks(rng)
    assert sum(len(Gs) for Gs in stacks) > 1000
    for Gs in stacks:
        n = Gs.shape[-1]
        points = _min_norm(Gs)[1]
        # q = 0 with its projection, a q per hull with its projection, and
        # random points, whose violations are not 0
        Q = rng.normal(0.0, 0.1, size=(len(Gs), n))
        cases = [(np.zeros(n), points),
                 (Q, Q + _min_norm(Gs - Q[:, None])[1]),
                 (Q, rng.normal(0.0, 0.1, size=(len(Gs), n)))]
        for q, P in cases:
            viol = certificate_violation(q, Gs, P)
            tol = certificate_tolerance(q, Gs)
            assert viol.shape == tol.shape == (len(Gs),)
            for k, G in enumerate(Gs):
                qk = q if q.ndim == 1 else q[k]
                one_v = certificate_violation(qk, G, P[k])
                one_t = certificate_tolerance(qk, G)
                assert isinstance(one_v, float) and isinstance(one_t, float)
                assert viol[k].tobytes() == np.float64(one_v).tobytes()
                assert tol[k].tobytes() == np.float64(one_t).tobytes()
                assert one_v == _ref_violation(qk, G, P[k])
                assert np.float64(one_t).tobytes() == np.float64(
                    _ref_tolerance(qk, G)).tobytes()


def test_certificate_stacks_check_their_shapes():
    Gs = np.zeros((3, 2, 2))
    with pytest.raises(InvalidInputError, match="one per hull"):
        certificate_tolerance(np.zeros((2, 2)), Gs)
    with pytest.raises(InvalidInputError, match="one per hull"):
        certificate_violation(np.zeros(2), Gs, np.zeros((4, 2)))
    with pytest.raises(InvalidInputError, match="length 2, got"):
        certificate_violation(np.zeros(2), Gs[0], np.zeros((3, 2)))


# ------------------------------------------- the m = 3 and m = 4 closed form

@st.composite
def simplex_stacks(draw, m):
    # a stack of m-generator hulls, m = 3 or 4, with the degenerate cases:
    # the last generator in the affine hull of the others (collinear or
    # coplanar), duplicate generators, 0 inside the hull, and the scales
    # 1e-3, 1e-100, 1e-160 (where |g_i - g_j|^2 is subnormal) and 1e100
    lead = draw(st.sampled_from([(1,), (6,), (2, 3)]))
    n = draw(st.integers(1, 4))
    flat = draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False, width=64),
                         min_size=m * n, max_size=m * n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = rng.uniform(-5.0, 5.0, lead + (m, n))
    P[(0,) * len(lead)] = np.reshape(flat, (m, n))
    kind = draw(st.sampled_from(["plain", "flat", "duplicate", "zero-inside",
                                 "1e-3", "1e-100", "1e-160", "1e100"]))
    if kind == "flat":
        u = rng.uniform(-2.0, 3.0, lead + (m - 2, 1))
        E = P[..., 1:-1, :] - P[..., :1, :]
        P[..., -1, :] = P[..., 0, :] + (u * E).sum(axis=-2)
    elif kind == "duplicate":
        P[..., draw(st.integers(1, m - 1)), :] = P[..., 0, :]
    elif kind == "zero-inside":
        P -= P.mean(axis=-2, keepdims=True)
    elif kind != "plain":
        P *= float(kind)
    return P


# the hull on which Wolfe's stop returns norm 2^-25 where the exact value
# is 0 (0 lies inside its face of generators 0, 1 and 3)
WOLFE_STOP_HULL = np.array([[0.0, np.ldexp(3.0, -25), -0.25],
                            [0.0, -np.ldexp(1.0, -25), -0.25],
                            [0.0, -np.ldexp(1.0, -25), -0.25],
                            [0.0, -np.ldexp(1.0, -25), 0.75]])


def _rows(P):
    return P.reshape((-1,) + P.shape[-2:])


def _wolfe_norm(P):
    # Wolfe's norm on the hull scaled exactly to unit size: its stop and
    # certificate are not relative to a hull of size 1e100
    e = np.frexp(np.abs(P).max())[1]
    U = np.ldexp(P, -e)
    return np.ldexp(np.linalg.norm(_wolfe_min_norm(U) @ U), e)


def _assert_closed_form_matches_references(P):
    # a closed form against the exact oracle to 1e-9 of the hull's size,
    # and never above Wolfe, whose stop allows a norm error of about 1e-5
    # of it; a certified point and simplex weights that give it.  1e-160
    # absorbs ||d|| = sqrt(d @ d) where d @ d is a subnormal float.
    w, d, norm = _min_norm(P)
    scale = float(np.abs(P).max())
    tol = 1e-9 * scale + 1e-160
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
    assert np.abs(d - w @ P).max() <= 1e-15 * scale
    assert norm <= _wolfe_norm(P) + tol
    assert abs(norm - _exact_min_norm(P)) <= tol
    z = np.zeros(P.shape[1])
    assert certificate_violation(z, P, d) <= certificate_tolerance(z, P)


@example(WOLFE_STOP_HULL[None, [0, 1, 3]])
@given(simplex_stacks(3))
def test_triangle_closed_form_matches_wolfe_and_the_exact_oracle(P):
    for Pk in _rows(P):
        _assert_closed_form_matches_references(Pk)


@example(WOLFE_STOP_HULL[None])
@given(simplex_stacks(4))
def test_tetra_closed_form_matches_wolfe_and_the_exact_oracle(P):
    for Pk in _rows(P):
        _assert_closed_form_matches_references(Pk)


@given(simplex_stacks(3))
def test_stacked_triangle_rows_bit_equal_each_hull(P):
    w, d, norm = _min_norm(P)
    n = P.shape[-1]
    for Pk, wk, dk, nk in zip(_rows(P), w.reshape(-1, 3), d.reshape(-1, n),
                              norm.ravel()):
        w1, d1, n1 = _min_norm(Pk)
        assert wk.tobytes() == w1.tobytes()
        assert dk.tobytes() == d1.tobytes()
        assert np.float64(n1).tobytes() == nk.tobytes()


def test_triangle_closed_form_fixed_cases():
    # 0 inside: the interior point, every weight positive
    w, d, norm = _min_norm(np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))
    assert norm <= 1e-15 and w.min() > 0.0
    # the minimum on an edge, the third weight exactly 0
    w, d, norm = _min_norm(np.array([[3.0, 1.0], [1.0, 3.0], [4.0, 4.0]]))
    assert w[2] == 0.0 and abs(norm - np.sqrt(8.0)) <= 1e-15
    # a vertex, and a degenerate triangle of three equal points
    w, _, norm = _min_norm(np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 1.0]]))
    assert w.tolist() == [1.0, 0.0, 0.0] and norm == np.sqrt(2.0)
    w, _, _ = _min_norm(np.ones((3, 2)))
    assert w.tolist() == [1.0, 0.0, 0.0]
    # collinear in n = 1 with 0 inside the segment
    assert _min_norm(np.array([[0.5], [-1.0], [2.0]]))[2] <= 1e-16
    # a triangle is degenerate by its size relative to itself: 0 inside a
    # 1e-100 or 1e100 triangle, whose Gram determinant would underflow or
    # overflow, is found to the same relative accuracy as the oracle's
    inside = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    edge = np.array([[3.0, 1.0], [1.0, 3.0], [4.0, 4.0]])
    for s in (1e-100, 1e100):
        w, _, norm = _min_norm(s * inside)
        assert w.min() > 0.0 and norm <= 1e-15 * s
        assert _exact_min_norm(s * inside) <= 1e-15 * s
        w, _, norm = _min_norm(s * edge)
        assert w[2] == 0.0
        assert abs(norm - s * np.sqrt(8.0)) <= 1e-15 * s * np.sqrt(8.0)
        assert abs(_exact_min_norm(s * edge) - norm) <= 1e-15 * norm
    # a power-of-two scale leaves the weights' bits as they are
    for P in (inside, edge, np.array([[0.3, 1.1], [-0.7, 0.2], [0.5, -0.9]])):
        w = _min_norm(P)[0]
        for k in (-330, -60, 60, 300):
            assert _min_norm(np.ldexp(P, k))[0].tobytes() == w.tobytes()


@example(WOLFE_STOP_HULL[None], 0)
@given(simplex_stacks(4), st.integers(-200, 200))
def test_stacked_tetra_rows_bit_equal_each_hull(P, k):
    # each row equals its hull alone byte for byte, and a hull scaled by
    # 2^k, where that is exact, keeps its weights' bits
    w, d, norm = _min_norm(P)
    n = P.shape[-1]
    for Pk, wk, dk, nk in zip(_rows(P), w.reshape(-1, 4), d.reshape(-1, n),
                              norm.ravel()):
        w1, d1, n1 = _min_norm(Pk)
        assert wk.tobytes() == w1.tobytes()
        assert dk.tobytes() == d1.tobytes()
        assert np.float64(n1).tobytes() == nk.tobytes()
        scaled = np.ldexp(Pk, k)
        if np.array_equal(np.ldexp(scaled, -k), Pk):
            assert _min_norm(scaled)[0].tobytes() == w1.tobytes()


def test_tetra_closed_form_fixed_cases():
    # 0 inside: the interior point, every weight positive
    inside = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                       [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    w, d, norm = _min_norm(inside)
    assert norm <= 1e-15 and w.min() > 0.0
    # the minimum inside a face, on an edge, at a vertex: the other weights
    # exactly 0
    face = inside + 2.0
    w, _, norm = _min_norm(face)
    assert w[0] == 0.0 and w[1:].min() > 0.0
    assert abs(norm - _exact_min_norm(face)) <= 1e-15
    edge = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [4.0, 4.0, 1.0],
                     [5.0, 3.0, -1.0]])
    w, _, norm = _min_norm(edge)
    assert w[2:].tolist() == [0.0, 0.0] and abs(norm - np.sqrt(8.0)) <= 1e-15
    vertex = np.array([[1.0, 1.0, 1.0], [2.0, 3.0, 1.0], [3.0, 1.0, 2.0],
                       [2.0, 2.0, 4.0]])
    w, _, norm = _min_norm(vertex)
    assert w.tolist() == [1.0, 0.0, 0.0, 0.0] and norm == np.sqrt(3.0)
    # four equal points, and 0 inside a square in n = 2 and a segment in n = 1
    assert _min_norm(np.ones((4, 3)))[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert _min_norm(square)[2] <= 1e-16
    assert _min_norm(np.array([[0.5], [-1.0], [2.0], [3.0]]))[2] <= 1e-16
    # Wolfe's stop leaves 2^-25 on this hull; the closed form finds 0
    assert np.linalg.norm(_wolfe_min_norm(WOLFE_STOP_HULL) @ WOLFE_STOP_HULL) > 1e-8
    assert _min_norm(WOLFE_STOP_HULL)[2] == 0.0
    # a tetrahedron is degenerate by its size relative to itself: 0 inside
    # a 1e-100 or 1e100 one, whose Gram determinant would underflow or
    # overflow, is found to the oracle's relative accuracy, and a
    # power-of-two scale leaves the weights' bits as they are
    for s in (1e-100, 1e100):
        w, _, norm = _min_norm(s * inside)
        assert w.min() > 0.0 and norm <= 1e-15 * s
        w, _, norm = _min_norm(s * face)
        assert abs(norm - _exact_min_norm(s * face)) <= 1e-15 * norm
    for P in (inside, face, edge, WOLFE_STOP_HULL,
              np.array([[0.3, 1.1, 0.2, -0.4], [-0.7, 0.2, 0.9, 0.1],
                        [0.5, -0.9, -0.3, 0.6], [-0.2, 0.1, -0.8, -0.5]])):
        w = _min_norm(P)[0]
        for k in (-330, -60, 60, 300):
            assert _min_norm(np.ldexp(P, k))[0].tobytes() == w.tobytes()


@pytest.mark.parametrize("m,n,thin", [(3, 2, 1e-4), (3, 3, 1e-8), (4, 2, 1e-4),
                                       (4, 3, 1e-4), (4, 4, 1e-8)])
def test_simplex_interior_of_thin_hulls(m, n, thin):
    # 0 at the centroid of hulls thin in their last coordinate is found to
    # 1e-12 of the hull's size, by the interior candidate when n >= m - 1
    # and by a face's otherwise.  The plain Gram system squares the edge
    # vectors' condition number: solved by it, triangles miss 0 by 3.3e-6
    # at n = 2 and 1.3e-12 at n = 3, and m = 4 hulls by 9.9e-8 at n = 2,
    # through their faces, and 5.6e-6 at n = 3.  The Gram system with its
    # correction step in place of Cramer's rule misses by 7e-9 (m = 3,
    # n = 2) and 6.4e-7 (m = 4, n = 3), and without that step by 2.1e-10
    # at n = 4.
    P = np.random.default_rng(0).normal(size=(200, m, n))
    P[..., -1] *= thin
    P -= P.mean(axis=-2, keepdims=True)
    w, _, norm = _min_norm(P)
    assert (norm <= 1e-12 * np.abs(P).max(axis=(-2, -1))).all()
    if n >= m - 1:
        assert (w > 0.0).all()


def _assert_suite_stacks_match(m):
    # the m-generator stacks geometry-oracle solves at seed 0: each row
    # equals its hull alone bit for bit and matches Wolfe and the oracle
    stacks = [Gs for Gs in _geometry_oracle_stacks() if Gs.shape[1] == m]
    assert sum(len(Gs) for Gs in stacks) > 250
    for Gs in stacks:
        w, d, norm = _min_norm(Gs)
        for G, wk, dk, nk in zip(Gs, w, d, norm):
            w1, d1, n1 = _min_norm(G)
            assert wk.tobytes() == w1.tobytes() and dk.tobytes() == d1.tobytes()
            assert np.float64(n1).tobytes() == nk.tobytes()
            _assert_closed_form_matches_references(G)


def test_triangle_closed_form_on_the_suite_stacks():
    _assert_suite_stacks_match(3)


def test_tetra_closed_form_on_the_suite_stacks():
    _assert_suite_stacks_match(4)


# ------------------------------------------------------ the stacked oracle

# the oracle solves each support subset for a whole stack at once; this is
# the per-hull loop of lstsq calls it replaced, kept as the reference
def _lstsq_loop_min_norm(G):
    m = G.shape[0]
    best = np.inf
    for k in range(1, m + 1):
        for S in itertools.combinations(range(m), k):
            a0 = G[S[0]]
            D = G[list(S[1:])] - a0
            c = np.linalg.lstsq(D.T, -a0, rcond=None)[0]
            if min(1.0 - c.sum(), c.min(initial=0.0)) >= -1e-12:
                best = min(best, float(np.linalg.norm(a0 + c @ D)))
    return best


def _assert_oracle_rows_equal_each_hull(Gs):
    values = _exact_min_norm(Gs)
    assert isinstance(values, np.ndarray) and values.shape == (len(Gs),)
    for G, v in zip(Gs, values):
        one = _exact_min_norm(G)
        assert isinstance(one, float)
        assert np.float64(one).tobytes() == v.tobytes()
        ref = _lstsq_loop_min_norm(G)
        assert abs(one - ref) <= 1e-14 * (1.0 + np.abs(G).max())


@given(hull_stacks())
def test_stacked_oracle_rows_bit_equal_each_hull(P):
    _assert_oracle_rows_equal_each_hull(_rows(P))


@given(simplex_stacks(3))
def test_stacked_oracle_on_degenerate_triangles(P):
    _assert_oracle_rows_equal_each_hull(_rows(P))


def test_stacked_oracle_rows_bit_equal_each_hull_up_to_six_generators():
    # supports of five and six generators sum four and five terms per
    # coordinate, where a matrix product's bits can depend on the stack
    rng = np.random.default_rng(7)
    for m in range(1, 7):
        for n in range(1, 6):
            G = rng.normal(0.0, 0.1, size=(24, m, n))
            if m >= 2:
                G[:6, 1] = G[:6, 0]
                G[6:12, 1] = -G[6:12, 0]
            G[12:18] *= 1e-3
            _assert_oracle_rows_equal_each_hull(G)


def test_stacked_oracle_on_the_suite_stacks():
    stacks = _geometry_oracle_stacks()
    assert sum(len(Gs) for Gs in stacks) == 1300
    for Gs in stacks:
        _assert_oracle_rows_equal_each_hull(Gs)


def test_oracle_reads_nothing_of_the_geometry_module():
    # the oracle's functions name no geometry code, so a fault in the kernel
    # cannot hide in the reference it is checked against
    import mbgf.geometry as geometry
    kernel = {name for name in vars(geometry) if not name.startswith("__")}
    for fn in (verify._exact_min_norm, verify._lstsq, verify._combine):
        assert fn.__module__ == "mbgf.verify"
        assert not (set(fn.__code__.co_names) - {"np", "itertools"}) & kernel
