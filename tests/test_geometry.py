import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from mbgf.geometry import (MEMBERSHIP_TOL, SUPPORT_TIE_TOL, _min_norm_weights,
                           _support_weights)
from mbgf.verify import _exact_min_norm

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=100)
settings.load_profile("suite")


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
    face = G[tied]
    wf = _min_norm_weights(face)
    w[tied] = wf
    return tied, w, wf @ face


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
