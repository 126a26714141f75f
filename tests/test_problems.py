import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbgf import problems
from mbgf.errors import ConfigError, InvalidInputError, NumericDomainError
from mbgf.problems import (
    Box,
    Problem,
    get_problem,
    list_problems,
    quadratic_problem,
    register_problem,
)

ALL = ["unbalanced-convex", "strongly-convex", "nonconvex-bounded-grad", "scalar-pair"]


def region_sample(p, rng, k):
    return rng.uniform(p.region.lo, p.region.hi, size=(k, p.region.n))


def fd_gradients(p, x, h=1e-6):
    g = np.zeros((p.m, p.n))
    for j in range(p.n):
        e = np.zeros(p.n)
        e[j] = h
        g[:, j] = (p.value(x + e) - p.value(x - e)) / (2.0 * h)
    return g


def test_registry_lists_builtins():
    assert list_problems() == sorted(ALL)
    with pytest.raises(ConfigError):
        get_problem("no-such-problem")


def test_fixed_values():
    p1 = get_problem("unbalanced-convex")
    assert np.allclose(p1.value([0.0, 0.0]), [0.0, 1.0])
    g = p1.grads([1.0, 1.0])
    assert np.allclose(g[0], [100.0, 1.0])
    assert np.allclose(g[1], [0.0, 0.0])

    p2 = get_problem("strongly-convex")
    assert p2.value([0.0, 0.0])[0] == 0.0
    assert np.allclose(p2.grads([0.0, 0.0])[0], [0.0, 0.0])

    p4 = get_problem("scalar-pair")
    assert np.allclose(p4.value([2.0]), [9.0, 1.0])
    assert np.allclose(p4.grads([2.0])[:, 0], [6.0, 2.0])


def test_evaluate_is_pure():
    for name in ALL:
        p = get_problem(name)
        x = p.starts[0]
        assert np.array_equal(p.value(x), p.value(x))
        assert np.array_equal(p.grads(x), p.grads(x))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for name in ALL:
        p = get_problem(name)
        for x in region_sample(p, rng, 100):
            g = p.grads(x)
            fd = fd_gradients(p, x)
            scale = np.maximum(np.linalg.norm(fd, axis=1), 1.0)
            err = np.linalg.norm(g - fd, axis=1) / scale
            assert err.max() <= 1e-6, (name, x, err.max())


def test_lipschitz_ratios_hold():
    rng = np.random.default_rng(7)
    for name in ALL:
        p = get_problem(name)
        xs = region_sample(p, rng, 200)
        ys = region_sample(p, rng, 200)
        gx = p.grads(xs)
        gy = p.grads(ys)
        dist = np.linalg.norm(xs - ys, axis=-1)
        keep = dist > 1e-12
        ratios = np.linalg.norm(gx - gy, axis=-1)[keep] / dist[keep, None]
        assert np.all(ratios <= p.lipschitz * (1.0 + 1e-6)), name


def test_strong_convexity_monotonicity():
    p = get_problem("strongly-convex")
    rng = np.random.default_rng(11)
    xs = region_sample(p, rng, 200)
    ys = region_sample(p, rng, 200)
    gap = p.grads(xs) - p.grads(ys)
    d = xs - ys
    inner = np.einsum("kin,kn->ki", gap, d)
    dd = np.einsum("kn,kn->k", d, d)
    assert np.all(inner >= p.strong_convexity * dd[:, None] - 1e-12)


def test_midpoint_convexity_of_convex_problems():
    rng = np.random.default_rng(13)
    for name in ("unbalanced-convex", "strongly-convex"):
        p = get_problem(name)
        xs = region_sample(p, rng, 200)
        ys = region_sample(p, rng, 200)
        mid = p.value(0.5 * (xs + ys))
        avg = 0.5 * (p.value(xs) + p.value(ys))
        assert np.all(mid <= avg + 1e-10), name


def test_nonconvex_problem_violates_midpoint_convexity():
    p = get_problem("nonconvex-bounded-grad")
    x = np.array([5.3, 0.0])
    y = np.array([5.7, 0.0])
    mid = p.value(0.5 * (x + y))[0]
    avg = 0.5 * (p.value(x)[0] + p.value(y)[0])
    assert mid > avg + 1e-6


def test_nonconvex_metadata():
    p = get_problem("nonconvex-bounded-grad")
    # inf f_i = 0 attained at the centers.
    assert np.allclose(p.value([0.0, 0.0])[0], 0.0, atol=1e-14)
    assert np.allclose(p.value([2.0, 1.0])[1], 0.0, atol=1e-14)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-30.0, 30.0, size=(20000, 2))
    f = p.value(xs)
    assert f.min() >= 0.0
    norms = np.linalg.norm(p.grads(xs), axis=-1)
    assert norms.max() <= p.grad_bound + 1e-12


def test_region_contains_shipped_start_level_sets():
    for name in ALL:
        p = get_problem(name)
        for x0 in p.starts:
            lsb = p.level_set_bound(p.value(x0))
            assert np.all(lsb.box.lo >= p.region.lo - 1e-12), name
            assert np.all(lsb.box.hi <= p.region.hi + 1e-12), name


def test_level_set_bound_ball_example():
    ball = Problem(
        "unit-ball", 2, 1,
        lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-3.0, -3.0], [3.0, 3.0]), grad_bound=float(np.sqrt(18.0)),
        starts=[[1.0, 1.0]],
        level_set_bound=None,
    )
    # No analytic closure: fallback is the declared region.
    lsb = ball.level_set_bound([2.0])
    assert lsb.radius == pytest.approx(np.sqrt(18.0))

    def analytic(a):
        # a (P, 1) stack of levels, as every analytic bound takes
        from mbgf.problems import LevelSetBound
        r = np.sqrt(2.0 * a)
        return LevelSetBound(a, r[:, 0], Box(-r * [1.0, 1.0], r * [1.0, 1.0]))

    ball2 = Problem(
        "unit-ball-2", 2, 1,
        lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-3.0, -3.0], [3.0, 3.0]), grad_bound=float(np.sqrt(18.0)),
        starts=[[1.0, 1.0]], level_set_bound=analytic,
    )
    assert ball2.level_set_bound([2.0]).radius == pytest.approx(2.0)


def test_level_set_bound_by_rejection_sampling():
    rng = np.random.default_rng(23)
    for name in ALL:
        p = get_problem(name)
        x0 = p.starts[-1]
        a = p.value(x0)
        lsb = p.level_set_bound(a)
        xs = region_sample(p, rng, 20000)
        inside = np.all(p.value(xs) <= a + 1e-12, axis=-1)
        pts = xs[inside]
        assert pts.size > 0
        assert np.all(np.linalg.norm(pts, axis=-1) <= lsb.radius + 1e-9), name
        assert np.all(pts >= lsb.box.lo - 1e-9) and np.all(pts <= lsb.box.hi + 1e-9), name


def test_level_set_bound_monotone_in_level():
    p = get_problem("strongly-convex")
    a = p.value(p.starts[0])
    big = p.level_set_bound(a)
    small = p.level_set_bound(0.5 * a)
    assert small.radius <= big.radius + 1e-12


def test_vectorized_shapes():
    p = get_problem("unbalanced-convex")
    xs = np.zeros((7, 2))
    assert p.value(xs).shape == (7, 2)
    assert p.grads(xs).shape == (7, 2, 2)
    p4 = get_problem("scalar-pair")
    assert p4.value(np.zeros((5, 1))).shape == (5, 2)
    assert p4.grads(np.zeros((5, 1))).shape == (5, 2, 1)
    assert p4.value(2.0).shape == (2,)


def test_error_paths():
    p = get_problem("strongly-convex")
    with pytest.raises(InvalidInputError):
        p.value([np.nan, 0.0])
    with pytest.raises(InvalidInputError):
        p.value([1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        p.level_set_bound([-1.0, 1.0])

    bad = Problem(
        "explodes", 1, 1,
        lambda x: np.full(x.shape[:-1] + (1,), np.inf),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-1.0], [1.0]), grad_bound=1.0, starts=[[0.0]],
    )
    with pytest.raises(NumericDomainError):
        bad.value([0.5])


def _line_plugin(**kw):
    # f(x) = x^2 / 2 on [-1, 1], its declared data overridable
    return Problem(**{"name": "line", "n": 1, "m": 1,
                      "value": lambda x: 0.5 * x * x,
                      "grads": lambda x: x[..., None, :],
                      "lipschitz": [1.0], "lower_bounds": [0.0],
                      "convexity_class": "convex", "region": Box([-1.0], [1.0]),
                      "grad_bound": 1.0, "starts": [[0.5]], **kw})


@pytest.mark.parametrize("kw, message", [
    ({"convexity_class": "concave"}, "unknown convexity class 'concave'"),
    ({"lipschitz": [0.0]}, "lipschitz must be m positive reals"),
    ({"lipschitz": [1.0, 1.0]}, "lipschitz must be m positive reals"),
    ({"lower_bounds": [0.0, 0.0]}, "lower_bounds must have length m"),
    ({"starts": [[0.5], [0.25, 0.75]]}, "line: a start must be one point"),
])
def test_plugin_declarations_are_refused_by_name(kw, message):
    with pytest.raises(InvalidInputError) as e:
        _line_plugin(**kw)
    assert str(e.value) == message


def test_plugin_oracle_outputs_are_checked():
    p = _line_plugin(grads=lambda x: np.full(x.shape[:-1] + (1, 1), np.inf))
    with pytest.raises(NumericDomainError) as e:
        p.grads([0.5])
    assert str(e.value) == "line: non-finite gradient"
    p = _line_plugin(value=lambda x: x.astype(complex))
    with pytest.raises(NumericDomainError) as e:
        p.value([0.5])
    assert str(e.value) == "line: non-finite objective value"


def test_disjoint_boxes_do_not_intersect():
    with pytest.raises(InvalidInputError) as e:
        Box([0.0, 0.0], [1.0, 1.0]).intersect(Box([2.0, 0.0], [3.0, 1.0]))
    assert str(e.value) == "empty box intersection"


def test_register_plugin_roundtrip(monkeypatch):
    def factory():
        return Problem(
            "plugin-demo", 1, 1,
            lambda x: (x * x).sum(axis=-1, keepdims=True),
            lambda x: 2.0 * x[..., None, :],
            lipschitz=[2.0], lower_bounds=[0.0], convexity_class="convex",
            region=Box([-1.0], [1.0]), grad_bound=2.0, starts=[[0.5]],
        )

    # the setitem makes monkeypatch remove the entry again
    monkeypatch.setitem(problems._REGISTRY, "plugin-demo", factory)
    name = register_problem(factory)
    assert name == "plugin-demo"
    assert name in list_problems()
    q = get_problem(name)
    assert np.allclose(q.value([0.5]), [0.25])
    monkeypatch.undo()
    assert list_problems() == sorted(ALL)


# p1, p2 and p4 are instances of one quadratic family; these are the
# hand-written np.stack formulas of each, kept as the reference.  They
# square by multiplication, as ** 2 does on an array: on a single point's
# numpy scalars ** 2 calls pow(), which differs from x * x in the last bit
# at about 1 point in 1000.

def _p1_value_stack(x):
    x1, x2 = x[..., 0], x[..., 1]
    f1 = 0.5 * (100.0 * (x1 * x1) + x2 * x2)
    f2 = 0.5 * ((x1 - 1.0) * (x1 - 1.0) + (x2 - 1.0) * (x2 - 1.0))
    return np.stack([f1, f2], axis=-1)


def _p1_grads_stack(x):
    g1 = np.stack([100.0 * x[..., 0], x[..., 1]], axis=-1)
    g2 = x - np.array([1.0, 1.0])
    return np.stack([g1, g2], axis=-2)


def _p2_value_stack(x):
    x1, x2 = x[..., 0], x[..., 1]
    f1 = 0.5 * (x1 * x1 + x2 * x2)
    f2 = 0.5 * ((x1 - 2.0) * (x1 - 2.0) + x2 * x2)
    return np.stack([f1, f2], axis=-1)


def _p2_grads_stack(x):
    return np.stack([x, x - np.array([2.0, 0.0])], axis=-2)


def _p4_value_stack(x):
    x0 = x[..., 0]
    return np.stack([(x0 + 1.0) * (x0 + 1.0), (x0 - 1.0) * (x0 - 1.0)], axis=-1)


def _p4_grads_stack(x):
    x0 = x[..., 0]
    return np.stack([2.0 * (x0 + 1.0), 2.0 * (x0 - 1.0)], axis=-1)[..., None]


def _assert_same_array(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,value,grads", [
    ("unbalanced-convex", _p1_value_stack, _p1_grads_stack),
    ("strongly-convex", _p2_value_stack, _p2_grads_stack),
    ("scalar-pair", _p4_value_stack, _p4_grads_stack),
])
def test_oracles_match_stack_formulas_bitwise(name, value, grads):
    p = get_problem(name)
    rng = np.random.default_rng(11)
    for lead in ((), (50,), (20, 30)):
        x = region_sample(p, rng, int(np.prod(lead, dtype=int))).reshape(lead + (p.n,))
        x.flat[0] = -0.0  # signed zero goes through unchanged
        _assert_same_array(p._value(x), value(x))
        _assert_same_array(p._grads(x), grads(x))
        _assert_same_array(p.value(x), value(x))
        _assert_same_array(p.grads(x), grads(x))
    if p.n == 1:
        _assert_same_array(p.value(2.0), value(np.array([2.0])))
        _assert_same_array(p.grads(2.0), grads(np.array([2.0])))


@pytest.mark.parametrize("name,lipschitz,strong_convexity,grad_bound", [
    ("unbalanced-convex", [100.0, 1.0], None, float(np.hypot(150.0, 2.0))),
    ("strongly-convex", [1.0, 1.0], [1.0, 1.0], float(np.sqrt(20.0))),
    ("scalar-pair", [2.0, 2.0], None, 7.0),
])
def test_quadratic_family_derives_the_declared_constants(
        name, lipschitz, strong_convexity, grad_bound):
    # the literals p1, p2 and p4 declared before they became instances
    p = get_problem(name)
    assert p.lipschitz.tolist() == lipschitz
    assert p.lower_bounds.tolist() == [0.0, 0.0]
    assert (p.strong_convexity is None if strong_convexity is None
            else p.strong_convexity.tolist() == strong_convexity)
    assert p.grad_bound == grad_bound


def test_quadratic_problem_refuses_bad_curvatures():
    for A, C in (([[1.0, 0.0]], [[0.0, 0.0]]), ([[1.0, 1.0]], [[0.0]]),
                 ([1.0, 1.0], [0.0, 0.0]), ([[1.0, np.inf]], [[0.0, 0.0]]),
                 ([[1.0, 1.0]], [[0.0, np.nan]])):
        with pytest.raises(InvalidInputError, match="quadratic problem"):
            quadratic_problem("bad", A, C, convexity_class="convex",
                              region=Box([-1.0, -1.0], [1.0, 1.0]),
                              starts=[[0.0, 0.0]])


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(ALL),
       u=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_oracles_equal_single_points_bitwise(name, u, seed):
    # The records of a run evaluate the oracles once on the stack of all
    # recorded points, so a stacked call must give every point the bytes
    # of its own call: on an (N, n) stack and on an (N/4, 4, n) one.
    # Hypothesis draws points with edge coordinates, and the seed 400 more,
    # since single-point rounding differences can be rare (pow() against
    # x * x changed about 1 value in 2000).
    p = get_problem(name)
    lo, hi = p.region.lo, p.region.hi
    drawn = np.array(u[:len(u) // (4 * p.n) * 4 * p.n]).reshape(-1, p.n)
    x = np.concatenate([lo + drawn * (hi - lo),
                        region_sample(p, np.random.default_rng(seed), 400)])
    for oracle in (p._value, p._grads):
        single = np.array([oracle(xi) for xi in x])
        _assert_same_array(oracle(x), single)
        _assert_same_array(oracle(x.reshape(-1, 4, p.n)),
                           single.reshape((-1, 4) + single.shape[1:]))


# ------------------------------------------------- stacked level-set bounds

def _bound_bits(b):
    return (np.float64(b.radius).tobytes() if np.ndim(b.radius) == 0
            else b.radius.tobytes(), b.box.lo.tobytes(), b.box.hi.tobytes())


def _levels(p, rng, k):
    # levels of region points, some raised, and of the shipped starts: each
    # sublevel set is nonempty, so a stack of them has every box
    F = p.value(region_sample(p, rng, k))
    F[: k // 2] += rng.uniform(0.0, 5.0, (k // 2, 1))
    return np.vstack([F, np.stack([p.value(s) for s in p.starts])])


@pytest.mark.parametrize("name", ALL)
def test_stacked_level_set_bound_equals_per_level_calls(name):
    p = get_problem(name)
    A = _levels(p, np.random.default_rng(17), 400)
    stacked = p.level_set_bound(A)
    assert stacked.radius.shape == (len(A),)
    assert stacked.box.lo.shape == stacked.box.hi.shape == (len(A), p.n)
    assert "radius=[" in repr(stacked)
    for k, a in enumerate(A):
        one = p.level_set_bound(a)
        assert isinstance(one.radius, float) and one.box.lo.shape == (p.n,)
        assert _bound_bits(stacked[k]) == _bound_bits(one), (name, k)


# The level-set bounds p1, p2 and p4 had before they became instances of
# the quadratic family, kept as the reference.  p1's f1 box had the x1
# half-width sqrt(2 a_1) / 10; the family's sqrt(2 a_1 / 100) takes its
# place, the one part of these bounds the family moved.

def _ball_bound(a_i, c):
    r = np.sqrt(np.maximum(0.0, 2.0 * a_i))
    c = np.array(c)
    return np.sqrt(c @ c) + r, c - r[:, None], c + r[:, None]


def _p1_bound(a):
    r1 = np.sqrt(2.0 * a[:, 0])
    h1 = np.sqrt(2.0 * a[:, 0] / 100.0)
    radius2, lo2, hi2 = _ball_bound(a[:, 1], [1.0, 1.0])
    box = Box(*problems._intersect(np.stack([-h1, -r1], axis=-1),
                                   np.stack([h1, r1], axis=-1), lo2, hi2))
    return np.minimum.reduce([r1, radius2, box.max_norm()]), box


def _p2_bound(a):
    r1, lo1, hi1 = _ball_bound(a[:, 0], [0.0, 0.0])
    r2, lo2, hi2 = _ball_bound(a[:, 1], [2.0, 0.0])
    box = Box(*problems._intersect(lo1, hi1, lo2, hi2))
    return np.minimum.reduce([r1, r2, box.max_norm()]), box


def _p4_bound(a):
    r1, r2 = np.sqrt(a[:, :1]), np.sqrt(a[:, 1:])
    box = Box(*problems._intersect(-1.0 - r1, -1.0 + r1, 1.0 - r2, 1.0 + r2))
    return np.minimum.reduce([1.0 + r1[:, 0], 1.0 + r2[:, 0],
                              box.max_norm()]), box


@pytest.mark.parametrize("name,bound,centers", [
    ("unbalanced-convex", _p1_bound, [[0.0, 0.0], [1.0, 1.0]]),
    ("strongly-convex", _p2_bound, [[0.0, 0.0], [2.0, 0.0]]),
    ("scalar-pair", _p4_bound, [[-1.0], [1.0]]),
])
def test_quadratic_family_keeps_the_closed_form_level_set_bounds(
        name, bound, centers):
    # seeded levels, and the levels of the centers and above them, where
    # the center's own objective reads +0.0 or -0.0
    p = get_problem(name)
    F = p.value(np.array(centers))
    F = np.vstack([F, F + 0.5])
    own = np.tile(np.eye(p.m, dtype=bool), (2, 1))
    A = np.vstack([_levels(p, np.random.default_rng(27), 3000),
                   np.where(own, 0.0, F), np.where(own, -0.0, F)])
    radius, box = bound(A)
    got = p.level_set_bound(A)
    assert np.array_equal(got.radius, radius)
    assert np.array_equal(got.box.lo, box.lo)
    assert np.array_equal(got.box.hi, box.hi)
    # bit for bit, but where p1's f1 level is +-0.0: there the family's
    # corners 0 - r and 0 + r read +0.0, where -r or r read -0.0
    keep = A[:, 0] != 0.0 if name == "unbalanced-convex" else slice(None)
    assert got.radius[keep].tobytes() == radius[keep].tobytes()
    assert got.box.lo[keep].tobytes() == box.lo[keep].tobytes()
    assert got.box.hi[keep].tobytes() == box.hi[keep].tobytes()


def test_p3_bound_squares_each_level_as_a_numpy_scalar_does():
    # r_i = sqrt((a_i + 1.8) ** 2 - 1): ** 2 on a numpy scalar calls pow(),
    # on an array it multiplies, and the two differ in the last bit at about
    # 1 level in 1000 here; the stacked bound keeps pow()'s bits
    p = get_problem("nonconvex-bounded-grad")
    A = np.random.default_rng(3).uniform(0.0, 10.0, (20000, 2))
    r = np.array([[float(np.sqrt((a_i + 1.8) ** 2 - 1.0)) for a_i in a]
                  for a in A])
    C = np.array([[0.0, 0.0], [2.0, 1.0]])
    lo = np.maximum(C[0] - r[:, :1], C[1] - r[:, 1:])
    hi = np.minimum(C[0] + r[:, :1], C[1] + r[:, 1:])
    b = p.level_set_bound(A)
    assert b.box.lo.tobytes() == lo.tobytes()
    assert b.box.hi.tobytes() == hi.tobytes()
    for k in range(0, len(A), 97):
        assert _bound_bits(b[k]) == _bound_bits(p.level_set_bound(A[k]))


@pytest.mark.parametrize("name", ALL)
def test_a_negative_level_anywhere_in_a_stack_is_refused(name):
    p = get_problem(name)
    A = _levels(p, np.random.default_rng(5), 6)
    for k in range(len(A)):
        for i in range(p.m):
            B = A.copy()
            B[k, i] = -1e-3
            with pytest.raises(InvalidInputError, match="empty sublevel set"):
                p.level_set_bound(B)


def test_level_stack_shape_is_checked():
    p = get_problem("strongly-convex")
    for bad in (np.ones((3, 3)), np.ones((2, 2, 2)), [[1.0, np.nan]]):
        with pytest.raises(InvalidInputError, match="level vector"):
            p.level_set_bound(bad)


def test_plugin_without_analytic_bound_gets_its_region_per_level():
    ball = Problem(
        "unit-ball", 2, 1,
        lambda x: 0.5 * (x * x).sum(axis=-1, keepdims=True),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-3.0, -2.0], [3.0, 4.0]), grad_bound=5.0,
        starts=[[1.0, 1.0]])
    A = np.array([[0.5], [2.0], [9.0]])
    b = ball.level_set_bound(A)
    assert b.radius.tolist() == [ball.region.max_norm()] * 3
    assert np.array_equal(b.box.lo, np.tile(ball.region.lo, (3, 1)))
    assert np.array_equal(b.box.hi, np.tile(ball.region.hi, (3, 1)))
    for k, a in enumerate(A):
        assert _bound_bits(b[k]) == _bound_bits(ball.level_set_bound(a))


def test_box_stack_intersects_and_indexes_box_by_box():
    lo = np.array([[0.0, 0.0], [1.0, -1.0]])
    boxes = Box(lo, lo + 2.0)
    other = Box(lo + 1.0, lo + 3.0)
    both = boxes.intersect(other)
    assert both.n == 2
    for k in range(2):
        one = boxes[k].intersect(other[k])
        assert both[k].lo.tobytes() == one.lo.tobytes()
        assert both[k].hi.tobytes() == one.hi.tobytes()
        assert both.max_norm()[k] == one.max_norm()
    with pytest.raises(InvalidInputError):
        Box(lo, lo - 1.0)
    with pytest.raises(InvalidInputError):
        Box(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
