import numpy as np
import pytest

from mbgf.errors import ConfigError, InvalidInputError, NumericDomainError
from mbgf.problems import (
    Box,
    get_problem,
    level_set_bound,
    list_problems,
    make_problem,
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
            lsb = level_set_bound(p, p.value(x0))
            assert np.all(lsb.box.lo >= p.region.lo - 1e-12), name
            assert np.all(lsb.box.hi <= p.region.hi + 1e-12), name


def test_level_set_bound_ball_example():
    ball = make_problem(
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
        from mbgf.problems import LevelSetBound
        r = float(np.sqrt(2.0 * a[0]))
        return LevelSetBound(a, r, Box([-r, -r], [r, r]))

    ball2 = make_problem(
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
        lsb = level_set_bound(p, a)
        xs = region_sample(p, rng, 20000)
        inside = np.all(p.value(xs) <= a + 1e-12, axis=-1)
        pts = xs[inside]
        assert pts.size > 0
        assert np.all(np.linalg.norm(pts, axis=-1) <= lsb.radius + 1e-9), name
        assert np.all(pts >= lsb.box.lo - 1e-9) and np.all(pts <= lsb.box.hi + 1e-9), name


def test_level_set_bound_monotone_in_level():
    p = get_problem("strongly-convex")
    a = p.value(p.starts[0])
    big = level_set_bound(p, a)
    small = level_set_bound(p, 0.5 * a)
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
        level_set_bound(p, [-1.0, 1.0])

    bad = make_problem(
        "explodes", 1, 1,
        lambda x: np.full(x.shape[:-1] + (1,), np.inf),
        lambda x: x[..., None, :],
        lipschitz=[1.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-1.0], [1.0]), grad_bound=1.0, starts=[[0.0]],
    )
    with pytest.raises(NumericDomainError):
        bad.value([0.5])


def test_register_plugin_roundtrip():
    name = register_problem(lambda: make_problem(
        "plugin-demo", 1, 1,
        lambda x: (x * x).sum(axis=-1, keepdims=True),
        lambda x: 2.0 * x[..., None, :],
        lipschitz=[2.0], lower_bounds=[0.0], convexity_class="convex",
        region=Box([-1.0], [1.0]), grad_bound=2.0, starts=[[0.5]],
    ))
    assert name in list_problems()
    q = get_problem(name)
    assert np.allclose(q.value([0.5]), [0.25])


# The built-in oracles fill preallocated arrays; these are the np.stack
# formulas they replaced, kept as the reference.

def _p1_value_stack(x):
    x1, x2 = x[..., 0], x[..., 1]
    f1 = 0.5 * (100.0 * x1 ** 2 + x2 ** 2)
    f2 = 0.5 * ((x1 - 1.0) ** 2 + (x2 - 1.0) ** 2)
    return np.stack([f1, f2], axis=-1)


def _p1_grads_stack(x):
    g1 = np.stack([100.0 * x[..., 0], x[..., 1]], axis=-1)
    g2 = x - np.array([1.0, 1.0])
    return np.stack([g1, g2], axis=-2)


def _p4_value_stack(x):
    x0 = x[..., 0]
    return np.stack([(x0 + 1.0) ** 2, (x0 - 1.0) ** 2], axis=-1)


def _p4_grads_stack(x):
    x0 = x[..., 0]
    return np.stack([2.0 * (x0 + 1.0), 2.0 * (x0 - 1.0)], axis=-1)[..., None]


def _assert_same_array(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,value,grads", [
    ("unbalanced-convex", _p1_value_stack, _p1_grads_stack),
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
