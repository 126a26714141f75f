import numpy as np
import pytest

from mbgf.errors import ConfigError, DegenerateScalingError, InvalidInputError
from mbgf.geometry import min_norm_point
from mbgf.problems import get_problem
from mbgf.scaling import (
    constant,
    gradnorm_eta,
    gradnorm_eta_clamped,
    parse_scaling,
    scaled_hull_generators,
)

RULES = [
    constant([1.0, 1.0]),
    constant([0.5, 3.0]),
    gradnorm_eta(0.1),
    gradnorm_eta(2.0),
    gradnorm_eta_clamped(0.1, 0.5, 10.0),
]


def test_constant_everywhere():
    p = get_problem("strongly-convex")
    rule = constant([1.0, 1.0])
    for x in ([0.0, 0.0], [1.0, -1.0], [3.0, 2.0]):
        assert np.array_equal(rule.alpha(p, x), [1.0, 1.0])


def test_constant_rule_reads_points_as_the_problem_does():
    # p4 (n = 1) reads a (P,) stack as P points and one float as one
    # point, under every rule; a (K, n) stack gives the values per row
    p4 = get_problem("scalar-pair")
    for rule in (constant([1.0, 2.0]), gradnorm_eta(0.1)):
        assert rule.alpha(p4, [0.5, -1.0, 2.0]).shape == (3, 2)
        assert rule.alpha(p4, 0.5).shape == (2,)
        assert rule.alpha(p4, [0.5]).shape == (2,)
    a = constant([1.0, 2.0]).alpha(get_problem("strongly-convex"),
                                   np.zeros((4, 2)))
    assert a.tobytes() == np.tile([1.0, 2.0], (4, 1)).tobytes()
    a[0, 0] = 3.0  # a writable copy, not a view of the rule's values
    assert constant([1.0, 2.0]).values[0] == 1.0


@pytest.mark.parametrize("x", [[np.nan], [np.inf, 0.0], [[0.0, 1.0, 2.0]]],
                         ids=["nan", "inf", "wrong-length"])
def test_constant_rule_refuses_what_the_problem_refuses(x):
    p = get_problem("scalar-pair" if len(np.ravel(x)) == 1
                    else "strongly-convex")
    for rule in (constant([1.0, 1.0]), gradnorm_eta(0.1)):
        with pytest.raises(InvalidInputError):
            rule.alpha(p, x)


def test_gradnorm_on_unbalanced_problem():
    p = get_problem("unbalanced-convex")
    x = [1.0, 1.0]
    a = gradnorm_eta(0.1).alpha(p, x)
    assert a[0] == pytest.approx(np.hypot(100.0, 1.0) + 0.1)
    assert a[1] == pytest.approx(0.1)
    a = gradnorm_eta_clamped(0.1, 0.5, 10.0).alpha(p, x)
    assert a[0] == 10.0
    assert a[1] == 0.5


def test_scaled_generators():
    p = get_problem("strongly-convex")
    x = [1.0, 1.0]
    g = p.grads(x)
    assert np.allclose(scaled_hull_generators(constant([2.0, 2.0]), p, x), g / 2.0)
    gens = scaled_hull_generators(gradnorm_eta(0.0), p, x)
    assert np.allclose(np.linalg.norm(gens, axis=-1), 1.0)

    p1 = get_problem("unbalanced-convex")
    gens = scaled_hull_generators(gradnorm_eta(0.1), p1, [1.0, 1.0])
    norms = np.linalg.norm(gens, axis=-1)
    assert norms[0] == pytest.approx(1.0, abs=1e-3)
    assert norms[1] == 0.0


def test_balancing_property():
    rng = np.random.default_rng(17)
    for name in ("unbalanced-convex", "strongly-convex", "nonconvex-bounded-grad"):
        p = get_problem(name)
        xs = rng.uniform(p.region.lo, p.region.hi, size=(100, p.n))
        for eta in (0.1, 1.0):
            gens = scaled_hull_generators(gradnorm_eta(eta), p, xs)
            gnorm = np.linalg.norm(p.grads(xs), axis=-1)
            ratio = np.linalg.norm(gens, axis=-1)
            assert np.all(ratio <= gnorm / (gnorm + eta) + 1e-12)
            assert np.all(ratio < 1.0)


def test_values_within_declared_bounds():
    rng = np.random.default_rng(29)
    for name in ("unbalanced-convex", "strongly-convex", "nonconvex-bounded-grad"):
        p = get_problem(name)
        xs = rng.uniform(p.region.lo, p.region.hi, size=(300, p.n))
        for rule in RULES:
            lo, hi = rule.declared_bounds(p)
            a = rule.alpha(p, xs)
            assert a.min() >= lo - 1e-12, (name, rule.spec_string())
            assert a.max() <= hi + 1e-12, (name, rule.spec_string())


def test_lipschitz_of_scaling():
    rng = np.random.default_rng(31)
    for name in ("strongly-convex", "nonconvex-bounded-grad"):
        p = get_problem(name)
        us = rng.uniform(p.region.lo, p.region.hi, size=(200, p.n))
        vs = rng.uniform(p.region.lo, p.region.hi, size=(200, p.n))
        dist = np.sqrt(np.sum((us - vs) ** 2, axis=-1))
        for rule in RULES:
            l_alpha = rule.declared_l_alpha(p)
            diffs = np.zeros((200, p.m))
            for k in range(200):
                diffs[k] = np.abs(rule.alpha(p, us[k])
                                  - rule.alpha(p, vs[k]))
            assert np.all(diffs.max(axis=-1) <= l_alpha * dist * (1.0 + 1e-6) + 1e-12)


def test_constant_rule_has_zero_l_alpha():
    p = get_problem("strongly-convex")
    assert constant([1.0, 2.0]).declared_l_alpha(p) == 0.0


def test_degenerate_scaling_detection():
    p = get_problem("unbalanced-convex")
    with pytest.raises(DegenerateScalingError) as err:
        gradnorm_eta(0.0).alpha(p, [1.0, 1.0])
    assert err.value.index == 1
    assert err.value.grad_norm == pytest.approx(0.0, abs=1e-14)
    # Clamping rescues eta = 0 at stationary points of single objectives.
    a = gradnorm_eta_clamped(0.0, 0.5, 10.0).alpha(p, [1.0, 1.0])
    assert a[1] == 0.5
    # And eta = 0 itself is fine where no gradient vanishes.
    a = gradnorm_eta(0.0).alpha(p, [0.5, 0.5])
    assert np.all(a > 0.0)


def test_declared_bounds_edge_cases():
    p = get_problem("strongly-convex")
    with pytest.raises(InvalidInputError):
        gradnorm_eta(0.0).declared_bounds(p)
    lo, hi = gradnorm_eta(0.1).declared_bounds(p)
    assert lo == 0.1 and hi == pytest.approx(np.sqrt(20.0) + 0.1)
    lo, hi = gradnorm_eta_clamped(0.3, 0.1, 2.0).declared_bounds(p)
    assert lo == 0.3 and hi == 2.0


def test_criticality_invariant_under_scaling():
    p = get_problem("scalar-pair")
    rule = gradnorm_eta(0.1)
    for x, critical in (([0.5], True), ([0.0], True), ([1.5], False), ([-1.2], False)):
        raw = np.linalg.norm(min_norm_point(p.grads(x)).point)
        scaled = np.linalg.norm(min_norm_point(scaled_hull_generators(rule, p, x)).point)
        if critical:
            assert raw <= 1e-8 and scaled <= 1e-8
        else:
            assert raw > 1e-3 and scaled > 1e-3


def test_parse_and_format_round_trip():
    for text in ("const:1,1", "gradnorm:eta=0.1", "gradnorm:eta=0.1,min=0.5,max=10"):
        rule = parse_scaling(text)
        again = parse_scaling(rule.spec_string())
        assert again.spec_string() == rule.spec_string()
    assert parse_scaling("const:0.5,3").values.tolist() == [0.5, 3.0]


def test_parse_errors_name_the_offender():
    for text, frag in [
        ("nope", "const"),
        ("const:", "value"),
        ("const:1,-2", "positive"),
        ("gradnorm:eta=-1", "eta"),
        ("gradnorm:gamma=1", "gamma"),
        ("gradnorm:eta=0.1,min=0.5", "max"),
        ("gradnorm:eta=0.1,eta=0.2", "duplicate"),
        ("gradnorm:eta=abc", "eta"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_scaling(text)
        assert frag in str(err.value), text


def test_invalid_constructions():
    with pytest.raises(InvalidInputError):
        constant([1.0, -1.0])
    with pytest.raises(InvalidInputError):
        gradnorm_eta(-0.5)
    with pytest.raises(InvalidInputError):
        gradnorm_eta_clamped(0.1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        constant([1.0, 1.0, 1.0]).alpha(get_problem("strongly-convex"), [0.0, 0.0])
