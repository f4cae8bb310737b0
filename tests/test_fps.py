"""Formal power series: hand examples plus randomized ring/derivation laws."""

import random
from fractions import Fraction as QQ

import pytest

from rpv.errors import (
    DenominatorVanishesAtZero,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
)
from rpv.fps import (
    Series,
    fps_compose,
    fps_expand_ratfun,
    fps_mul,
    fps_pow_rational,
    fps_scale,
)
from reference_kernels import fps_add, fps_sub, fps_theta


def _rand_series(rng, order, *, unit=False, nilpotent=False):
    cs = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)]
    if unit:
        cs[0] = QQ(1)
    if nilpotent:
        cs[0] = QQ(0)
    return Series(cs)


def test_mul_hand_examples():
    one_plus = Series([1, 1, 0])
    one_minus = Series([1, -1, 0])
    assert fps_mul(one_plus, one_minus) == Series([1, 0, -1])
    geo = Series([1, 1, 1, 1])
    assert fps_mul(geo, geo) == Series([1, 2, 3, 4])


def test_square_of_2f1_half_coefficients():
    # (1 + x/4 + 9x^2/64)^2 = 1 + x/2 + 11x^2/32 + ...
    g = Series([QQ(1), QQ(1, 4), QQ(9, 64)])
    sq = fps_mul(g, g)
    assert sq.coeffs[:3] == (QQ(1), QQ(1, 2), QQ(11, 32))


def test_compose_examples():
    outer = Series([1, 1, 1])
    inner = Series([0, 2, 0])
    assert fps_compose(outer, inner) == Series([1, 2, 4])
    f = Series([3, -1, 5, 7])
    assert fps_compose(f, Series.x(3)) == f
    inv_geo = Series([1, 1, 1, 1, 1])  # 1/(1-y)
    assert fps_compose(inv_geo, Series([0, 0, 1, 0, 0])) == Series([1, 0, 1, 0, 1])
    with pytest.raises(NonzeroConstantTerm):
        fps_compose(outer, Series([1, 1]))


def test_pow_rational_examples():
    base = Series([1, -1, 0])
    half_inv = fps_pow_rational(base, QQ(-1, 2))
    assert half_inv.coeffs == (QQ(1), QQ(1, 2), QQ(3, 8))
    assert fps_pow_rational(base, 0) == Series.one(2)
    root = fps_pow_rational(Series([1, -1] + [0] * 7), QQ(1, 2))
    assert fps_mul(root, root) == Series([1, -1] + [0] * 7)
    with pytest.raises(NonUnitConstantTerm):
        fps_pow_rational(Series([2, 1]), QQ(1, 2))


def test_pow_rational_exponent_additivity_randomized():
    rng = random.Random(123)
    for _ in range(25):
        base = _rand_series(rng, 10, unit=True)
        e1 = QQ(rng.randint(-5, 5), rng.choice([1, 2]))
        e2 = QQ(rng.randint(-5, 5), rng.choice([1, 2]))
        lhs = fps_pow_rational(base, e1 + e2)
        rhs = fps_mul(fps_pow_rational(base, e1), fps_pow_rational(base, e2))
        assert lhs == rhs


def test_theta_examples_and_derivation_law():
    assert fps_theta(Series([1, 1, 1])) == Series([0, 1, 2])
    assert fps_theta(Series([5, 0, 0])) == Series([0, 0, 0])
    rng = random.Random(77)
    for _ in range(30):
        f = _rand_series(rng, 10)
        g = _rand_series(rng, 10)
        lhs = fps_theta(fps_mul(f, g))
        rhs = fps_add(fps_mul(fps_theta(f), g), fps_mul(f, fps_theta(g)))
        assert lhs == rhs


def test_ring_laws_randomized():
    rng = random.Random(2026)
    for _ in range(30):
        a = _rand_series(rng, 12)
        b = _rand_series(rng, 12)
        c = _rand_series(rng, 12)
        assert fps_mul(a, b) == fps_mul(b, a)
        assert fps_mul(fps_mul(a, b), c) == fps_mul(a, fps_mul(b, c))
        assert fps_mul(a, fps_add(b, c)) == fps_add(fps_mul(a, b), fps_mul(a, c))
        assert fps_add(fps_sub(a, b), b) == a
        assert fps_scale(a, QQ(3, 2)) == fps_mul(a, Series([QQ(3, 2)] + [0] * 12))


def test_compose_associativity_randomized():
    rng = random.Random(31337)
    for _ in range(15):
        f = _rand_series(rng, 9)
        g = _rand_series(rng, 9, nilpotent=True)
        h = _rand_series(rng, 9, nilpotent=True)
        assert fps_compose(fps_compose(f, g), h) == fps_compose(
            f, fps_compose(g, h)
        )


def test_expand_ratfun():
    assert fps_expand_ratfun([0, 1], [1, -1], 3) == Series([0, 1, 1, 1])
    assert fps_expand_ratfun([0, -4], [1, -2, 1], 2) == Series([0, -4, -8])
    assert fps_expand_ratfun([1], [1], 2) == Series([1, 0, 0])
    with pytest.raises(DenominatorVanishesAtZero):
        fps_expand_ratfun([1], [0, 1], 2)


def test_first_mismatch():
    a = Series([1, 2, 3, 4])
    b = Series([1, 2, 7, 4])
    assert a.first_mismatch(b) == 2
    assert a.first_mismatch(a) is None
