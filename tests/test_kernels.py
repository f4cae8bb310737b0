"""Multiplication-only kernels against exact *, //, math.isqrt and str().

The Toom-3 product, newton_recip and fixed_div (numerics), the reciprocal
square root behind binsplit's sqrt(m) and the square root behind the AGM,
and the divide-and-conquer decimal output.
"""

import contextlib
import math
import random
import sys

import pytest

from rpv.binsplit import _sqrt_fixed
from rpv.numerics import _TOOM_BITS, fixed_div, int_to_decimal_str, mul, newton_recip, newton_sqrt
from rpv.numerics import newton_rsqrt as _rsqrt

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the Newton paths start above 2000 bits
BITS = st.one_of(st.integers(1, 3000), st.integers(2001, 60_000))


def _int_of_bits(data, bits: int) -> int:
    return data.draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))


# Toom-3 starts where both operands pass _TOOM_BITS and neither is at most
# two thirds of the other, and recurses on pieces down to _TOOM_BITS
MUL_BITS = st.one_of(st.integers(0, 200_000), st.integers(_TOOM_BITS - 2, _TOOM_BITS + 2))


@settings(max_examples=80, deadline=None)
@given(st.data(), MUL_BITS, MUL_BITS, st.booleans())
def test_mul_equals_product(data, x_bits, y_bits, square):
    def signed(bits):
        v = _int_of_bits(data, bits) if bits else 0
        return -v if data.draw(st.booleans()) else v

    x = signed(x_bits)
    y = x if square else signed(y_bits)
    assert mul(x, y) == x * y


# pairs around the thresholds: equal, one bit past _TOOM_BITS, lengths of
# 3k+1 and 3k+2 bits, and unbalanced pairs on both sides of 2k for
# k = 66,667 (the third of 200,000 bits)
MUL_PAIRS = [
    (_TOOM_BITS, _TOOM_BITS), (_TOOM_BITS + 1, _TOOM_BITS + 1), (_TOOM_BITS, 200_000),
    (_TOOM_BITS + 1, 200_000), (90_001, 90_002), (133_334, 200_000), (133_335, 200_000),
    (200_000, 133_335), (200_000, 1), (0, 200_000),
]


@pytest.mark.parametrize("x_bits, y_bits", MUL_PAIRS)
def test_mul_at_split_boundaries(x_bits, y_bits):
    rng = random.Random(x_bits * 7 + y_bits)
    for x, y in [
        ((1 << x_bits) - 1, (1 << y_bits) - 1),  # all ones: every carry
        (rng.getrandbits(x_bits) | (1 << x_bits >> 1), -rng.getrandbits(y_bits)),
        (-(1 << x_bits >> 1), (1 << y_bits >> 1) + 1),
    ]:
        assert mul(x, y) == x * y
        assert mul(y, x) == y * x
        assert mul(x, x) == x * x


@settings(max_examples=60, deadline=None)
@given(st.data(), BITS)
def test_newton_recip_within_few_units(data, bits):
    b = _int_of_bits(data, bits)
    n = b.bit_length()
    r = newton_recip(b)
    assert abs(r - (1 << (2 * n)) // b) <= 2


@settings(max_examples=60, deadline=None)
@given(st.data(), BITS, st.integers(min_value=0, max_value=20_000), st.integers(0, 32))
def test_fixed_div_within_stated_bound(data, bits, prec, ratio_bits):
    b = _int_of_bits(data, bits)
    a = data.draw(st.integers(min_value=0, max_value=b << ratio_bits))
    man, err = fixed_div(a, b, prec)
    # |a 2^prec / b - man| <= err, checked exactly
    assert abs((a << prec) - man * b) <= err * b
    assert err <= 4


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=40_000))
def test_rsqrt_and_sqrt_fixed_within_bounds(m, prec):
    assert abs(_rsqrt(m, prec) - math.isqrt((1 << (2 * prec)) // m)) <= 2
    v = _sqrt_fixed(m, prec)
    assert v.prec == prec and v.err <= 4
    # sqrt(m) 2^prec lies in [fl, fl + 1], and exactly at fl when m is a square
    fl = math.isqrt(m << (2 * prec))
    exact = fl * fl == m << (2 * prec)
    assert v.man - v.err <= fl and fl + (0 if exact else 1) <= v.man + v.err


@settings(max_examples=60, deadline=None)
@given(st.data(), BITS)
def test_newton_sqrt_within_few_units(data, bits):
    x = _int_of_bits(data, bits)
    assert abs(newton_sqrt(x) - math.isqrt(x)) <= 2


@pytest.mark.parametrize("bits", [1999, 2000, 2001, 2002, 4001, 60_000])
def test_newton_sqrt_of_squares_and_neighbours(bits):
    # the AGM's radicands are a fixed-point value shifted up: x = B 2^q
    s = (1 << (bits // 2)) - 3
    for x in (s * s - 1, s * s, s * s + 1, s * s + 2 * s, (s * s) << 7):
        assert abs(newton_sqrt(x) - math.isqrt(x)) <= 2


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 60_000), st.integers(0, 30_000))
def test_rsqrt_of_large_radicands_within_few_units(data, bits, extra):
    # newton_rsqrt cuts a radicand wider than its result at every level
    m = _int_of_bits(data, bits)
    p = bits // 2 + extra
    assert abs(_rsqrt(m, p) - math.isqrt((1 << (2 * p)) // m)) <= 2


@contextlib.contextmanager
def _unguarded_str():
    """str() of an int past 4300 digits, for the reference side only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.one_of(st.integers(1, 12_000), st.integers(9_000, 166_000)), st.booleans())
def test_int_to_decimal_str_equals_str(data, bits, negative):
    n = _int_of_bits(data, bits)
    if negative:
        n = -n
    with _unguarded_str():
        assert int_to_decimal_str(n) == str(n)


@pytest.mark.parametrize("k", [0, 1, 3009, 3010, 3011, 9000, 50_000])
def test_int_to_decimal_str_powers_of_ten(k):
    for n in (10**k - 1, 10**k, 10**k + 1, -(10**k)):
        with _unguarded_str():
            assert int_to_decimal_str(n) == str(n)
