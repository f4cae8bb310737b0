"""Multiplication-only kernels against exact //, math.isqrt and str().

newton_recip and fixed_div (numerics), the reciprocal square root behind
binsplit's sqrt(m), and the divide-and-conquer decimal output.
"""

import contextlib
import math
import sys

import pytest

from rpv.binsplit import _rsqrt, _sqrt_fixed
from rpv.numerics import fixed_div, int_to_decimal_str, newton_recip

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the Newton paths start above 2000 bits
BITS = st.one_of(st.integers(1, 3000), st.integers(2001, 60_000))


def _int_of_bits(data, bits: int) -> int:
    return data.draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))


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
