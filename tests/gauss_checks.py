"""Gauss-level (2F1) transformations, checked on the series substrate.

The square2F1 rules are squares of classical 2F1 transformations.  These
checks work at the 2F1 level directly, as regression evidence that the
series kernels compose transformations correctly; Clausen's square and
the Gauss sums at 1/2 are checked the same way.  Nothing in rpv calls
them, so they live beside the tests that use them.
"""

from fractions import Fraction as QQ

from rpv.fps import Series, fps_compose, fps_mul, fps_pow_rational, fps_scale
from rpv.hyper import (
    CheckReport,
    _poly_prod,
    against_pi,
    compare_series,
    hyper_series,
    sum_terms,
    two_sin_pi,
)
from rpv.numerics import BigApprox, RadConst, prec_for_digits
from reference_kernels import fps_sub


def _one_minus_x_pow(e, order: int) -> Series:
    return fps_pow_rational(
        Series([QQ(1), QQ(-1)] + [QQ(0)] * (order - 1)), QQ(e)
    )


def _x_over_x_minus_1(order: int) -> Series:
    # x/(x-1) = -x/(1-x) = -(x + x^2 + ...)
    return Series([QQ(0)] + [QQ(-1)] * order)


def gauss_pfaff_check(a, b, c, order: int = 32) -> CheckReport:
    """2F1(a,b;c;x) == (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)) to `order`."""
    a, b, c = QQ(a), QQ(b), QQ(c)
    lhs = hyper_series([a, b], [c], order)
    inner = fps_compose(hyper_series([a, c - b], [c], order), _x_over_x_minus_1(order))
    rhs = fps_mul(_one_minus_x_pow(-a, order), inner)
    return compare_series(lhs, rhs, order)


def gauss_euler_check(a, b, c, order: int = 32) -> CheckReport:
    """2F1(a,b;c;x) == (1-x)^(c-a-b) 2F1(c-a, c-b; c; x) to `order`."""
    a, b, c = QQ(a), QQ(b), QQ(c)
    lhs = hyper_series([a, b], [c], order)
    rhs = fps_mul(
        _one_minus_x_pow(c - a - b, order), hyper_series([c - a, c - b], [c], order)
    )
    return compare_series(lhs, rhs, order)


def pfaff_twice_is_euler(a, b, c, order: int = 32) -> CheckReport:
    """Composing Pfaff (b-slot) with Pfaff (a-slot) reproduces Euler.

    Both steps are carried out mechanically on series: substitute
    y = x/(x-1) into the once-transformed series, multiply the two
    prefactors, and compare against the Euler form termwise.
    """
    a, b, c = QQ(a), QQ(b), QQ(c)
    y = _x_over_x_minus_1(order)
    # w = y/(y-1) = -y * (1-y)^(-1), as a series in x (collapses back to x,
    # but it is computed, not assumed)
    one_minus_y = fps_sub(Series.one(order), y)
    w = fps_scale(fps_mul(y, fps_pow_rational(one_minus_y, QQ(-1))), -1)
    # step 1 prefactor (1-x)^(-a); step 2 prefactor (1-y)^(-(c-b)) composed in x
    pref = fps_mul(
        _one_minus_x_pow(-a, order), fps_pow_rational(one_minus_y, -(c - b))
    )
    core = fps_compose(hyper_series([c - a, c - b], [c], order), w)
    composed = fps_mul(pref, core)
    euler = fps_mul(
        _one_minus_x_pow(c - a - b, order), hyper_series([c - a, c - b], [c], order)
    )
    direct = hyper_series([a, b], [c], order)
    report = compare_series(composed, euler, order)
    return compare_series(composed, direct, order) if report.passed else report


def clausen_check(a, b, order: int = 32) -> CheckReport:
    """2F1(a,b; a+b+1/2; x)^2 == 3F2(2a, 2b, a+b; a+b+1/2, 2a+2b; x) to order."""
    a, b = QQ(a), QQ(b)
    f = hyper_series([a, b], [a + b + QQ(1, 2)], order)
    lhs = fps_mul(f, f)
    rhs = hyper_series([2 * a, 2 * b, a + b], [a + b + QQ(1, 2), 2 * a + 2 * b], order)
    return compare_series(lhs, rhs, order)


def gauss_half_check(s, digits: int = 30) -> CheckReport:
    """s(1-s) F(s,1-s;1;1/2) F(s+1,2-s;2;1/2) == 2 sin(pi s)/pi to `digits`.

    With F = 2F1(s,1-s;1;x) = sum f_n x^n, the derivative identity
    F' = s(1-s) F(s+1,2-s;2;.) holds term for term, so the left side is
    F(1/2) F'(1/2) = 2 S_0 S_1, S_j = sum n^j f_n 2^-n.  Both sums are
    sum_terms over (n+1)^3 f_{n+1} = (n+s)(n+1-s)(n+1) f_n, with the
    weights (1, 0) and (0, 1); 0 < f_n <= 1 bounds their tails t_0, t_1
    after N terms by 2^(1-N) and (N+1) 2^(1-N), and the partial sums by
    S_0, S_1 <= 2, so 2 S_0 S_1 is exact up to 2 (2 t_1 + 2 t_0 + t_0 t_1).
    It is checked by against_pi.
    """
    s = QQ(s)
    if not (0 < s < 1):
        raise ValueError("gauss_half_check requires 0 < s < 1")
    rec = (_poly_prod(1, (s, 1), (1 - s, 1), (1, 1)), ())
    N = 16
    while (N + 1) * 10 ** (digits + 8) >= 2 ** (N - 1):
        N += 16
    (n0, d0), (n1, d1) = sum_terms(rec, 1, 0, QQ(1, 2), N), sum_terms(rec, 0, 1, QQ(1, 2), N)
    t0, t1 = QQ(2, 2**N), QQ(2 * N + 2, 2**N)
    tail = 2 * (2 * t1 + 2 * t0 + t0 * t1)
    value = BigApprox.from_partial_sum(2 * n0 * n1, d0 * d1, tail, prec_for_digits(digits + 5))
    target = two_sin_pi(s, digits)
    *_, ok, agreed = against_pi(value, target, digits)
    return CheckReport(
        ok,
        f"lhs and rhs agree to {agreed} digits (exact sin branch: {isinstance(target, RadConst)})",
        digits_agreed=agreed,
    )
