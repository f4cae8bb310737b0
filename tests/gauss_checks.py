"""Gauss-level (2F1) transformations, checked on the series substrate.

The square2F1 rules are squares of classical 2F1 transformations.  These
checks work at the 2F1 level directly, as regression evidence that the
series kernels compose transformations correctly.  Nothing in rpv calls
them, so they live beside the tests that use them.
"""

from fractions import Fraction as QQ

from rpv.fps import Series, fps_compose, fps_mul, fps_pow_rational, fps_scale, fps_sub
from rpv.hyper import CheckReport, compare_series, hyper_series


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
