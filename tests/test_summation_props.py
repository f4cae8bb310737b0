"""Property tests: sum_terms equals the Fraction sum for every family, and
BigApprox.from_partial_sum does not depend on the pair's common factor.

Any rational s, a and b, z of either sign strictly inside the family's
envelope (z = 0 included) and N from 1 to 600 terms, with the split's gcd
limits at their defaults and at 0 and 256 bits, where reduced and unreduced
merges mix.  The integer tail bound and term search equal their Fraction
forms in tests/reference_kernels.py.
"""

from fractions import Fraction as QQ

import pytest

from rpv import numerics
from rpv.numerics import BigApprox
from rpv.hyper import CoeffFamily, eval_numeric, family_envelope, family_recurrence, sum_terms
from rpv.hyper import tail_bound
from reference_kernels import reference_eval_numeric, reference_tail_bound
from test_summation import reference_sum

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

KINDS = ("hyper3F2", "square2F1", "convCentral", "domb")


def _rationals(bound: int, den: int):
    return st.builds(QQ, st.integers(-bound, bound), st.integers(1, den))


@st.composite
def _inputs(draw):
    kind = draw(st.sampled_from(KINDS))
    fam = CoeffFamily(kind, QQ(0) if kind == "domb" else draw(_rationals(12, 12)))
    R, _ = family_envelope(fam)
    q = draw(st.integers(1, 10**4))
    p = draw(st.integers(-(q - 1), q - 1))  # |z| R = |p|/q < 1
    z = QQ(p, q * R)
    N = draw(st.one_of(st.integers(1, 64), st.integers(1, 600)))
    return fam, draw(_rationals(50, 30)), draw(_rationals(50, 30)), z, N


@settings(max_examples=80, deadline=None)
@given(_inputs())
@example((CoeffFamily("hyper3F2", QQ(1, 2)), QQ(1), QQ(6), QQ(0), 600))
@example((CoeffFamily("convCentral", QQ(1, 3)), QQ(-2, 7), QQ(5, 3), QQ(-49, 200), 600))
@example((CoeffFamily("domb", QQ(0)), QQ(3), QQ(16), QQ(1, 65), 600))
def test_split_equals_fraction_sum(args):
    want = reference_sum(*args)
    fam, a, b, z, N = args
    default = numerics._GCD_MIN_BITS, numerics._GCD_MAX_BITS
    try:
        for numerics._GCD_MIN_BITS, numerics._GCD_MAX_BITS in (default, (0, 256)):
            assert QQ(*sum_terms(family_recurrence(fam), a, b, z, N)) == want
    finally:
        numerics._GCD_MIN_BITS, numerics._GCD_MAX_BITS = default


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**30),
    st.integers(1, 10**20),
    _rationals(10**6, 10**12).map(abs),
    st.integers(1, 400),
)
@example(7, 3, 5, QQ(0), 64)  # inexact floor, no tail
@example(-9, 3, 2, QQ(1, 3), 10)  # exact floor of a negative sum
def test_from_partial_sum_ignores_common_factor(num, den, g, tail, prec):
    """sum_terms hands over (T, Q L) unreduced: the floor of g n / g d and its
    exactness are those of n / d, so the BigApprox is the same, and the same
    as from the reduced Fraction with the tail's floor(tail 2^prec) + 1 ulps."""
    want = BigApprox.from_partial_sum(num, den, tail, prec)
    got = BigApprox.from_partial_sum(g * num, g * den, tail, prec)
    assert (got.man, got.prec, got.err) == (want.man, want.prec, want.err)
    reduced = BigApprox.from_rational(QQ(num, den), prec)
    tail_ulps = (tail.numerator << prec) // tail.denominator + 1
    assert (got.man, got.err) == (reduced.man, reduced.err + tail_ulps)


@st.composite
def _tail_inputs(draw, edge_num: int, edge_den: int):
    """(fam, a, b, z): every family, (a, b) != (0, 0), and z of either sign
    with 0 < |z| R <= edge_num/edge_den."""
    kind = draw(st.sampled_from(KINDS))
    fam = CoeffFamily(kind, QQ(0) if kind == "domb" else draw(_rationals(12, 12)))
    R, _ = family_envelope(fam)
    q = draw(st.integers(2, 10**4))
    p = draw(st.integers(1, max(1, q * edge_num // edge_den)))
    z = QQ(draw(st.sampled_from((-1, 1))) * p, q * R)
    a, b = draw(_rationals(50, 30)), draw(_rationals(50, 30))
    return fam, (a if a or b else QQ(1)), b, z


@settings(max_examples=150, deadline=None)
@given(_tail_inputs(9999, 10000), st.one_of(st.integers(1, 64), st.integers(1, 4096)))
@example((CoeffFamily("domb", QQ(0)), QQ(0), QQ(5, 3), QQ(-1, 65)), 4096)
@example((CoeffFamily("hyper3F2", QQ(1, 2)), QQ(1), QQ(0), QQ(99999, 100000)), 1)
def test_tail_bound_equals_fraction_form(args, N):
    assert tail_bound(*args, N) == reference_tail_bound(*args, N)


@settings(max_examples=40, deadline=None)
@given(_tail_inputs(9, 10), st.integers(5, 200))
@example((CoeffFamily("convCentral", QQ(1, 3)), QQ(-2, 7), QQ(5, 3), QQ(-9, 40)), 200)
def test_eval_numeric_equals_doubling_search(args, digits):
    got, want = eval_numeric(*args, digits), reference_eval_numeric(*args, digits)
    assert (got.man, got.prec, got.err) == (want.man, want.prec, want.err)
