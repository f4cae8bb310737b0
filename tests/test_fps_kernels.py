"""The integer series kernels against the Fraction kernels they replaced.

reference_mul, reference_compose, reference_pow_rational and
reference_expand_ratfun are the implementations fps ran before a Series was
one integer vector over one denominator: one Fraction per coefficient, and
composition by untruncated Horner.  Every kernel must give the same
coefficients on random rational series, and every result must be canonical
(den > 0, gcd(den, *nums) == 1).  The truncation tests pin the degree bound
of fps_compose: when inner has valuation v, a change to outer coefficient
k <= n // v must show first at index v·k, and a change to any higher outer
coefficient must not show at all.  Monomial inners c·x^v, which fps_compose
takes without Horner, get their own strategy, and one test pins the per-run
memo of (family, argument) compositions in transforms.
"""

from dataclasses import replace
from fractions import Fraction as QQ
from math import gcd, lcm

import pytest

from rpv.errors import (
    DenominatorVanishesAtZero,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
)
from rpv.fps import (
    Series,
    fps_add,
    fps_compose,
    fps_expand_ratfun,
    fps_mul,
    fps_pow_rational,
    fps_scale,
    fps_sub,
    fps_theta,
)
from rpv.hyper import family_series
from rpv.poly import RatFun, poly_add, poly_mul
from rpv.transforms import _family_compose, get_rule, verify_rule_formal

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# ------------------------------------------------------------------
# the Fraction kernels, as fps ran them before
# ------------------------------------------------------------------

def reference_mul(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    da = lcm(*(c.denominator for c in a.coeffs[: n + 1]))
    db = lcm(*(c.denominator for c in b.coeffs[: n + 1]))
    ia = [c.numerator * (da // c.denominator) for c in a.coeffs[: n + 1]]
    ib = [c.numerator * (db // c.denominator) for c in b.coeffs[: n + 1]]
    return Series(
        [QQ(sum(ia[i] * ib[k - i] for i in range(k + 1)), da * db) for k in range(n + 1)]
    )


def reference_compose(outer: Series, inner: Series) -> Series:
    if inner.coeffs[0] != 0:
        raise NonzeroConstantTerm("fps_compose needs inner(0) = 0")
    n = outer.order
    inner = inner.truncate(n) if inner.order > n else inner
    pad = Series(inner.coeffs + (QQ(0),) * (n - inner.order))
    out = Series([outer.coeffs[n]] + [QQ(0)] * n)
    for k in range(n - 1, -1, -1):
        out = reference_mul(out, pad)
        out = Series((out.coeffs[0] + outer.coeffs[k],) + out.coeffs[1:])
    return out


def reference_pow_rational(base: Series, e) -> Series:
    if base.coeffs[0] != 1:
        raise NonUnitConstantTerm("fps_pow_rational needs constant term 1")
    e = QQ(e)
    n = base.order
    b = base.coeffs
    f = [QQ(1)] + [QQ(0)] * n
    for m in range(1, n + 1):
        acc = QQ(0)
        for k in range(1, m + 1):
            if b[k] != 0:
                acc += (k * (e + 1) - m) * b[k] * f[m - k]
        f[m] = acc / m
    return Series(f)


def reference_expand_ratfun(num, den, order: int) -> Series:
    num = [QQ(c) for c in num]
    den = [QQ(c) for c in den]
    if not den or den[0] == 0:
        raise DenominatorVanishesAtZero("den(0) = 0 in fps_expand_ratfun")
    d0 = den[0]
    out = [QQ(0)] * (order + 1)
    for k in range(order + 1):
        acc = num[k] if k < len(num) else QQ(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / d0
    return Series(out)


# ------------------------------------------------------------------
# strategies and the canonical-form check
# ------------------------------------------------------------------

# mixed and negative denominators, and zeros often
RATIONAL = st.one_of(
    st.just(QQ(0)),
    st.builds(QQ, st.integers(-60, 60), st.integers(-24, 24).filter(bool)),
)
ORDER = st.integers(0, 40)


def series(order=ORDER, coeff=RATIONAL):
    nonzero = order.flatmap(lambda n: st.lists(coeff, min_size=n + 1, max_size=n + 1))
    zero = order.map(lambda n: [QQ(0)] * (n + 1))
    return st.one_of(nonzero, zero).map(Series)


def nilpotent(order=ORDER, valuation=st.integers(1, 4)):
    """Series with zero constant term and at least the drawn valuation."""
    return st.tuples(series(order), valuation).map(
        lambda sv: Series([0] * min(sv[1], sv[0].order + 1) + list(sv[0].coeffs[sv[1]:]))
    )


def exact_valuation(valuation):
    """x^v·(c + x·s(x)) with c != 0: valuation exactly v, order v..v+35."""
    return st.tuples(valuation, RATIONAL.filter(bool), series(st.integers(0, 34))).map(
        lambda t: Series([0] * t[0] + [t[1]] + list(t[2].coeffs))
    )


def monomial(valuation=st.integers(1, 6)):
    """c·x^v with c != 0, padded with zeros to order v..v+34."""
    return st.tuples(valuation, RATIONAL.filter(bool), st.integers(0, 34)).map(
        lambda t: Series([0] * t[0] + [t[1]] + [0] * t[2])
    )


def unit(order=ORDER):
    return series(order).map(lambda s: Series((QQ(1),) + s.coeffs[1:]))


def assert_canonical(s: Series) -> None:
    assert isinstance(s.nums, tuple) and all(type(k) is int for k in s.nums)
    assert type(s.den) is int and s.den > 0
    assert gcd(s.den, *s.nums) == 1
    assert s.coeffs == tuple(QQ(k, s.den) for k in s.nums)


def assert_same(got: Series, want: Series) -> None:
    assert_canonical(got)
    assert got.coeffs == want.coeffs
    assert got == want


# ------------------------------------------------------------------
# kernels against the references
# ------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(series())
def test_constructor_is_canonical(a):
    assert_canonical(a)
    assert Series(a.coeffs) == a


@settings(max_examples=100, deadline=None)
@given(series(), series(), RATIONAL)
def test_linear_kernels(a, b, q):
    n = min(a.order, b.order)
    assert_same(fps_add(a, b), Series([x + y for x, y in zip(a.coeffs[: n + 1], b.coeffs)]))
    assert_same(fps_sub(a, b), Series([x - y for x, y in zip(a.coeffs[: n + 1], b.coeffs)]))
    assert_same(fps_scale(a, q), Series([x * q for x in a.coeffs]))
    assert_same(fps_theta(a), Series([k * x for k, x in enumerate(a.coeffs)]))
    assert_same(a.truncate(n), Series(a.coeffs[: n + 1]))


@settings(max_examples=100, deadline=None)
@given(series(), series())
def test_mul_matches_reference(a, b):
    assert_same(fps_mul(a, b), reference_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(series(st.integers(0, 30)), nilpotent(st.integers(0, 40)))
def test_compose_matches_reference(outer, inner):
    # the inner series is drawn shorter than, as long as and longer than outer
    assert_same(fps_compose(outer, inner), reference_compose(outer, inner))


@settings(max_examples=40, deadline=None)
@given(series(st.integers(0, 30)), nilpotent(st.integers(0, 30), st.integers(2, 6)))
def test_compose_inner_valuation_at_least_two(outer, inner):
    assert_same(fps_compose(outer, inner), reference_compose(outer, inner))


@settings(max_examples=60, deadline=None)
@given(series(st.integers(0, 30)), monomial())
def test_compose_monomial_inner(outer, inner):
    # the inner order runs from 1 to 40, shorter and longer than outer's
    assert_same(fps_compose(outer, inner), reference_compose(outer, inner))


@settings(max_examples=40, deadline=None)
@given(RATIONAL, nilpotent())
def test_compose_outer_order_zero(c, inner):
    got = fps_compose(Series([c]), inner)
    assert_same(got, reference_compose(Series([c]), inner))
    assert got == Series([c])


@settings(max_examples=80, deadline=None)
@given(unit(), st.builds(QQ, st.integers(-9, 9), st.integers(1, 4)))
def test_pow_rational_matches_reference(base, e):
    assert_same(fps_pow_rational(base, e), reference_pow_rational(base, e))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(RATIONAL, max_size=8),
    st.tuples(RATIONAL.filter(bool), st.lists(RATIONAL, max_size=6)).map(lambda t: [t[0], *t[1]]),
    ORDER,
)
def test_expand_ratfun_matches_reference(num, den, order):
    assert_same(fps_expand_ratfun(num, den, order), reference_expand_ratfun(num, den, order))


def test_kernels_refuse_what_the_references_refuse():
    with pytest.raises(NonzeroConstantTerm):
        fps_compose(Series([1, 2]), Series([QQ(1, 3), 1]))
    with pytest.raises(NonUnitConstantTerm):
        fps_pow_rational(Series([QQ(2, 2 * 3), 1]), QQ(1, 2))
    with pytest.raises(DenominatorVanishesAtZero):
        fps_expand_ratfun([1], [0, 1], 4)
    with pytest.raises(DenominatorVanishesAtZero):
        fps_expand_ratfun([1], [], 4)


# ------------------------------------------------------------------
# the truncation bound of fps_compose
# ------------------------------------------------------------------

def _bump(s: Series, k: int) -> Series:
    cs = list(s.coeffs)
    cs[k] += QQ(1, 7)
    return Series(cs)


@settings(max_examples=60, deadline=None)
@given(series(st.integers(1, 30)), exact_valuation(st.integers(1, 6)))
def test_outer_change_shows_first_at_its_index(outer, inner):
    # with inner valuation v, outer coefficient k lands first at index v·k
    v = next(j for j, c in enumerate(inner.coeffs) if c)
    n = outer.order
    top = n // v
    base = fps_compose(outer, inner)
    for k in {0, max(top - 1, 0), top}:
        assert base.first_mismatch(fps_compose(_bump(outer, k), inner)) == v * k
    for k in {min(top + 1, n), n} - {top}:
        assert fps_compose(_bump(outer, k), inner) == base


def test_shared_family_argument_composes_once():
    # class1-a and kummer-sq both compose hyper3F2:1/2 with x^2/(4x - 4)
    order = 24
    _family_compose.cache_clear()
    verify_rule_formal(get_rule("class1-a"), order)
    before = _family_compose.cache_info()
    rule = get_rule("kummer-sq")
    verify_rule_formal(rule, order)
    after = _family_compose.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
    arg = fps_expand_ratfun(rule.C.num, rule.C.den, order)
    fresh = fps_compose(family_series(rule.rhs, order), arg)
    assert_same(_family_compose(rule.rhs, arg, order), fresh)


@pytest.mark.parametrize("rid", ["class4-a", "pfaff-sq", "class7", "domb-rogers"])
@pytest.mark.parametrize("j", [1, 9, 24])
def test_mutated_rule_c_series_reports_its_index(rid, j):
    # C + x^j/3 changes the C series at index j only, and the right side
    # B·sum r_n C^n first at index j, since r_1 != 0 and B(0) = 1
    rule = get_rule(rid)
    order = 24
    assert verify_rule_formal(rule, order).passed
    bump = poly_mul(rule.C.den, (QQ(0),) * j + (QQ(1, 3),))
    mutated = replace(rule, C=RatFun(poly_add(rule.C.num, bump), rule.C.den))
    report = verify_rule_formal(mutated, order)
    assert not report.passed
    assert report.first_mismatch == j
