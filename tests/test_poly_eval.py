"""poly_eval, RatFun and Prefactor.dlog_at against one Fraction per step.

The engine evaluates on one integer fraction (poly._horner) and builds a
Fraction only at the end; the references here are the Fraction Horner
loops and the quotient rule on poly_derivative that it replaced.
"""

from fractions import Fraction as QQ

import pytest

from rpv.errors import SingularPoint
from rpv.poly import RatFun, poly, poly_derivative, poly_eval
from rpv.transforms import Prefactor

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _ref_eval(p, x):
    acc = QQ(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


RATIONALS = st.builds(QQ, st.integers(-(10**6), 10**6), st.integers(1, 10**4))
POINTS = st.one_of(st.just(QQ(0)), st.integers(-20, 20).map(QQ), RATIONALS)
POLYS = st.lists(RATIONALS, max_size=8).map(poly)


@settings(max_examples=300, deadline=None)
@given(POLYS, POINTS)
@example((), QQ(0))
@example(poly([QQ(1, 3), -2, QQ(5, 7)]), QQ(-3, 2))
def test_poly_eval_equals_fraction_horner(p, x):
    got = poly_eval(p, x)
    assert type(got) is QQ and got == _ref_eval(p, x)
    assert poly_eval(p, x.numerator) == _ref_eval(p, x.numerator)  # an int point


@settings(max_examples=300, deadline=None)
@given(POLYS, POLYS.filter(bool), POINTS)
@example(poly([0, 1]), poly([1, -1]), QQ(0))
@example(poly([0, QQ(-4, 3), 1]), poly([1, 0, QQ(1, 2)]), QQ(-7, 5))
def test_ratfun_value_and_derivative_equal_quotient_rule(num, den, x):
    f = RatFun(num, den)
    dv = _ref_eval(den, x)
    if dv == 0:
        for method in (f, f.derivative_at):
            with pytest.raises(SingularPoint):
                method(x)
        return
    nv = _ref_eval(num, x)
    ndv, ddv = _ref_eval(poly_derivative(num), x), _ref_eval(poly_derivative(den), x)
    assert f(x) == nv / dv
    assert f.derivative_at(x) == (ndv * dv - nv * ddv) / (dv * dv)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(POLYS.filter(bool), st.integers(-5, 5).map(lambda k: QQ(k, 2))), max_size=4
    ),
    POINTS,
)
@example([(poly([1, -64]), QQ(-1, 2)), (poly([1, 0, 9]), QQ(3))], QQ(-1, 64))
def test_prefactor_dlog_equals_sum_of_quotients(factors, x):
    pref = Prefactor(QQ(1), tuple(factors))
    values = [_ref_eval(p, x) for p, _ in factors]
    if 0 in values:
        with pytest.raises(SingularPoint):
            pref.dlog_at(x)
        return
    want = sum(
        (e * _ref_eval(poly_derivative(p), x) / v for (p, e), v in zip(factors, values)), QQ(0)
    )
    got = pref.dlog_at(x)
    assert type(got) is QQ and got == want
