"""poly.rational_roots against the divisor enumeration it replaced.

reference_rational_roots is the rational-root test rpv ran before Sturm
isolation: every divisor of the integerized constant term over every divisor
of the leading coefficient, each candidate checked by exact evaluation and
divided out while it vanishes.  Both must return the same sorted distinct
roots and the same count of roots left over, on products of rational linear
factors and irreducible quadratics.  The budget tests pin the inputs that
hung the enumeration: a target z with a large smooth numerator or
denominator.
"""

import time
from fractions import Fraction as QQ
from math import isqrt, lcm

import pytest

from rpv.poly import poly, poly_eval, poly_mul, poly_scale, rational_roots
from rpv.transforms import get_rule, rule_ids
from rpv.translate import solve_for_x

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# ------------------------------------------------------------------
# the divisor enumeration, as poly ran it before
# ------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _deflate(p: tuple, root) -> tuple:
    out = [QQ(0)] * (len(p) - 1)
    carry = QQ(0)
    for k in range(len(p) - 1, 0, -1):
        carry = p[k] + carry * root
        out[k - 1] = carry
    return poly(out)


def reference_rational_roots(p: tuple) -> tuple[list, int]:
    p = poly(p)
    if not p:
        raise ValueError("rational_roots of the zero polynomial")
    roots = []
    while p[0] == 0 and len(p) > 1:
        if QQ(0) not in roots:
            roots.append(QQ(0))
        p = p[1:]
    if len(p) >= 2:
        scale = lcm(*(c.denominator for c in p))
        ip = [c.numerator * (scale // c.denominator) for c in p]
        cands = set()
        for a in _divisors(ip[0]):
            for b in _divisors(ip[-1]):
                cands.add(QQ(a, b))
                cands.add(QQ(-a, b))
        for cand in sorted(cands):
            while len(p) >= 2 and poly_eval(p, cand) == 0:
                if cand not in roots:
                    roots.append(cand)
                p = _deflate(p, cand)
    return sorted(roots), max(len(p) - 1, 0)


# ------------------------------------------------------------------
# random products of linear factors and irreducible quadratics
# ------------------------------------------------------------------

SMALL = st.integers(-6, 6)
NONZERO = SMALL.filter(bool)
# a*x - b: the root b/a, with b = 0 for the root 0; the narrow range repeats roots
LINEAR = st.tuples(st.integers(-3, 3), st.integers(1, 4)).map(lambda t: (-t[0], t[1]))


def _irreducible(q: tuple) -> bool:
    c, b, a = q
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


# a*x^2 + b*x + c with no rational root: complex pairs and real irrationals
QUADRATIC = st.tuples(SMALL, SMALL, NONZERO).filter(_irreducible)
LEAD = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(bool)


@st.composite
def products(draw):
    factors = draw(st.lists(LINEAR, max_size=5)) + draw(st.lists(QUADRATIC, max_size=2))
    p = poly([draw(LEAD)])
    for f in factors:
        p = poly_mul(p, poly(f))
    return p


@settings(max_examples=300, deadline=None)
@given(products())
def test_rational_roots_match_divisor_enumeration(p):
    assert rational_roots(p) == reference_rational_roots(p)


def test_rational_roots_fixed_cases():
    # x^2 (x - 1): the double root 0 is the first midpoint of the bisection
    assert rational_roots((0, 0, -1, 1)) == ([QQ(0), QQ(1)], 0)
    # (x - 1)(x^2 - 4x + 2): the root 1 ends one width-1 interval and is the
    # candidate of the next, which holds 2 - sqrt(2) too
    assert rational_roots((-2, 6, -5, 1)) == ([QQ(1)], 2)
    assert rational_roots((QQ(-1, 3), 0, QQ(2, 7))) == ([], 2)
    assert rational_roots((5,)) == ([], 0)
    p = poly_scale(poly_mul((QQ(1, 2), -3), (-2, 0, 1)), QQ(-7, 5))
    assert rational_roots(p) == ([QQ(1, 6)], 2)


def test_rational_roots_of_zero_polynomial_raises():
    for p in ((), (0,), (QQ(0), 0)):
        with pytest.raises(ValueError):
            rational_roots(p)


# ------------------------------------------------------------------
# budgets
# ------------------------------------------------------------------

def test_solve_for_x_smooth_target_within_budget():
    # the enumeration was still running at 20 s on this target
    t0 = time.perf_counter()
    assert solve_for_x(get_rule("class7").C, QQ(-1, 151931373056000)) == []
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("rid", rule_ids())
def test_solve_for_x_hundred_digit_targets_within_budget(rid):
    # 2^330 and 3^209 both have 100 digits, and each is as smooth as it gets
    z = QQ(2**330, 3**209)
    rule = get_rule(rid)
    for ratfun in (rule.A, rule.C):
        for target in (z, -z):
            t0 = time.perf_counter()
            for x in solve_for_x(ratfun, target):
                assert ratfun(x) == target
            assert time.perf_counter() - t0 < 1.0, (rid, ratfun, target)
