"""Coefficient families, certified summation, Clausen/Gauss checks."""

import random
from fractions import Fraction as QQ
from math import comb

import pytest

from rpv.errors import DivergentInput, ParseError
from rpv.fps import Series, fps_mul
from rpv.hyper import (
    CheckReport,
    CoeffFamily,
    clear_recurrence,
    coeff,
    compare_series,
    convCentral,
    converges,
    domb,
    eval_numeric,
    family_envelope,
    family_recurrence,
    family_series,
    hyper3F2,
    hyper_series,
    parse_family,
    square2F1,
    tail_bound,
)
from rpv import special
from rpv.numerics import pi_oracle, rad_to_bigapprox, sin_pi
from gauss_checks import clausen_check, gauss_half_check
from reference_kernels import pochhammer, tail_power_sum


def test_pochhammer_examples():
    assert pochhammer(QQ(1, 2), 3) == QQ(15, 8)
    assert pochhammer(QQ(7, 3), 0) == 1
    assert pochhammer(QQ(1), 5) == 120


def test_pochhammer_coeff_oracle_randomized():
    rng = random.Random(424242)
    for _ in range(20):
        s = QQ(rng.randint(1, 9), 10)
        fam = hyper3F2(s)
        n = rng.randint(0, 50)
        expected = (
            pochhammer(QQ(1, 2), n)
            * pochhammer(s, n)
            * pochhammer(1 - s, n)
            / pochhammer(QQ(1), n) ** 3
        )
        assert coeff(fam, n) == expected


def test_family_small_values():
    assert coeff(hyper3F2(QQ(1, 2)), 1) == QQ(1, 8)
    assert coeff(square2F1(QQ(1, 2)), 0) == 1
    assert coeff(square2F1(QQ(1, 2)), 1) == QQ(1, 2)
    assert coeff(domb(), 2) == 90
    assert coeff(domb(), 1) == 6


def test_square2f1_equals_fps_square():
    for s in (QQ(1, 2), QQ(1, 4), QQ(1, 6)):
        g = hyper_series([s, 1 - s], [QQ(1)], 40)
        sq = fps_mul(g, g)
        assert family_series(square2F1(s), 40) == sq


# ------------------------------------------------------------------
# the recurrences: definitions as the oracle, then proofs
# ------------------------------------------------------------------

ORACLE_S = (QQ(1, 2), QQ(1, 3), QQ(1, 4), QQ(1, 6), QQ(1, 5), QQ(2, 7))


def _definition(kind, s, n):
    """t_0..t_n straight from the family definitions (no recurrence)."""
    half = QQ(1, 2)
    if kind == "hyper3F2":
        return list(hyper_series([half, s, 1 - s], [1, 1], n).coeffs)
    if kind == "square2F1":
        g = hyper_series([s, 1 - s], [1], n)
        return list(fps_mul(g, g).coeffs)
    if kind == "convCentral":
        # 2F1(1/2, s; 1; -4x) 2F1(1/2, 1-s; 1; -4x): the -4 scales index m
        uv = fps_mul(hyper_series([half, s], [1], n), hyper_series([half, 1 - s], [1], n))
        return [(-4) ** m * c for m, c in enumerate(uv.coeffs)]
    return [
        comb(2 * m, m) * sum(comb(2 * k, k) * comb(m, k) ** 2 for k in range(m + 1))
        for m in range(n + 1)
    ]


@pytest.mark.parametrize("kind", ["hyper3F2", "square2F1", "convCentral", "domb"])
def test_stream_matches_definition(kind):
    for s in [QQ(0)] if kind == "domb" else ORACLE_S:
        fam = CoeffFamily(kind, s)
        assert [coeff(fam, m) for m in range(201)] == _definition(kind, s, 200)


def _annihilates(rec, F0, k, gauss):
    """theta^3 - x P(theta) - x^2 Q(theta+1) kills F0, with rec = (P, Q) in
    family_recurrence's form and theta = x d/dx.

    F0 is a polynomial in g, g' for the 2F1(a, b; 1; kx) solutions listed in
    `gauss` as (g, g', a, b); Gauss's equation
    x(1 - kx) g'' = abk g - (1 - (a+b+1)kx) g' eliminates g''.  Powers of
    h = 1 - kx are carried apart, (theta + shift)^j F0 = N_j / h^j, so every
    N_j is a polynomial and the check is one polynomial expansion.
    """
    import sympy as sp

    x = sp.Symbol("x")
    h = 1 - k * x
    P, Q = rec

    def rat(c):
        return sp.Rational(int(c.numerator), int(c.denominator))

    def x_h_d(N):  # x(1 - kx) d/dx with g'' eliminated
        out = x * h * sp.diff(N, x)
        for g, dg, a, b in gauss:
            out += x * h * dg * sp.diff(N, g)
            out += (a * b * k * g - (1 - (a + b + 1) * k * x) * dg) * sp.diff(N, dg)
        return out

    def numerators(shift):
        Ns = [F0]
        for m in range(3):
            N = Ns[-1]
            Ns.append(sp.expand(x_h_d(N) + m * k * x * N + shift * h * N))
        return Ns

    th, th1 = numerators(0), numerators(1)
    total = th[3]
    total -= x * sum(rat(c) * th[j] * h ** (3 - j) for j, c in enumerate(P))
    total -= x**2 * sum(rat(c) * th1[j] * h ** (3 - j) for j, c in enumerate(Q))
    return sp.expand(total) == 0


def test_recurrences_annihilate_gauss_products():
    """square2F1(s) generates f^2 with f = 2F1(s, 1-s; 1; x); convCentral(s)
    generates u v with u, v = 2F1(1/2, s; 1; -4x), 2F1(1/2, 1-s; 1; -4x).
    The annihilator's coefficient of x^n is the recurrence at n - 1, so
    this proves both recurrences for every n."""
    sp = pytest.importorskip("sympy")
    f, df, u, du, v, dv = sp.symbols("f df u du v dv")
    half = sp.Rational(1, 2)
    for s in ORACLE_S:
        q = sp.Rational(int(s.numerator), int(s.denominator))
        assert _annihilates(family_recurrence(square2F1(s)), f**2, 1, [(f, df, q, 1 - q)])
        conv = [(u, du, half, q), (v, dv, half, 1 - q)]
        assert _annihilates(family_recurrence(convCentral(s)), u * v, -4, conv)
    # negative control: the recurrence of another s does not annihilate
    assert not _annihilates(family_recurrence(convCentral(QQ(1, 3))), u * v, -4, conv)


def test_sun_4_14_recurrence_annihilates_its_product():
    """special._G44_REC, the recurrence Sun 4.14's sum runs on, is
    (n+1)^3 c_{n+1} = (2n+1)(18n^2+18n+11)/18 c_n - n(36n^2-1)/36 c_{n-1}
    for u v = sum c_n x^n, u = 2F1(1/6, 1/3; 1; x), v = 2F1(2/3, 5/6; 1; x);
    cleared at z = 1/2 it is the integer recurrence below."""
    sp = pytest.importorskip("sympy")
    u, du, v, dv = sp.symbols("u du v dv")
    gauss = [(u, du, sp.Rational(1, 6), sp.Rational(1, 3)), (v, dv, sp.Rational(2, 3), sp.Rational(5, 6))]
    rec = special._G44_REC
    assert rec == ((QQ(11, 18), QQ(20, 9), 3, 2), (0, QQ(1, 36), 0, -1))
    assert _annihilates(rec, u * v, 1, gauss)
    assert clear_recurrence(rec, QQ(1, 2)) == (
        (44, 160, 216, 144), (0, 1, 0, -36), (144, 432, 432, 144)
    )
    # negative control: a perturbed P does not annihilate
    assert not _annihilates(((QQ(2, 3),) + rec[0][1:], rec[1]), u * v, 1, gauss)


def test_2f1_recurrence_annihilates_gauss_function():
    """gauss_half_check sums the coefficients f_n of 2F1(s, 1-s; 1; x) by
    (n+1)^3 f_{n+1} = (n+s)(n+1-s)(n+1) f_n, first order (Q = ())."""
    sp = pytest.importorskip("sympy")
    f, df = sp.symbols("f df")
    for s in ORACLE_S:
        q = sp.Rational(int(s.numerator), int(s.denominator))
        P = (s * (1 - s), 1 + s * (1 - s), 2, 1)
        assert _annihilates((P, ()), f, 1, [(f, df, q, 1 - q)])


def test_domb_recurrence_wz_certificate():
    """a_n = sum_k F(n,k), F = C(n,k)^2 C(2k,k), satisfies
    n^2 a_n = (10n^2-10n+3) a_{n-1} - 9(n-1)^2 a_{n-2}: the summand
    H(n,k) = n^2 F(n,k) - (10n^2-10n+3) F(n-1,k) + 9(n-1)^2 F(n-2,k)
    telescopes, H(n,k) = G(n,k+1) - G(n,k) with G = R H.  Summed over
    0 <= k <= n it leaves G(n,n+1) - G(n,0) = 0, since R has the factor k^3
    and H(n,n+1) = 0, provided D has no zero at 0 < k <= n+1 (checked for
    n <= 200, the range of the stream oracle).  With t_n = C(2n,n) a_n the
    domb recurrence at n is this one at n+1 times 2(2n+1) C(2n,n)."""
    sp = pytest.importorskip("sympy")
    n, k = sp.symbols("n k")

    def ratio(dn, dk):  # F(n+dn, k+dk) / F(n, k) for dn in {0,-1,-2}, dk in {0,1}
        r = sp.Integer(1)
        for j in range(-dn):
            r *= ((n - j - k) / (n - j)) ** 2
        if dk:
            r *= ((n + dn - k) / (k + 1)) ** 2 * 2 * (2 * k + 1) / (k + 1)
        return r

    def H(dk):  # H(n, k+dk) / F(n, k)
        return (
            n**2 * ratio(0, dk)
            - (10 * n**2 - 10 * n + 3) * ratio(-1, dk)
            + 9 * (n - 1) ** 2 * ratio(-2, dk)
        )

    D = (
        9 * k**4 - 36 * k**3 * n + 18 * k**3 + 44 * k**2 * n**2 - 44 * k**2 * n
        + 6 * k**2 - 16 * k * n**3 + 34 * k * n**2 - 12 * k * n - 8 * n**3 + 6 * n**2
    )
    R = k**3 * (3 * k - 4 * n) / D
    assert sp.cancel(R.subs(k, k + 1) * H(1) - R * H(0) - H(0)) == 0
    d = sp.lambdify((n, k), D)
    assert all(d(m, j) != 0 for m in range(1, 201) for j in range(1, m + 2))

    P, Q = (
        sum(sp.Rational(int(c.numerator), int(c.denominator)) * n**j for j, c in enumerate(p))
        for p in family_recurrence(domb())
    )
    # (n+1)^3 t_{n+1} = 2(2n+1) (n+1)^2 C(2n,n) a_{n+1}, C(2n,n) = 2(2n-1)/n C(2n-2,n-1)
    assert sp.expand(P - 2 * (2 * n + 1) * (10 * n**2 + 10 * n + 3)) == 0
    assert sp.cancel(Q * n / (2 * (2 * n - 1)) + 2 * (2 * n + 1) * 9 * n**2) == 0


def test_family_string_roundtrip():
    for fam in (hyper3F2(QQ(1, 6)), square2F1(QQ(1, 4)), convCentral(QQ(1, 3)), domb()):
        assert parse_family(str(fam)) == fam


@pytest.mark.parametrize("s", ["0", "1", "-1/2", "3/2", "1000/3"])
@pytest.mark.parametrize("kind", ["hyper3F2", "square2F1", "convCentral"])
def test_family_parameter_outside_unit_interval_refused(kind, s):
    # the envelope proofs need 0 <= s <= 1: hyper3F2:1000/3 at z = 1/2 used
    # to sum to -5.37e122 with a certified bound below 1e-10
    with pytest.raises(ParseError, match=r"must lie in \(0, 1\)"):
        parse_family(f"{kind}:{s}")
    assert parse_family(f"{kind}:1/5") == CoeffFamily(kind, QQ(1, 5))


def test_envelope_is_sound_sampled():
    from rpv.hyper import family_envelope

    for fam in (hyper3F2(QQ(1, 6)), square2F1(QQ(1, 3)), convCentral(QQ(1, 4)), domb()):
        R, deg = family_envelope(fam)
        for n in range(0, 41, 8):
            assert abs(coeff(fam, n)) <= (n + 1) ** deg * QQ(R) ** n


def test_tail_power_sum_against_brute_force():
    # every envelope has deg <= 1, so tail_bound asks for j <= 2 only
    r = QQ(2, 5)
    with pytest.raises(ValueError):
        tail_power_sum(3, r, 0)
    for j in (0, 1, 2):
        for N in (0, 3, 7):
            brute = sum(QQ(n) ** j * r**n for n in range(N, N + 200))
            bound = r**N * tail_power_sum(j, r, N)
            assert brute <= bound <= brute + QQ(1, 10**20)


def _tail_bound_bracketwise(fam, a, b, z, N):
    """tail_bound with r^N inside each power sum, as first written."""
    R, deg = family_envelope(fam)
    r = abs(QQ(z)) * R
    one = 1 - r
    sums = [
        r**N / one,
        r**N * (QQ(N) / one + r / one**2),
        r**N * (QQ(N * N) / one + (2 * N + 1) * r / one**2 + 2 * r**2 / one**3),
    ]
    aa, bb = abs(QQ(a)), abs(QQ(b))
    weights = {0: aa, 1: bb} if deg == 0 else {0: aa, 1: aa + bb, 2: bb}
    return sum(w * sums[j] for j, w in weights.items() if w)


def test_tail_bound_factors_r_power_exactly():
    cases = [
        (hyper3F2(QQ(1, 6)), 13591409, 545140134, QQ(-1, 151931373056000), 7062),
        (hyper3F2(QQ(1, 4)), 1, 8, QQ(1, 2304), 20970),
        (hyper3F2(QQ(1, 2)), QQ(1, 3), 2, QQ(-1, 8), 0),
        (square2F1(QQ(1, 3)), 1, 5, QQ(1, 54), 40),
        (domb(), 2, 7, QQ(1, 100), 17),
    ]
    for fam, a, b, z, N in cases:
        assert tail_bound(fam, a, b, z, N) == _tail_bound_bracketwise(fam, a, b, z, N)


def test_tail_bound_dominates_actual_tail():
    fam = hyper3F2(QQ(1, 2))
    z = QQ(-1, 2)
    actual = sum(
        (1 + 6 * n) * coeff(fam, n) * z**n for n in range(30, 230)
    )
    assert abs(actual) <= tail_bound(fam, 1, 6, z, 30)


def test_eval_numeric_against_pi():
    # (6n+1) t_n (1/4)^n = 4/pi for the s=1/2 family
    from rpv.numerics import BigApprox

    val = eval_numeric(hyper3F2(QQ(1, 2)), 1, 6, QQ(1, 4), 40)
    pi = pi_oracle(40).rescale(val.prec)
    assert (val * pi).agrees_to(BigApprox.from_int(4, val.prec), 38)


def test_eval_numeric_digit_stability():
    fam = hyper3F2(QQ(1, 2))
    v30 = eval_numeric(fam, 5, 42, QQ(1, 64), 30)
    v60 = eval_numeric(fam, 5, 42, QQ(1, 64), 60)
    assert v30.agrees_to(v60.rescale(v30.prec), 30)


def test_eval_numeric_divergent_input():
    with pytest.raises(DivergentInput):
        eval_numeric(hyper3F2(QQ(1, 2)), 1, 3, QQ(4), 10)
    with pytest.raises(DivergentInput):
        eval_numeric(hyper3F2(QQ(1, 2)), 1, 4, QQ(-1), 10)  # boundary excluded
    assert not converges(convCentral(QQ(1, 2)), QQ(1, 4))


def test_clausen_check_passes_and_negative_control():
    assert clausen_check(QQ(1, 4), QQ(1, 4), 32).passed
    assert clausen_check(QQ(1, 6), QQ(1, 3), 32).passed
    # perturb the second lower parameter: must fail at a small index
    from rpv.fps import fps_mul as _m

    a = b = QQ(1, 4)
    f = hyper_series([a, b], [a + b + QQ(1, 2)], 8)
    lhs = _m(f, f)
    rhs = hyper_series(
        [2 * a, 2 * b, a + b], [a + b + QQ(1, 2), 2 * a + 2 * b + 1], 8
    )
    miss = lhs.first_mismatch(rhs)
    assert miss is not None and miss <= 2


def test_compare_series_verdicts():
    one = Series([QQ(1), QQ(2), QQ(3)])
    rep = compare_series(one, one, 2)
    assert rep.passed and rep.detail == "series agree to order 2"
    rep = compare_series(one, Series([QQ(1), QQ(2), QQ(4)]), 2)
    assert not rep.passed and rep.first_mismatch == 2
    assert rep.detail == "first coefficient mismatch at index 2"


def test_gauss_half_check():
    for s in (QQ(1, 2), QQ(1, 4)):
        rep = gauss_half_check(s, digits=30)
        assert rep.passed, rep.detail
    rep = gauss_half_check(QQ(1, 5), digits=30)  # non-exact sin branch
    assert rep.passed, rep.detail


def test_gauss_half_value_is_2_over_pi_at_half():
    rep = gauss_half_check(QQ(1, 2), digits=25)
    assert rep.passed and rep.digits_agreed >= 25
