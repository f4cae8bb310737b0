"""Exact constants, error-tracked floats, and the pi oracle.

Frozen oracle values (classical constants, independent of the engine):
  pi to 80 digits, sin(pi/5) to 40 digits.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction as QQ

import pytest

from rpv import numerics
from rpv.errors import IncompatibleRadicals, ParseError
from rpv.numerics import (
    BigApprox,
    RadConst,
    format_rational,
    machin_pi,
    parse_radconst,
    parse_rational,
    pi_oracle,
    prec_for_digits,
    rad_pow_half,
    rad_to_bigapprox,
    sin_pi,
    squarefree_decompose,
)

PI_80 = (
    "3."
    "14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899"
)
SIN_PI_5_40 = "0.5877852522924731291687059546390727685976"


# ------------------------------------------------------------------
# rational text form
# ------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("-9/40") == QQ(-9, 40)
    assert parse_rational("7") == QQ(7)
    assert parse_rational(" 3/9 ") == QQ(1, 3)
    assert parse_rational("+3/9") == QQ(1, 3)
    assert parse_rational("-0") == 0
    assert format_rational(QQ(-9, 40)) == "-9/40"
    assert format_rational(QQ(8, 4)) == "2"


@pytest.mark.parametrize(
    "bad",
    ["0.5", "1e3", "", "1/0", "2/3/4", "x", "1.0/2",
     # only ASCII [+-]?[0-9]+(/[0-9]+)? passes, though int() takes all of these
     "1_0/3_0", "\u0661/\u0663", "1 / 3", "1/ 3", "- 1", "1/-3", "1/+3", "+-1", "1\u00a0/3"],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "bad", ["7" * 5000, "7" * 4000 + "/0", "7" * 5000 + ".5", "7" * 5000 + "/x", "1/" + "7" * 5000]
)
def test_parse_rational_caps_long_literals(bad):
    # a long literal is echoed as a short prefix and its length
    with pytest.raises(ParseError) as exc:
        parse_rational(bad)
    assert len(str(exc.value)) < 200
    assert f"({len(bad)} characters)" in str(exc.value)


# ------------------------------------------------------------------
# RadConst algebra
# ------------------------------------------------------------------

def test_squarefree_decompose():
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(10005) == (1, 10005)
    s, m = squarefree_decompose(255 * 255 * 17)
    assert s * s * m == 255 * 255 * 17 and m == 17


def test_rad_mul_examples():
    # sqrt(2)*sqrt(2) = 2 ; i*i = -1 ; 3sqrt(2)*2sqrt(6) = 12sqrt(3)
    assert RadConst(1, 2) * RadConst(1, 2) == RadConst(2)
    assert RadConst.i() * RadConst.i() == RadConst(-1)
    assert RadConst(3, 2) * RadConst(2, 6) == RadConst(12, 3)


def test_rad_add_examples():
    assert RadConst(1, 2) + RadConst(2, 2) == RadConst(3, 2)
    assert RadConst(5, 3) + RadConst.zero() == RadConst(5, 3)
    with pytest.raises(IncompatibleRadicals):
        RadConst(1, 2) + RadConst(1, 3)
    with pytest.raises(IncompatibleRadicals):
        RadConst(1, 2) + RadConst(1, 2, 1)


def _random_rad(rng):
    r = QQ(rng.randint(-9, 9), rng.randint(1, 9))
    m = rng.choice([1, 2, 3, 5, 6, 7, 10, 15])
    t = rng.randint(0, 1)
    return RadConst(r, m, t)


def test_rad_mul_commutative_associative_randomized():
    rng = random.Random(20260825)
    for _ in range(300):
        x, y, z = (_random_rad(rng) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_rad_inverse_and_division():
    rng = random.Random(7)
    for _ in range(200):
        x = _random_rad(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == RadConst.one()
        y = _random_rad(rng)
        if not y.is_zero():
            assert (x / y) * y == x


def test_rad_pow_half_principal_branch():
    # (1-u)^(-1/2) for u > 1 is -i/sqrt(u-1): here u = 5 -> -i/2
    assert rad_pow_half(QQ(-4), -1) == RadConst(QQ(-1, 2), 1, 1)
    assert rad_pow_half(QQ(9, 4), 1) == RadConst(QQ(3, 2))
    assert rad_pow_half(QQ(2), 3) == RadConst(2, 2)
    assert rad_pow_half(QQ(-1), 1) == RadConst.i()


def test_rad_text_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        x = _random_rad(rng)
        assert parse_radconst(repr(x)) == x
    assert parse_radconst("0") == RadConst.zero()
    assert repr(RadConst(QQ(5, 3), 15)) == "5/3*sqrt(15)"


def test_parse_radconst_refuses_oversized_radicand_quickly():
    # the cap 10^12 is reachable and parses; one past it is refused
    assert parse_radconst("sqrt(1000000000000)") == RadConst(10**6)
    start = time.perf_counter()
    for text in ["1*sqrt(1000000000000000003)", "sqrt(1000000000000000003)",
                 "2*sqrt(1000000000001)*i", "sqrt(x)"]:
        with pytest.raises(ParseError):
            parse_radconst(text)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------
# BigApprox
# ------------------------------------------------------------------

def test_bigapprox_basic_ops_track_error():
    P = 128
    a = BigApprox.from_rational(QQ(1, 3), P)
    b = BigApprox.from_rational(QQ(1, 7), P)
    s = a + b
    exact = BigApprox.from_rational(QQ(10, 21), P)
    assert s.agrees_to(exact, 30)
    p = a * b
    assert p.agrees_to(BigApprox.from_rational(QQ(1, 21), P), 30)
    q = a / b
    assert q.agrees_to(BigApprox.from_rational(QQ(7, 3), P), 30)


def test_bigapprox_to_decimal_signed_truncates_magnitude():
    P = 128
    assert BigApprox.from_rational(QQ(22, 7), P).to_decimal(4) == "3.1428"
    assert BigApprox.from_rational(QQ(-22, 7), P).to_decimal(4) == "-3.1428"
    assert BigApprox.from_rational(QQ(-1, 3), P).to_decimal(3) == "-0.333"
    assert BigApprox.from_int(0, P).to_decimal(2) == "0.00"


def test_rad_embedding_commutes_with_algebra():
    P = prec_for_digits(30)
    rng = random.Random(11)
    for _ in range(50):
        x, y = _random_rad(rng), _random_rad(rng)
        if x.t or y.t:
            continue
        lhs = rad_to_bigapprox(x * y, P)
        rhs = rad_to_bigapprox(x, P) * rad_to_bigapprox(y, P)
        assert lhs.agrees_to(rhs, 25)
        if (x.m, x.t) == (y.m, y.t):
            lhs = rad_to_bigapprox(x + y, P)
            rhs = rad_to_bigapprox(x, P) + rad_to_bigapprox(y, P)
            assert lhs.agrees_to(rhs, 25)


# ------------------------------------------------------------------
# pi oracle
# ------------------------------------------------------------------

def test_pi_oracle_matches_frozen_digits():
    pi = pi_oracle(80)
    assert pi.to_decimal(78)[:79] == PI_80[:79]
    assert pi.err_bound_lt_pow10(80)


@pytest.mark.parametrize("digits", [10, 100, 1000])
def test_agm_machin_cross_agreement(digits):
    P = prec_for_digits(digits)
    mac, err = machin_pi(P)
    agm = _brent_salamin_pi(P)
    assert abs(mac - agm) + err < (1 << P) // 10**digits


def test_pi_oracle_small_digits():
    pi = pi_oracle(1)
    assert pi.to_decimal(1).startswith("3.1")


def _old_atan_inv(k: int, prec: int) -> tuple:
    """The series summation machin_pi used before binary splitting."""
    num = (1 << prec) // k
    total, j, ops = 0, 0, 1
    while num:
        term = num // (2 * j + 1)
        total += -term if (j & 1) else term
        num //= k * k
        j += 1
        ops += 2
    return total, ops + 2


def _old_machin_pi(prec: int) -> tuple:
    m5, e5 = _old_atan_inv(5, prec)
    m239, e239 = _old_atan_inv(239, prec)
    return 16 * m5 - 4 * m239, 16 * e5 + 4 * e239


def _old_pi_oracle(digits: int) -> BigApprox:
    """pi_oracle's construction over the old Machin summation."""
    for attempt in range(4):
        P = prec_for_digits(digits) + 32 * (attempt + 1)
        agm = _brent_salamin_pi(P)
        mac, mac_err = _old_machin_pi(P)
        err = abs(agm - mac) + mac_err + 2
        target = prec_for_digits(digits)
        shift = P - target
        out = BigApprox(agm >> shift, target, (err >> shift) + 2)
        if out.err_bound_lt_pow10(digits):
            return out
    raise ArithmeticError(digits)


@pytest.mark.parametrize("prec", [4, 10, 64, 200, 3000, 20000])
def test_machin_interval_contains_old_summation(prec):
    man, err = machin_pi(prec)
    old, old_err = _old_machin_pi(prec)
    # both intervals hold pi, so they meet; the new bound is a few ulps
    assert abs(man - old) <= err + old_err
    assert err <= 8


@pytest.mark.parametrize("digits", [1, 10, 45, 1000, 20005])
def test_pi_oracle_bit_identical_to_old_construction(digits):
    assert pi_oracle(digits) == _old_pi_oracle(digits)


def _brent_salamin_pi(prec: int) -> int:
    """The AGM the oracle used before Schönhage's variant, now the tests'
    independent pi."""
    a = 1 << prec
    b = math.isqrt(1 << (2 * prec - 1))
    t = 1 << (prec - 2)
    p = 1
    while a - b > 4:
        an = (a + b) >> 1
        b = math.isqrt(a * b)
        d = a - an
        t -= (p * d * d) >> prec
        a = an
        p <<= 1
    s = a + b
    return (s * s) // (4 * t)


@pytest.mark.parametrize(
    "digits", [1, 5, 10, 30, 45, 55, 80, 100, 300, 1000, 3000, 20005, 20007]
)
def test_pi_oracle_identical_over_brent_salamin(digits):
    # the center and bound of the oracle over the old AGM: man, prec and err
    pi = pi_oracle(digits)
    target = prec_for_digits(digits)
    P = target + 32
    agm = _brent_salamin_pi(P)
    mac, mac_err = machin_pi(P)
    assert pi == BigApprox(agm >> 32, target, ((abs(agm - mac) + mac_err + 2) >> 32) + 2)


@pytest.mark.parametrize("gcd_max_bits", [numerics._ATAN_GCD_MAX_BITS, 0])
@pytest.mark.parametrize("k", [5, 239])
def test_atan_split_equals_exact_partial_sums(monkeypatch, k, gcd_max_bits):
    monkeypatch.setattr(numerics, "_ATAN_GCD_MAX_BITS", gcd_max_bits)
    total, w = QQ(0), QQ(1)  # sum of w_j for j < n, and w_n
    for n in range(1, 201):
        total += w
        w *= QQ(-(2 * n - 1), (2 * n + 1) * k * k)
        p, q, t = numerics._atan_split(k, 0, n)
        assert QQ(t, q) == total and QQ(p, q) == w
        assert numerics._atan_split(k, 0, n, False)[1:] == (q, t)
    # a range that starts past 0 sums w_j/w_lo
    p0, q0, t0 = numerics._atan_split(k, 0, 70)
    p, q, t = numerics._atan_split(k, 70, 200)
    assert QQ(p0, q0) * QQ(t, q) == total - QQ(t0, q0)


def test_pi_oracle_takes_no_large_isqrt(monkeypatch):
    # Machin's interval takes no square root at all
    small = []

    def guarded(x):
        assert x.bit_length() <= 4000, f"isqrt of {x.bit_length()} bits"
        small.append(x)
        return math.isqrt(x)

    monkeypatch.setattr(numerics, "isqrt", guarded)
    pi = pi_oracle.__wrapped__(20000)
    assert pi == pi_oracle(20000) and pi.err_bound_lt_pow10(20000)
    assert not small


def test_oracle_error_reaches_json_unchanged(monkeypatch):
    import rpv.catalog
    import rpv.hyper
    import rpv.numerics
    import rpv.special
    from rpv.cli import main

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        return json.loads(out.getvalue())

    argvs = (
        ["verify", "--id", "s14-08", "--digits", "40", "--jobs", "1", "--json"],
        ["start", "--s", "1/5", "--digits", "30", "--json"],
    )
    now = [run(argv) for argv in argvs]
    for mod in (rpv.catalog, rpv.hyper, rpv.numerics, rpv.special):
        monkeypatch.setattr(mod, "pi_oracle", _old_pi_oracle)
    assert [run(argv) for argv in argvs] == now
    assert [r["digitsMatched"] for r in now[0]["reports"]] == [57]
    assert now[1]["digitsAgreed"] == 56


# ------------------------------------------------------------------
# sin(pi s)
# ------------------------------------------------------------------

def test_sin_pi_exact_table():
    assert sin_pi(QQ(1, 2)) == RadConst(1)
    assert sin_pi(QQ(1, 4)) == RadConst(QQ(1, 2), 2)
    assert sin_pi(QQ(3, 4)) == RadConst(QQ(1, 2), 2)
    assert sin_pi(QQ(1, 3)) == RadConst(QQ(1, 2), 3)
    assert sin_pi(QQ(1, 6)) == RadConst(QQ(1, 2))


def test_sin_pi_numeric_branch_matches_frozen():
    v = sin_pi(QQ(1, 5), digits=40)
    assert isinstance(v, BigApprox)  # non-exact flag
    assert v.to_decimal(38)[:39] == SIN_PI_5_40[:39]


def test_sin_pi_exact_values_match_numeric_embedding():
    for s in (QQ(1, 2), QQ(1, 3), QQ(1, 4), QQ(1, 6), QQ(5, 6)):
        exact = sin_pi(s)
        P = prec_for_digits(35)
        num = sin_pi(s + QQ(1, 10**9), digits=35)  # nearby non-exact input
        emb = rad_to_bigapprox(exact, P)
        # sin is 1-Lipschitz w.r.t. pi*s, so drift < 2^-20 of a digit budget
        assert abs(float(emb) - float(num)) < 1e-8
