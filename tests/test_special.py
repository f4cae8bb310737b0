"""Tests for the starting formula, the exact limit verdict, and Sun conjecture checks."""

import math
import random
from fractions import Fraction as QQ
from math import comb

import pytest

from rpv.errors import InvariantViolation
from rpv import special
from rpv.fps import fps_mul
from rpv.hyper import hyper3F2, hyper_series, square2F1, sum_terms
from rpv.numerics import RadConst
from rpv.poly import RatFun
from rpv.special import (
    LIMIT_SPECS,
    LimitSpec,
    corollary_binomial_check,
    limit_eval,
    limit_exact,
    rogers_domb_check,
    starting_formula,
    sun_2_11,
    sun_4_14,
    sun_S2_identity,
)
from rpv.translate import solve_for_x
from gauss_checks import gauss_half_check


def sun_solve_points() -> dict:
    """Rational x with 64x/(64x-1) = z for each z in the section's list."""
    c_map = RatFun((0, 64), (-1, 64))
    targets = [QQ(-1), QQ(-1, 8), QQ(1, 64), QQ(4), QQ(-8), QQ(64)]
    return {t: solve_for_x(c_map, t) for t in targets}


def test_starting_formula_half():
    rep = starting_formula(QQ(1, 2))
    assert rep.passed
    assert rep.exact_target
    assert rep.digits_agreed >= 30


def test_starting_formula_generic_s():
    rep = starting_formula(QQ(1, 5))
    assert rep.passed
    assert not rep.exact_target
    assert rep.digits_agreed >= 30


def test_starting_formula_random_s():
    rng = random.Random(20260825)
    seen = 0
    while seen < 12:
        q = rng.randint(2, 12)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) != 1:
            continue
        s = QQ(p, q)
        rep = starting_formula(s, digits=25)
        assert rep.passed, (s, rep.detail)
        gauss = gauss_half_check(s, digits=25)
        assert gauss.passed, (s, gauss.detail)
        seen += 1


def test_corollary_binomial_forms():
    for p, q in [(1, 2), (1, 3), (1, 4), (1, 6)]:
        rep = corollary_binomial_check(QQ(p, q), 100)
        assert rep.passed, rep.detail
        assert rep.first_mismatch is None


def test_corollary_binomial_wrong_base_fails():
    rep = corollary_binomial_check(QQ(1, 2), 8, base=33)
    assert not rep.passed
    assert rep.first_mismatch == 1


LIMIT_TARGETS = {
    "limit-start-1/2": (QQ(2), 1),
    "limit-start-1/3": (QQ(1), 3),
    "limit-start-1/4": (QQ(1), 2),
    "limit-start-1/6": (QQ(1), 1),
    "limit-8x1": (QQ(1, 2), 3),
    "limit-x1": (QQ(1), 2),
    "limit-8px": (QQ(4), 3),
}


def test_limit_spec_targets():
    assert set(LIMIT_SPECS) == set(LIMIT_TARGETS)
    for lid, (r, m) in LIMIT_TARGETS.items():
        assert LIMIT_SPECS[lid].target == RadConst(r, m), lid


# L = lim w^2/(1-A) for each spec, worked out by hand from its RatFuns
LIMIT_L = {
    "limit-start-1/2": 4,
    "limit-start-1/3": 4,
    "limit-start-1/4": 4,
    "limit-start-1/6": 4,
    "limit-8x1": 3,
    "limit-x1": 4,
    "limit-8px": 192,
}


def test_limit_exact_decides_every_spec():
    for lid, (r, m) in LIMIT_TARGETS.items():
        proof = limit_exact(LIMIT_SPECS[lid])
        assert proof.value == RadConst(r, m), lid
        assert proof.L == LIMIT_L[lid], lid
        assert (proof.weight_order, proof.gap_order, proof.sign) == (1, 2, 1), lid
        rep = limit_eval(LIMIT_SPECS[lid], 1e-8)
        assert rep.passed and rep.exact == RadConst(r, m), lid


def test_limit_spec_is_a_plain_record():
    # building a spec checks nothing; limit_exact refuses it
    half = QQ(1, 2)
    spec = LimitSpec(
        hyper3F2(half), RatFun((1, -2), (1, -1)), RatFun((0, 4, -4)), half, "up", RadConst(2)
    )
    assert spec.direction == "up"
    with pytest.raises(InvariantViolation, match="bad direction 'up'"):
        limit_exact(spec)
    with pytest.raises(InvariantViolation):
        limit_eval(spec, 1e-8)


def test_limit_spec_rejects_bad_input():
    weight = RatFun((1, -2), (1, -1))
    arg = RatFun((0, 4, -4))
    half = QQ(1, 2)
    with pytest.raises(InvariantViolation, match="infinite"):
        # w(x*) = 1: the weight does not vanish at the approach point
        limit_exact(LimitSpec(hyper3F2(half), RatFun((1,)), arg, half, "left", RadConst(2)))
    with pytest.raises(InvariantViolation):
        limit_exact(LimitSpec(hyper3F2(half), weight, arg, half, "up", RadConst(2)))
    with pytest.raises(InvariantViolation):
        limit_exact(LimitSpec(square2F1(half), weight, arg, half, "left", RadConst(2)))
    with pytest.raises(InvariantViolation):
        limit_exact(
            LimitSpec(hyper3F2(half), weight, RatFun((0, 2, -2)), half, "left", RadConst(2))
        )
    with pytest.raises(InvariantViolation):
        limit_exact(LimitSpec(hyper3F2(half), weight, arg, half, "left", RadConst(2, 1, 1)))
    with pytest.raises(InvariantViolation):
        limit_exact(LimitSpec(hyper3F2(half), weight, arg, half, "left", RadConst(0)))


def test_limit_spec_rejects_failed_closed_form_hypotheses():
    weight = RatFun((1, -2), (1, -1))
    arg = RatFun((0, 4, -4))
    half = QQ(1, 2)
    cases = [
        # A(x*) = -1: on the boundary, but the series does not blow up there
        (hyper3F2(half), weight, RatFun((0, -4, 4))),
        # w has a double zero, so L = lim w^2/(1-A) = 0
        (hyper3F2(half), RatFun((1, -4, 4), (1, -1)), arg),
        # 1 - A = (1-2x)^4 vanishes faster than w^2, so L is infinite
        (hyper3F2(half), weight, RatFun((0, 8, -24, 32, -16))),
        # sin(pi/5) is not on the exact table
        (hyper3F2(QQ(1, 5)), weight, arg),
    ]
    for fam, w, a in cases:
        with pytest.raises(InvariantViolation):
            limit_exact(LimitSpec(fam, w, a, half, "left", RadConst(2)))


def test_limit_wrong_target_fails():
    old = LIMIT_SPECS["limit-8x1"]
    spec = LimitSpec(
        old.family, old.weight, old.argument, old.x_star, old.direction, RadConst(QQ(1, 2), 2)
    )
    rep = limit_eval(spec, 1e-8)
    assert not rep.passed
    assert rep.exact == RadConst(QQ(1, 2), 3)


def test_sun_s2_identity():
    rep = sun_S2_identity(120)
    assert rep.passed
    assert rep.checked == 120
    assert rep.first_mismatch is None
    assert not rep.printed_def_consistent
    assert rep.printed_first_mismatch == 1


def _ref_conv_q(n):
    return sum(
        comb(2 * k, k)
        * comb(4 * k, 2 * k)
        * comb(4 * (n - k), 2 * (n - k))
        * comb(2 * (n - k), n - k)
        for k in range(n + 1)
    )


def _ref_terminating_3f2(n):
    half = QQ(1, 2)
    f = hyper_series((half, half, QQ(-n)), (QQ(1), half - n), n)
    return 4**n * comb(2 * n, n) ** 2 * sum(f.coeffs)


def _ref_terminating_4f3(n):
    q1, q3 = QQ(1, 4), QQ(3, 4)
    f = hyper_series((q1, q3, QQ(-n), QQ(-n)), (QQ(1), q1 - n, q3 - n), n)
    return comb(2 * n, n) * comb(4 * n, 2 * n) * sum(f.coeffs)


def _ref_printed_q(n):
    s = sum(comb(2 * k, k) * comb(2 * (n - k), n - k) * 4 ** (n - k) for k in range(n + 1))
    return comb(2 * n, n) * s


def test_s2_rows_match_comb_and_fraction_definitions():
    c, A = special._binomial_tables(120)
    for n in range(121):
        assert special._conv_q(n, A) == _ref_conv_q(n)
        assert special._terminating_3f2(n, c) == _ref_terminating_3f2(n)
        assert special._terminating_4f3(n, c) == _ref_terminating_4f3(n)
        assert special._printed_q(n, c) == _ref_printed_q(n)


def test_s2_identity_reports_corrupted_row(monkeypatch):
    exact = special._terminating_4f3
    monkeypatch.setattr(special, "_terminating_4f3", lambda n, c: exact(n, c) + (n == 57))
    rep = sun_S2_identity(120)
    assert not rep.passed
    assert rep.to_json()["firstMismatch"] == 57
    assert rep.checked == 57


def test_terminating_sum_refuses_fractional_term():
    with pytest.raises(InvariantViolation, match="not an integer"):
        special._terminating_sum(3, lambda k: 1, lambda k: 2, 1)


def test_sun_2_11():
    rep = sun_2_11()
    assert rep.passed
    assert rep.rewrite_ok
    assert rep.replay_passed
    assert rep.digits_agreed >= 30
    assert rep.head_digits == 3


def test_sun_4_14():
    rep = sun_4_14()
    assert rep.passed
    assert rep.formal_passed
    assert rep.transport_ok
    assert rep.negative_control_failed
    assert rep.digits_agreed >= 30


def _g44_partial_sums(a_w, b_w, n_terms):
    """sum_{n<N} (a_w + b_w n) c_n (1/2)^n for N = 1..n_terms, one Fraction
    per term over the Cauchy product c of 2F1(1/6,1/3;1) and 2F1(2/3,5/6;1):
    the reference that sum_terms over special._G44_REC must equal."""
    c = fps_mul(
        hyper_series((QQ(1, 6), QQ(1, 3)), (QQ(1),), n_terms - 1),
        hyper_series((QQ(2, 3), QQ(5, 6)), (QQ(1),), n_terms - 1),
    ).coeffs
    out, total = [], QQ(0)
    for n in range(n_terms):
        total += (a_w + b_w * n) * c[n] * QQ(1, 2**n)
        out.append(total)
    return out


@pytest.mark.parametrize("a_w, b_w", [(-1, 3), (1, 3)])
def test_g44_partial_equals_cauchy_product_sums(a_w, b_w):
    for N, expected in enumerate(_g44_partial_sums(a_w, b_w, 300), start=1):
        assert QQ(*sum_terms(special._G44_REC, a_w, b_w, QQ(1, 2), N)) == expected, N


def test_rogers_domb():
    rep = rogers_domb_check()
    assert rep.passed
    assert rep.formal_passed
    assert rep.transport_ok
    assert rep.gate_refused
    assert rep.digits_agreed >= 30
    assert rep.naive_c == RadConst(QQ(25, 9), 3)
    assert rep.corrected_c == RadConst(QQ(25, 3), 3)


def test_sun_solve_points():
    expected = {
        QQ(-1): [QQ(1, 128)],
        QQ(-1, 8): [QQ(1, 576)],
        QQ(1, 64): [QQ(-1, 4032)],
        QQ(4): [QQ(1, 48)],
        QQ(-8): [QQ(1, 72)],
        QQ(64): [QQ(1, 63)],
    }
    assert sun_solve_points() == expected


def test_report_json_keys():
    start = starting_formula(QQ(1, 2)).to_json()
    assert start["pass"] and start["exactTarget"]
    limit = limit_eval(LIMIT_SPECS["limit-start-1/6"], 1e-6).to_json()
    assert limit["pass"] and limit["tolerance"] == 1e-6
    assert abs(limit["value"] - limit["target"]) <= limit["tolerance"]


def test_report_json_key_sets():
    limit = LIMIT_SPECS["limit-start-1/6"]
    limit_keys = {"value", "target", "tolerance", "pass", "detail", "exact"}
    start = starting_formula(QQ(1, 3), 15).to_json()
    assert set(start) == {"s", "exactTarget", "pass", "digitsAgreed", "computed",
                          "target", "detail"}
    assert start["s"] == "1/3"
    blob = limit_eval(limit, 1e-6).to_json()
    assert set(blob) == limit_keys
    assert blob["exact"] == "1" and isinstance(blob["target"], float)
    assert set(sun_S2_identity(5).to_json()) == {
        "pass", "checked", "firstMismatch", "printedDefConsistent",
        "printedFirstMismatch", "detail"}
    assert set(sun_2_11(15).to_json()) == {
        "pass", "digitsAgreed", "headDigits", "rewriteOk", "replayPassed", "detail"}
    assert set(sun_4_14(15).to_json()) == {
        "pass", "digitsAgreed", "formalPassed", "transportOk",
        "negativeControlFailed", "detail"}
    rogers = rogers_domb_check(15).to_json()
    assert set(rogers) == {"pass", "digitsAgreed", "formalPassed", "transportOk",
                           "gateRefused", "naiveC", "correctedC", "detail"}
    assert rogers["correctedC"] == "25/3*sqrt(3)"
