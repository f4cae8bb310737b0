"""Transformation rules: loading, formal verification, numeric gates."""

import random
import types
from fractions import Fraction as QQ

import pytest

from rpv import transforms
from rpv.errors import DivergentInput, ParseError, SingularPoint
from rpv.fps import Series, fps_mul, fps_pow_rational
from rpv.hyper import converges, family_envelope
from rpv.numerics import RadConst
from rpv.transforms import (
    Prefactor,
    TransformRule,
    _parse_rule,
    get_rule,
    load_rules,
    reverse_rule,
    rule_ids,
    rule_report,
    verify_rule_formal,
    verify_rule_numeric,
)
from gauss_checks import gauss_euler_check, gauss_pfaff_check, pfaff_twice_is_euler


def test_load_rules_inventory():
    rules = load_rules()
    assert len(rules) >= 16
    for rid in (
        "pfaff-sq",
        "kummer-sq",
        "euler-sq",
        "goursat-28n3",
        "goursat-22n2",
        "warning-1p8x",
        "seed-quad-12",
        "class3",
        "class4-a",
        "class4-b",
        "class5-rogers",
        "class7",
        "class8-rogers",
        "sun-conv-12",
        "sun-sq-16x",
        "sun-s2-64x",
        "domb-rogers",
    ):
        assert rid in rules
    assert rule_ids() == sorted(rules)


def test_get_rule_unknown_id():
    with pytest.raises(ParseError):
        get_rule("no-such-rule")


def test_all_rules_formal_order32():
    for rid in rule_ids():
        report = verify_rule_formal(get_rule(rid), 32)
        assert report.passed, f"{rid}: {report.detail}"


def test_kummer_sq_formal_order64():
    assert verify_rule_formal(get_rule("kummer-sq"), 64).passed


def test_verify_all_rules_helper():
    results = [rule_report(rid, 16) for rid in rule_ids()]
    assert [r.id for r in results] == rule_ids()
    assert all(r.passed for r in results)


# ---------------------------------------------------------------- prefactors


def test_prefactor_series_is_rational_power():
    pref = Prefactor(QQ(1), (((QQ(1), QQ(-1)), QQ(-1, 2)),))  # (1-x)^(-1/2)
    direct = fps_pow_rational(Series([1, -1] + [0] * 14), QQ(-1, 2))
    assert pref.series(15).coeffs == direct.coeffs


def test_prefactor_series_normalizes_constant():
    # 2*(4-3x)^(-1/2) has value 1 at x = 0 and rational series coefficients
    pref = Prefactor(QQ(2), (((QQ(4), QQ(-3)), QQ(-1, 2)),))
    ser = pref.series(10)
    assert ser.coeffs[0] == 1
    direct = fps_pow_rational(Series([QQ(1), QQ(-3, 4)] + [0] * 9), QQ(-1, 2))
    assert ser.coeffs == direct.coeffs


def test_prefactor_irrational_constant_rejected():
    # B = sqrt(2-x) is sqrt(2) at 0: the loader refuses it, so the series
    # of every loaded prefactor starts at 1
    with pytest.raises(ParseError, match="prefactor must equal 1 at x = 0"):
        _parse_rule(
            {
                "id": "bad",
                "lhs": "hyper3F2:1/2",
                "rhs": "hyper3F2:1/2",
                "A": {"num": [0, 1]},
                "B": {"factors": [{"poly": [2, -1], "exp": "1/2"}]},
                "C": {"num": [0, 1]},
            }
        )


def test_prefactor_value_principal_branch():
    pref = Prefactor(QQ(1), (((QQ(1), QQ(-1)), QQ(-1, 2)),))  # (1-x)^(-1/2)
    assert pref.value_at(QQ(1, 2)) == RadConst.sqrt_rational(QQ(2))
    # beyond the branch point: (1-5)^(-1/2) = (2i)^(-1) = -i/2
    assert pref.value_at(QQ(5)) == RadConst(QQ(-1, 2), 1, 1)


def test_prefactor_value_singular():
    pref = Prefactor(QQ(1), (((QQ(1), QQ(-1)), QQ(-1, 2)),))
    with pytest.raises(SingularPoint):
        pref.value_at(QQ(1))


def test_prefactor_inverse_cancels():
    pref = get_rule("class8-rogers").B
    inv = pref.inverse()
    prod = fps_mul(pref.series(12), inv.series(12))
    assert prod == Series.one(12)
    v = pref.value_at(QQ(1, 7)) * inv.value_at(QQ(1, 7))
    assert v == RadConst.one()


# ---------------------------------------------------------------- loader guards


def test_rule_argument_must_vanish_at_zero():
    with pytest.raises(ParseError):
        _parse_rule(
            {
                "id": "bad",
                "lhs": "hyper3F2:1/2",
                "rhs": "hyper3F2:1/2",
                "A": {"num": [1, 1]},
                "B": {},
                "C": {"num": [0, 1]},
            }
        )


@pytest.mark.parametrize("bad", [0.1, 1.0, True, None, [1]])
def test_rule_coefficients_are_integers_or_rational_strings(bad):
    def rule(coeff):
        return {
            "id": "coeffs",
            "lhs": "hyper3F2:1/2",
            "rhs": "hyper3F2:1/2",
            "A": {"num": [0, coeff]},
            "B": {},
            "C": {"num": [0, 1]},
        }

    assert _parse_rule(rule(-3)).A.num == (0, -3)
    assert _parse_rule(rule("-1/10")).A.num == (0, QQ(-1, 10))
    with pytest.raises(ParseError, match="is not an integer"):
        _parse_rule(rule(bad))


def test_rule_prefactor_must_be_one_at_zero():
    with pytest.raises(ParseError):
        _parse_rule(
            {
                "id": "bad",
                "lhs": "hyper3F2:1/2",
                "rhs": "hyper3F2:1/2",
                "A": {"num": [0, 1]},
                "B": {"scale": 2},
                "C": {"num": [0, 1]},
            }
        )


# ---------------------------------------------------------------- reversal


def test_reverse_rule_formal():
    for rid in ("kummer-sq", "class5-rogers", "domb-rogers"):
        rev = reverse_rule(get_rule(rid))
        report = verify_rule_formal(rev, 24)
        assert report.passed, f"{rid} reversed: {report.detail}"
        assert rev.rid.endswith("::reversed")


def test_reverse_twice_is_identity_on_data():
    rule = get_rule("class4-a")
    back = reverse_rule(reverse_rule(rule))
    assert back.lhs == rule.lhs and back.rhs == rule.rhs
    assert back.A.num == rule.A.num and back.C.den == rule.C.den
    assert back.B.value_at(QQ(1, 3)) == rule.B.value_at(QQ(1, 3))


# ---------------------------------------------------------------- numeric gates


def test_warning_rule_formal_pass_numeric_fail():
    rule = get_rule("warning-1p8x")
    assert verify_rule_formal(rule, 32).passed
    inside = verify_rule_numeric(rule, QQ(1, 100), digits=14)
    assert inside.passed
    broken = verify_rule_numeric(rule, QQ(1, 2), digits=14)
    assert not broken.passed
    assert broken.digits_agreed <= 2


def test_domb_rogers_gate_fails_past_branch_point():
    rule = get_rule("domb-rogers")
    assert verify_rule_numeric(rule, QQ(1, 100), digits=14).passed
    assert not verify_rule_numeric(rule, QQ(9), digits=14).passed


def test_numeric_gate_outside_envelope_raises():
    with pytest.raises(DivergentInput):
        verify_rule_numeric(get_rule("class1-b"), QQ(1, 5), digits=10)


def test_numeric_identity_random_rules_and_points():
    rng = random.Random(20260825)
    candidates = [QQ(1, 64), QQ(-1, 64), QQ(1, 100), QQ(-1, 100), QQ(1, 200)]
    checked = 0
    for rid in rule_ids():
        rule = get_rule(rid)
        if "warning" in rule.tags:
            continue
        x0 = candidates[rng.randrange(len(candidates))]
        zA, zC = rule.A(x0), rule.C(x0)
        rl, _ = family_envelope(rule.lhs)
        rr, _ = family_envelope(rule.rhs)
        if abs(zA) * rl * 4 >= 3 or abs(zC) * rr * 4 >= 3:
            continue  # keep certified summation cheap
        report = verify_rule_numeric(rule, x0, digits=12)
        assert report.passed, f"{rid} @ {x0}: {report.detail}"
        checked += 1
    assert checked >= 16


# ---------------------------------------------------------------- 2F1 level


def test_gauss_pfaff_and_euler_checks():
    assert gauss_pfaff_check(QQ(1, 8), QQ(3, 8), QQ(1)).passed
    assert gauss_pfaff_check(QQ(1, 6), QQ(1, 3), QQ(1)).passed
    assert gauss_euler_check(QQ(1, 6), QQ(5, 6), QQ(1)).passed
    assert gauss_euler_check(QQ(1, 4), QQ(3, 4), QQ(1)).passed


def test_pfaff_twice_is_euler_fixed():
    report = pfaff_twice_is_euler(QQ(1, 3), QQ(1, 4), QQ(6, 5), 32)
    assert report.passed, report.detail


def test_pfaff_twice_is_euler_randomized():
    rng = random.Random(8128)
    for _ in range(6):
        a = QQ(rng.randint(1, 7), rng.randint(2, 9))
        b = QQ(rng.randint(1, 7), rng.randint(2, 9))
        c = QQ(rng.randint(1, 7), rng.randint(2, 9)) + 1
        report = pfaff_twice_is_euler(a, b, c, 20)
        assert report.passed, (a, b, c, report.detail)


def test_rules_parse_on_first_use_and_load_all():
    with pytest.raises(ParseError, match="unknown rule id 'nope'"):
        get_rule("nope")
    with pytest.raises(ParseError):
        get_rule("nope")
    rules = load_rules()
    assert len(rules) == 25
    assert all(rules[rid] is get_rule(rid) for rid in rule_ids())


def test_duplicate_rule_id_refused(monkeypatch):
    raw = {"rules": [{"id": "pfaff-sq"}, {"id": "pfaff-sq"}]}
    monkeypatch.setattr(transforms, "json", types.SimpleNamespace(loads=lambda text: raw))
    with pytest.raises(ParseError, match="duplicate rule id pfaff-sq"):
        transforms._rule_objects.__wrapped__()
