"""eval_numeric's integer binary split against the Fraction sum it replaced.

reference_sum is the loop eval_numeric ran before: one Fraction per term,
from the cached coefficient stream.  Every certified sum the engine takes
for the catalog and the rule gates must come out as the same BigApprox.
"""

import json
import math
from fractions import Fraction as QQ

import pytest

from rpv import hyper, transforms
from rpv.catalog import DATA_DIR, load_catalog
from rpv.hyper import (
    clear_recurrence,
    convCentral,
    domb,
    eval_numeric,
    family_recurrence,
    hyper3F2,
    square2F1,
    sum_terms,
    tail_bound,
)
from rpv.poly import poly_eval
from rpv.numerics import BigApprox, prec_for_digits
from rpv.transforms import get_rule, rule_ids, verify_rule_numeric
from rpv.translate import GATE_DIGITS, _gate_point, replay
from reference_kernels import pochhammer


def reference_sum(fam, a, b, z, N):
    """sum_{n<N} (a+bn) t_n z^n, one Fraction per term."""
    ts = [hyper.coeff(fam, n) for n in range(N)]
    total = QQ(0)
    zp = QQ(1)
    for n in range(N):
        total += (a + b * n) * ts[n] * zp
        zp *= z
    return total


def reference_eval(fam, a, b, z, digits):
    """eval_numeric as it was, on reference_sum."""
    a, b, z = QQ(a), QQ(b), QQ(z)
    N = 16
    while tail_bound(fam, a, b, z, N) * 10 ** (digits + 3) >= 1:
        N *= 2
    total = reference_sum(fam, a, b, z, N)
    return BigApprox.from_partial_sum(
        total.numerator, total.denominator, tail_bound(fam, a, b, z, N), prec_for_digits(digits)
    )


def _triple(x: BigApprox) -> tuple:
    return x.man, x.prec, x.err


def test_integer_recurrence_holds_for_terms():
    for fam, z in [
        (hyper3F2(QQ(1, 3)), QQ(-27, 125)),
        (square2F1(QQ(1, 4)), QQ(1, 9)),
        (convCentral(QQ(1, 6)), QQ(-1, 5)),
        (domb(), QQ(1, 100)),
    ]:
        A, B, D = clear_recurrence(family_recurrence(fam), z)
        assert all(isinstance(c, int) for c in A + B + D)
        w = [hyper.coeff(fam, n) * z**n for n in range(12)]
        for n in range(1, 11):
            lhs = poly_eval(D, n) * w[n + 1]
            assert lhs == poly_eval(A, n) * w[n] + poly_eval(B, n) * w[n - 1]


def test_sum_terms_small_cases():
    rec = family_recurrence(hyper3F2(QQ(1, 2)))
    assert QQ(*sum_terms(rec, 1, 6, QQ(1, 4), 1)) == 1
    assert QQ(*sum_terms(rec, 1, 6, QQ(1, 4), 2)) == 1 + 7 * QQ(1, 8) * QQ(1, 4)
    assert QQ(*sum_terms(family_recurrence(domb()), QQ(3), QQ(16), 0, 5)) == 3
    with pytest.raises(ValueError):
        sum_terms(rec, 1, 6, QQ(1, 4), 0)


def test_sum_terms_gauss_recurrence_equals_fraction_sums():
    """sum_terms over (n+1)^3 f_{n+1} = (n+s)(n+1-s)(n+1) f_n, the 2F1(s,
    1-s; 1; x) recurrence of gauss_half_check, against one Fraction per term
    with f_n = (s)_n (1-s)_n / n!^2, for N = 1..60."""
    for s, a, b, z in [
        (QQ(1, 3), 1, 0, QQ(1, 2)),
        (QQ(1, 3), 0, 1, QQ(1, 2)),
        (QQ(2, 7), QQ(-3, 5), QQ(7, 4), QQ(-5, 9)),
    ]:
        rec = ((s * (1 - s), 1 + s * (1 - s), 2, 1), ())
        total = QQ(0)
        for N in range(1, 61):
            n = N - 1
            f = pochhammer(s, n) * pochhammer(1 - s, n) / math.factorial(n) ** 2
            total += (a + b * n) * f * z**n
            num, den = sum_terms(rec, a, b, z, N)
            assert den > 0
            assert QQ(num, den) == total, (s, N)


def test_eval_numeric_leaves_stream_cache_empty(monkeypatch):
    monkeypatch.setattr(hyper, "_stream_cache", {})
    for fam, z in [
        (hyper3F2(QQ(1, 2)), QQ(1, 4)),
        (square2F1(QQ(1, 3)), QQ(-1, 4)),
        (convCentral(QQ(1, 4)), QQ(1, 9)),
        (domb(), QQ(1, 100)),
    ]:
        eval_numeric(fam, 1, 5, z, 30)
    assert hyper._stream_cache == {}


def test_catalog_sums_match_reference():
    checked = 0
    for entry in load_catalog():
        if entry.edge >= 1:
            continue
        s = entry.spec
        # catalog.verify_entry sums at digits + 5
        got = eval_numeric(s.fam, s.a, s.b, s.z, 55)
        assert _triple(got) == _triple(reference_eval(s.fam, s.a, s.b, s.z, 55)), entry.id
        checked += 1
    assert checked >= 30


def test_rule_gate_sums_match_reference(monkeypatch):
    seen = []

    def checked(fam, a, b, z, digits):
        got = eval_numeric(fam, a, b, z, digits)
        assert _triple(got) == _triple(reference_eval(fam, a, b, z, digits)), (fam, z)
        seen.append(fam)
        return got

    monkeypatch.setattr(transforms, "eval_numeric", checked)
    certs = json.loads((DATA_DIR / "certificates.json").read_text())["entries"]
    for wrappers in certs.values():
        for wrapper in wrappers:
            if wrapper["kind"] == "transport":
                assert replay(wrapper["certificate"]).passed
    gated = set()
    for rid in rule_ids():
        rule = get_rule(rid)
        for x0 in (QQ(1, 8), QQ(-1, 8)):
            x = _gate_point(rule, x0)
            if x is not None:
                verify_rule_numeric(rule, x, digits=GATE_DIGITS)
                gated.add(rid)
    assert gated == set(rule_ids())
    assert len(seen) >= 4 * len(gated)
