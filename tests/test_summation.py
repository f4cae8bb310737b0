"""eval_numeric's integer binary split against the Fraction sum it replaced.

reference_sum is the loop eval_numeric ran before: one Fraction per term,
from the cached coefficient stream.  Every certified sum the engine takes
for the catalog and the rule gates must come out as the same BigApprox.
"""

import json
from fractions import Fraction as QQ

import pytest

from rpv import hyper, transforms
from rpv.catalog import DATA_DIR, load_catalog
from rpv.hyper import (
    convCentral,
    domb,
    eval_numeric,
    hyper3F2,
    integer_recurrence,
    square2F1,
    sum_terms,
    tail_bound,
)
from rpv.poly import poly_eval
from rpv.numerics import BigApprox, prec_for_digits
from rpv.transforms import get_rule, rule_ids, verify_rule_numeric
from rpv.translate import GATE_DIGITS, _gate_point, replay


def reference_sum(fam, a, b, z, N):
    """sum_{n<N} (a+bn) t_n z^n, one Fraction per term."""
    ts = hyper._extend(fam, N)
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
    return BigApprox.from_partial_sum(
        reference_sum(fam, a, b, z, N), tail_bound(fam, a, b, z, N), prec_for_digits(digits)
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
        A, B, D = integer_recurrence(fam, z)
        assert all(isinstance(c, int) for c in A + B + D)
        w = [hyper.coeff(fam, n) * z**n for n in range(12)]
        for n in range(1, 11):
            lhs = poly_eval(D, n) * w[n + 1]
            assert lhs == poly_eval(A, n) * w[n] + poly_eval(B, n) * w[n - 1]


def test_sum_terms_small_cases():
    fam = hyper3F2(QQ(1, 2))
    assert sum_terms(fam, 1, 6, QQ(1, 4), 1) == 1
    assert sum_terms(fam, 1, 6, QQ(1, 4), 2) == 1 + 7 * QQ(1, 8) * QQ(1, 4)
    assert sum_terms(domb(), QQ(3), QQ(16), 0, 5) == 3
    with pytest.raises(ValueError):
        sum_terms(fam, 1, 6, QQ(1, 4), 0)


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
