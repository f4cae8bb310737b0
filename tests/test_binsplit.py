"""Tests for binary-splitting digit computation."""

import math
import random
from fractions import Fraction as QQ

import pytest

from rpv import binsplit, hyper
from rpv.binsplit import digits_file_text, oracle_digits, pi_digits, terms_needed
from rpv.catalog import load_catalog
from rpv.errors import DivergentInput, InvariantViolation, NonExactConstant
from rpv.hyper import coeff, integer_recurrence, int_poly_eval, split_range, sum_terms
from rpv.numerics import BigApprox, RadConst
from rpv.translate import SeriesSpec
from rpv.hyper import hyper3F2

# one entry per family: first order, then the three second-order families
SPLIT_IDS = ("s14-08", "domb-16n3", "start-1/3", "sun-cor2a")
# ranges up to hyper._LEAF terms are one serial leaf; the longer ones merge
RANGES = [(0, 1), (0, 2), (0, 7), (7, 16), (0, 16), (0, 17), (3, 40), (0, 100)]


@pytest.fixture(scope="module")
def entries():
    return {e.id: e for e in load_catalog()}


def _terms(spec, hi):
    """w_n = t_n z^n for n < hi, from the coefficient stream."""
    return [coeff(spec.fam, n) * spec.z**n for n in range(hi)]


def test_term_ratio_half_example(entries):
    spec = entries["s12-04"].spec
    assert integer_recurrence(spec.fam, spec.z) == (
        (1, 6, 12, 8), (), (512, 1536, 1536, 512)
    )


def test_term_ratio_matches_coefficients(entries):
    rng = random.Random(20260825)
    for eid in ["s12-04", "s14-08", "s13-07", "s16-07", "s14-01"]:
        spec = entries[eid].spec
        p_poly, b_poly, q_poly = integer_recurrence(spec.fam, spec.z)
        assert b_poly == ()
        for _ in range(6):
            n = rng.randrange(0, 40)
            lhs = coeff(spec.fam, n + 1) * spec.z ** (n + 1)
            rhs = coeff(spec.fam, n) * spec.z**n
            pn = sum(c * n**i for i, c in enumerate(p_poly))
            qn = sum(c * n**i for i, c in enumerate(q_poly))
            assert lhs * qn == rhs * pn


def test_every_family_is_accepted(entries):
    for eid in ("domb-16n3", "start-1/3", "sun-cor2a"):
        assert pi_digits(entries[eid], 30) == oracle_digits(30)


def test_merge_matches_leaf_sums(entries, monkeypatch):
    # the merge may cancel common factors, so only the documented ratios are
    # fixed: (T w_lo + U w_{lo-1})/Q is the weighted partial sum over the
    # range, and P/Q carries (w_lo, w_{lo-1}) to (w_hi, w_{hi-1}), here with
    # the terms accumulated without the merge formula; with no lower gcd
    # limit the block merges of these short ranges cancel too
    for low in (hyper._GCD_MIN_BITS, 0):
        monkeypatch.setattr(hyper, "_GCD_MIN_BITS", low)
        for eid in SPLIT_IDS:
            spec = entries[eid].spec
            rec = integer_recurrence(spec.fam, spec.z)
            w = _terms(spec, 101)
            for lo, hi in RANGES:
                node = split_range(rec, 1, 8, lo, hi)
                prev = w[lo - 1] if lo else 0
                acc = sum((1 + 8 * n) * w[n] for n in range(lo, hi))
                assert QQ(node.T * w[lo] + node.U * prev, node.Q) == acc, (eid, lo, hi)
                if rec[1]:
                    x00, x01, x10, x11 = node.P
                    assert (x00 * w[lo] + x01 * prev) / node.Q == w[hi]
                    assert (x10 * w[lo] + x11 * prev) / node.Q == w[hi - 1]
                else:
                    assert node.U == 0
                    assert QQ(node.P, node.Q) == w[hi] / w[lo]


def _ratios(node):
    """T/Q, U/Q and each entry of P/Q: the ratios a node fixes."""
    p = node.P if isinstance(node.P, tuple) else (node.P,)
    return [QQ(x, node.Q) for x in (node.T, node.U) + p if x is not None]


def test_serial_leaves_keep_the_one_term_ratios(entries, monkeypatch):
    # leaves of up to 16 terms, multiplied out serially and reduced by one
    # gcd, give the ratios of the one-term leaves and their merges
    cases = [(lo, hi) for lo in (0, 5, 33) for hi in (lo + 1, lo + 16, lo + 17, lo + 70)]
    for eid in SPLIT_IDS:
        rec = integer_recurrence(entries[eid].spec.fam, entries[eid].spec.z)
        for with_p in (True, False):
            leaves = [split_range(rec, 1, 8, lo, hi, with_p) for lo, hi in cases]
            with monkeypatch.context() as mp:
                mp.setattr(hyper, "_LEAF", 1)
                ones = [split_range(rec, 1, 8, lo, hi, with_p) for lo, hi in cases]
            for (lo, hi), leaf, one in zip(cases, leaves, ones):
                assert _ratios(leaf) == _ratios(one), (eid, lo, hi, with_p)


def test_merge_cancels_common_factors(entries):
    # s14-08 is (4n)!/(n!^4 2304^n): the (N!)^3 in the unreduced Q cancels
    # against P; for domb-16n3 the gcd with the 2x2 block does the same
    for eid, n in [("s14-08", 2000), ("domb-16n3", 4096)]:
        spec = entries[eid].spec
        rec = integer_recurrence(spec.fam, spec.z)
        node = split_range(rec, 1, 8, 0, n, False)
        unreduced = math.prod(int_poly_eval(rec[2], k) for k in range(n))
        assert 2 * node.Q.bit_length() <= unreduced.bit_length(), eid


def test_split_without_right_spine_p_keeps_q_and_t(entries):
    cases = [("s14-08", 1), ("s14-08", 2), ("s14-08", 37), ("s16-11", 300)]
    cases += [(eid, n) for eid in SPLIT_IDS[1:] for n in (1, 2, 37, 300)]
    for eid, n in cases:
        spec = entries[eid].spec
        rec = integer_recurrence(spec.fam, spec.z)
        a, b = int(spec.a * 24), int(spec.b * 24)
        full = split_range(rec, a, b, 0, n)
        lean = split_range(rec, a, b, 0, n, False)
        assert (lean.Q, lean.T, lean.U) == (full.Q, full.T, full.U)
        assert lean.P is None and full.P is not None
    for eid in SPLIT_IDS:
        spec = entries[eid].spec
        rec = integer_recurrence(spec.fam, spec.z)
        for lo, hi in RANGES:
            full, lean = split_range(rec, 1, 8, lo, hi), split_range(rec, 1, 8, lo, hi, False)
            assert (lean.Q, lean.T, lean.U) == (full.Q, full.T, full.U)


def test_partial_sums_exact(entries, monkeypatch):
    # gcd limits of 0 and 256 bits mix reduced and unreduced merges in one
    # split; s16-11 stops at 300 terms, where its Fraction reference is still
    # cheap
    targets = [1, 2, 3, 10, 37, 128, 1000]
    limits = ((hyper._GCD_MIN_BITS, hyper._GCD_MAX_BITS), (0, 256))
    cases = [("s12-04", 1000), ("s14-01", 1000), ("s14-08", 1000), ("s16-11", 300)]
    cases += [("domb-16n3", 300), ("start-1/3", 300), ("sun-cor2a", 300)]
    for eid, last in cases:
        spec = entries[eid].spec
        acc = QQ(0)
        n = 0
        for target in [t for t in targets if t < last] + [last]:
            while n < target:
                acc += (spec.a + spec.b * n) * coeff(spec.fam, n) * spec.z**n
                n += 1
            for low, high in limits:
                monkeypatch.setattr(hyper, "_GCD_MIN_BITS", low)
                monkeypatch.setattr(hyper, "_GCD_MAX_BITS", high)
                assert sum_terms(spec.fam, spec.a, spec.b, spec.z, target) == acc


def test_terms_needed_covers_tolerance(entries):
    spec = entries["s12-04"].spec
    n = terms_needed(spec.fam, spec.z, 50)
    tail = abs(coeff(spec.fam, n) * spec.z**n) * (spec.a + spec.b * n)
    assert tail < QQ(1, 10**55)
    # the certified tail of a slow second-order entry is below 10^-digits too
    spec = entries["domb-16n3"].spec
    for digits in (50, 500):
        n = terms_needed(spec.fam, spec.z, digits)
        assert hyper.tail_bound(spec.fam, spec.a, spec.b, spec.z, n) < QQ(1, 10**digits)


def test_terms_needed_zero_and_tiny_z():
    fam = hyper3F2(QQ(1, 2))
    assert terms_needed(fam, 0, 10) == 1
    assert terms_needed(fam, QQ(1, 10**400), 10) == 11
    assert terms_needed(hyper.domb(), QQ(-1, 10**400), 1000) == 13


def _first_attempt_decides(entry, monkeypatch, digits):
    calls = []
    counted = binsplit.terms_needed

    def spy(fam, z, digits):
        calls.append(digits)
        return counted(fam, z, digits)

    monkeypatch.setattr(binsplit, "terms_needed", spy)
    assert pi_digits(entry, digits) == oracle_digits(digits)
    assert calls == [digits]


@pytest.mark.parametrize("digits", [50, 500])
@pytest.mark.parametrize("eid", ["domb-16n3", "start-1/3", "sun-cor2a"])
def test_second_order_first_attempt_decides(entries, monkeypatch, eid, digits):
    _first_attempt_decides(entries[eid], monkeypatch, digits)


# slow hyper3F2 entries (|z| > 1/e): the slack for the weight's n decides them
@pytest.mark.parametrize("digits", [50, 500])
@pytest.mark.parametrize("eid", ["s13-01", "s13-06", "s16-01"])
def test_slow_first_order_first_attempt_decides(entries, monkeypatch, eid, digits):
    _first_attempt_decides(entries[eid], monkeypatch, digits)


def test_pi_digits_one_digit(entries):
    assert pi_digits(entries["s12-04"], 1) == "3"


def test_pi_digits_small(entries):
    assert pi_digits(entries["s12-04"], 10) == "3141592653"
    assert pi_digits(entries["s14-01"], 50) == oracle_digits(50)


def test_triple_agreement_thousand(entries):
    a = pi_digits(entries["s16-11"], 1000)
    b = pi_digits(entries["s12-04"], 1000)
    c = oracle_digits(1000)
    assert a == b == c


def test_chudnovsky_ten_thousand(entries):
    assert pi_digits(entries["s16-11"], 10000) == oracle_digits(10000)


# pi's digits 762-767 (0-based, counting the leading 3) are 999999, the
# Feynman point: 762 digits end a hair below a carry into digit 761
FEYNMAN_DIGITS = 762


def test_undecided_interval_retries(entries, monkeypatch):
    # with no guard digits the first interval straddles the carry
    monkeypatch.setattr(binsplit, "_GUARD_DIGITS", 0)
    calls = []
    counted = binsplit.terms_needed

    def spy(fam, z, digits):
        calls.append(digits)
        return counted(fam, z, digits)

    monkeypatch.setattr(binsplit, "terms_needed", spy)
    out = pi_digits(entries["s14-08"], FEYNMAN_DIGITS)
    assert out == oracle_digits(FEYNMAN_DIGITS + 6)[:FEYNMAN_DIGITS]
    assert oracle_digits(FEYNMAN_DIGITS + 6)[FEYNMAN_DIGITS:] == "999999"
    assert calls == [FEYNMAN_DIGITS, FEYNMAN_DIGITS + binsplit._RETRY_EXTRA[1]]


def test_never_emits_undecided_digits(entries, monkeypatch):
    # a tail bound that swamps every attempt leaves the digits undecided
    monkeypatch.setattr(binsplit, "tail_bound", lambda *args: QQ(1, 10**8))
    with pytest.raises(InvariantViolation, match="undecided"):
        pi_digits(entries["s16-11"], 20)


def _straddling_oracle(monkeypatch, widen):
    """binsplit.pi_oracle with its bound widened to 10^-29 (across a digit
    boundary of the first 30 digits) on the calls that widen(call) picks."""
    calls = []
    oracle = binsplit.pi_oracle

    def fake(digits):
        calls.append(digits)
        pi = oracle(digits)
        if widen(len(calls)):
            return BigApprox(pi.man, pi.prec, (1 << pi.prec) // 10**29 + 1)
        return pi

    monkeypatch.setattr(binsplit, "pi_oracle", fake)
    return calls


def test_oracle_digits_retry_when_the_bound_straddles(monkeypatch):
    calls = _straddling_oracle(monkeypatch, lambda call: call == 1)
    assert oracle_digits(30) == "314159265358979323846264338327"
    assert calls == [30 + binsplit._ORACLE_EXTRA[0], 30 + binsplit._ORACLE_EXTRA[1]]


def test_oracle_digits_never_emits_undecided_digits(monkeypatch):
    calls = _straddling_oracle(monkeypatch, lambda call: True)
    with pytest.raises(InvariantViolation, match="undecided"):
        oracle_digits(30)
    assert calls == [30 + extra for extra in binsplit._ORACLE_EXTRA]


def _digits_by_power_of_ten(man, err, prec, digits):
    """_interval_digits' decision made at full precision with 10^(digits-1)."""
    one = 1 << prec
    if man - err < one or man + err >= 10 * one:
        return None
    p10 = 10 ** (digits - 1)
    top, frac = divmod(man * p10, one)
    if frac < err * p10 or frac + err * p10 >= one:
        return None
    return str(top)


def test_interval_digits_decide_as_with_power_of_ten():
    rng = random.Random(20261019)
    decided = 0
    for _ in range(4000):
        digits = rng.randint(1, 12)
        # small precisions put interval ends on digit boundaries often
        prec = digits - 1 + rng.choice((0, 1, 2, 5, 40))
        one = 1 << prec
        man = rng.randrange(one, 10 * one)
        err = rng.choice((0, 1, rng.randrange(1 << max(prec - 2, 0) + 1)))
        got = binsplit._interval_digits(man, err, prec, digits)
        assert got == _digits_by_power_of_ten(man, err, prec, digits), (man, err, prec, digits)
        decided += got is not None
    assert 0 < decided < 4000


def test_rejects_divergent_and_imaginary(entries):
    with pytest.raises(DivergentInput):
        pi_digits(entries["s12-05"], 10)
    fake = SeriesSpec(hyper3F2(QQ(1, 2)), QQ(1, 4), QQ(1), QQ(6), RadConst(QQ(4), 1, 1))
    with pytest.raises(NonExactConstant):
        pi_digits(fake, 10)
    with pytest.raises(ValueError):
        pi_digits(entries["s12-04"], 0)


def test_file_text_format():
    assert digits_file_text("3") == "3\n"
    assert digits_file_text("31415") == "3.1415\n"


def test_pure_backend_long_run():
    # 6000 digits exceeds CPython's default int->str conversion guard
    import subprocess
    import sys

    script = (
        "from rpv import BACKEND\n"
        "from rpv.binsplit import oracle_digits, pi_digits\n"
        "from rpv.catalog import load_catalog\n"
        "assert BACKEND == 'fraction', BACKEND\n"
        "e = {x.id: x for x in load_catalog()}['s16-11']\n"
        "assert pi_digits(e, 6000) == oracle_digits(6000)\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_oracle_matches_recorded_reference_digits():
    # perfbench/pi_digits.txt was recorded where the oracle and binary
    # splitting agreed, and expected.json pins it by its digest
    import hashlib
    import json
    from pathlib import Path

    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    ref = (perfbench / "pi_digits.txt").read_text().strip()
    doc = json.loads((perfbench / "expected.json").read_text())
    assert hashlib.sha256(ref.encode()).hexdigest() == doc["pi_digits_sha256"]
    assert oracle_digits(20000) == ref[:20000]
