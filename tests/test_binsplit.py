"""Tests for binary-splitting digit computation."""

import random

import pytest

from rpv import binsplit
from rpv._backend import QQ
from rpv.binsplit import (
    SplitNode,
    digits_file_text,
    oracle_digits,
    partial_sum,
    pi_digits,
    split_range,
    term_ratio,
    terms_needed,
)
from rpv.catalog import load_catalog
from rpv.errors import DivergentInput, InvariantViolation, NonExactConstant, UnsupportedFamily
from rpv.hyper import coeff
from rpv.numerics import RadConst
from rpv.translate import SeriesSpec
from rpv.hyper import hyper3F2


@pytest.fixture(scope="module")
def entries():
    return {e.id: e for e in load_catalog()}


def test_term_ratio_half_example(entries):
    ratio = term_ratio(entries["s12-04"])
    assert ratio.p_poly == (1, 6, 12, 8)
    assert ratio.q_poly == (512, 1536, 1536, 512)


def test_term_ratio_matches_coefficients(entries):
    rng = random.Random(20260825)
    for eid in ["s12-04", "s14-08", "s13-07", "s16-07", "s14-01"]:
        spec = entries[eid].spec
        ratio = term_ratio(spec)
        for _ in range(6):
            n = rng.randrange(0, 40)
            lhs = coeff(spec.fam, n + 1) * spec.z ** (n + 1)
            rhs = coeff(spec.fam, n) * spec.z**n
            pn = sum(c * n**i for i, c in enumerate(ratio.p_poly))
            qn = sum(c * n**i for i, c in enumerate(ratio.q_poly))
            assert lhs * qn == rhs * pn


def test_term_ratio_rejects_other_families(entries):
    with pytest.raises(UnsupportedFamily):
        term_ratio(entries["start-1/2"])
    with pytest.raises(UnsupportedFamily):
        term_ratio(entries["domb-16n3"])


def test_merge_matches_leaf_sums(entries):
    ratio = term_ratio(entries["s14-08"])
    whole = split_range(ratio, 1, 8, 0, 16)
    left = split_range(ratio, 1, 8, 0, 7)
    right = split_range(ratio, 1, 8, 7, 16)
    assert whole == SplitNode(
        left.P * right.P,
        left.Q * right.Q,
        left.T * right.Q + left.P * right.T,
    )


def test_split_without_right_spine_p_keeps_q_and_t(entries):
    for eid, n in [("s14-08", 1), ("s14-08", 2), ("s14-08", 37), ("s16-11", 300)]:
        spec = entries[eid].spec
        ratio = term_ratio(spec)
        a, b = int(spec.a * 24), int(spec.b * 24)
        full = split_range(ratio, a, b, 0, n)
        lean = split_range(ratio, a, b, 0, n, False)
        assert (lean.Q, lean.T) == (full.Q, full.T)
        assert lean.P is None and full.P is not None


def test_partial_sums_exact(entries):
    for eid in ["s12-04", "s14-01"]:
        spec = entries[eid].spec
        acc = QQ(0)
        n = 0
        for target in [1, 2, 3, 10, 37, 128, 1000]:
            while n < target:
                acc += (spec.a + spec.b * n) * coeff(spec.fam, n) * spec.z**n
                n += 1
            assert partial_sum(spec, target) == acc


def test_terms_needed_covers_tolerance(entries):
    spec = entries["s12-04"].spec
    n = terms_needed(spec.z, 50)
    tail = abs(coeff(spec.fam, n) * spec.z**n) * (spec.a + spec.b * n)
    assert tail < QQ(1, 10**55)


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

    def spy(z, digits):
        calls.append(digits)
        return counted(z, digits)

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
    # 6000 digits exceeds CPython's default int->str conversion guard, which
    # only bites on the stdlib backend
    import os
    import subprocess
    import sys

    script = (
        "from rpv._backend import BACKEND\n"
        "from rpv.binsplit import oracle_digits, pi_digits\n"
        "from rpv.catalog import load_catalog\n"
        "assert BACKEND == 'fraction', BACKEND\n"
        "e = {x.id: x for x in load_catalog()}['s16-11']\n"
        "assert pi_digits(e, 6000) == oracle_digits(6000)\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, RPV_PURE="1"),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
