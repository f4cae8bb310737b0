"""Binary-splitting digit computation for hypergeometric catalog entries."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ._backend import QQ, isqrt, qq_den, qq_num
from .errors import DivergentInput, NonExactConstant, UnsupportedFamily
from .hyper import converges, family_recurrence
from .numerics import pi_oracle


def _ev(poly: tuple, n: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class TermRatio:
    """term_{n+1}/term_n = p_poly(n)/q_poly(n) with integer coefficients."""

    p_poly: tuple
    q_poly: tuple


def term_ratio(entry) -> TermRatio:
    """Integer term-ratio polynomials for a first-order family, z = u/v cleared.

    With P the family recurrence (n+1)^3 t_{n+1} = P(n) t_n and d the lcm of
    P's denominators, the ratio of consecutive *terms* t_n z^n is
    u d P(n) / (v d (n+1)^3).  For hyper3F2(p/q), d = 2q^2 and d P(n) is
    (2n+1)(qn+p)(qn+q-p).
    """
    spec = getattr(entry, "spec", entry)
    P, Q = family_recurrence(spec.fam)
    if Q:
        raise UnsupportedFamily(
            "binary splitting needs a first-order recurrence, "
            f"and {spec.fam} has a second-order one"
        )
    d = math.lcm(*(qq_den(c) for c in P))
    u, v = int(qq_num(spec.z)), int(qq_den(spec.z))
    return TermRatio(
        tuple(u * qq_num(c * d) for c in P),
        tuple(v * d * c for c in (1, 3, 3, 1)),
    )


@dataclass(frozen=True)
class SplitNode:
    """Exact data for a half-open index range of the weighted sum.

    Invariant: T/Q = sum_{n in range} (a+bn) prod_{k in [lo,n)} r(k) and
    P/Q = prod_{k in range} r(k), so siblings merge by
    P = P1*P2, Q = Q1*Q2, T = T1*Q2 + P1*T2.
    """

    P: int
    Q: int
    T: int


def split_range(ratio: TermRatio, a: int, b: int, lo: int, hi: int) -> SplitNode:
    if hi - lo == 1:
        qn = _ev(ratio.q_poly, lo)
        return SplitNode(_ev(ratio.p_poly, lo), qn, (a + b * lo) * qn)
    mid = (lo + hi) // 2
    left = split_range(ratio, a, b, lo, mid)
    right = split_range(ratio, a, b, mid, hi)
    return SplitNode(
        left.P * right.P,
        left.Q * right.Q,
        left.T * right.Q + left.P * right.T,
    )


def partial_sum(entry, n_terms: int):
    """Exact rational sum of the first n_terms weighted terms."""
    spec = getattr(entry, "spec", entry)
    ratio = term_ratio(spec)
    a, b, scale = _integer_weights(spec)
    node = split_range(ratio, a, b, 0, n_terms)
    return QQ(node.T, node.Q) / scale


def _integer_weights(spec) -> tuple:
    d = math.lcm(int(qq_den(spec.a)), int(qq_den(spec.b)))
    return int(spec.a * d), int(spec.b * d), QQ(d)


def terms_needed(z, digits: int) -> int:
    inv = 1.0 / abs(float(QQ(z)))
    return math.ceil(digits * math.log(10.0) / math.log(inv)) + 10


def pi_digits(entry, digits: int) -> str:
    """First `digits` significant decimal digits of pi from one catalog entry.

    pi = c_r sqrt(m) / S with S the series value; sqrt is integer Newton on
    m scaled by a guarded power of ten, so no floating point enters.
    """
    spec = getattr(entry, "spec", entry)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    ratio = term_ratio(spec)
    if not converges(spec.fam, spec.z):
        raise DivergentInput(f"entry at z = {spec.z} cannot be summed for digits")
    if spec.c.t:
        raise NonExactConstant("digit computation needs a real radical constant")
    a, b, scale = _integer_weights(spec)
    node = split_range(ratio, a, b, 0, terms_needed(spec.z, digits))
    guard = digits + 10
    root = isqrt(spec.c.m * 10 ** (2 * guard))
    num = qq_num(spec.c.r) * qq_num(scale) * root * node.Q
    den = qq_den(spec.c.r) * qq_den(scale) * node.T
    scaled = num // den  # ~ pi * 10^guard
    return str(scaled)[:digits]


def oracle_digits(digits: int) -> str:
    """The same significant-digit string from the independent pi oracle."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    dec = pi_oracle(digits + 5).to_decimal(digits + 2)
    return dec.replace(".", "")[:digits]


def digits_file_text(digit_string: str) -> str:
    """Render a significant-digit string as decimal file text."""
    if len(digit_string) == 1:
        return digit_string + "\n"
    return f"{digit_string[0]}.{digit_string[1:]}\n"


def bench(entry, digits: int) -> dict:
    """Timing report for one digit computation."""
    spec = getattr(entry, "spec", entry)
    n = terms_needed(spec.z, digits)
    t0 = time.perf_counter()
    out = pi_digits(entry, digits)
    dt = time.perf_counter() - t0
    return {
        "id": getattr(entry, "id", str(spec)),
        "digits": digits,
        "terms": n,
        "seconds": round(dt, 4),
        "head": out[:12],
    }
