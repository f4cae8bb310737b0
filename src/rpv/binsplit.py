"""Binary-splitting digit computation for hypergeometric catalog entries."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._backend import QQ, isqrt, qq_den, qq_num
from .errors import DivergentInput, InvariantViolation, NonExactConstant, UnsupportedFamily
from .hyper import converges, family_recurrence, tail_bound
from .numerics import BigApprox, fixed_div, int_to_decimal_str, pi_oracle


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
    P = P1*P2, Q = Q1*Q2, T = T1*Q2 + P1*T2, after both P1 and Q2 are divided
    by g = gcd(P1, Q2); that keeps both ratios and drops the factors the terms
    cancel (Cheng, Hanrot, Thome, Zima & Zimmermann, ISSAC 2007).  A merge
    reads only the left sibling's P, so P is None on a node split without it.
    """

    P: int | None
    Q: int
    T: int


# a merge cancels gcd(P1, Q2) only while the smaller operand has at most this
# many bits: CPython's gcd is quadratic, and above it the gcd costs more than
# the smaller products save (sweep in CHANGES.md)
_GCD_MAX_BITS = 16_000


def split_range(
    ratio: TermRatio, a: int, b: int, lo: int, hi: int, with_p: bool = True
) -> SplitNode:
    """Exact SplitNode for [lo, hi).  With with_p False the P products along
    the right spine, which no merge reads, are not formed."""
    if hi - lo == 1:
        qn = _ev(ratio.q_poly, lo)
        return SplitNode(_ev(ratio.p_poly, lo) if with_p else None, qn, (a + b * lo) * qn)
    mid = (lo + hi) // 2
    left = split_range(ratio, a, b, lo, mid)
    right = split_range(ratio, a, b, mid, hi, with_p)
    lp, rq = left.P, right.Q
    if min(lp.bit_length(), rq.bit_length()) <= _GCD_MAX_BITS:
        g = math.gcd(lp, rq)
        if g > 1:
            lp, rq = lp // g, rq // g
    return SplitNode(
        lp * right.P if with_p else None,
        left.Q * rq,
        left.T * rq + lp * right.T,
    )


def partial_sum(entry, n_terms: int):
    """Exact rational sum of the first n_terms weighted terms."""
    spec = getattr(entry, "spec", entry)
    ratio = term_ratio(spec)
    a, b, scale = _integer_weights(spec)
    node = split_range(ratio, a, b, 0, n_terms, False)
    return QQ(node.T, node.Q) / scale


def _integer_weights(spec) -> tuple:
    d = math.lcm(int(qq_den(spec.a)), int(qq_den(spec.b)))
    return int(spec.a * d), int(spec.b * d), QQ(d)


def terms_needed(z, digits: int) -> int:
    inv = 1.0 / abs(float(QQ(z)))
    return math.ceil(digits * math.log(10.0) / math.log(inv)) + 10


# decimal guard digits of the first attempt; each retry adds more, and
# terms for as many extra digits
_GUARD_DIGITS = 10
_RETRY_EXTRA = (0, 10, 40, 160)


def pi_digits(entry, digits: int) -> str:
    """First `digits` significant decimal digits of pi from one catalog entry.

    pi = c_r sqrt(m) d Q/T_true, where T/Q is the exact split of the first N
    terms (weights scaled by d) and T_true adds the omitted tail, bounded by
    hyper.tail_bound.  The value is enclosed in a certified interval at
    working precision: Q/T by fixed_div (a Newton reciprocal certified by its
    residual), sqrt(m) by _sqrt_fixed (a Newton reciprocal square root
    certified by its residual), the tail as a relative error.  Digits are
    returned only when both ends of the interval agree on all of them;
    otherwise the run retries with more guard digits and terms.
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
    for extra in _RETRY_EXTRA:
        n = terms_needed(spec.z, digits + extra)
        node = split_range(ratio, a, b, 0, n, False)
        tail = tail_bound(spec.fam, a, b, spec.z, n)
        out = _decide_digits(spec, scale, node, tail, digits, _GUARD_DIGITS + extra)
        if out is not None:
            return out
    raise InvariantViolation(
        f"{getattr(entry, 'id', spec)}: digits stay undecided at {digits} digits"
    )


def _top(x: int) -> tuple[int, int]:
    """(m, e) with 0 <= x <= m * 2^e and m < 2^65."""
    e = max(x.bit_length() - 64, 0)
    return (x >> e) + (1 if e else 0), e


def _sqrt_fixed(m: int, prec: int) -> BigApprox:
    """sqrt(m) for a small integer m >= 1, certified by the residual of y.

    y ~ Y = 2^(prec+L)/sqrt(m) with L = m.bit_length(), and
    rho = 2^(2(prec+L)) - m y^2 gives |Y - y| = |rho|/(m (Y + y)) <= |rho|/(m y),
    so m y / 2^L is sqrt(m) 2^prec within |rho|/(y 2^L) + 1 ulps.
    """
    L = m.bit_length()
    y = _rsqrt(m, prec + L)
    rho = (1 << (2 * (prec + L))) - m * y * y
    return BigApprox((m * y) >> L, prec, 1 + -(-abs(rho) // (y << L)))


def _rsqrt(m: int, p: int) -> int:
    """y ~ 2^p/sqrt(m) by Newton's y += y (2^(2p) - m y^2)/2^(2p+1) from
    the result at about half the precision (multiplications only)."""
    if p <= 1000:
        return int(isqrt((1 << (2 * p)) // m))
    h = (p + m.bit_length()) // 2 + 4
    yh = _rsqrt(m, h)
    f = (1 << (2 * h)) - m * yh * yh
    return (yh << (p - h)) + ((yh * f) >> (3 * h + 1 - p))


def _decide_digits(spec, scale, node, tail, digits: int, guard: int):
    """The digit string when the certified interval decides every digit, else None."""
    prec = int((digits + guard) * 3.3219280948873626) + 1
    c = spec.c.r * scale  # pi = c sqrt(m) Q/T_true
    T = node.T if c > 0 else -node.T
    if T <= 0:
        raise InvariantViolation(f"{spec} does not sum to a positive value")
    man, err = fixed_div(node.Q, T, prec)
    ratio = BigApprox(man, prec, err)
    v = (ratio * _sqrt_fixed(spec.c.m, prec)).mul_int(abs(qq_num(c))).div_int(qq_den(c))
    # |pi - pi_N| <= pi_N t/(|T/Q| - t) <= V t A/(2^prec - t A) ulps, with
    # V >= pi_N 2^prec, A >= (Q/T) 2^prec and t = tn/td the tail bound
    tn, td = qq_num(tail), qq_den(tail)
    vm, ve = _top(v.man + v.err)
    am, ae = _top(man + err)
    room = (td << prec) - ((tn * am) << ae)
    if room <= 0:
        return None
    err = v.err + -(-((vm * am * tn) << (ve + ae)) // room)
    lo, hi = v.man - err, v.man + err
    one = 1 << prec
    if hi < one or lo >= 10 * one:
        raise InvariantViolation(f"{spec} does not sum to a value in [1, 10)")
    if lo < one or hi >= 10 * one:
        return None
    # floor(lo 10^(digits-1)) == floor(hi 10^(digits-1)): same digits at both ends
    p10 = 10 ** (digits - 1)
    scaled = v.man * p10
    top = scaled >> prec
    frac = scaled - (top << prec)
    spread = err * p10
    if frac < spread or frac + spread >= one:
        return None
    return int_to_decimal_str(top)


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
