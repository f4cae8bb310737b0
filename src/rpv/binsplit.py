"""Pi digits from a catalog entry, by binary splitting and a certified tail.

pi_digits sums the first N terms of any convergent entry, of any family, as
one exact rational T/Q from hyper.split_range, the engine's one binary split
of the family recurrence (first- and second-order alike, with the common
factors of each merge cancelled and the right spine's P products skipped).
N comes from the family envelope (terms_needed), the omitted tail from
hyper.tail_bound, and the digits from a certified interval around
pi = c sqrt(m) Q/T; an interval that does not decide every digit retries
with more guard digits and terms.
"""

from __future__ import annotations

import math
from fractions import Fraction as QQ
# unused here, kept as a name: the benchmark's tracer wraps binsplit.isqrt
from math import isqrt  # noqa: F401

from .errors import DivergentInput, InvariantViolation, NonExactConstant
from .hyper import converges, family_envelope, integer_recurrence, split_range, tail_bound
from .numerics import BigApprox, fixed_div, int_to_decimal_str, newton_rsqrt, pi_oracle


def terms_needed(fam, z, digits: int) -> int:
    """Terms N at which the envelope term (|z| R)^N (hyper.family_envelope)
    is 10^-digits, plus slack; 1 when z = 0, where the tail is 0.

    The rate -log(|z| R) comes from exact integer logs of z = u/v and R.  The
    slack is 10 terms, log(N+1)/rate per power of n in the tail term
    (a+bn)(n+1)^deg and two decimal digits, so that the first attempt decides.
    """
    z = QQ(z)
    u = abs(z.numerator)
    if not u:
        return 1
    R, deg = family_envelope(fam)
    rate = math.log(z.denominator) - math.log(u) - math.log(R)
    n = digits * math.log(10.0) / rate
    n += ((deg + 1) * math.log(n + 1) + math.log(100)) / rate
    return math.ceil(n) + 10


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
    if not converges(spec.fam, spec.z):
        raise DivergentInput(f"entry at z = {spec.z} cannot be summed for digits")
    if spec.c.t:
        raise NonExactConstant("digit computation needs a real radical constant")
    rec = integer_recurrence(spec.fam, spec.z)
    scale = math.lcm(spec.a.denominator, spec.b.denominator)
    a, b = (spec.a * scale).numerator, (spec.b * scale).numerator
    for extra in _RETRY_EXTRA:
        n = terms_needed(spec.fam, spec.z, digits + extra)
        node = split_range(rec, a, b, 0, n, False)
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

    y ~ Y = 2^(prec+L)/sqrt(m) from newton_rsqrt, with L = m.bit_length(),
    and rho = 2^(2(prec+L)) - m y^2 gives
    |Y - y| = |rho|/(m (Y + y)) <= |rho|/(m y), so m y / 2^L is
    sqrt(m) 2^prec within |rho|/(y 2^L) + 1 ulps.
    """
    L = m.bit_length()
    y = newton_rsqrt(m, prec + L)
    rho = (1 << (2 * (prec + L))) - m * y * y
    return BigApprox((m * y) >> L, prec, 1 + -(-abs(rho) // (y << L)))


def _decide_digits(spec, scale, node, tail, digits: int, guard: int):
    """The digit string when the certified interval decides every digit, else None."""
    prec = int((digits + guard) * 3.3219280948873626) + 1
    c = spec.c.r * scale  # pi = c sqrt(m) Q/T_true
    T = node.T if c > 0 else -node.T
    if T <= 0:
        raise InvariantViolation(f"{spec} does not sum to a positive value")
    man, err = fixed_div(node.Q, T, prec)
    ratio = BigApprox(man, prec, err)
    v = (ratio * _sqrt_fixed(spec.c.m, prec)).mul_int(abs(c.numerator)).div_int(c.denominator)
    # |pi - pi_N| <= pi_N t/(|T/Q| - t) <= V t A/(2^prec - t A) ulps, with
    # V >= pi_N 2^prec, A >= (Q/T) 2^prec and t = tn/td the tail bound
    tn, td = tail.numerator, tail.denominator
    vm, ve = _top(v.man + v.err)
    am, ae = _top(man + err)
    room = (td << prec) - ((tn * am) << ae)
    if room <= 0:
        return None
    err = v.err + -(-((vm * am * tn) << (ve + ae)) // room)
    one = 1 << prec
    if v.man + err < one or v.man - err >= 10 * one:
        raise InvariantViolation(f"{spec} does not sum to a value in [1, 10)")
    return _interval_digits(v.man, err, prec, digits)


def _interval_digits(man: int, err: int, prec: int, digits: int):
    """The first `digits` significant digits shared by both ends of
    [man - err, man + err] 2^-prec, or None when the ends differ in one of
    them or leave [1, 10)."""
    one = 1 << prec
    if man - err < one or man + err >= 10 * one:
        return None
    # floor(lo 10^(digits-1)) == floor(hi 10^(digits-1)): same digits at both ends
    p10 = 10 ** (digits - 1)
    scaled = man * p10
    top = scaled >> prec
    frac = scaled - (top << prec)
    spread = err * p10
    if frac < spread or frac + spread >= one:
        return None
    return int_to_decimal_str(top)


# extra oracle digits of each attempt of oracle_digits
_ORACLE_EXTRA = (5, 20, 80)


def oracle_digits(digits: int) -> str:
    """The same significant-digit string from the independent pi oracle,
    decided by both ends of its certified interval.  An interval that
    straddles a digit boundary asks the oracle for more digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    for extra in _ORACLE_EXTRA:
        pi = pi_oracle(digits + extra)
        out = _interval_digits(pi.man, pi.err, pi.prec, digits)
        if out is not None:
            return out
    raise InvariantViolation(f"pi oracle digits stay undecided at {digits} digits")


def digits_file_text(digit_string: str) -> str:
    """Render a significant-digit string as decimal file text."""
    if len(digit_string) == 1:
        return digit_string + "\n"
    return f"{digit_string[0]}.{digit_string[1:]}\n"
