"""Exact constants and error-tracked big floats.

Three value kinds cover everything the engine needs:

* rationals (Fraction), parsed/printed strictly as "p/q" or "p" — decimal
  literals are rejected so data files cannot smuggle in rounded values;
* RadConst — exact constants r*sqrt(m)*i^t with r rational, m a square-free
  positive integer and t in {0,1}.  Every series constant c and every
  prefactor value B(x0) lives here.  Sums across different radicals raise
  IncompatibleRadicals instead of widening the field;
* BigApprox — fixed-point big float (man * 2^-prec) carrying an explicit
  error bound in ulps.  All bounds are propagated outward (conservative), so
  "agrees to d digits" claims are sound, not heuristic.

The pi oracle is Brent–Salamin AGM in integer fixed point.  Its reported
error bound does not trust AGM convergence theory: it is |AGM − Machin| plus
the rigorous truncation/rounding error of the Machin evaluation, making the
oracle independent of every series in the catalog.
"""

from __future__ import annotations

import math as _math
import re
from dataclasses import dataclass
from fractions import Fraction as QQ
from functools import lru_cache
from math import isqrt

from .errors import IncompatibleRadicals, ParseError

# ============================================================
# rational parsing / formatting
# ============================================================

def _show_literal(text: str) -> str:
    """repr of text for an error message; a long one is cut to 40 characters
    (fewer when they repr as escapes) plus its length, so a huge literal
    cannot flood stderr."""
    cut = text[:40]
    while len(repr(cut)) > 42:
        cut = cut[:-1]
    if cut == text:
        return repr(text)
    return f"{cut!r}... ({len(text)} characters)"


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str):
    """Parse "p/q" or "p" into an exact rational: ASCII digits, an optional
    sign on p only, no inner whitespace.  Decimals are rejected."""
    s = text.strip()
    if not s:
        raise ParseError("empty rational literal")
    if any(ch in s for ch in ".eE"):
        raise ParseError(f"decimal literals are not accepted: {_show_literal(text)}")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ParseError(f"malformed rational: {_show_literal(text)}")
    num, den = m.groups()
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:  # past CPython's 4300-digit int/str limit
        raise ParseError(f"malformed rational: {_show_literal(text)}") from exc
    if q == 0:
        raise ParseError(f"zero denominator: {_show_literal(text)}")
    return QQ(p, q)


def format_rational(q) -> str:
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


# ============================================================
# square-free decomposition
# ============================================================

def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s^2 * m with m square-free; returns (s, m).  Requires n >= 1."""
    if n < 1:
        raise ValueError("squarefree_decompose needs n >= 1")
    s, m = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            cnt = 0
            while n % p == 0:
                n //= p
                cnt += 1
            s *= p ** (cnt // 2)
            if cnt % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= n  # leftover prime
    return s, m


# ============================================================
# RadConst: r * sqrt(m) * i^t
# ============================================================

class RadConst:
    """Exact constant r*sqrt(m)*i^t, canonical form.

    Canonicalization: m square-free positive; r == 0 forces (m, t) = (1, 0).
    Construction accepts any integer m >= 1 and extracts the square part.
    """

    __slots__ = ("r", "m", "t")

    def __init__(self, r, m: int = 1, t: int = 0):
        r = QQ(r)
        if m < 1:
            raise ValueError("m must be a positive integer (use t=1 for i)")
        if t not in (0, 1):
            raise ValueError("t must be 0 or 1")
        if r == 0:
            m, t = 1, 0
        elif m != 1:
            s, m = squarefree_decompose(int(m))
            r = r * s
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "t", int(t))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RadConst is immutable")

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "RadConst":
        return cls(0)

    @classmethod
    def one(cls) -> "RadConst":
        return cls(1)

    @classmethod
    def i(cls) -> "RadConst":
        return cls(1, 1, 1)

    @classmethod
    def sqrt_rational(cls, q) -> "RadConst":
        """Principal square root of a rational: sqrt(-u) = i*sqrt(u)."""
        q = QQ(q)
        if q == 0:
            return cls.zero()
        t = 0
        if q < 0:
            q, t = -q, 1
        p, d = q.numerator, q.denominator
        s, m = squarefree_decompose(p * d)
        return cls(QQ(s, d), m, t)

    # --- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.r == 0

    def is_real(self) -> bool:
        return self.t == 0

    def is_rational(self) -> bool:
        return self.m == 1 and self.t == 0

    def abs2(self):
        """|value|^2 as an exact rational (t plays no role)."""
        return self.r * self.r * self.m

    # --- algebra --------------------------------------------------------
    def __mul__(self, other: "RadConst") -> "RadConst":
        if not isinstance(other, RadConst):
            return NotImplemented
        r = self.r * other.r
        if self.t and other.t:  # i*i = -1
            r = -r
        return RadConst(r, self.m * other.m, (self.t + other.t) % 2)

    def __add__(self, other: "RadConst") -> "RadConst":
        if not isinstance(other, RadConst):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.m, self.t) != (other.m, other.t):
            raise IncompatibleRadicals(
                f"cannot add {self} and {other}: different radical parts"
            )
        return RadConst(self.r + other.r, self.m, self.t)

    def __neg__(self) -> "RadConst":
        return RadConst(-self.r, self.m, self.t)

    def __sub__(self, other: "RadConst") -> "RadConst":
        return self + (-other)

    def inverse(self) -> "RadConst":
        if self.is_zero():
            raise ZeroDivisionError("RadConst inverse of zero")
        # 1/(r sqrt(m))   = (1/(r m)) sqrt(m)
        # 1/(r sqrt(m) i) = -(1/(r m)) sqrt(m) i
        r = 1 / (self.r * self.m)
        if self.t:
            r = -r
        return RadConst(r, self.m, self.t)

    def __truediv__(self, other: "RadConst") -> "RadConst":
        if not isinstance(other, RadConst):
            return NotImplemented
        return self * other.inverse()

    def scale(self, q) -> "RadConst":
        """Multiply by an exact rational."""
        return RadConst(self.r * QQ(q), self.m, self.t)

    def pow_int(self, k: int) -> "RadConst":
        if k < 0:
            return self.inverse().pow_int(-k)
        out = RadConst.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- text form --------------------------------------------------------
    def __repr__(self) -> str:  # canonical text form, parseable back
        if self.is_zero():
            return "0"
        parts = [format_rational(self.r)]
        if self.m != 1:
            parts.append(f"sqrt({self.m})")
        if self.t:
            parts.append("i")
        return "*".join(parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RadConst)
            and self.r == other.r
            and self.m == other.m
            and self.t == other.t
        )

    def __hash__(self) -> int:
        return hash((self.r, self.m, self.t))


def rad_pow_half(v, p: int) -> RadConst:
    """Principal value of v^(p/2) for rational v != 0 and odd integer p.

    Negative bases follow the principal branch: (-u)^(1/2) = i*sqrt(u) for
    u > 0, hence (1-u)^(-1/2) = -i/sqrt(u-1) for u > 1.  Consistency across
    all half powers comes from computing (v^(1/2))^p.
    """
    v = QQ(v)
    if v == 0:
        raise ZeroDivisionError("0 cannot be raised to a half-integer power")
    return RadConst.sqrt_rational(v).pow_int(p)


# trial division up to 10^6 settles any radicand up to 10^12; larger ones
# from outside input could stall squarefree_decompose for hours
MAX_RADICAND = 10**12


def capped_radicand(m: int) -> int:
    """m itself, or ParseError when it exceeds MAX_RADICAND or is not positive."""
    if 1 <= m <= MAX_RADICAND:
        return m
    shown = str(m)
    if len(shown) > 40:
        shown = f"{shown[:40]}... ({len(shown)} characters)"
    if m > MAX_RADICAND:
        raise ParseError(f"radicand {shown} exceeds the cap {MAX_RADICAND}")
    raise ParseError(f"radicand {shown} is not a positive integer")


def parse_radconst(text: str) -> RadConst:
    """Parse the canonical form "r[*sqrt(m)][*i]" (as produced by repr)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty constant literal")
    if s == "0":
        return RadConst.zero()
    t = 0
    if s.endswith("*i"):
        t = 1
        s = s[:-2]
    elif s == "i":
        return RadConst(1, 1, 1)
    m = 1
    radical = None
    if "*sqrt(" in s:
        s, _, radical = s.partition("*sqrt(")
    elif s.startswith("sqrt("):
        s, radical = "1", s[5:]
    if radical is not None:
        if not radical.endswith(")"):
            raise ParseError(f"malformed radical: {_show_literal(text)}")
        try:
            m = capped_radicand(int(radical[:-1]))
        except ValueError as exc:
            raise ParseError(f"malformed radical: {_show_literal(text)}") from exc
    return RadConst(parse_rational(s), m, t)


# ============================================================
# BigApprox: fixed-point value with error bound in ulps
# ============================================================

def prec_for_digits(digits: int) -> int:
    """Working precision in bits for a decimal digit target (+20 guard)."""
    return int((digits + 20) * 3.3219280948873626) + 8


@dataclass(frozen=True)
class BigApprox:
    """value ~ man * 2^-prec, with |true - man*2^-prec| <= err * 2^-prec."""

    man: int
    prec: int
    err: int  # ulps, >= 0

    # --- constructors ---------------------------------------------------
    @classmethod
    def from_int(cls, k: int, prec: int) -> "BigApprox":
        return cls(int(k) << prec, prec, 0)

    @classmethod
    def from_rational(cls, q, prec: int) -> "BigApprox":
        n, d = q.numerator, q.denominator
        man = (n << prec) // d  # floor; off by < 1 ulp
        return cls(man, prec, 0 if (n << prec) % d == 0 else 1)

    @classmethod
    def from_partial_sum(cls, total, tail, prec: int) -> "BigApprox":
        """An exact partial sum plus a certified bound on the omitted tail,
        folded into err as floor(tail * 2^prec) + 1 ulps."""
        out = cls.from_rational(total, prec)
        tail = QQ(tail)
        return cls(out.man, prec, out.err + (tail.numerator << prec) // tail.denominator + 1)

    @classmethod
    def sqrt_int(cls, m: int, prec: int) -> "BigApprox":
        if m < 0:
            raise ValueError("sqrt_int of negative integer")
        return cls(isqrt(m << (2 * prec)), prec, 1)

    # --- basic queries ----------------------------------------------------
    def _chk(self, other: "BigApprox"):
        if self.prec != other.prec:
            raise ValueError("BigApprox precision mismatch")

    def __float__(self) -> float:
        sh = max(self.prec - 64, 0)  # avoid huge-int / float overflow
        return _math.ldexp(float(self.man >> sh), sh - self.prec)

    def err_bound_lt_pow10(self, digits: int) -> bool:
        """True iff the error bound is provably < 10^-digits."""
        return self.err * 10**digits < (1 << self.prec)

    def rescale(self, prec: int) -> "BigApprox":
        """Same value at another working precision (bound stays outward)."""
        if prec == self.prec:
            return self
        if prec < self.prec:
            sh = self.prec - prec
            return BigApprox(self.man >> sh, prec, (self.err >> sh) + 2)
        sh = prec - self.prec
        return BigApprox(self.man << sh, prec, (self.err << sh) + 1)

    # --- arithmetic -------------------------------------------------------
    def __neg__(self) -> "BigApprox":
        return BigApprox(-self.man, self.prec, self.err)

    def __add__(self, other: "BigApprox") -> "BigApprox":
        self._chk(other)
        return BigApprox(self.man + other.man, self.prec, self.err + other.err)

    def __sub__(self, other: "BigApprox") -> "BigApprox":
        self._chk(other)
        return BigApprox(self.man - other.man, self.prec, self.err + other.err)

    def __mul__(self, other: "BigApprox") -> "BigApprox":
        self._chk(other)
        P = self.prec
        man = (self.man * other.man) >> P
        cross = abs(self.man) * other.err + abs(other.man) * self.err
        cross += self.err * other.err
        err = -((-cross) >> P) + 2  # ceil(cross/2^P) + rounding + shift slop
        return BigApprox(man, P, err)

    def __truediv__(self, other: "BigApprox") -> "BigApprox":
        self._chk(other)
        P = self.prec
        if abs(other.man) <= other.err:
            raise ZeroDivisionError("BigApprox division by value overlapping 0")
        y_lo = abs(other.man) - other.err
        man = (self.man << P) // other.man
        num = (self.err * abs(other.man) + other.err * abs(self.man)) << P
        err = -(-num // (abs(other.man) * y_lo)) + 2
        return BigApprox(man, P, err)

    def mul_int(self, k: int) -> "BigApprox":
        return BigApprox(self.man * k, self.prec, self.err * abs(k))

    def div_int(self, k: int) -> "BigApprox":
        if k == 0:
            raise ZeroDivisionError
        man, rem = divmod(self.man, k)  # floor division toward -inf
        err = -(-self.err // abs(k)) + (0 if rem == 0 else 1)
        return BigApprox(man, self.prec, err)

    def mul_rational(self, q) -> "BigApprox":
        return self.mul_int(q.numerator).div_int(q.denominator)

    def sqrt(self) -> "BigApprox":
        P = self.prec
        if self.man < 0:
            raise ValueError("BigApprox sqrt of negative value")
        man = isqrt(self.man << P)
        if man > self.err:
            prop = -(-(self.err << P) // (2 * man)) if man else 0
        else:
            prop = isqrt(self.err << P) + 1
        return BigApprox(man, P, prop + 2)

    # --- comparisons ------------------------------------------------------
    def agrees_to(self, other: "BigApprox", digits: int) -> bool:
        """Provably |self - other| < 10^-digits (error bounds included)."""
        self._chk(other)
        gap = abs(self.man - other.man) + self.err + other.err
        return gap * 10**digits < (1 << self.prec)

    def digits_agreed(self, other: "BigApprox") -> int:
        """Largest d >= 0 with provable |self - other| < 10^-d (capped)."""
        self._chk(other)
        gap = abs(self.man - other.man) + self.err + other.err
        if gap == 0:
            return self.prec * 30103 // 100000  # exact at working precision
        d = max((self.prec - gap.bit_length()) * 30103 // 100000, 0)
        while gap * 10 ** (d + 1) < (1 << self.prec):
            d += 1
        while d > 0 and gap * 10**d >= (1 << self.prec):
            d -= 1
        return d

    def to_decimal(self, digits: int) -> str:
        """Decimal string with `digits` fractional digits: the magnitude is
        truncated and a minus sign is written for a negative mantissa."""
        mag = abs(self.man)
        ip = mag >> self.prec
        frac = mag - (ip << self.prec)
        tail = (frac * 10**digits) >> self.prec
        sign = "-" if self.man < 0 else ""
        return f"{sign}{ip}.{int_to_decimal_str(tail).zfill(digits)}"


# ============================================================
# multiplication-only kernels: Newton reciprocal and decimal output
# ============================================================

# below _SMALL_BITS exact // and Decimal(int) are cheap, below _STR_MAX_BITS
# (about 3000 digits, under CPython's 4300-digit guard) so is str()
_SMALL_BITS = 2000
_STR_MAX_BITS = 10_000


def newton_recip(b: int) -> int:
    """r ~ 2^(2n)/b for b > 0 with n = b.bit_length(), by multiplications.

    The reciprocal of b's top h ~ n/2 bits, shifted up, is refined by one
    Newton step r += r (2^(2n) - b r)/2^(2n), which squares its relative
    error.  The result is within a few units of 2^(2n)/b; callers certify
    it by the exact residual 2^(2n) - b*r, since 2^(2n)/b - r = residual/b.
    """
    n = b.bit_length()
    if n <= _SMALL_BITS:
        return (1 << (2 * n)) // b
    h = n // 2 + 2
    rh = newton_recip(b >> (n - h))  # ~ 2^(n+h)/b, relative error ~ 2^-h
    f = (1 << (n + h)) - b * rh
    return (rh << (n - h)) + ((rh * f) >> (2 * h))


def fixed_div(a: int, b: int, prec: int) -> tuple[int, int]:
    """(man, err) with |a * 2^prec / b - man| <= err, for a >= 0 and b > 0.

    a and b are shifted alike until b has prec + 64 bits, the quotient comes
    from newton_recip, and err is the reciprocal's certified error plus, when
    the shift cut bits off, the truncation bound max(1, a/b) 2^prec / b'.
    Every division below has a quotient of a few words, so the cost is a
    handful of multiplications.
    """
    k = prec + 64
    s = b.bit_length() - k
    if s > 0:
        at, bt = a >> s, b >> s
        # a/b lies in [at/(bt+1), (at+1)/bt]: within max(1, at/bt)/bt of at/bt
    else:
        at, bt = a << -s, b << -s
    r = newton_recip(bt)
    res = (1 << (2 * k)) - bt * r
    r_err = -(-abs(res) // bt)  # |2^(2k)/bt - r| <= r_err
    sh = 2 * k - prec
    man = (at * r) >> sh
    err = 1 + (-((-at * r_err) >> sh))
    if s > 0:
        err += -(-((1 << prec) + man + err) // bt)
    return man, err


def int_to_decimal_str(n: int) -> str:
    """str(n) in subquadratic time, for any size of n.

    CPython's int -> str is quadratic and refuses more than 4300 digits.
    Large values are split in binary and rebuilt as a decimal.Decimal,
    whose multiplication is subquadratic: the scheme of CPython 3.12's
    _pylong.int_to_decimal_string.
    """
    if n.bit_length() <= _STR_MAX_BITS:
        return str(n)
    import decimal

    D = decimal.Decimal
    pow2 = {}

    def w2pow(w):
        if w not in pow2:
            if w <= _SMALL_BITS:
                pow2[w] = D(1 << w)
            elif w - 1 in pow2:
                pow2[w] = pow2[w - 1] + pow2[w - 1]
            else:
                pow2[w] = w2pow(w >> 1) * w2pow(w - (w >> 1))
        return pow2[w]

    def inner(x, w):
        if w <= _SMALL_BITS:
            return D(x)
        w2 = w >> 1
        hi = x >> w2
        return inner(x - (hi << w2), w2) + inner(hi, w - w2) * w2pow(w2)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = 1
        out = inner(abs(n), n.bit_length())
    return ("-" if n < 0 else "") + str(out)


def rad_to_bigapprox(c: RadConst, prec: int) -> BigApprox:
    """Embed a real RadConst (t = 0) at the given precision."""
    if c.t:
        raise ValueError("cannot embed an imaginary RadConst into a real float")
    v = BigApprox.from_rational(c.r, prec)
    if c.m != 1:
        v = v * BigApprox.sqrt_int(c.m, prec)
    return v


# ============================================================
# pi oracle: AGM cross-checked against Machin
# ============================================================

def _atan_split(k: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(B, D, T) for terms [lo, hi) of atan(1/k) = (1/k) sum_j (-1/k^2)^j / (2j+1).

    With q(0) = 1, q(j) = -k^2 and b(j) = 2j + 1, B = prod b and D = B prod q,
    and the range sums to T/D times prod_{i<lo} 1/q(i).  Siblings merge by
    B = B1*B2, D = D1*D2 and T = T1*D2 + B1*T2.
    """
    if hi - lo == 1:
        b = 2 * lo + 1
        return b, (-k * k * b if lo else 1), 1
    mid = (lo + hi) // 2
    b1, d1, t1 = _atan_split(k, lo, mid)
    b2, d2, t2 = _atan_split(k, mid, hi)
    return b1 * b2, d1 * d2, t1 * d2 + b1 * t2


def machin_pi(prec: int) -> tuple[int, int]:
    """(man, err_ulps) for pi = 16*atan(1/5) - 4*atan(1/239) at scale 2^prec.

    Both arctangent series are summed exactly by binary splitting and joined
    into one fraction, which a single Newton division brings to fixed point.
    Each series stops after N ~ prec/(2 log2 k) terms; being alternating
    and decreasing, its tail is below the first omitted term
    1/((2N+1) k^(2N+1)), which is added to the bound in ulps.
    """
    fracs = []
    err = 0
    for k, weight in ((5, 16), (239, 4)):
        n = int(prec / (2 * _math.log2(k))) + 2
        _, d, t = _atan_split(k, 0, n)
        err += -(-(weight << prec) // ((2 * n + 1) * k ** (2 * n + 1)))
        fracs.append((weight * t, k * d) if d > 0 else (-weight * t, -k * d))
    (t5, d5), (t239, d239) = fracs
    man, div_err = fixed_div(t5 * d239 - t239 * d5, d5 * d239, prec)
    return man, err + div_err


def agm_pi(prec: int) -> int:
    """Brent–Salamin mantissa for pi at scale 2^prec (no certified bound)."""
    a = 1 << prec
    b = isqrt(1 << (2 * prec - 1))
    t = 1 << (prec - 2)
    p = 1
    while a - b > 4:
        an = (a + b) >> 1
        b = isqrt(a * b)
        d = a - an
        t -= (p * d * d) >> prec
        a = an
        p <<= 1
    s = a + b
    return (s * s) // (4 * t)


@lru_cache(maxsize=None)
def pi_oracle(digits: int) -> BigApprox:
    """pi with a certified error bound < 10^-digits.

    The center is the AGM value; the bound is |AGM - Machin| plus the
    rigorous Machin error, so correctness never leans on AGM theory.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    guard_bits = 32
    for attempt in range(4):
        P = prec_for_digits(digits) + guard_bits * (attempt + 1)
        agm = agm_pi(P)
        mac, mac_err = machin_pi(P)
        err = abs(agm - mac) + mac_err + 2
        target = prec_for_digits(digits)
        shift = P - target
        out = BigApprox(agm >> shift, target, (err >> shift) + 2)
        if out.err_bound_lt_pow10(digits):
            return out
    raise ArithmeticError(f"pi oracle failed to certify {digits} digits")


# ============================================================
# sin(pi * s)
# ============================================================

_EXACT_SIN = {
    (1, 2): RadConst(1),
    (1, 3): RadConst(QQ(1, 2), 3),
    (2, 3): RadConst(QQ(1, 2), 3),
    (1, 4): RadConst(QQ(1, 2), 2),
    (3, 4): RadConst(QQ(1, 2), 2),
    (1, 6): RadConst(QQ(1, 2)),
    (5, 6): RadConst(QQ(1, 2)),
}


def sin_pi(s, digits: int = 30):
    """sin(pi*s) for 0 < s < 1: exact RadConst on the classical table,
    otherwise a BigApprox at the requested precision (the return type is the
    exactness flag)."""
    s = QQ(s)
    if not (0 < s < 1):
        raise ValueError("sin_pi requires 0 < s < 1")
    key = (s.numerator, s.denominator)
    if key in _EXACT_SIN:
        return _EXACT_SIN[key]
    if s > QQ(1, 2):
        s = 1 - s  # sin(pi-x) = sin(x)
    pi = pi_oracle(digits + 10)
    P = pi.prec
    x = pi.mul_rational(s)  # 0 < x <= pi/2
    x2 = x * x
    term = x
    total = term
    j = 1
    while abs(term.man) > term.err + 2:
        term = (term * x2).div_int(2 * j).div_int(2 * j + 1)
        total = total + term if (j % 2 == 0) else total - term
        j += 1
    # alternating series with decreasing terms: tail <= |next term|
    total = BigApprox(total.man, P, total.err + abs(term.man) + term.err + 1)
    return total
