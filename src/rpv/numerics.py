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

The pi oracle is Machin's formula, its two arctangent series summed by a
cancelled binary split and brought to fixed point by Newton division, so it
uses multiplications only.  Its error bound is the rigorous truncation and
rounding error of that evaluation, making the oracle independent of every
series in the catalog.
"""

from __future__ import annotations

import math as _math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction as QQ
from functools import lru_cache
from math import isqrt

from .errors import IncompatibleRadicals, InvariantViolation, ParseError

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
        man = mul(self.man, other.man) >> P
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
# multiplication-only kernels: Toom-3 product, Newton reciprocal, reciprocal
# square root and decimal output
# ============================================================

# below _SMALL_BITS exact // and Decimal(int) are cheap, below _STR_MAX_BITS
# (about 3000 digits, under CPython's 4300-digit guard) so is str()
_SMALL_BITS = 2000
_STR_MAX_BITS = 10_000

# mul splits into thirds while both operands have more than _TOOM_BITS bits;
# below, CPython's Karatsuba product is faster
_TOOM_BITS = 30_000
# the splits multiply narrow operands by the bare C product, without mul's call
_int_mul = operator.mul


def _toom_values(x: int, k: int) -> tuple:
    """x = x2 2^(2k) + x1 2^k + x0 as a polynomial in 2^k, at 0, 1, -1, -2
    and infinity."""
    x0, x1, x2 = x & ((1 << k) - 1), (x >> k) & ((1 << k) - 1), x >> (2 * k)
    s = x0 + x2
    xm1 = s - x1
    return x0, s + x1, xm1, ((xm1 + x2) << 1) - x0, x2


def mul(x: int, y: int) -> int:
    """x * y, by Toom-3 while both operands are wide and balanced.

    Each operand is cut into three k-bit pieces and evaluated at 0, 1, -1,
    -2 and infinity; the five products of the values (squares when x is y)
    are interpolated by Bodrato's sequence (WAIFI 2007), whose one division
    by 3 and two by 2 are exact.  A pair where either operand has at most
    _TOOM_BITS bits, or one at most 2k, is CPython's x * y.
    """
    nx, ny = x.bit_length(), y.bit_length()
    if nx <= _TOOM_BITS or ny <= _TOOM_BITS:
        return x * y
    k = (max(nx, ny) + 2) // 3
    if min(nx, ny) <= 2 * k:
        return x * y
    if x < 0 or y < 0:
        ax = abs(x)
        r = mul(ax, ax if x is y else abs(y))
        return -r if (x < 0) != (y < 0) else r
    vx = _toom_values(x, k)
    vy = vx if x is y else _toom_values(y, k)
    r0, r1, rm1, rm2, rinf = [mul(a, b) for a, b in zip(vx, vy)]
    c3 = (rm2 - r1) // 3
    c1 = (r1 - rm1) >> 1
    c2 = rm1 - r0
    c3 = ((c2 - c3) >> 1) + (rinf << 1)
    c2 += c1 - rinf
    c1 -= c3
    out = (rinf << k) + c3
    out = (out << k) + c2
    out = (out << k) + c1
    return (out << k) + r0


def newton_recip(b: int) -> int:
    """r ~ 2^(2n)/b for b > 0 with n = b.bit_length(), by multiplications.

    The reciprocal of b's top h ~ n/2 bits, shifted up, is refined by one
    Newton step r += r (2^(2n) - b r)/2^(2n), which squares its relative
    error.  The step's residual keeps only its bits above 2^(h-32), the
    ones that reach r.  The result is within a few units of 2^(2n)/b;
    callers certify it by the exact residual 2^(2n) - b*r, since
    2^(2n)/b - r = residual/b.
    """
    n = b.bit_length()
    if n <= _SMALL_BITS:
        return (1 << (2 * n)) // b
    h = n // 2 + 2
    rh = newton_recip(b >> (n - h))  # ~ 2^(n+h)/b, relative error ~ 2^-h
    c = h - 32  # the cut moves the correction by less than 2^-30 units
    f = ((1 << (n + h)) - mul(b, rh)) >> c
    return (rh << (n - h)) + (mul(rh, f) >> (2 * h - c))


# bits of the radicand that newton_rsqrt keeps beyond the bits of its result
_RSQRT_GUARD = 32


def newton_rsqrt(m: int, p: int) -> int:
    """y ~ 2^p/sqrt(m) for m >= 1 and p >= 0, by multiplications.

    y has about r = p - n/2 bits (n = m.bit_length()), so m is cut to its
    top r + 32 bits by an even shift first, which moves y by a relative
    2^-(r+32).  While 2r is at most _SMALL_BITS, y is isqrt(2^(2p) // m);
    above, the result at about half the bits, yh, is refined by one Newton
    step y = yh (1 + (2^(2h) - m yh^2)/2^(2h+1)), which squares its
    relative error.  The residual keeps only its bits above 2^n, the ones
    that reach y.  The result is within a few units of 2^p/sqrt(m).
    """
    n = m.bit_length()
    r = p - n // 2
    t = (n - r - _RSQRT_GUARD) // 2
    if t > 0 and r > 0:
        m, p, n = m >> (2 * t), p - t, n - 2 * t
    if 2 * r <= _SMALL_BITS:
        return isqrt((1 << (2 * p)) // m)
    h = p - r // 2 + 8  # yh ~ 2^h/sqrt(m) carries r/2 + 8 bits
    yh = newton_rsqrt(m, h)
    f = ((1 << (2 * h)) - mul(m, mul(yh, yh))) >> n
    return (yh << (p - h)) + (mul(yh, f) >> (3 * h + 1 - p - n))


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
    res = (1 << (2 * k)) - mul(bt, r)
    r_err = -(-abs(res) // bt)  # |2^(2k)/bt - r| <= r_err
    sh = 2 * k - prec
    man = mul(at, r) >> sh
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
# pi oracle: Machin's certified interval
# ============================================================

# the arctangent split sums leaves of up to _ATAN_LEAF terms serially, and a
# merge cancels gcd(left P, right Q) while the smaller has at most
# _ATAN_GCD_MAX_BITS bits (past that, CPython's quadratic gcd costs more than
# the smaller products save)
_ATAN_LEAF = 32
_ATAN_GCD_MAX_BITS = 16_000


def _atan_split(k: int, lo: int, hi: int, with_p: bool = True) -> tuple:
    """(P, Q, T) for terms [lo, hi) of atan(1/k) = (1/k) sum_j w_j, where
    w_0 = 1 and w_{j+1}/w_j = -(2j+1)/((2j+3) k^2).

    With p(j) = -(2j+1) and q(j) = (2j+3) k^2, w_lo T/Q is the range's sum
    and P/Q = w_hi/w_lo.  Siblings merge as T = T1 Q2 + P1 T2, Q = Q1 Q2 and
    P = P1 P2, after g = gcd(P1, Q2) is divided out of both, which keeps
    both ratios and drops the odd factors the terms cancel (Cheng, Hanrot,
    Thomé, Zima & Zimmermann, ISSAC 2007).  A merge reads only the left P,
    so with with_p False the right spine's P is not formed and is None.
    """
    if hi - lo <= _ATAN_LEAF:
        kk = k * k
        p, q, t = 1, 1, 0
        for j in range(lo, hi):
            d = (2 * j + 3) * kk
            p, q, t = -(2 * j + 1) * p, q * d, (t + p) * d
        return p, q, t
    mid = (lo + hi) // 2
    lp, lq, lt = _atan_split(k, lo, mid)
    rp, rq, rt = _atan_split(k, mid, hi, with_p)
    m = mul if lq.bit_length() > _TOOM_BITS else _int_mul
    if lp.bit_length() <= _ATAN_GCD_MAX_BITS or rq.bit_length() <= _ATAN_GCD_MAX_BITS:
        g = _math.gcd(lp, rq)
        if g > 1:
            lp, rq = lp // g, rq // g
    return (m(lp, rp) if with_p else None), m(lq, rq), m(lt, rq) + m(lp, rt)


def machin_pi(prec: int) -> tuple[int, int]:
    """(man, err_ulps) for pi = 16*atan(1/5) - 4*atan(1/239) at scale 2^prec.

    Each arctangent series is summed exactly by _atan_split and brought to
    fixed point by its own Newton division.  Being alternating and
    decreasing, a series stopped after n terms leaves a tail below the first
    omitted term w/((2n+1) k^(2n+1)) for weight w.  k^1024 >= 2^lb gives
    k^e >= 2^(e lb/1024), so n is the least with (2n+1) lb >= 1024 (prec +
    bits of w): the tail is below one ulp, and one ulp is added per series.
    """
    man = err = 0
    for k, weight, sign in ((5, 16, 1), (239, 4, -1)):
        lb = (k**1024).bit_length() - 1
        n = -(-1024 * (prec + weight.bit_length()) // lb) // 2
        _, q, t = _atan_split(k, 0, n, False)
        m, div_err = fixed_div(weight * t, k * q, prec)
        man += sign * m
        err += div_err + 1
    return man, err


# unused, kept as a name: the benchmark's tracer wraps numerics.agm_pi
def agm_pi(prec: int) -> int:
    raise NotImplementedError("the pi oracle is Machin's interval alone")


@lru_cache(maxsize=None)
def pi_oracle(digits: int) -> BigApprox:
    """pi with a certified error bound < 10^-digits.

    Machin's interval at 32 guard bits, rescaled to prec_for_digits(digits):
    its few ulps of error vanish in the cut, which adds 2.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    P = prec_for_digits(digits)
    man, err = machin_pi(P + 32)
    out = BigApprox(man, P + 32, err).rescale(P)
    if not out.err_bound_lt_pow10(digits):
        raise InvariantViolation(f"pi oracle failed to certify {digits} digits")
    return out


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
