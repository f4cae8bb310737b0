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

The pi oracle is Machin's formula, its two arctangent series summed by
split_range, the engine's one binary split (the catalog's sums and digit
runs use it too), and brought to fixed point by Newton division, so it uses
multiplications only.  Its error bound is the rigorous truncation and
rounding error of that evaluation, making the oracle independent of every
series in the catalog.
"""

import math as _math
import operator
import re
from fractions import Fraction as QQ
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

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

# trial division stops at this prime bound; a cofactor below
# _DECIDED_COFACTOR then has at most two prime factors, both above it
_TRIAL_LIMIT = 10**6
_DECIDED_COFACTOR = 10**18


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s^2 * m with m square-free; returns (s, m).  Requires n >= 1.

    Trial division runs to _TRIAL_LIMIT.  What is left is a prime, a product
    of two distinct primes or a prime squared when it is below
    _DECIDED_COFACTOR, and isqrt tells the last from the other two; a larger
    cofactor raises ParseError instead of stalling the engine.
    """
    if n < 1:
        raise ValueError("squarefree_decompose needs n >= 1")
    s, m = 1, 1
    p = 2
    while p * p <= n and p <= _TRIAL_LIMIT:
        if n % p == 0:
            cnt = 0
            while n % p == 0:
                n //= p
                cnt += 1
            s *= p ** (cnt // 2)
            if cnt % 2:
                m *= p
        p += 1 if p == 2 else 2
    if p * p <= n:  # every prime factor of n exceeds _TRIAL_LIMIT
        if n >= _DECIDED_COFACTOR:
            raise ParseError(f"radicand cofactor {_show_literal(str(n))} is too large to factor")
        root = isqrt(n)
        if root * root == n:
            return s * root, m
    return s, m * n


# ============================================================
# RadConst: r * sqrt(m) * i^t
# ============================================================

# sets a slot of an immutable value class past its refusing __setattr__
_set = object.__setattr__


class RadConst:
    """Exact constant r*sqrt(m)*i^t, canonical form.

    Canonicalization: m square-free positive; r == 0 forces (m, t) = (1, 0).
    Construction accepts any integer m >= 1 and extracts the square part;
    the algebra builds by _canonical, which trusts m to be square-free.
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
        _set(self, "r", r)
        _set(self, "m", int(m))
        _set(self, "t", int(t))

    @classmethod
    def _canonical(cls, r, m: int, t: int) -> "RadConst":
        """r*sqrt(m)*i^t for a rational r and a square-free int m >= 1."""
        out = object.__new__(cls)
        _set(out, "r", r)
        _set(out, "m", m if r else 1)
        _set(out, "t", t if r else 0)
        return out

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RadConst is immutable")

    def __reduce__(self):  # pickles without factoring m again
        return RadConst._canonical, (self.r, self.m, self.t)

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
        return cls._canonical(QQ(s, d), m, t)

    # --- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.r == 0

    def is_real(self) -> bool:
        return self.t == 0

    def abs2(self):
        """|value|^2 as an exact rational (t plays no role)."""
        return self.r * self.r * self.m

    # --- algebra --------------------------------------------------------
    def __mul__(self, other: "RadConst") -> "RadConst":
        if not isinstance(other, RadConst):
            return NotImplemented
        # m1 m2 = g^2 (m1/g)(m2/g) with g = gcd(m1, m2), and for square-free
        # m1, m2 the cofactor (m1/g)(m2/g) is square-free
        g = _math.gcd(self.m, other.m)
        r = self.r * other.r * g
        if self.t and other.t:  # i*i = -1
            r = -r
        return RadConst._canonical(r, (self.m // g) * (other.m // g), (self.t + other.t) % 2)

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
        return RadConst._canonical(self.r + other.r, self.m, self.t)

    def __neg__(self) -> "RadConst":
        return RadConst._canonical(-self.r, self.m, self.t)

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
        return RadConst._canonical(r, self.m, self.t)

    def __truediv__(self, other: "RadConst") -> "RadConst":
        if not isinstance(other, RadConst):
            return NotImplemented
        return self * other.inverse()

    def scale(self, q) -> "RadConst":
        """Multiply by an exact rational."""
        return RadConst._canonical(self.r * QQ(q), self.m, self.t)

    def pow_int(self, k: int) -> "RadConst":
        if k < 0:
            return self.inverse().pow_int(-k)
        out = RadConst.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # the last bit needs no further square
                base = base * base
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


# trial division up to 10^6 settles any radicand up to 10^12; a parsed
# radicand above it is refused outright
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


class BigApprox:
    """value ~ man * 2^-prec, with |true - man*2^-prec| <= err * 2^-prec.

    Not a tuple, which would take `x < y` and `3 * x` as tuple operations."""

    __slots__ = ("man", "prec", "err")  # err in ulps, >= 0

    def __init__(self, man: int, prec: int, err: int):
        _set(self, "man", man)
        _set(self, "prec", prec)
        _set(self, "err", err)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("BigApprox is immutable")

    def __repr__(self) -> str:
        return f"BigApprox(man={self.man!r}, prec={self.prec!r}, err={self.err!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BigApprox) and self.__reduce__() == other.__reduce__()

    def __reduce__(self):  # pickles as the constructor call
        return BigApprox, (self.man, self.prec, self.err)

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
    def from_partial_sum(cls, num: int, den: int, tail, prec: int) -> "BigApprox":
        """An exact partial sum num/den (den > 0, not necessarily reduced:
        the floor and its exactness are those of the reduced fraction) plus a
        certified bound on the omitted tail, folded into err as
        floor(tail * 2^prec) + 1 ulps."""
        man, rem = divmod(num << prec, den)
        tail = QQ(tail)
        return cls(man, prec, (rem != 0) + (tail.numerator << prec) // tail.denominator + 1)

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
# binary splitting of a recurrence with cubic integer coefficients
# ============================================================

class SplitNode(NamedTuple):
    """Exact data for a half-open index range [lo, hi) of the weighted sum.

    For the terms w_n of D(n) w_{n+1} = A(n) w_n + B(n) w_{n-1} and the
    partial sums S_n of (a+bn) w_n,

        Q S_hi = Q S_lo + T w_lo + U w_{lo-1},

    and P carries the terms across the range: for a first-order recurrence
    (B = ()) P is an int with Q w_hi = P w_lo, and U = 0; otherwise P is the
    2x2 block (X00, X01, X10, X11) with
    Q (w_hi, w_{hi-1}) = (X00 w_lo + X01 w_{lo-1}, X10 w_lo + X11 w_{lo-1}).
    Every node may carry a common factor, so only these ratios are fixed.
    """

    P: object  # int, a 2x2 block, or None when split without it
    Q: int
    T: int
    U: int = 0


# a scalar merge cancels a common factor only while the smaller of the left
# P and the right Q has at most _GCD_MAX_BITS bits: CPython's gcd is
# quadratic, and above it the gcd costs more than the smaller products save.
# A block merge cancels while the right Q has more than _GCD_MIN_BITS bits
# and at most _GCD_MAX_BITS: below, the five-way gcd costs more than it saves
# (domb-16n3's root Q at 4096 terms: 73,585 bits against 72,829; CHANGES.md)
_GCD_MAX_BITS = 16_000
_GCD_MIN_BITS = 512

# split_range multiplies out ranges of at most _LEAF terms serially
_LEAF = 16

# builds a SplitNode without NamedTuple's Python-level __new__, which costs a
# small split (the catalog's) a tenth of its time
_node = tuple.__new__


def split_range(rec, a: int, b: int, lo: int, hi: int, with_p: bool = True) -> SplitNode:
    """Exact SplitNode for [lo, hi) of rec = (A, B, D), integer cubics in n
    (B = () for a first-order recurrence), with integer weights a + bn.

    The step D(n) x_{n+1} = M(n) x_n on x_n = (w_n, w_{n-1}, S_n), with

        M(n) = [[A(n),          B(n), 0   ],
                [D(n),          0,    0   ],
                [(a+bn) D(n),   0,    D(n)]],

    multiplies out over the range to [[P, 0], [(T, U), Q]] (binary splitting,
    Haible & Papanikolaou, ANTS 1998; a first-order recurrence has no
    w_{n-1} column, so P is a scalar), and a node merges with its right
    sibling h as P = P_h P, (T, U) = (T_h, U_h) P + Q_h (T, U), Q = Q_h Q.
    Before that, g = gcd(Q_h, entries of P) is divided out of both, which
    scales the merged node by 1/g and drops the factors the terms cancel
    (Cheng, Hanrot, Thome, Zima & Zimmermann, ISSAC 2007).  A merge reads
    only the left sibling's P, so with with_p False the products along the
    right spine are not formed and P is None there.  A range of at most
    _LEAF terms is a leaf, multiplied out one term at a time (_split_leaf),
    and merges whose operands are wide multiply by mul (Toom-3).
    """
    A, B, D = rec
    if hi - lo <= _LEAF:
        return _split_leaf(A, B, D, a, b, lo, hi, with_p)
    mid = (lo + hi) // 2
    lp, lq, lt, lu = split_range(rec, a, b, lo, mid)
    rp, rq, rt, ru = split_range(rec, a, b, mid, hi, with_p)
    m = mul if lq.bit_length() > _TOOM_BITS else _int_mul
    if not B:
        if lp.bit_length() <= _GCD_MAX_BITS or rq.bit_length() <= _GCD_MAX_BITS:
            g = _math.gcd(lp, rq)
            if g > 1:
                lp, rq = lp // g, rq // g
        return _node(SplitNode, (m(lp, rp) if with_p else None, m(lq, rq), m(lt, rq) + m(lp, rt), 0))
    l00, l01, l10, l11 = lp
    if _GCD_MIN_BITS < rq.bit_length() <= _GCD_MAX_BITS:
        g = _math.gcd(rq, l00, l01, l10, l11)
        if g > 1:
            rq, l00, l01, l10, l11 = rq // g, l00 // g, l01 // g, l10 // g, l11 // g
    p = None
    if with_p:
        h00, h01, h10, h11 = rp
        p = (m(h00, l00) + m(h01, l10), m(h00, l01) + m(h01, l11),
             m(h10, l00) + m(h11, l10), m(h10, l01) + m(h11, l11))
    t = m(rt, l00) + m(ru, l10) + m(rq, lt)
    return _node(SplitNode, (p, m(lq, rq), t, m(rt, l01) + m(ru, l11) + m(rq, lu)))


def _split_leaf(A, B, D, a: int, b: int, lo: int, hi: int, with_p: bool):
    """split_range's node for [lo, hi), multiplied out one term at a time
    and divided by the gcd of all its entries.

    Appending term n to a node is the merge with the one-term node
    P_n = A(n) (the block (A(n), B(n), D(n), 0)), Q_n = D(n),
    T_n = (a+bn) D(n), U_n = 0.  The cubics are evaluated by Horner inline.
    """
    a0, a1, a2, a3 = A
    d0, d1, d2, d3 = D
    q, t, u = 1, 0, 0
    if not B:
        p = 1
        for n in range(lo, hi):
            d = d0 + n * (d1 + n * (d2 + n * d3))
            p, q, t = (a0 + n * (a1 + n * (a2 + n * a3))) * p, q * d, (t + (a + b * n) * p) * d
        g = _math.gcd(p, q, t)
        p = p // g if with_p else None
        return _node(SplitNode, (p, q // g, t // g, 0))
    b0, b1, b2, b3 = B
    x00, x01, x10, x11 = 1, 0, 0, 1
    for n in range(lo, hi):
        an, bn = a0 + n * (a1 + n * (a2 + n * a3)), b0 + n * (b1 + n * (b2 + n * b3))
        d, w = d0 + n * (d1 + n * (d2 + n * d3)), a + b * n
        t, u = (t + w * x00) * d, (u + w * x01) * d
        x00, x01, x10, x11 = an * x00 + bn * x10, an * x01 + bn * x11, d * x00, d * x01
        q *= d
    g = _math.gcd(q, t, u, x00, x01, x10, x11)
    p = (x00 // g, x01 // g, x10 // g, x11 // g) if with_p else None
    return _node(SplitNode, (p, q // g, t // g, u // g))


# ============================================================
# pi oracle: Machin's certified interval
# ============================================================

def machin_pi(prec: int) -> tuple[int, int]:
    """(man, err_ulps) for pi = 16*atan(1/5) - 4*atan(1/239) at scale 2^prec.

    atan(1/k) = (1/k) sum_j w_j, w_0 = 1, w_{j+1}/w_j = -(2j+1)/((2j+3) k^2),
    is summed exactly by split_range (weight a + bn = 1: T/Q is the partial
    sum) and brought to fixed point by its own Newton division.  Alternating
    and decreasing, a series stopped after n terms leaves a tail below the
    first omitted term w/((2n+1) k^(2n+1)) for weight w.  k^1024 >= 2^lb gives
    k^e >= 2^(e lb/1024), so n is the least with (2n+1) lb >= 1024 (prec +
    bits of w): the tail is below one ulp, and one ulp is added per series.
    """
    man = err = 0
    for k, weight, sign in ((5, 16, 1), (239, 4, -1)):
        lb = (k**1024).bit_length() - 1
        n = -(-1024 * (prec + weight.bit_length()) // lb) // 2
        node = split_range(((-1, -2, 0, 0), (), (3 * k * k, 2 * k * k, 0, 0)), 1, 0, 0, n, False)
        m, div_err = fixed_div(weight * node.T, k * node.Q, prec)
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
