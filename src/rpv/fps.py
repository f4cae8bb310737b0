"""Truncated formal power series over exact rationals.

The verification substrate: every transformation rule is checked by expanding
both sides to a finite order with exact coefficients and comparing lists.
Truncation order is data, not ambient state — a Series knows its order, and
every operation documents the order of its result (min of the operands unless
stated otherwise).  Coefficients are rationals only; radical constants never
appear at the series level (they arise at point evaluation, which lives in
`translate`).

Representation: a Series is one vector of integer numerators ``nums`` over one
denominator ``den``, so coefficient k is ``nums[k] / den``.  The form is
canonical, ``den > 0`` and ``gcd(den, *nums) == 1``, which makes ``den`` the
lcm of the reduced coefficient denominators and equality a comparison of
integers.  The kernels below work on ``(nums, den)`` directly and reduce by
one gcd pass per result; Fractions appear only at the edges, in
``Series(coeffs)`` and the derived ``coeffs`` tuple.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import gcd, lcm
from operator import mul

from .errors import (
    DenominatorVanishesAtZero,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
)


class Series:
    """nums[k] / den is the coefficient of x^k; order = len(nums) - 1."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs):
        cs = tuple(QQ(c) for c in coeffs)
        if not cs:
            raise ValueError("a Series needs at least the constant term")
        den = lcm(*(c.denominator for c in cs))
        # each coefficient is reduced, so gcd(den, *nums) == 1 already
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built once on first use."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(QQ(k, self.den) for k in self.nums))
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def one(cls, order: int) -> "Series":
        return _series([1] + [0] * order, 1)

    @classmethod
    def x(cls, order: int) -> "Series":
        if order < 1:
            raise ValueError("order must be >= 1 for the identity series")
        return _series([0, 1] + [0] * (order - 1), 1)

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return _series(self.nums[: order + 1], self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        head = ", ".join(str(QQ(k, self.den)) for k in self.nums[:6])
        tail = ", ..." if len(self.nums) > 6 else ""
        return f"Series([{head}{tail}]; order={self.order})"

    def first_mismatch(self, other: "Series"):
        """Index of the first differing coefficient at shared order, or None."""
        da, db = self.den, other.den
        for k, (a, b) in enumerate(zip(self.nums, other.nums)):
            if a * db != b * da:
                return k
        return None


def _series(nums, den: int) -> Series:
    """The Series nums/den (den > 0), reduced to canonical form."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [k // g for k in nums]
        den //= g
    s = object.__new__(Series)
    object.__setattr__(s, "nums", tuple(nums))
    object.__setattr__(s, "den", den)
    object.__setattr__(s, "_coeffs", None)
    return s


def fps_add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return _series([x * sa + y * sb for x, y in zip(a.nums[: n + 1], b.nums)], den)


def fps_sub(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return _series([x * sa - y * sb for x, y in zip(a.nums[: n + 1], b.nums)], den)


def fps_scale(a: Series, q) -> Series:
    q = QQ(q)
    p = q.numerator
    return _series([k * p for k in a.nums], a.den * q.denominator)


def fps_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at the shared order.

    The numerators convolve as integers over the denominator a.den·b.den,
    and the result is reduced by one gcd pass.
    """
    n = min(a.order, b.order)
    x, y = a.nums, b.nums
    return _series([sum(map(mul, x[: k + 1], y[k::-1])) for k in range(n + 1)], a.den * b.den)


def fps_compose(outer: Series, inner: Series) -> Series:
    """outer(inner(x)) at outer's order; inner must have zero constant term.

    Let v be the valuation of inner (its first nonzero degree).  inner^k
    starts at degree v·k, so only outer coefficients k <= n // v reach the
    result.  A monomial inner c·x^v moves outer coefficient k to index v·k,
    times c^k.  Any other inner runs Horner over outer's integer numerators,
    truncated by degree: the partial sum after outer coefficient k is
    multiplied by inner k more times, so only its degrees 0..n-v·k can reach
    the result.  Each step reduces its partial sum to canonical form.
    A shorter inner series counts as zero beyond its order.
    """
    if inner.nums[0]:
        raise NonzeroConstantTerm("fps_compose needs inner(0) = 0")
    n = outer.order
    fs, g, e = outer.nums, inner.nums[: n + 1], inner.den
    v = next((j for j, t in enumerate(g) if t), n + 1)
    if v > n:
        return _series([fs[0]] + [0] * n, outer.den)
    top = n // v
    if not any(g[v + 1 :]):
        c = g[v]
        out = [0] * (n + 1)
        for k in range(top + 1):
            out[v * k] = fs[k] * c**k * e ** (top - k)
        return _series(out, e**top * outer.den)
    h = g[v:]
    acc, den = [fs[top]] + [0] * (n - v * top), 1
    for k in range(top - 1, -1, -1):
        # acc holds degrees 0..n-v(k+1); the product with inner fills v..n-vk
        den *= e
        step = [fs[k] * den] + [0] * (v - 1)
        step += [sum(map(mul, h[: d + 1], acc[d::-1])) for d in range(n - v * (k + 1) + 1)]
        c = gcd(den, *step)
        if c != 1:
            step = [t // c for t in step]
            den //= c
        acc = step
    return _series(acc, den * outer.den)


def fps_pow_rational(base: Series, e) -> Series:
    """base^e for rational e; base must have constant term 1.

    Uses the first-order ODE f'·base = e·base'·f, which gives the recurrence
        m·f_m = sum_{k=1..m} (k·(e+1) - m) · b_k · f_{m-k}.
    With e = p/q and b_k = B_k/D_b, f_m = S/(m·q·D_b·D) for an integer S when
    f_0..f_{m-1} are integers over D; cancelling gcd(S, m·q·D_b) leaves D at
    the lcm of the reduced denominators, so the vector stays canonical.
    """
    if base.nums[0] != base.den:
        raise NonUnitConstantTerm("fps_pow_rational needs constant term 1")
    e = QQ(e)
    p, q = e.numerator, e.denominator
    n = base.order
    bs = base.nums[1:]
    kbs = [k * b for k, b in enumerate(bs, 1)]
    fs, den = [1], 1
    for m in range(1, n + 1):
        rev = fs[::-1]
        s = (p + q) * sum(map(mul, kbs, rev)) - m * q * sum(map(mul, bs, rev))
        c = m * q * base.den
        g = gcd(s, c)
        t = c // g
        if t != 1:
            fs = [f * t for f in fs]
            den *= t
        fs.append(s // g)
    return _series(fs, den)


def fps_theta(a: Series) -> Series:
    """theta = x·d/dx: coefficient n·a_n at index n (order preserved)."""
    return _series([k * c for k, c in enumerate(a.nums)], a.den)


def fps_expand_ratfun(num, den, order: int) -> Series:
    """Expand num(x)/den(x) to `order`; den(0) must be nonzero.

    num/den are dense rational coefficient lists, constant term first.  Both
    are cleared to integer vectors P/u and Q/v, so num/den = (v/u)·P/Q, and
    P/Q runs the recurrence Q_0·o_k = P_k - sum_j Q_j·o_{k-j} over one
    running denominator, as in fps_pow_rational.
    """
    if not den or den[0] == 0:
        raise DenominatorVanishesAtZero("den(0) = 0 in fps_expand_ratfun")
    P = Series(num or [0])
    Q = Series(den)
    ps, qs, q0 = P.nums, Q.nums[1:], Q.nums[0]
    fs, d = [], 1
    for k in range(order + 1):
        s = (ps[k] * d if k < len(ps) else 0) - sum(map(mul, qs, fs[::-1]))
        g = gcd(s, q0)
        t = q0 // g
        if t < 0:
            t, g = -t, -g
        if t != 1:
            fs = [f * t for f in fs]
            d *= t
        fs.append(s // g)
    return _series([f * Q.den for f in fs], d * P.den)
