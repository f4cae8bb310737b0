"""Truncated formal power series over exact rationals.

The verification substrate: every transformation rule is checked by expanding
both sides to a finite order with exact coefficients and comparing lists.
Truncation order is data, not ambient state — a Series knows its order, and
every operation documents the order of its result (min of the operands unless
stated otherwise).  Coefficients are backend rationals only; radical constants
never appear at the series level (they arise at point evaluation, which lives
in `translate`).
"""

from __future__ import annotations

from math import lcm

from ._backend import QQ
from .errors import (
    DenominatorVanishesAtZero,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
)


class Series:
    """coeffs[k] is the coefficient of x^k; order = len(coeffs) - 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(QQ(c) for c in coeffs)
        if not cs:
            raise ValueError("a Series needs at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([QQ(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([QQ(1)] + [QQ(0)] * order)

    @classmethod
    def x(cls, order: int) -> "Series":
        if order < 1:
            raise ValueError("order must be >= 1 for the identity series")
        return cls([QQ(0), QQ(1)] + [QQ(0)] * (order - 1))

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"Series([{head}{tail}]; order={self.order})"

    def first_mismatch(self, other: "Series"):
        """Index of the first differing coefficient at shared order, or None."""
        n = min(self.order, other.order)
        for k in range(n + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None


def fps_add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series([a.coeffs[k] + b.coeffs[k] for k in range(n + 1)])


def fps_sub(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series([a.coeffs[k] - b.coeffs[k] for k in range(n + 1)])


def fps_scale(a: Series, q) -> Series:
    q = QQ(q)
    return Series([c * q for c in a.coeffs])


def fps_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at the shared order.

    The convolution runs on integer numerators over one common denominator
    per operand, so only the n+1 results pay a Fraction normalisation.
    """
    n = min(a.order, b.order)
    da = lcm(*(c.denominator for c in a.coeffs[: n + 1]))
    db = lcm(*(c.denominator for c in b.coeffs[: n + 1]))
    ia = [c.numerator * (da // c.denominator) for c in a.coeffs[: n + 1]]
    ib = [c.numerator * (db // c.denominator) for c in b.coeffs[: n + 1]]
    return Series(
        [QQ(sum(ia[i] * ib[k - i] for i in range(k + 1)), da * db) for k in range(n + 1)]
    )


def fps_compose(outer: Series, inner: Series) -> Series:
    """outer(inner(x)) at outer's order; inner must have zero constant term."""
    if inner.coeffs[0] != 0:
        raise NonzeroConstantTerm("fps_compose needs inner(0) = 0")
    n = outer.order
    inner = inner.truncate(n) if inner.order > n else inner
    pad = Series(inner.coeffs + (QQ(0),) * (n - inner.order))
    out = Series([outer.coeffs[n]] + [QQ(0)] * n)
    for k in range(n - 1, -1, -1):  # Horner in the inner series
        out = fps_mul(out, pad)
        out = Series((out.coeffs[0] + outer.coeffs[k],) + out.coeffs[1:])
    return out


def fps_pow_rational(base: Series, e) -> Series:
    """base^e for rational e; base must have constant term 1.

    Uses the first-order ODE f'·base = e·base'·f, which gives the recurrence
        n·f_n = sum_{k=1..n} (k·(e+1) - n) · b_k · f_{n-k).
    """
    if base.coeffs[0] != 1:
        raise NonUnitConstantTerm("fps_pow_rational needs constant term 1")
    e = QQ(e)
    n = base.order
    b = base.coeffs
    f = [QQ(1)] + [QQ(0)] * n
    for m in range(1, n + 1):
        acc = QQ(0)
        for k in range(1, m + 1):
            if b[k] != 0:
                acc += (k * (e + 1) - m) * b[k] * f[m - k]
        f[m] = acc / m
    return Series(f)


def fps_theta(a: Series) -> Series:
    """theta = x·d/dx: coefficient n·a_n at index n (order preserved)."""
    return Series([k * c for k, c in enumerate(a.coeffs)])


def fps_expand_ratfun(num, den, order: int) -> Series:
    """Expand num(x)/den(x) to `order`; den(0) must be nonzero.

    num/den are dense rational coefficient lists, constant term first.
    """
    num = [QQ(c) for c in num]
    den = [QQ(c) for c in den]
    if not den or den[0] == 0:
        raise DenominatorVanishesAtZero("den(0) = 0 in fps_expand_ratfun")
    d0 = den[0]
    out = [QQ(0)] * (order + 1)
    for k in range(order + 1):
        acc = num[k] if k < len(num) else QQ(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / d0
    return Series(out)
