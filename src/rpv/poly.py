"""Dense rational polynomials, rational functions, and rational roots.

Polynomials are tuples of Fractions, constant term first, with the
trailing zeros trimmed (the zero polynomial is the empty tuple).  This is the
shared building block for transformation-rule data (argument maps A, C and
prefactor bases) and for binary-splitting term ratios.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import lcm

from .errors import SingularPoint


def poly(coeffs) -> tuple:
    out = [QQ(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: tuple, x):
    acc = QQ(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: tuple) -> tuple:
    return poly([k * c for k, c in enumerate(p)][1:] or [0])


def poly_add(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return poly(
        [
            (p[k] if k < len(p) else QQ(0)) + (q[k] if k < len(q) else QQ(0))
            for k in range(n)
        ]
    )


def poly_scale(p: tuple, c) -> tuple:
    c = QQ(c)
    return poly([c * a for a in p])


def poly_sub(p: tuple, q: tuple) -> tuple:
    return poly_add(p, poly_scale(q, -1))


def poly_mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [QQ(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


class RatFun:
    """num/den with nonzero den; no common-factor normalization is attempted."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        n, d = poly(num), poly(den)
        if not d:
            raise ZeroDivisionError("RatFun with zero denominator")
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    def __call__(self, x):
        dv = poly_eval(self.den, x)
        if dv == 0:
            raise SingularPoint(f"denominator vanishes at x = {x}")
        return poly_eval(self.num, x) / dv

    def derivative_at(self, x):
        """(num/den)'(x) by the quotient rule, exactly."""
        dv = poly_eval(self.den, x)
        if dv == 0:
            raise SingularPoint(f"denominator vanishes at x = {x}")
        nv = poly_eval(self.num, x)
        ndv = poly_eval(poly_derivative(self.num), x)
        ddv = poly_eval(poly_derivative(self.den), x)
        return (ndv * dv - nv * ddv) / (dv * dv)

    def __repr__(self):
        return f"RatFun(num={list(self.num)}, den={list(self.den)})"


def _divmod(p: tuple, q: tuple) -> tuple:
    """(quotient, remainder) of p by a nonzero q over Q."""
    r, quo = list(p), [QQ(0)] * max(len(p) - len(q) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = QQ(r[k + len(q) - 1]) / q[-1]
        for j, b in enumerate(q):
            r[k + j] -= c * b
    return poly(quo), poly(r)


def _cleared(p) -> list:
    """p times the lcm of its denominators: integers with the same signs."""
    den = lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p]


def rational_roots(p: tuple) -> tuple[list, int]:
    """The distinct rational roots of p, sorted, and the count of roots left
    once those are divided out with multiplicity.

    Bisection of Cauchy's bound by the Sturm chain of p / gcd(p, p') isolates
    the real roots.  A rational root's denominator divides L, the lead of p
    cleared to integers, so an interval of width 1/S <= 1/(2 L^2) holds at
    most one; limit_denominator(L) finds it and exact evaluation decides it.
    In y = S x the chain is integers, evaluated at integers by Horner.
    """
    p = poly(p)
    if not p:
        raise ValueError("rational_roots of the zero polynomial")
    g, h = p, poly_derivative(p)  # g becomes gcd(p, p')
    while h:
        g, h = h, _divmod(g, h)[1]
    chain = [sqf := _divmod(p, g)[0], poly_derivative(sqf)]
    while len(chain[-1]) > 1:
        chain.append(poly_scale(_divmod(chain[-2], chain[-1])[1], -1))
    L = abs(_cleared(p)[-1])
    S = 1 << (2 * L * L).bit_length()
    cauchy = 2 + int(max((abs(c / p[-1]) for c in p[:-1]), default=0))
    B = S << cauchy.bit_length()  # every root has |y| < B
    ints = [_cleared([c / S**k for k, c in enumerate(q)]) for q in chain]

    def changes(y):
        signs = []
        for q in ints:
            v = 0
            for c in reversed(q):
                v = v * y + c
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # a set: a root at a bisection point can be the next interval's candidate
    roots, todo = set(), [(-B, changes(-B), B, changes(B))]
    while todo:
        lo, vlo, hi, vhi = todo.pop()
        if vlo != vhi and hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(lo, vlo, mid, vmid := changes(mid)), (mid, vmid, hi, vhi)]
        elif vlo != vhi and poly_eval(p, x := QQ(hi, S).limit_denominator(L)) == 0:
            roots.add(x)
    for x in roots:
        while poly_eval(p, x) == 0:
            p = _divmod(p, (-x, 1))[0]
    return sorted(roots), len(p) - 1
