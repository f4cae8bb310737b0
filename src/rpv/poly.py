"""Dense rational polynomials, rational functions, and rational roots.

Polynomials are tuples of Fractions, constant term first, with the
trailing zeros trimmed (the zero polynomial is the empty tuple).  This is the
shared building block for transformation-rule data (argument maps A, C and
prefactor bases) and for binary-splitting term ratios.
"""

from __future__ import annotations

from fractions import Fraction as QQ

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


def poly_degree(p: tuple) -> int:
    """Degree with deg(0) = -1."""
    return len(p) - 1


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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _deflate(p: tuple, root) -> tuple:
    """Divide p by (x - root); p(root) must be 0."""
    out = [QQ(0)] * (len(p) - 1)
    carry = QQ(0)
    for k in range(len(p) - 1, 0, -1):
        carry = p[k] + carry * root
        out[k - 1] = carry
    return poly(out)


def rational_roots(p: tuple) -> tuple[list, int]:
    """All rational roots (with multiplicity collapsed) of p, plus the count
    of remaining non-rational roots.

    Candidates are enumerated from divisors of the integerized constant and
    leading coefficients (the classical rational-root test), verified by exact
    evaluation, and deflated out so multiplicities are accounted for.
    """
    p = poly(p)
    if not p:
        raise ValueError("rational_roots of the zero polynomial")
    roots = []
    # strip zero roots
    while p[0] == 0 and len(p) > 1:
        if QQ(0) not in roots:
            roots.append(QQ(0))
        p = p[1:]
    if poly_degree(p) >= 1:
        from math import lcm

        scale = lcm(*(c.denominator for c in p))
        ip = [c.numerator * (scale // c.denominator) for c in p]
        lead, const = ip[-1], ip[0]
        cands = set()
        for a in _divisors(const):
            for b in _divisors(lead):
                cands.add(QQ(a, b))
                cands.add(QQ(-a, b))
        for cand in sorted(cands):
            while poly_degree(p) >= 1 and poly_eval(p, cand) == 0:
                if cand not in roots:
                    roots.append(cand)
                p = _deflate(p, cand)
    return sorted(roots), max(poly_degree(p), 0)
