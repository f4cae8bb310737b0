"""Hypergeometric coefficient families and certified numeric summation.

Four exact coefficient streams cover the whole catalog:

* hyper3F2(s):   t_n = (1/2)_n (s)_n (1-s)_n / (1)_n^3
* square2F1(s):  Cauchy square of the 2F1(s, 1-s; 1) stream
* convCentral(s): Cauchy product of the 2F1(1/2, s; 1; -4x) and
                  2F1(1/2, 1-s; 1; -4x) streams
* domb:          t_n = C(2n,n) * sum_k C(2k,k) C(n,k)^2, i.e. C(2n,n) times
                 OEIS A002893 (not the Domb numbers A002895; the name is kept
                 because catalog data and certificates use it)

Every stream is generated from one three-term recurrence (family_recurrence)

    (n+1)^3 t_{n+1} = P(n) t_n + Q(n) t_{n-1},    t_0 = 1,

with

    family          P(n)                          Q(n)
    hyper3F2(s)     (2n+1)(n+s)(n+1-s)/2          0
    square2F1(s)    (2n+1)(n^2+n+2s(1-s))         -n(n-1+2s)(n+1-2s)
    convCentral(s)  -2(2n+1)(2n^2+2n+1)           -4n(2n-1+2s)(2n+1-2s)
    domb            2(2n+1)(10n^2+10n+3)          -36n(2n-1)(2n+1)

The definitions above are the test oracle; tests/test_hyper.py also proves
each recurrence (the differential operator theta^3 - x P(theta) - x^2 Q(theta+1)
annihilates the generating function, and a WZ certificate for domb).

Numeric summation is certified through explicit coefficient envelopes
|t_n| <= (n+1)^deg * R^n (proved in the docstrings of _ENVELOPES), which give
exact geometric-type tail bounds; the returned BigApprox error bound includes
the tail.  Summation outside |z|*R < 1 raises DivergentInput — such entries
are handled by certificates, never by summation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import QQ, qq_den, qq_num
from .errors import DivergentInput, ParseError
from .fps import Series
from .numerics import BigApprox, prec_for_digits, pi_oracle, rad_to_bigapprox, sin_pi
from .numerics import RadConst
from .poly import poly, poly_eval, poly_mul

# ============================================================
# Pochhammer and generic hypergeometric streams
# ============================================================

def pochhammer(a, n: int):
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    a = QQ(a)
    out = QQ(1)
    for k in range(n):
        out *= a + k
    return out


def hyper_series(upper, lower, order: int) -> Series:
    """Series of pFq(upper; lower; x) to `order` (an extra n! is implicit)."""
    upper = [QQ(u) for u in upper]
    lower = [QQ(l) for l in lower]
    for l in lower:
        if l <= 0 and qq_den(l) == 1:
            raise ValueError(f"nonpositive integer lower parameter {l}")
    cs = [QQ(1)]
    for n in range(order):
        c = cs[-1]
        for u in upper:
            c *= u + n
        for l in lower:
            c /= l + n
        c /= n + 1
        cs.append(c)
    return Series(cs)


# ============================================================
# coefficient families
# ============================================================

@dataclass(frozen=True)
class CoeffFamily:
    kind: str  # hyper3F2 | square2F1 | convCentral | domb
    s: object  # rational; QQ(0) for domb (unused)

    def __str__(self) -> str:
        if self.kind == "domb":
            return "domb"
        from .numerics import format_rational

        return f"{self.kind}:{format_rational(self.s)}"


def hyper3F2(s) -> CoeffFamily:
    return CoeffFamily("hyper3F2", QQ(s))


def square2F1(s) -> CoeffFamily:
    return CoeffFamily("square2F1", QQ(s))


def convCentral(s) -> CoeffFamily:
    return CoeffFamily("convCentral", QQ(s))


def domb() -> CoeffFamily:
    return CoeffFamily("domb", QQ(0))


def parse_family(text: str) -> CoeffFamily:
    s = text.strip()
    if s == "domb":
        return domb()
    kind, _, stext = s.partition(":")
    if kind not in ("hyper3F2", "square2F1", "convCentral") or not stext:
        raise ParseError(f"unknown coefficient family: {text!r}")
    from .numerics import parse_rational

    return CoeffFamily(kind, parse_rational(stext))


# --- cached streams ----------------------------------------------------

_stream_cache: dict = {}


def _cache_key(fam: CoeffFamily):
    return (fam.kind, qq_num(fam.s), qq_den(fam.s))


def _poly_prod(c, *factors) -> tuple:
    """c times the product of the given polynomials in n (low degree first)."""
    out = poly([c])
    for f in factors:
        out = poly_mul(out, poly(f))
    return out


def family_recurrence(fam: CoeffFamily) -> tuple[tuple, tuple]:
    """(P, Q) with (n+1)^3 t_{n+1} = P(n) t_n + Q(n) t_{n-1} and t_0 = 1."""
    s = fam.s
    if fam.kind == "hyper3F2":
        return _poly_prod(QQ(1, 2), (1, 2), (s, 1), (1 - s, 1)), ()
    if fam.kind == "square2F1":
        return (
            _poly_prod(1, (1, 2), (2 * s * (1 - s), 1, 1)),
            _poly_prod(-1, (0, 1), (2 * s - 1, 1), (1 - 2 * s, 1)),
        )
    if fam.kind == "convCentral":
        return (
            _poly_prod(-2, (1, 2), (1, 2, 2)),
            _poly_prod(-4, (0, 1), (2 * s - 1, 2), (1 - 2 * s, 2)),
        )
    if fam.kind == "domb":
        return _poly_prod(2, (1, 2), (3, 10, 10)), _poly_prod(-36, (0, 1), (-1, 2), (1, 2))
    raise ParseError(f"unknown family kind {fam.kind!r}")


def _extend(fam: CoeffFamily, n: int) -> list:
    cache = _stream_cache.setdefault(_cache_key(fam), [QQ(1)])
    if len(cache) > n:
        return cache
    P, Q = family_recurrence(fam)
    while len(cache) <= n:
        k = len(cache) - 1
        t = poly_eval(P, k) * cache[k]
        if Q and k:
            t += poly_eval(Q, k) * cache[k - 1]
        cache.append(t / (k + 1) ** 3)
    return cache


def coeff(fam: CoeffFamily, n: int):
    """Exact n-th coefficient of the family stream."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _extend(fam, n)[n]


def family_series(fam: CoeffFamily, order: int) -> Series:
    """sum t_n y^n as a formal series in y, to `order`."""
    return Series(_extend(fam, order)[: order + 1])


# --- envelopes: |t_n| <= (n+1)^deg * R^n --------------------------------
#
# hyper3F2:    (n+s)(n+1-s) = n^2+n+s(1-s) <= (n+1/2)^2, so the term ratio
#              (n+1/2)(n+s)(n+1-s)/(n+1)^3 < 1 and t_n <= 1.
# square2F1:   each 2F1(s,1-s;1) coefficient is <= 1 by the same bound, so
#              the Cauchy square is <= n+1.
# convCentral: |(-4)^k (1/2)_k (q)_k / k!^2| <= 4^k, so |t_n| <= (n+1) 4^n.
# domb:        sum_k C(2k,k) C(n,k)^2 <= 4^n sum C(n,k)^2 = 4^n C(2n,n)
#              <= 16^n, times C(2n,n) <= 4^n gives 64^n.

_ENVELOPES = {
    "hyper3F2": (1, 0),
    "square2F1": (1, 1),
    "convCentral": (4, 1),
    "domb": (64, 0),
}


def family_envelope(fam: CoeffFamily) -> tuple[int, int]:
    """(R, deg) with |t_n| <= (n+1)^deg * R^n."""
    return _ENVELOPES[fam.kind]


def converges(fam: CoeffFamily, z) -> bool:
    """Provable absolute convergence of sum (a+bn) t_n z^n via the envelope."""
    R, _ = family_envelope(fam)
    return abs(QQ(z)) * R < 1


# --- exact geometric-polynomial tails -----------------------------------

def _tail_power_sum(j: int, r, N: int):
    """r^-N sum_{n>=N} n^j r^n for j in {0,1,2,3}, exactly (0 < r < 1).

    The factor r^N is left out: its denominator is as long as the digit run,
    so tail_bound multiplies by it once, after the small brackets are summed.
    """
    one = 1 - r
    if j == 0:
        return 1 / one
    if j == 1:
        return QQ(N) / one + r / one**2
    if j == 2:
        return QQ(N * N) / one + (2 * N + 1) * r / one**2 + 2 * r**2 / one**3
    if j == 3:
        return (
            QQ(N**3) / one
            + (3 * N * N + 3 * N + 1) * r / one**2
            + (6 * N + 6) * r**2 / one**3
            + 6 * r**3 / one**4
        )
    raise ValueError("tail power sums implemented for j <= 3")


def tail_bound(fam: CoeffFamily, a, b, z, N: int):
    """Exact upper bound for | sum_{n>=N} (a+bn) t_n z^n |."""
    R, deg = family_envelope(fam)
    r = abs(QQ(z)) * R
    if r >= 1:
        raise DivergentInput(f"family {fam} at z = {z} is outside the envelope")
    if r == 0:
        return QQ(0)
    aa, bb = abs(QQ(a)), abs(QQ(b))
    # (aa + bb n)(n+1)^deg expanded into powers of n
    if deg == 0:
        weights = {0: aa, 1: bb}
    else:  # deg == 1
        weights = {0: aa, 1: aa + bb, 2: bb}
    return r**N * sum(w * _tail_power_sum(j, r, N) for j, w in weights.items() if w)


# ============================================================
# certified numeric evaluation
# ============================================================

def eval_numeric(fam: CoeffFamily, a, b, z, digits: int) -> BigApprox:
    """sum_{n>=0} (a+bn) t_n z^n with certified errBound < 10^-digits.

    Requires |z| strictly inside the envelope radius, else DivergentInput.
    """
    a, b, z = QQ(a), QQ(b), QQ(z)
    if not converges(fam, z):
        raise DivergentInput(
            f"series for family {fam} at z = {z} cannot be summed directly"
        )
    target_num, target_den = 1, 10 ** (digits + 3)
    N = 16
    while tail_bound(fam, a, b, z, N) * target_den >= target_num:
        N *= 2
        if N > 1 << 22:  # unreachable for catalog inputs; safety valve
            raise DivergentInput(f"tail does not certify for {fam} at z = {z}")
    ts = _extend(fam, N)
    total = QQ(0)
    zp = QQ(1)
    for n in range(N):
        total += (a + b * n) * ts[n] * zp
        zp *= z
    return BigApprox.from_partial_sum(
        total, tail_bound(fam, a, b, z, N), prec_for_digits(digits)
    )


# ============================================================
# Clausen and Gauss-at-1/2 checks
# ============================================================

@dataclass(frozen=True)
class CheckReport:
    passed: bool
    detail: str
    first_mismatch: int | None = None
    digits_agreed: int | None = None


def clausen_check(a, b, order: int = 32) -> CheckReport:
    """2F1(a,b; a+b+1/2; x)^2 == 3F2(2a, 2b, a+b; a+b+1/2, 2a+2b; x) to order."""
    a, b = QQ(a), QQ(b)
    f = hyper_series([a, b], [a + b + QQ(1, 2)], order)
    from .fps import fps_mul

    lhs = fps_mul(f, f)
    rhs = hyper_series([2 * a, 2 * b, a + b], [a + b + QQ(1, 2), 2 * a + 2 * b], order)
    miss = lhs.first_mismatch(rhs)
    if miss is None:
        return CheckReport(True, f"coefficients equal to order {order}")
    return CheckReport(False, f"first mismatch at index {miss}", first_mismatch=miss)


def _eval_2f1_half(alpha, beta, gamma, z, digits: int, prec: int) -> BigApprox:
    """2F1(alpha,beta;gamma;z) for |z| <= 1/2 and parameters <= 2 in size.

    Term ratio is bounded by (n+2)/(n+1)*|z| <= 3/4 for n >= 2, giving a
    geometric tail; summation is exact until terms drop below target.
    """
    alpha, beta, gamma, z = QQ(alpha), QQ(beta), QQ(gamma), QQ(z)
    assert abs(z) * 2 <= 1 and max(abs(alpha), abs(beta)) <= 2
    term = QQ(1)
    total = QQ(0)
    n = 0
    bar_num, bar_den = 1, 10 ** (digits + 8)
    while n <= 4 or abs(term) * bar_den >= bar_num:
        total += term
        term = term * (alpha + n) * (beta + n) / ((gamma + n) * (n + 1)) * z
        n += 1
        if n > 100000:  # pragma: no cover - safety valve
            raise DivergentInput("2F1 evaluation did not certify")
    tail = abs(term) * 3  # geometric with ratio <= 3/4: |term|/(1-3/4) <= 4|term|
    tail += abs(term)
    return BigApprox.from_partial_sum(total, tail, prec)


def gauss_half_check(s, digits: int = 30) -> CheckReport:
    """s(1-s) F(s,1-s;1;1/2) F(s+1,2-s;2;1/2) == 2 sin(pi s)/pi to `digits`."""
    s = QQ(s)
    if not (0 < s < 1):
        raise ValueError("gauss_half_check requires 0 < s < 1")
    work = digits + 10
    prec = prec_for_digits(work)
    f1 = _eval_2f1_half(s, 1 - s, QQ(1), QQ(1, 2), work, prec)
    f2 = _eval_2f1_half(s + 1, 2 - s, QQ(2), QQ(1, 2), work, prec)
    lhs = (f1 * f2).mul_rational(s * (1 - s))
    sv = sin_pi(s, digits=work)
    if isinstance(sv, RadConst):
        sb = rad_to_bigapprox(sv, prec)
        exact = True
    else:
        sb = sv.rescale(prec)
        exact = False
    rhs = (sb + sb) / pi_oracle(work).rescale(prec)
    agreed = lhs.digits_agreed(rhs)
    ok = lhs.agrees_to(rhs, digits)
    return CheckReport(
        ok,
        f"lhs and rhs agree to {agreed} digits (exact sin branch: {exact})",
        digits_agreed=agreed,
    )
