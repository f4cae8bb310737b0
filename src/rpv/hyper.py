"""Hypergeometric coefficient families and certified numeric summation.

Four exact coefficient streams cover the whole catalog:

* hyper3F2(s):   t_n = (1/2)_n (s)_n (1-s)_n / (1)_n^3
* square2F1(s):  Cauchy square of the 2F1(s, 1-s; 1) stream
* convCentral(s): Cauchy product of the 2F1(1/2, s; 1; -4x) and
                  2F1(1/2, 1-s; 1; -4x) streams
* domb:          t_n = C(2n,n) * sum_k C(2k,k) C(n,k)^2, i.e. C(2n,n) times
                 OEIS A002893 (not the Domb numbers A002895; the name is kept
                 because catalog data and certificates use it)

Each family is one row of _FAMILIES: its three-term recurrence

    (n+1)^3 t_{n+1} = P(n) t_n + Q(n) t_{n-1},    t_0 = 1,

with

    family          P(n)                          Q(n)
    hyper3F2(s)     (2n+1)(n+s)(n+1-s)/2          0
    square2F1(s)    (2n+1)(n^2+n+2s(1-s))         -n(n-1+2s)(n+1-2s)
    convCentral(s)  -2(2n+1)(2n^2+2n+1)           -4n(2n-1+2s)(2n+1-2s)
    domb            2(2n+1)(10n^2+10n+3)          -36n(2n-1)(2n+1)

and its envelope |t_n| <= (n+1)^deg * R^n, proved in the row's comment for
0 < s < 1, the range parse_family accepts.  The recurrence, cleared to
integer cubics at z = 1 (clear_recurrence), generates the stream as integer
numerators over running products of D(n), with no Fraction per term
(_extend), and the envelope bounds tails (family_envelope).
The definitions above are the test oracle; tests/test_hyper.py also proves
each recurrence (the differential operator theta^3 - x P(theta) - x^2 Q(theta+1)
annihilates the generating function, and a WZ certificate for domb).

Numeric summation (eval_numeric) adds up the first N terms exactly and
bounds the rest.  The same recurrence, with its denominators and z = u/v
cleared (clear_recurrence), is handed to numerics.split_range, the
engine's one integer binary split (Haible & Papanikolaou, ANTS 1998; the
pi oracle's arctangents run on it too) of the step on (w_n, w_{n-1}, S_n),
w_n = t_n z^n: the partial sum comes out as one integer pair T/Q, without
a Fraction per term.  sum_terms takes any recurrence in family_recurrence's
form and returns that pair unreduced, and BigApprox.from_partial_sum floors
it as given; every sum that becomes a BigApprox goes this way (eval_numeric,
gauss_half_check and special's Sun 2.11 head and Sun 4.14 sum), while
binsplit.pi_digits splits clear_recurrence(family_recurrence(fam), z)
itself.  A first-order recurrence (hyper3F2) carries a scalar P, the others
a 2x2 block.  N is the first power of two from 16 whose exact
geometric-type tail bound from the envelope is below 10^-(digits+3), and
the returned BigApprox error bound includes it.  Summation outside
|z|*R < 1 raises DivergentInput — such entries are handled by
certificates, never by summation.
"""

import functools
import math
from fractions import Fraction as QQ
from typing import NamedTuple

from .errors import DivergentInput, ParseError
from .fps import Series, _series, fps_mul
from .numerics import BigApprox, RadConst, format_rational, parse_rational, pi_oracle
from .numerics import _show_literal, prec_for_digits, rad_to_bigapprox, sin_pi, split_range
from .poly import poly, poly_mul

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
        if l <= 0 and l.denominator == 1:
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

class CoeffFamily(NamedTuple):
    kind: str  # a key of _FAMILIES
    s: object  # rational; QQ(0) for a family without s (unused)

    def __str__(self) -> str:
        if not takes_s(self.kind):
            return self.kind
        return f"{self.kind}:{format_rational(self.s)}"


def hyper3F2(s) -> CoeffFamily:
    return CoeffFamily("hyper3F2", QQ(s))


def square2F1(s) -> CoeffFamily:
    return CoeffFamily("square2F1", QQ(s))


def convCentral(s) -> CoeffFamily:
    return CoeffFamily("convCentral", QQ(s))


def domb() -> CoeffFamily:
    return CoeffFamily("domb", QQ(0))


def takes_s(kind: str) -> bool:
    """Whether family `kind` is written kind:s (false for an unknown kind)."""
    return kind in _FAMILIES and _FAMILIES[kind][2]


def parse_family(text: str) -> CoeffFamily:
    """Parse kind:s for a family that takes s, or the bare kind of one that does not."""
    kind, colon, stext = text.strip().partition(":")
    if kind not in _FAMILIES or (not stext if takes_s(kind) else colon):
        raise ParseError(f"unknown coefficient family: {_show_literal(text)}")
    if not takes_s(kind):
        return CoeffFamily(kind, QQ(0))
    value = parse_rational(stext)
    if not 0 < value < 1:  # the envelope proofs need 0 <= s <= 1
        raise ParseError(f"family parameter must lie in (0, 1): {_show_literal(text)}")
    return CoeffFamily(kind, value)


# --- one row per family: kind -> (R, deg, takes s, recurrence) -----------
#
# recurrence(s) is (P, Q) as in family_recurrence, and each row's comment
# proves |t_n| <= (n+1)^deg * R^n.  The proofs that use s need 0 <= s <= 1
# (for |(q)_k| <= k!, q = s or 1 - s too), so parse_family refuses every
# other s; a family that does not take s is written without it.

def _poly_prod(c, *factors) -> tuple:
    """c times the product of the given polynomials in n (low degree first)."""
    out = poly([c])
    for f in factors:
        out = poly_mul(out, poly(f))
    return out


_FAMILIES = {
    # (n+s)(n+1-s) = n^2+n+s(1-s) <= (n+1/2)^2, so the term ratio
    # (n+1/2)(n+s)(n+1-s)/(n+1)^3 < 1 and t_n <= 1.
    "hyper3F2": (1, 0, True, lambda s: (_poly_prod(QQ(1, 2), (1, 2), (s, 1), (1 - s, 1)), ())),
    # each 2F1(s,1-s;1) coefficient is <= 1 by the same bound, so the Cauchy
    # square is <= n+1.
    "square2F1": (1, 1, True, lambda s: (
        _poly_prod(1, (1, 2), (2 * s * (1 - s), 1, 1)),
        _poly_prod(-1, (0, 1), (2 * s - 1, 1), (1 - 2 * s, 1)),
    )),
    # |(-4)^k (1/2)_k (q)_k / k!^2| <= 4^k, so |t_n| <= (n+1) 4^n.
    "convCentral": (4, 1, True, lambda s: (
        _poly_prod(-2, (1, 2), (1, 2, 2)),
        _poly_prod(-4, (0, 1), (2 * s - 1, 2), (1 - 2 * s, 2)),
    )),
    # sum_k C(2k,k) C(n,k)^2 <= 4^n sum C(n,k)^2 = 4^n C(2n,n) <= 16^n, times
    # C(2n,n) <= 4^n gives 64^n.
    "domb": (64, 0, False, lambda s: (
        _poly_prod(2, (1, 2), (3, 10, 10)),
        _poly_prod(-36, (0, 1), (-1, 2), (1, 2)),
    )),
}


@functools.cache
def family_recurrence(fam: CoeffFamily) -> tuple[tuple, tuple]:
    """(P, Q) with (n+1)^3 t_{n+1} = P(n) t_n + Q(n) t_{n-1} and t_0 = 1.

    Cached: each sum and stream extension asks for it, and building it in
    rationals costs more than a short split."""
    return _FAMILIES[fam.kind][3](fam.s)


def family_envelope(fam: CoeffFamily) -> tuple[int, int]:
    """(R, deg) with |t_n| <= (n+1)^deg * R^n."""
    return _FAMILIES[fam.kind][:2]


def clear_recurrence(rec, z) -> tuple[tuple, tuple, tuple]:
    """(A, B, D), integer cubics in n (low degree first) with

        D(n) w_{n+1} = A(n) w_n + B(n) w_{n-1}

    for the terms w_n = t_n z^n of a stream whose rec = (P, Q) is in
    family_recurrence's form, multiplied by d v^k: z = u/v, d clears the
    denominators of P and Q and k is the order (1 when Q = (), and then
    B = ()).  So A = u v^(k-1) d P, B = u^2 d Q and D = v^k d (n+1)^3.
    """
    P, Q = rec
    z = QQ(z)
    u, v = z.numerator, z.denominator
    d = math.lcm(*(c.denominator for c in P + Q))
    k = 2 if Q else 1
    return (
        tuple(u * v ** (k - 1) * (c * d).numerator for c in P),
        tuple(u * u * (c * d).numerator for c in Q),
        tuple(v**k * d * c for c in (1, 3, 3, 1)),
    )


_stream_cache: dict = {}


def _cubic(c, n: int) -> int:
    return c[0] + n * (c[1] + n * (c[2] + n * c[3]))


def _extend(fam: CoeffFamily, n: int) -> tuple[list, list]:
    """(us, dens), the family's stream extended in place to index n, with
    t_k = us[k] / dens[k].  The step is clear_recurrence at z = 1, on
    integers: dens[k] = prod_{j<k} D(j), us[k] = t_k dens[k] and

        us[k+1] = A(k) us[k] + B(k) D(k-1) us[k-1].
    """
    us, dens = _stream_cache.setdefault(fam, ([1], [1]))
    if len(us) <= n:
        A, B, D = clear_recurrence(family_recurrence(fam), 1)
        for k in range(len(us) - 1, n):
            u = _cubic(A, k) * us[k]
            if B and k:
                u += _cubic(B, k) * _cubic(D, k - 1) * us[k - 1]
            us.append(u)
            dens.append(dens[k] * _cubic(D, k))
    return us, dens


def coeff(fam: CoeffFamily, n: int):
    """Exact n-th coefficient of the family stream."""
    if n < 0:
        raise ValueError("n must be >= 0")
    us, dens = _extend(fam, n)
    return QQ(us[n], dens[n])


def family_series(fam: CoeffFamily, order: int) -> Series:
    """sum t_n y^n as a formal series in y, to `order`."""
    us, dens = _extend(fam, order)
    top = dens[order]
    return _series([u * (top // d) for u, d in zip(us, dens[: order + 1])], top)


def edge(fam: CoeffFamily, z):
    """|z| times the envelope radius R; < 1 means provably summable."""
    R, _ = family_envelope(fam)
    return abs(QQ(z)) * R


def converges(fam: CoeffFamily, z) -> bool:
    """Provable absolute convergence of sum (a+bn) t_n z^n via the envelope."""
    return edge(fam, z) < 1


# --- exact geometric-polynomial tails -----------------------------------

def _tail_power_sum(j: int, r, N: int):
    """r^-N sum_{n>=N} n^j r^n for j in {0,1,2}, exactly (0 < r < 1).

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
    raise ValueError("tail power sums implemented for j <= 2")


def tail_bound(fam: CoeffFamily, a, b, z, N: int):
    """Exact upper bound for | sum_{n>=N} (a+bn) t_n z^n |."""
    _, deg = family_envelope(fam)
    r = edge(fam, z)
    if r >= 1:
        raise DivergentInput(f"family {fam} at z = {z} is outside the envelope")
    if r == 0:
        return QQ(0)
    aa, bb = abs(QQ(a)), abs(QQ(b))
    # (aa + bb n)(n+1)^deg expanded into powers of n
    weights = {0: aa, 1: bb} if deg == 0 else {0: aa, 1: aa + bb, 2: bb}
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
    tail = tail_bound(fam, a, b, z, N)
    while tail * target_den >= target_num:
        N *= 2
        if N > 1 << 22:  # unreachable for catalog inputs; safety valve
            raise DivergentInput(f"tail does not certify for {fam} at z = {z}")
        tail = tail_bound(fam, a, b, z, N)
    num, den = sum_terms(family_recurrence(fam), a, b, z, N)
    return BigApprox.from_partial_sum(num, den, tail, prec_for_digits(digits))


def against_pi(value: BigApprox, target, digits: int) -> tuple:
    """(lhs, rhs, passed, digits_agreed) for the claim value = target/pi.

    lhs is value times the pi oracle and rhs the exact radical target, both
    at digits + 5 working digits; passed asks them to agree to `digits`.  A
    target off the exact table comes as a BigApprox already at that precision.
    """
    prec = prec_for_digits(digits + 5)
    lhs = value.rescale(prec) * pi_oracle(digits + 5).rescale(prec)
    rhs = rad_to_bigapprox(target, prec) if isinstance(target, RadConst) else target
    return lhs, rhs, lhs.agrees_to(rhs, digits), lhs.digits_agreed(rhs)


def two_sin_pi(s, digits: int):
    """2 sin(pi s) as an against_pi target at `digits`: an exact RadConst on
    the sin table, else a BigApprox at prec_for_digits(digits + 5)."""
    work = digits + 5
    sin_val = sin_pi(s, work)
    if isinstance(sin_val, RadConst):
        return sin_val.scale(2)
    return sin_val.rescale(prec_for_digits(work)).mul_int(2)


def sum_terms(rec, a, b, z, N: int) -> tuple[int, int]:
    """(num, den) with num/den = sum_{n<N} (a+bn) t_n z^n exactly (N >= 1)
    and den > 0, for the stream t of rec = (P, Q) in family_recurrence's
    form: split_range over clear_recurrence(rec, z), with a, b scaled to
    integers by L, gives (T, Q L).  The pair is not reduced."""
    if N < 1:
        raise ValueError("sum_terms needs N >= 1")
    a, b = QQ(a), QQ(b)
    L = math.lcm(a.denominator, b.denominator)
    node = split_range(clear_recurrence(rec, z), (a * L).numerator, (b * L).numerator, 0, N, False)
    return node.T, node.Q * L


# ============================================================
# reports; the Clausen and Gauss-at-1/2 checks
# ============================================================

class Report:
    """The one to_json of the reports the CLI emits as canonical JSON.

    A report is a NamedTuple whose body binds `to_json = Report.to_json`,
    since a NamedTuple cannot subclass Report too.  to_json walks the
    record's _fields in order and derives each key from the field name:
    `passed` becomes "pass" and snake_case becomes camelCase, unless the
    class's key map `_keys` (field name -> key) names it.  Rationals are
    rendered by format_rational and RadConsts by repr.
    """

    def to_json(self) -> dict:
        out = {}
        keys = getattr(self, "_keys", {})
        for name in self._fields:
            head, *rest = ["pass"] if name == "passed" else name.split("_")
            value = getattr(self, name)
            if isinstance(value, RadConst):
                value = repr(value)
            elif isinstance(value, QQ):
                value = format_rational(value)
            out[keys.get(name, head + "".join(w.title() for w in rest))] = value
        return out


class CheckReport(NamedTuple):
    passed: bool
    detail: str
    first_mismatch: int | None = None
    digits_agreed: int | None = None


def compare_series(lhs: Series, rhs: Series, order: int) -> CheckReport:
    """The verdict on two series claimed equal to `order`: a pass, or the
    first index at which their coefficients differ."""
    miss = lhs.first_mismatch(rhs)
    if miss is None:
        return CheckReport(True, f"series agree to order {order}")
    return CheckReport(
        False, f"first coefficient mismatch at index {miss}", first_mismatch=miss
    )


def clausen_check(a, b, order: int = 32) -> CheckReport:
    """2F1(a,b; a+b+1/2; x)^2 == 3F2(2a, 2b, a+b; a+b+1/2, 2a+2b; x) to order."""
    a, b = QQ(a), QQ(b)
    f = hyper_series([a, b], [a + b + QQ(1, 2)], order)
    lhs = fps_mul(f, f)
    rhs = hyper_series([2 * a, 2 * b, a + b], [a + b + QQ(1, 2), 2 * a + 2 * b], order)
    return compare_series(lhs, rhs, order)


def gauss_half_check(s, digits: int = 30) -> CheckReport:
    """s(1-s) F(s,1-s;1;1/2) F(s+1,2-s;2;1/2) == 2 sin(pi s)/pi to `digits`.

    With F = 2F1(s,1-s;1;x) = sum f_n x^n, the derivative identity
    F' = s(1-s) F(s+1,2-s;2;.) holds term for term, so the left side is
    F(1/2) F'(1/2) = 2 S_0 S_1, S_j = sum n^j f_n 2^-n.  Both sums are
    sum_terms over (n+1)^3 f_{n+1} = (n+s)(n+1-s)(n+1) f_n, with the
    weights (1, 0) and (0, 1); 0 < f_n <= 1 bounds their tails t_0, t_1
    after N terms by 2^(1-N) and (N+1) 2^(1-N), and the partial sums by
    S_0, S_1 <= 2, so 2 S_0 S_1 is exact up to 2 (2 t_1 + 2 t_0 + t_0 t_1).
    It is checked by against_pi.
    """
    s = QQ(s)
    if not (0 < s < 1):
        raise ValueError("gauss_half_check requires 0 < s < 1")
    rec = (_poly_prod(1, (s, 1), (1 - s, 1), (1, 1)), ())
    N = 16
    while (N + 1) * 10 ** (digits + 8) >= 2 ** (N - 1):
        N += 16
    (n0, d0), (n1, d1) = sum_terms(rec, 1, 0, QQ(1, 2), N), sum_terms(rec, 0, 1, QQ(1, 2), N)
    t0, t1 = QQ(2, 2**N), QQ(2 * N + 2, 2**N)
    tail = 2 * (2 * t1 + 2 * t0 + t0 * t1)
    value = BigApprox.from_partial_sum(2 * n0 * n1, d0 * d1, tail, prec_for_digits(digits + 5))
    target = two_sin_pi(s, digits)
    *_, ok, agreed = against_pi(value, target, digits)
    return CheckReport(
        ok,
        f"lhs and rhs agree to {agreed} digits (exact sin branch: {isinstance(target, RadConst)})",
        digits_agreed=agreed,
    )
