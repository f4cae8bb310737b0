"""Starting formula, limit formulas, and the Sun conjecture checks."""

import math
from fractions import Fraction as QQ
from math import comb
from typing import NamedTuple

from .errors import GateRefused, InvariantViolation
from .fps import fps_mul
from .hyper import (
    CheckReport,
    Report,
    against_pi,
    coeff,
    domb,
    eval_numeric,
    family_recurrence,
    family_series,
    hyper3F2,
    hyper_series,
    square2F1,
    sum_terms,
    two_sin_pi,
)
from .numerics import BigApprox, RadConst, format_rational, prec_for_digits, sin_pi
from .poly import RatFun, _divmod, poly, poly_eval, poly_sub
from .transforms import Prefactor, get_rule, verify_rule_formal
from .translate import SeriesSpec, theta_transport, translate


# ============================================================
# starting formula
# ============================================================

class StartReport(NamedTuple):
    to_json = Report.to_json
    s: object  # QQ
    exact_target: bool  # sin(pi s) on the classical radical table?
    passed: bool
    digits_agreed: int
    computed: str
    target: str
    detail: str


def starting_formula(s, digits: int = 30) -> StartReport:
    """Check sum n c_n (1/2)^n = 2 sin(pi s)/pi for the Cauchy-square stream."""
    s = QQ(s)
    if not (0 < s < 1):
        raise ValueError("starting_formula requires 0 < s < 1")
    target = two_sin_pi(s, digits)
    exact = isinstance(target, RadConst)
    value = eval_numeric(square2F1(s), 0, 1, QQ(1, 2), digits + 5)
    lhs, rhs, passed, agreed = against_pi(value, target, digits)
    return StartReport(
        s=s,
        exact_target=exact,
        passed=passed,
        digits_agreed=agreed,
        computed=lhs.to_decimal(digits),
        target=rhs.to_decimal(digits),
        detail=(
            f"sum n c_n (1/2)^n at s = {format_rational(s)} vs 2 sin(pi s)/pi; "
            f"target is {'an exact radical' if exact else 'a certified approximation'}"
        ),
    )


# ============================================================
# central-binomial forms of the starting corollaries
# ============================================================

# s -> (single-stream binomial numerator b_k, stream base B with
# t_k = b_k / B^k); the printed displays use base 2B for the z = 1/2 weight.
_BINOM_FORMS = {
    (1, 2): (lambda k: comb(2 * k, k) ** 2, 16),
    (1, 3): (lambda k: comb(3 * k, k) * comb(2 * k, k), 27),
    (1, 4): (lambda k: comb(4 * k, 2 * k) * comb(2 * k, k), 64),
    (1, 6): (lambda k: comb(6 * k, 3 * k) * comb(3 * k, k), 432),
}


def corollary_binomial_check(s, n_max: int, base: int | None = None) -> CheckReport:
    """Check the central-binomial rewrite of the square2F1(s) stream at z = 1/2.

    For n <= n_max the display term (1/base^n) sum_k b_k b_{n-k} must equal
    c_n (1/2)^n exactly; `base` defaults to the printed value 2B.
    """
    s = QQ(s)
    key = (s.numerator, s.denominator)
    if key not in _BINOM_FORMS:
        raise ValueError(f"no central-binomial form for s = {format_rational(s)}")
    b, stream_base = _BINOM_FORMS[key]
    if base is None:
        base = 2 * stream_base
    fam = square2F1(s)
    bs = [b(k) for k in range(n_max + 1)]
    for n in range(n_max + 1):
        conv = sum(bs[k] * bs[n - k] for k in range(n + 1))
        if QQ(conv, base**n) != coeff(fam, n) * QQ(1, 2**n):
            return CheckReport(
                False,
                f"binomial form with base {base} breaks at n = {n}",
                first_mismatch=n,
            )
    return CheckReport(
        True, f"binomial rewrite exact for n <= {n_max} at base {base}"
    )


# ============================================================
# limit formulas
# ============================================================

class LimitSpec:
    """w(x) * sum n t_n A(x)^n -> target/pi as x -> x_star along `direction`
    ("left" or "right"), for a hyper3F2 family, RatFuns w and A, a rational
    x_star and a RadConst target.  A __slots__ class, not a NamedTuple, so
    that its constructor validates: every spec meets limit_exact's hypotheses."""

    __slots__ = ("family", "weight", "argument", "x_star", "direction", "target")

    def __init__(self, family, weight: RatFun, argument: RatFun, x_star, direction, target):
        values = (family, weight, argument, x_star, direction, target)
        for name, value in zip(LimitSpec.__slots__, values):
            object.__setattr__(self, name, value)
        if self.family.kind != "hyper3F2":
            raise InvariantViolation("limit specs run on the hyper3F2 stream")
        if self.direction not in ("left", "right"):
            raise InvariantViolation(f"bad direction {self.direction!r}")
        if not (self.target.is_real() and not self.target.is_zero()):
            raise InvariantViolation("limit target must be a nonzero real radical")
        if self.weight(QQ(self.x_star)) != 0:
            raise InvariantViolation("weight must vanish at the approach point")
        limit_exact(self)  # the closed form's hypotheses, checked exactly

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LimitSpec is immutable")


def _over_pi(c: RadConst) -> float:
    """A real radical constant c as the float c/pi."""
    return float(QQ(c.r)) * math.sqrt(c.m) / math.pi


def _leading_term(f: RatFun, x) -> tuple:
    """(k, c) with f(X) = c (X - x)^k + O((X - x)^(k+1)) and c != 0, exactly."""
    out = []
    for p in (f.num, f.den):
        if not p:
            raise InvariantViolation("limit spec function is identically zero")
        k = 0
        while poly_eval(p, x) == 0:
            p = _divmod(p, (-x, 1))[0]
            k += 1
        out.append((k, poly_eval(p, x)))
    (kn, cn), (kd, cd) = out
    return kn - kd, cn / cd


class LimitProof(NamedTuple):
    """pi * limit = sign * sin(pi s) * sqrt(L) with L = lim w^2 / (1 - A)."""

    value: RadConst  # pi * limit
    L: object  # QQ, > 0
    weight_order: int  # order of the zero of w at x_star
    gap_order: int  # order of the zero of 1 - A at x_star (= 2 weight_order)
    sin: RadConst  # sin(pi s), from the exact table
    sign: int  # sign of w on the approach side

    def detail(self) -> str:
        return (
            f"Abelian closed form: pi*limit = {'+' if self.sign > 0 else '-'}"
            f"sin(pi s) sqrt(L) = {self.value}, with sin(pi s) = {self.sin} and "
            f"L = lim w^2/(1-A) = {format_rational(self.L)}; w has a zero of "
            f"order {self.weight_order} and 1 - A one of order {self.gap_order}"
        )


def limit_exact(spec: LimitSpec) -> LimitProof:
    """The exact limit of w(x) sum n t_n A(x)^n, as pi * limit, with its proof.

    For hyper3F2(s), n t_n ~ sin(pi s) pi^(-3/2) n^(-1/2) (Gamma-ratio
    asymptotics), so as A -> 1- the Abelian theorem gives
    sum n t_n A^n ~ sin(pi s) / (pi sqrt(1 - A)).  Hence
    pi * limit = sign(w) sin(pi s) sqrt(L), L = lim w^2 / (1 - A), which the
    leading Taylor terms of w and 1 - A at x_star give exactly.  Raises
    InvariantViolation when a hypothesis fails: A(x_star) = +1, L finite and
    > 0 (so A -> 1- on both sides), sin(pi s) on the exact table.
    """
    x = QQ(spec.x_star)
    A = spec.argument
    if A(x) != 1:
        raise InvariantViolation("argument must equal +1 at x_star")
    kw, cw = _leading_term(spec.weight, x)
    kg, cg = _leading_term(RatFun(poly_sub(A.den, A.num), A.den), x)
    if 2 * kw != kg:
        kind = "0" if 2 * kw > kg else "infinite"
        raise InvariantViolation(
            f"lim w^2/(1-A) is {kind}: w vanishes to order {kw}, 1 - A to order {kg}"
        )
    L = cw * cw / cg
    if L <= 0:
        raise InvariantViolation("lim w^2/(1-A) must be positive (A -> 1 from below)")
    sin = sin_pi(spec.family.s)
    if not isinstance(sin, RadConst):
        raise InvariantViolation(
            f"sin(pi s) at s = {format_rational(spec.family.s)} is not on the exact table"
        )
    # w ~ cw (x - x_star)^kw; on the left (x - x_star)^kw has the sign (-1)^kw
    sign = 1 if cw > 0 else -1
    if spec.direction == "left" and kw % 2:
        sign = -sign
    return LimitProof(
        value=(sin * RadConst.sqrt_rational(L)).scale(sign),
        L=L,
        weight_order=kw,
        gap_order=kg,
        sin=sin,
        sign=sign,
    )


def _start_limit(s, target: RadConst) -> LimitSpec:
    """The starting formula's limit x -> 1/2 from the left, with the weight
    w = (1-2x)/(1-x) and the argument A = 4x(1-x)."""
    return LimitSpec(
        hyper3F2(s), RatFun((1, -2), (1, -1)), RatFun((0, 4, -4)), QQ(1, 2), "left", target
    )


LIMIT_SPECS = {
    "limit-start-1/2": _start_limit(QQ(1, 2), RadConst(2)),
    "limit-start-1/3": _start_limit(QQ(1, 3), RadConst(1, 3)),
    "limit-start-1/4": _start_limit(QQ(1, 4), RadConst(1, 2)),
    "limit-start-1/6": _start_limit(QQ(1, 6), RadConst(1)),
    "limit-8x1": LimitSpec(
        hyper3F2(QQ(1, 6)), RatFun((1, 8)), RatFun((0, 27), (-1, 12, -48, 64)),
        QQ(-1, 8), "right", RadConst(QQ(1, 2), 3),
    ),
    "limit-x1": LimitSpec(
        hyper3F2(QQ(1, 4)), RatFun((1, 1)), RatFun((0, -4), (1, -2, 1)),
        QQ(-1), "right", RadConst(1, 2),
    ),
    "limit-8px": LimitSpec(
        hyper3F2(QQ(1, 6)), RatFun((8, 1)), RatFun((0, 0, 27), (64, -48, 12, -1)),
        QQ(-8), "right", RadConst(4, 3),
    ),
}


class LimitReport(NamedTuple):
    to_json = Report.to_json
    _keys = {"target_value": "target"}  # field name -> JSON key
    value: float
    target_value: float
    tolerance: float
    passed: bool
    detail: str
    exact: RadConst  # pi * limit, derived by limit_exact
    # kept as --json keys; an exact verdict has no depth and no error estimate
    k_used: int = 0
    error_estimate: float = 0.0
    method: str = "closed-form"


def limit_eval(spec: LimitSpec, tolerance: float) -> LimitReport:
    """Decide a limit spec by limit_exact: it passes exactly when the derived
    constant is spec.target.  `tolerance` must be positive and finite; it is
    only echoed in the report, since equal constants have equal floats value
    and target."""
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    proof = limit_exact(spec)
    return LimitReport(
        value=_over_pi(proof.value),
        target_value=_over_pi(spec.target),
        tolerance=tolerance,
        passed=proof.value == spec.target,
        detail=proof.detail(),
        exact=proof.value,
    )


# ============================================================
# Sun's convolution identities
# ============================================================

def _binomial_tables(m: int) -> tuple[list, list]:
    """c[j] = C(2j,j) for j <= 2m and A[j] = C(2j,j) C(4j,2j) for j <= m."""
    c = [comb(2 * j, j) for j in range(2 * m + 1)]
    return c, [c[j] * c[2 * j] for j in range(m + 1)]


def _terminating_sum(t0: int, num, den, n: int) -> int:
    """Sum of the terms of a terminating hypergeometric sum, from term 0 and
    the term ratio num(k)/den(k); every term must be an exact integer."""
    total = t = t0
    for k in range(n):
        t, rem = divmod(t * num(k), den(k))
        if rem:
            raise InvariantViolation(
                f"term {k + 1} of a terminating sum at n = {n} is not an integer"
            )
        total += t
    return total


def _terminating_3f2(n: int, c: list) -> int:
    """4^n C(2n,n)^2 3F2(1/2,1/2,-n; 1,1/2-n; 1); term k is
    4^(n-k) C(2k,k)^2 C(2n-2k,n-k) C(2n,n).  c[j] = C(2j,j)."""
    return _terminating_sum(
        4**n * c[n] ** 2,
        lambda k: (2 * k + 1) ** 2 * (k - n),
        lambda k: 2 * (k + 1) ** 2 * (2 * k + 1 - 2 * n),
        n,
    )


def _terminating_4f3(n: int, c: list) -> int:
    """C(2n,n) C(4n,2n) 4F3(1/4,3/4,-n,-n; 1,1/4-n,3/4-n; 1).  c[j] = C(2j,j)."""
    return _terminating_sum(
        c[n] * c[2 * n],
        lambda k: (4 * k + 1) * (4 * k + 3) * (k - n) ** 2,
        lambda k: (k + 1) ** 2 * (4 * k + 1 - 4 * n) * (4 * k + 3 - 4 * n),
        n,
    )


def _conv_q(n: int, A: list) -> int:
    """C(2n,n) S_n^{(2)}(4) under the convolution definition, with
    A[j] = C(2j,j) C(4j,2j)."""
    return sum(A[k] * A[n - k] for k in range(n + 1))


def _printed_q(n: int, c: list) -> int:
    """C(2n,n) S_n^{(2)}(4) with S as commonly printed inline.  c[j] = C(2j,j)."""
    return c[n] * sum(c[k] * c[n - k] * 4 ** (n - k) for k in range(n + 1))


class S2Report(NamedTuple):
    to_json = Report.to_json
    passed: bool
    checked: int
    first_mismatch: int | None
    printed_def_consistent: bool
    printed_first_mismatch: int | None
    detail: str


def sun_S2_identity(n_max: int) -> S2Report:
    """Convolution vs both terminating closed forms, exactly, for n <= n_max."""
    c, A = _binomial_tables(n_max)
    printed_bad = None
    for n in range(n_max + 1):
        qn = _conv_q(n, A)
        if qn != _terminating_3f2(n, c) or qn != _terminating_4f3(n, c):
            return S2Report(
                False, n, n, printed_bad is None, printed_bad,
                f"closed forms disagree with the convolution at n = {n}",
            )
        if printed_bad is None and qn != _printed_q(n, c):
            printed_bad = n
    return S2Report(
        passed=True,
        checked=n_max,
        first_mismatch=None,
        printed_def_consistent=printed_bad is None,
        printed_first_mismatch=printed_bad,
        detail=(
            f"convolution == both terminating forms for n <= {n_max}; "
            + (
                "the inline S definition matches too"
                if printed_bad is None
                else f"the inline S definition already fails at n = {printed_bad} "
                "(20 vs 24 at n = 1); the convolution reading is used throughout"
            )
        ),
    )


class Sun211Report(NamedTuple):
    to_json = Report.to_json
    passed: bool
    digits_agreed: int
    head_digits: int
    rewrite_ok: bool
    replay_passed: bool
    detail: str


def sun_2_11(digits: int = 30) -> Sun211Report:
    """sum (4k+1) C(2k,k) S_k^{(2)}(4) (-192)^-k = sqrt(3)/pi, three ways."""
    fam = square2F1(QQ(1, 4))
    target = RadConst(QQ(1), 3)
    rewrite_ok = corollary_binomial_check(QQ(1, 4), 40).passed
    value = eval_numeric(fam, 1, 4, QQ(-1, 3), digits + 5)
    *_, passed, agreed = against_pi(value, target, digits)

    head = QQ(*sum_terms(family_recurrence(fam), 1, 4, QQ(-1, 3), 10))
    *_, head_digits = against_pi(BigApprox.from_rational(head, prec_for_digits(40)), target, 35)

    source = SeriesSpec(hyper3F2(QQ(1, 2)), QQ(1, 4), QQ(1), QQ(6), RadConst(QQ(4)))
    cert = translate(source, "sun-s2-64x", x0=QQ(-1, 192))
    tgt = cert.target
    replay_ok = (
        tgt.fam == fam
        and QQ(tgt.z) == QQ(-1, 3)
        and (QQ(tgt.a), QQ(tgt.b)) == (QQ(1), QQ(4))
        and tgt.c == target
    )
    return Sun211Report(
        passed=passed and rewrite_ok and replay_ok,
        digits_agreed=agreed,
        head_digits=head_digits,
        rewrite_ok=rewrite_ok,
        replay_passed=replay_ok,
        detail=(
            f"summed to {agreed} digits against sqrt(3)/pi; 10-term truncation "
            f"carries {head_digits} digits; transport from the (6n+1)(1/4)^n "
            f"entry lands on {tgt}"
        ),
    )


class Sun414Report(NamedTuple):
    to_json = Report.to_json
    passed: bool
    digits_agreed: int
    formal_passed: bool
    transport_ok: bool
    negative_control_failed: bool
    detail: str


# the recurrence of the Sun 4.14 stream, the Cauchy product c of
# 2F1(1/6,1/3;1) and 2F1(2/3,5/6;1), in family_recurrence's form:
#     (n+1)^3 c_{n+1} = (2n+1)(18n^2+18n+11)/18 c_n - n(36n^2-1)/36 c_{n-1}
# (proved in tests/test_hyper.py)
_G44_REC = ((QQ(11, 18), QQ(20, 9), 3, 2), (0, QQ(1, 36), 0, -1))


def _g44_value(a_w, b_w, digits: int) -> BigApprox:
    # tail <= 3 (3n+3)(n+1) 2^-n for n >= 16; grow until under 10^-(digits+6)
    n = 16
    while QQ((3 * n + 3) * (n + 1) * 3, 2**n) * 10 ** (digits + 6) >= 1:
        n += 16
    tail = QQ((3 * n + 3) * (n + 1) * 3, 2**n)
    num, den = sum_terms(_G44_REC, a_w, b_w, QQ(1, 2), n)
    return BigApprox.from_partial_sum(num, den, tail, prec_for_digits(digits + 5))


def sun_4_14(digits: int = 30) -> Sun414Report:
    """sum (3n-1) c_n 2^-n = 3 sqrt(6)/(2 pi) for the 4.14 Cauchy product."""
    # the Clausen-Euler relation F(x) = (1-x)^(1/2) G(x) between the 1/3
    # stream F and the 4.14 stream G, checked formally to order 40
    pref = Prefactor(QQ(1), ((poly((1, -1)), QQ(1, 2)),))
    order = 40
    g44 = fps_mul(
        hyper_series((QQ(1, 6), QQ(1, 3)), (QQ(1),), order),
        hyper_series((QQ(2, 3), QQ(5, 6)), (QQ(1),), order),
    )
    formal_ok = fps_mul(pref.series(order), g44) == family_series(hyper3F2(QQ(1, 3)), order)

    target = RadConst(QQ(3, 2), 6)
    value = _g44_value(-1, 3, digits)
    *_, passed, agreed = against_pi(value, target, digits)

    # theta-transport from the (6n+1)(1/2)^n = 3 sqrt(3)/pi entry along the
    # same relation (so A = C = x), then scaled to b_w = 3
    x0 = QQ(1, 2)
    src = SeriesSpec(hyper3F2(QQ(1, 3)), x0, QQ(1), QQ(6), RadConst(QQ(3), 3))
    x = RatFun((0, 1))
    *_, beta, u0, u1 = theta_transport(x, pref, x, x0, src.a, src.b)
    b_w = QQ(3)
    a_w, c_w = u0 * b_w / u1, (src.c / beta).scale(b_w / u1)
    transport_ok = (a_w, c_w) == (QQ(-1), target)

    *_, bad_agreed = against_pi(_g44_value(1, 3, 12), target, 12)
    return Sun414Report(
        passed=passed and formal_ok and transport_ok,
        digits_agreed=agreed,
        formal_passed=formal_ok,
        transport_ok=transport_ok,
        negative_control_failed=bad_agreed < 2,
        detail=(
            f"(a,b) = (-1,3) agrees to {agreed} digits with 3 sqrt(6)/(2 pi); "
            f"(1,3) manages {bad_agreed}; the proof display prints the weight "
            "3n+1 while the theorem states 3n-1 -- only -1 is consistent"
        ),
    )


class RogersReport(NamedTuple):
    to_json = Report.to_json
    passed: bool
    digits_agreed: int
    formal_passed: bool
    transport_ok: bool
    gate_refused: bool
    naive_c: RadConst
    corrected_c: RadConst
    detail: str


def rogers_domb_check(digits: int = 30) -> RogersReport:
    """(16n+3) t_n (1/100)^n against 25/(sqrt(3) pi), plus the rule.

    t_n is the `domb` stream C(2n,n) * OEIS A002893(n), not the Domb numbers.
    """
    target = RadConst(QQ(25, 3), 3)
    value = eval_numeric(domb(), 3, 16, QQ(1, 100), digits + 5)
    *_, passed, agreed = against_pi(value, target, digits)

    rule = get_rule("domb-rogers")
    formal_ok = verify_rule_formal(rule, order=40).passed

    source = SeriesSpec(
        hyper3F2(QQ(1, 4)), QQ(1, 2401), QQ(3), QQ(40), RadConst(QQ(49, 9), 3)
    )
    x0 = QQ(9)
    *_, beta, u0, u1 = theta_transport(
        rule.A, rule.B, rule.C, x0, source.a, source.b
    )
    raw = SeriesSpec(domb(), rule.C(x0), u0, u1, source.c / beta)
    norm, _ = raw.normalized()
    naive = norm.c
    corrected = naive.scale(3)  # past the branch point the prefactor is B/3
    transport_ok = (
        (QQ(norm.a), QQ(norm.b)) == (QQ(3), QQ(16))
        and QQ(norm.z) == QQ(1, 100)
        and corrected == target
    )
    try:
        translate(source, rule, x0=x0)
        refused = False
    except GateRefused:
        refused = True
    return RogersReport(
        passed=passed and formal_ok and transport_ok,
        digits_agreed=agreed,
        formal_passed=formal_ok,
        transport_ok=transport_ok,
        gate_refused=refused,
        naive_c=naive,
        corrected_c=corrected,
        detail=(
            f"domb stream sums to {agreed} digits of 25 sqrt(3)/(3 pi); raw "
            f"transport from the (40n+3) entry lands on {naive} and the "
            "documented branch factor 3 corrects it; the live gate refuses "
            "x0 = 9 as it must"
        ),
    )

