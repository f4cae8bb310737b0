"""Transformation rules between coefficient families, with formal verification.

A rule asserts, as an identity of power series about x = 0,

    sum_n l_n A(x)^n  =  B(x) * sum_n r_n C(x)^n

where l/r are the coefficient streams of the two families, A and C are
rational functions with A(0) = C(0) = 0, and B is a finite product of
rational powers of polynomials normalized to B(0) = 1.  Rules are data
(``src/rpv/data/rules.json``); checking one at order N is plain arithmetic
over exact rationals and proves the first N+1 coefficients.

A formal pass says nothing about the identity at a distant point x0: the
half-integer powers in B pick branches, and a rule can be true as a series
yet false as a numeric identity on part of the real line (see the
``warning`` tag).  ``verify_rule_numeric`` checks the identity at a point
with certified interval arithmetic; ``translate`` uses it as a gate.
"""

import functools
import json
from fractions import Fraction as QQ
from pathlib import Path
from typing import NamedTuple

from .errors import DivergentInput, ParseError, SingularPoint
from .fps import (
    Series,
    fps_compose,
    fps_expand_ratfun,
    fps_mul,
    fps_pow_rational,
    fps_scale,
)
from .hyper import (
    CheckReport,
    CoeffFamily,
    Report,
    compare_series,
    converges,
    eval_numeric,
    family_series,
    parse_family,
)
from .numerics import (
    RadConst,
    format_rational,
    parse_rational,
    rad_pow_half,
    rad_to_bigapprox,
)
from .poly import RatFun, poly, poly_derivative, poly_eval, poly_mul, poly_scale

# ============================================================
# prefactors: scale * prod p_i(x)^(e_i)
# ============================================================

class Prefactor(NamedTuple):
    """scale * prod p_i(x)^(e_i), e_i rational with denominator 1 or 2.

    The constant value at x = 0 must be 1 (loader invariant), which pins the
    series branch; at other points the principal branch of each half power
    is taken, so the value may be imaginary (RadConst with t = 1).
    """

    scale: object  # QQ
    factors: tuple  # of (poly_tuple, QQ exponent)

    def value_at(self, x0) -> RadConst:
        """Exact value at x0 on the principal branch, as a RadConst."""
        out = RadConst(self.scale)
        for p, e in self.factors:
            v = poly_eval(p, QQ(x0))
            if v == 0:
                if e > 0:
                    out = RadConst.zero()
                    continue
                raise SingularPoint(
                    f"prefactor base {list(p)} vanishes at x = {format_rational(x0)}"
                )
            if e.denominator == 1:
                out = out * RadConst(v).pow_int(e.numerator)
            else:
                out = out * rad_pow_half(v, e.numerator)
        return out

    def series(self, order: int) -> Series:
        """Power series about 0 to `order` (coefficients exact rationals).

        Each factor is expanded as (p/p(0))^e, and the constant they leave
        out is the value at 0, which is 1."""
        parts = [_factor_series(p, e, order) for p, e in self.factors]
        return functools.reduce(fps_mul, parts) if parts else Series.one(order)

    def dlog_at(self, x0):
        """Exact logarithmic derivative B'(x0)/B(x0), a rational."""
        x0 = QQ(x0)
        out = QQ(0)
        for p, e in self.factors:
            v = poly_eval(p, x0)
            if v == 0:
                raise SingularPoint(
                    f"prefactor base {list(p)} vanishes at x = {format_rational(x0)}"
                )
            out += QQ(e) * poly_eval(poly_derivative(p), x0) / v
        return out

    def inverse(self) -> "Prefactor":
        return Prefactor(1 / QQ(self.scale), tuple((p, -e) for p, e in self.factors))


@functools.cache
def _factor_series(p: tuple, e, order: int) -> Series:
    """(p/p(0))^e to `order`, memoized per process: the shipped prefactors
    share most of their factors."""
    p0 = poly_eval(p, QQ(0))
    if p0 == 0:
        raise SingularPoint("prefactor base vanishes at x = 0")
    unit = fps_scale(Series(list(p[: order + 1]) + [0] * (order + 1 - len(p))), 1 / p0)
    return fps_pow_rational(unit, e)


# ============================================================
# rules
# ============================================================

class TransformRule(NamedTuple):
    rid: str
    lhs: CoeffFamily
    rhs: CoeffFamily
    A: RatFun
    B: Prefactor
    C: RatFun
    note: str = ""
    tags: tuple = ()


def reverse_rule(rule: TransformRule) -> TransformRule:
    """Swap the two sides:  sum r_n C^n = B^(-1) sum l_n A^n."""
    return TransformRule(
        rid=rule.rid + "::reversed",
        lhs=rule.rhs,
        rhs=rule.lhs,
        A=rule.C,
        B=rule.B.inverse(),
        C=rule.A,
        note=rule.note,
        tags=tuple(rule.tags) + ("reversed",),
    )


# --- JSON loading -------------------------------------------------------

def _parse_coeff(v):
    return parse_rational(v) if isinstance(v, str) else QQ(v)


def _parse_poly_spec(spec) -> tuple:
    """A poly is either a dense coefficient list (constant first) or
    {"base": [...], "pow": k, "scale": q} meaning scale * base^pow."""
    if isinstance(spec, list):
        return poly([_parse_coeff(c) for c in spec])
    base = poly([_parse_coeff(c) for c in spec["base"]])
    out = poly([1])
    for _ in range(int(spec.get("pow", 1))):
        out = poly_mul(out, base)
    if "scale" in spec:
        out = poly_scale(out, _parse_coeff(spec["scale"]))
    return out


def _parse_ratfun(spec) -> RatFun:
    return RatFun(_parse_poly_spec(spec["num"]), _parse_poly_spec(spec.get("den", [1])))


def _parse_prefactor(spec) -> Prefactor:
    scale = _parse_coeff(spec.get("scale", 1))
    factors = tuple(
        (_parse_poly_spec(f["poly"]), parse_rational(str(f["exp"])))
        for f in spec.get("factors", ())
    )
    for _, e in factors:
        if e.denominator not in (1, 2):
            raise ParseError(f"prefactor exponent {e} must be a half-integer")
    return Prefactor(scale, factors)


def _parse_rule(obj) -> TransformRule:
    rule = TransformRule(
        rid=obj["id"],
        lhs=parse_family(obj["lhs"]),
        rhs=parse_family(obj["rhs"]),
        A=_parse_ratfun(obj["A"]),
        B=_parse_prefactor(obj["B"]),
        C=_parse_ratfun(obj["C"]),
        note=obj.get("note", ""),
        tags=tuple(obj.get("tags", ())),
    )
    if rule.A(QQ(0)) != 0 or rule.C(QQ(0)) != 0:
        raise ParseError(f"rule {rule.rid}: argument maps must vanish at x = 0")
    if rule.B.value_at(QQ(0)) != RadConst.one():
        raise ParseError(f"rule {rule.rid}: prefactor must equal 1 at x = 0")
    return rule


@functools.cache
def load_rules() -> dict:
    """id -> TransformRule, from the bundled rules.json; read once per process."""
    raw = json.loads((Path(__file__).resolve().parent / "data" / "rules.json").read_text())
    out: dict = {}
    for obj in raw["rules"]:
        rule = _parse_rule(obj)
        if rule.rid in out:
            raise ParseError(f"duplicate rule id {rule.rid}")
        out[rule.rid] = rule
    return out


def get_rule(rid: str) -> TransformRule:
    rules = load_rules()
    if rid not in rules:
        raise ParseError(f"unknown rule id {rid!r}")
    return rules[rid]


def rule_ids() -> list[str]:
    return sorted(load_rules())


# ============================================================
# verification
# ============================================================

@functools.lru_cache(maxsize=None)
def _family_compose(fam: CoeffFamily, arg: Series, order: int) -> Series:
    """sum_n t_n arg(x)^n to `order`; arg must vanish at 0.

    Memoized per process: rules that share a (family, argument) pair, such
    as class1-a and kummer-sq, compose it once per run.
    """
    return fps_compose(family_series(fam, order), arg.truncate(order))


@functools.cache
def _expansion(num: tuple, den: tuple, order: int) -> Series:
    """num/den to `order`, memoized per process like _family_compose: the
    shipped rules share most of their argument maps."""
    return fps_expand_ratfun(num, den, order)


def verify_rule_formal(rule: TransformRule, order: int = 64) -> CheckReport:
    """Expand both sides to `order` and compare coefficients exactly."""
    Aser = _expansion(rule.A.num, rule.A.den, order)
    Cser = _expansion(rule.C.num, rule.C.den, order)
    lhs = _family_compose(rule.lhs, Aser, order)
    rhs = fps_mul(rule.B.series(order), _family_compose(rule.rhs, Cser, order))
    return compare_series(lhs, rhs, order)


def verify_rule_numeric(rule: TransformRule, x0, digits: int) -> CheckReport:
    """Check the rule as a numeric identity at x = x0.

    Both argument values must be inside their families' convergence
    envelopes (DivergentInput otherwise; such points are certificate
    territory, not gate territory).  The check is meaningful only for a
    real prefactor value.
    """
    x0 = QQ(x0)
    zA, zC = rule.A(x0), rule.C(x0)
    if not converges(rule.lhs, zA):
        raise DivergentInput(
            f"lhs argument {format_rational(zA)} outside the {rule.lhs} envelope"
        )
    if not converges(rule.rhs, zC):
        raise DivergentInput(
            f"rhs argument {format_rational(zC)} outside the {rule.rhs} envelope"
        )
    bval = rule.B.value_at(x0)
    if not bval.is_real():
        return CheckReport(
            False, f"prefactor value {bval} at x = {format_rational(x0)} is not real"
        )
    lhs = eval_numeric(rule.lhs, 1, 0, zA, digits + 5)
    rhs = eval_numeric(rule.rhs, 1, 0, zC, digits + 5)
    prod = rhs * rad_to_bigapprox(bval, rhs.prec)
    agreed = lhs.digits_agreed(prod)
    ok = lhs.agrees_to(prod, digits)
    return CheckReport(
        ok,
        f"sides agree to {agreed} digits at x = {format_rational(x0)}",
        digits_agreed=agreed,
    )


class RuleReport(NamedTuple):
    to_json = Report.to_json
    id: str
    passed: bool
    detail: str
    caveat: str | None  # the rule's note when it carries the warning tag


def rule_report(rid: str, order: int) -> RuleReport:
    """The formal check of one shipped rule at `order`, as `rules verify` shows it."""
    rule = get_rule(rid)
    rep = verify_rule_formal(rule, order)
    return RuleReport(rid, rep.passed, rep.detail, rule.note if "warning" in rule.tags else None)
