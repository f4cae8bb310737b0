"""Exact transport of series specifications along transformation rules.

A SeriesSpec records a claimed identity

    sum_n (a + b n) t_n z^n = c / pi

with t_n one of the coefficient families, z an exact rational, and c an
exact radical constant.  Given a rule  sum l_n A(x)^n = B(x) sum r_n C(x)^n
that is numerically valid at a rational point x0 with A(x0) = z (or C(x0) = z
for the reversed orientation), applying theta = x d/dx to both sides and
evaluating at x0 transports the series spec to the other family:

    lam * S1 = x0 B'(x0) * T0 + B(x0) * dlogC * T1,   lam = x0 A'(x0)/A(x0)

so  c/pi = a S0 + b S1 = w0 T0 + w1 T1  with w0, w1 in beta * Q, beta = B(x0).
theta_transport() is the only place this step is computed; translate() and
the hand-checked transports in special.py call it.  Everything on the right
is exact; the result is a new SeriesSpec plus a Certificate recording each
intermediate quantity for later replay.

Distant points are dangerous: a rule that is true as a series can be false
numerically at x0 (branch crossings).  translate() therefore gates every
derivation with a certified point check when both sides converge, falls back
to an inner gate point for boundary targets (Abel continuity), and for
divergent targets refuses to gate at all — such certificates pin (a, b)
exactly, but their constant is not yet checked against the value of the
series continued analytically to z, and say so in their notes.
"""

import json
from fractions import Fraction as QQ
from math import gcd, lcm
from typing import NamedTuple

from .errors import ArgumentMismatch, GateRefused, ParseError, SingularPoint
from .hyper import CheckReport, CoeffFamily, edge, parse_family
from .numerics import RadConst, format_rational, parse_radconst, parse_rational
from .poly import poly_eval, poly_scale, poly_sub, rational_roots
from .transforms import (
    TransformRule,
    get_rule,
    reverse_rule,
    verify_rule_numeric,
)

CERT_SCHEMA = "rpv-certificate/1"
# every gate checks the rule to this many digits; a certificate stores it as
# gate.digits, and replay re-derives it rather than trusting the stored value
GATE_DIGITS = 12


# ============================================================
# reading JSON fields
# ============================================================

_JSON_TYPE_NAMES = {str: "string", dict: "object", list: "array"}


def json_field(obj, path: str, kind: type = object):
    """The value at a dotted key path of a JSON object, checked to be of
    `kind`; ParseError naming the path when it is missing or of another type."""
    value = obj
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ParseError(f"field {path!r} is missing")
        value = value[key]
    if not isinstance(value, kind):
        raise ParseError(f"field {path!r} must be a JSON {_JSON_TYPE_NAMES[kind]}")
    return value


def _parsed(obj, path: str, parse):
    """parse() of the string at a dotted key path; ParseError naming it."""
    text = json_field(obj, path, str)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"field {path!r}: {exc}") from exc


# ============================================================
# series specifications
# ============================================================

class SeriesSpec(NamedTuple):
    """sum (a + b n) t_n z^n = c / pi, all parts exact."""

    fam: CoeffFamily
    z: object  # QQ
    a: object  # QQ
    b: object  # QQ
    c: RadConst

    def scaled(self, q) -> "SeriesSpec":
        q = QQ(q)
        if q == 0:
            raise ValueError("scaling a spec by zero")
        return SeriesSpec(self.fam, self.z, self.a * q, self.b * q, self.c.scale(q))

    def normalized(self) -> tuple["SeriesSpec", object]:
        """Equivalent spec with integer a, b, gcd 1 and b > 0 (a > 0 if b = 0);
        returns (spec, k) with spec = self.scaled(k)."""
        a, b = QQ(self.a), QQ(self.b)
        if a == 0 and b == 0:
            raise ValueError("spec with a = b = 0")
        d = lcm(a.denominator, b.denominator)
        ia, ib = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        g = gcd(abs(ia), abs(ib))
        k = QQ(d, g)
        lead = ib if ib != 0 else ia
        if lead < 0:
            k = -k
        return self.scaled(k), k

    def same_identity(self, other: "SeriesSpec") -> bool:
        """True if the two specs state the same identity up to a common
        nonzero rational factor on (a, b, c).  A spec with a = b = 0 states
        no identity, so it matches nothing."""
        if self.fam != other.fam or QQ(self.z) != QQ(other.z):
            return False
        if any(QQ(s.a) == 0 and QQ(s.b) == 0 for s in (self, other)):
            return False
        return self.normalized()[0] == other.normalized()[0]

    def to_json(self) -> dict:
        return {
            "family": str(self.fam),
            "z": format_rational(self.z),
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "c": repr(self.c),
        }

    def __str__(self) -> str:
        return (
            f"sum ({format_rational(self.a)} + {format_rational(self.b)} n) t_n "
            f"({format_rational(self.z)})^n = ({self.c}) / pi  [{self.fam}]"
        )


def _spec_at(obj, prefix: str) -> SeriesSpec:
    """The spec whose fields sit at prefix + name in a JSON object."""
    return SeriesSpec(
        fam=_parsed(obj, prefix + "family", parse_family),
        z=_parsed(obj, prefix + "z", parse_rational),
        a=_parsed(obj, prefix + "a", parse_rational),
        b=_parsed(obj, prefix + "b", parse_rational),
        c=_parsed(obj, prefix + "c", parse_radconst),
    )


# ============================================================
# certificates
# ============================================================

class Certificate(NamedTuple):
    source: SeriesSpec
    rule_id: str
    orientation: str  # "forward" | "reversed"
    x0: object  # QQ
    lam: object  # QQ: x0 A'(x0)/A(x0) of the oriented rule
    dlog_b: object  # QQ: x0 B'(x0)/B(x0)
    dlog_c: object  # QQ: x0 C'(x0)/C(x0)
    beta: RadConst  # B(x0), principal branch
    u0: object  # QQ: a + b dlog_b / lam   (target weights are beta*(u0, u1))
    u1: object  # QQ: b dlog_c / lam
    k: object  # QQ: normalization factor applied to (u0, u1)
    target: SeriesSpec
    gate_mode: str  # "numeric" | "boundary" | "divergent"
    gate_x: object | None  # QQ point at which the rule identity was checked
    gate_digits: int
    gate_agreed: int | None
    status: str  # "proved-translation" | "divergent-certificate"
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "schema": CERT_SCHEMA,
            "source": self.source.to_json(),
            "rule": self.rule_id,
            "orientation": self.orientation,
            "x0": format_rational(self.x0),
            "trace": {
                "lam": format_rational(self.lam),
                "dlog_b": format_rational(self.dlog_b),
                "dlog_c": format_rational(self.dlog_c),
                "beta": repr(self.beta),
                "u0": format_rational(self.u0),
                "u1": format_rational(self.u1),
                "k": format_rational(self.k),
            },
            "target": self.target.to_json(),
            "gate": {
                "mode": self.gate_mode,
                "x": None if self.gate_x is None else format_rational(self.gate_x),
                "digits": self.gate_digits,
                "agreed": self.gate_agreed,
            },
            "status": self.status,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """Read a certificate, ParseError naming the first field that is
        missing or cannot be read.  The gate, status and notes are taken as
        they stand: replay compares them with the re-derived ones."""
        schema = json_field(obj, "schema", str)
        if schema != CERT_SCHEMA:
            raise ArgumentMismatch(f"unknown certificate schema {schema!r}")
        gate_x = json_field(obj, "gate.x")
        return cls(
            source=_spec_at(obj, "source."),
            rule_id=json_field(obj, "rule", str),
            orientation=json_field(obj, "orientation"),
            x0=_parsed(obj, "x0", parse_rational),
            lam=_parsed(obj, "trace.lam", parse_rational),
            dlog_b=_parsed(obj, "trace.dlog_b", parse_rational),
            dlog_c=_parsed(obj, "trace.dlog_c", parse_rational),
            beta=_parsed(obj, "trace.beta", parse_radconst),
            u0=_parsed(obj, "trace.u0", parse_rational),
            u1=_parsed(obj, "trace.u1", parse_rational),
            k=_parsed(obj, "trace.k", parse_rational),
            target=_spec_at(obj, "target."),
            gate_mode=json_field(obj, "gate.mode"),
            gate_x=None if gate_x is None else _parsed(obj, "gate.x", parse_rational),
            gate_digits=json_field(obj, "gate.digits"),
            gate_agreed=json_field(obj, "gate.agreed"),
            status=json_field(obj, "status"),
            notes=tuple(json_field(obj, "notes", list)),
        )


# ============================================================
# solving for evaluation points
# ============================================================

def solve_for_x(ratfun, z_target) -> list:
    """All rational x with ratfun(x) = z_target (poles excluded), sorted.

    The candidates are the rational roots of num - z_target * den, which
    poly.rational_roots isolates by Sturm sequences and decides exactly."""
    z = QQ(z_target)
    p = poly_sub(ratfun.num, poly_scale(ratfun.den, z))
    roots, _ = rational_roots(p)
    return sorted(r for r in roots if poly_eval(ratfun.den, r) != 0)


def _placements(source: SeriesSpec, rule: TransformRule, points):
    """(oriented rule, orientation, x) for every x in points(oriented rule)
    at which that orientation puts the source on its left; the forward
    orientation comes first."""
    z_src = QQ(source.z)
    for oriented, orientation in ((rule, "forward"), (reverse_rule(rule), "reversed")):
        if source.fam != oriented.lhs:
            continue
        for x in points(oriented):
            try:
                if oriented.A(x) == z_src:
                    yield oriented, orientation, x
            except SingularPoint:
                continue


def _orient(source: SeriesSpec, rule: TransformRule, x0) -> tuple:
    """Pick the rule orientation that puts the source on the left at x0."""
    x0 = QQ(x0)
    for oriented, orientation, _ in _placements(source, rule, lambda r: (x0,)):
        return oriented, orientation
    raise ArgumentMismatch(
        f"source {source.fam} at z = {format_rational(source.z)} does not match "
        f"either side of rule {rule.rid} at x0 = {format_rational(x0)}"
    )


def _find_x0(source: SeriesSpec, rule: TransformRule, target_z) -> object:
    """Rational x0 joining source.z on one side of the rule to target_z on
    the other; smallest |x0| wins when several qualify."""
    z_tgt = QQ(target_z)
    cands = [
        x
        for _, _, x in _placements(source, rule, lambda r: solve_for_x(r.C, z_tgt))
    ]
    if not cands:
        raise ArgumentMismatch(
            f"no rational point joins z = {format_rational(source.z)} to "
            f"z = {format_rational(z_tgt)} along rule {rule.rid}"
        )
    return sorted(cands, key=lambda x: (abs(x), x))[0]


# ============================================================
# translation
# ============================================================

_GATE_SHRINKS = (QQ(7, 8), QQ(3, 4), QQ(1, 2), QQ(1, 4), QQ(1, 8), QQ(1, 16))
_GATE_MARGIN = QQ(7, 8)  # require |arg| * R <= 7/8 at the gate point


def _gate_point(rule: TransformRule, x0):
    """x0, else the first inner point x0 * shrink, at which both arguments
    keep the margin inside their envelopes; None when no point does."""
    for x in (x0, *(x0 * shrink for shrink in _GATE_SHRINKS)):
        try:
            zA, zC = rule.A(x), rule.C(x)
        except SingularPoint:
            continue
        if edge(rule.lhs, zA) <= _GATE_MARGIN and edge(rule.rhs, zC) <= _GATE_MARGIN:
            return x
    return None


def theta_transport(A, B, C, x0, a, b) -> tuple:
    """The exact theta-step of  sum l_n A^n = B sum r_n C^n  at x0.

    A and C are the argument maps (RatFun), B the prefactor (Prefactor) and
    (a, b) the weights of the left-hand spec.  Returns
    (lam, dlog_b, dlog_c, beta, u0, u1): the weights of the right-hand spec
    are beta * (u0, u1).  Raises SingularPoint at a critical point of A, where
    B vanishes, where C vanishes and where both u0 and u1 vanish.
    """
    x0, a, b = QQ(x0), QQ(a), QQ(b)
    zC = C(x0)
    lam = x0 * A.derivative_at(x0) / A(x0)
    if lam == 0:
        raise SingularPoint(
            f"x0 = {format_rational(x0)} is a critical point of the argument "
            "map (lam = 0): this is limit-formula territory, not a transport"
        )
    beta = B.value_at(x0)
    if beta.is_zero():
        raise SingularPoint(
            f"prefactor vanishes at x0 = {format_rational(x0)}: "
            "limit-formula territory, not a transport"
        )
    dlog_b = x0 * B.dlog_at(x0)
    if zC == 0:
        raise SingularPoint("target argument vanishes at x0")
    dlog_c = x0 * C.derivative_at(x0) / zC
    u0, u1 = a + b * dlog_b / lam, b * dlog_c / lam
    if u0 == 0 and u1 == 0:
        raise SingularPoint(
            f"both target weights vanish at x0 = {format_rational(x0)}: "
            "limit-formula territory, not a transport"
        )
    return lam, dlog_b, dlog_c, beta, u0, u1


def translate(
    source: SeriesSpec,
    rule: TransformRule | str,
    x0=None,
    target_z=None,
) -> Certificate:
    """Transport `source` along `rule`, returning an exact Certificate.

    Exactly one of x0 / target_z selects the evaluation point.  Derivations
    whose target converges are gated numerically at x0 and refused (loudly)
    on failure; boundary targets are gated at an inner point; divergent
    targets cannot be gated and yield a divergent-certificate.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    if (x0 is None) == (target_z is None):
        raise ArgumentMismatch("specify exactly one of x0 / target_z")
    if QQ(source.z) == 0:
        raise ArgumentMismatch("source z must be nonzero")
    if x0 is None:
        x0 = _find_x0(source, rule, target_z)
    x0 = QQ(x0)
    if x0 == 0:
        raise ArgumentMismatch("x0 must be nonzero")
    oriented, orientation = _orient(source, rule, x0)
    lam, dlog_b, dlog_c, beta, u0, u1 = theta_transport(
        oriented.A, oriented.B, oriented.C, x0, source.a, source.b
    )
    zC = oriented.C(x0)
    raw = SeriesSpec(oriented.rhs, zC, u0, u1, source.c / beta)
    target, k = raw.normalized()

    # --- gate ------------------------------------------------------------
    notes = []
    edge_src = edge(oriented.lhs, source.z)
    edge_tgt = edge(oriented.rhs, zC)
    if edge_src <= 1 and edge_tgt <= 1:
        # on a convergence boundary x0 itself always fails the margin, so
        # the same search lands on an inner point there
        mode = "numeric" if edge_src < 1 and edge_tgt < 1 else "boundary"
        gate_x = _gate_point(oriented, x0)
        if gate_x is None:
            raise GateRefused(
                f"no usable gate point found near x0 = {format_rational(x0)}"
                if mode == "numeric"
                else "no usable inner gate point for boundary target at "
                f"x0 = {format_rational(x0)}"
            )
        if mode == "boundary":
            notes.append(
                "an argument sits on its convergence boundary; the rule is "
                "gated at an inner point and the value extends by Abel continuity"
            )
        elif gate_x != x0:
            notes.append(
                "gate moved to an inner point to keep certified "
                "summation cheap; validity extends by continuity"
            )
        status = "proved-translation"
    else:
        mode = "divergent"
        gate_x = None
        status = "divergent-certificate"
        side = "target" if edge_tgt > 1 else "source"
        notes.append(
            f"{side} argument lies outside the convergence envelope, so no "
            "gate runs; c is transported with the prefactor on its principal "
            "branch but not checked against the series continued to z"
        )
        if edge_src > 1:
            notes.append(
                "the source spec itself lies outside the envelope; this "
                "certificate composes with the source's own certificate"
            )
        if not beta.is_real():
            notes.append(
                "principal branch gives an imaginary prefactor: "
                "(-u)^(1/2) = i sqrt(u) for u > 0"
            )

    agreed = None
    if gate_x is not None:
        report = verify_rule_numeric(oriented, gate_x, digits=GATE_DIGITS)
        agreed = report.digits_agreed
        if not report.passed:
            raise GateRefused(
                f"rule {rule.rid} fails its numeric gate at "
                f"x = {format_rational(gate_x)} ({report.detail}); "
                + (f"rule note: {rule.note}" if rule.note else "refusing")
            )

    return Certificate(
        source=source,
        rule_id=rule.rid,
        orientation=orientation,
        x0=x0,
        lam=lam,
        dlog_b=dlog_b,
        dlog_c=dlog_c,
        beta=beta,
        u0=u0,
        u1=u1,
        k=k,
        target=target,
        gate_mode=mode,
        gate_x=gate_x,
        gate_digits=GATE_DIGITS,
        gate_agreed=agreed,
        status=status,
        notes=tuple(notes),
    )


def _drift(fresh: dict, stored: dict, prefix: str = "") -> list:
    """The dotted keys at which two JSON objects differ, sorted."""
    out = []
    for key in sorted(set(fresh) | set(stored)):
        a, b = fresh.get(key), stored.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            out += _drift(a, b, f"{prefix}{key}.")
        elif key not in fresh or key not in stored or (
            json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
        ):
            out.append(prefix + key)
    return out


def replay(cert: Certificate | dict, stored: dict | None = None) -> CheckReport:
    """Derive the certificate again from its source, rule and x0, and compare
    the whole record with the stored one in canonical JSON.  It passes only
    when they are equal; otherwise the report names every key that differs.
    A caller that has read cert from JSON passes that JSON as `stored`, so a
    stored field the reader ignores still shows as drift.  A route whose
    gate fails raises GateRefused, as translate does."""
    if isinstance(cert, dict):
        stored, cert = cert, Certificate.from_json(cert)
    elif stored is None:
        stored = cert.to_json()
    fresh = translate(cert.source, cert.rule_id, x0=cert.x0).to_json()
    if json.dumps(fresh, sort_keys=True) != json.dumps(stored, sort_keys=True):
        return CheckReport(False, "replay drift in: " + ", ".join(_drift(fresh, stored)))
    return CheckReport(
        True,
        f"replayed {cert.rule_id} ({cert.orientation}) at "
        f"x0 = {format_rational(cert.x0)}; all exact fields match",
    )
