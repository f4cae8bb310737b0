"""Tests for exact theta-transport of series specs along rules."""

import time
from fractions import Fraction as QQ

import pytest

from rpv.errors import ArgumentMismatch, GateRefused, SingularPoint
from rpv.hyper import parse_family
from rpv.numerics import RadConst
from rpv.poly import RatFun
from rpv.transforms import Prefactor, TransformRule, get_rule
from rpv.translate import Certificate, SeriesSpec, replay, solve_for_x, translate


def spec(fam, z, a, b, c):
    return SeriesSpec(parse_family(fam), QQ(*_pair(z)), QQ(*_pair(a)), QQ(*_pair(b)), c)


def _pair(v):
    return v if isinstance(v, tuple) else (v,)


START2 = spec("square2F1:1/2", (1, 2), 0, 1, RadConst(2))
START3 = spec("square2F1:1/3", (1, 2), 0, 1, RadConst(1, 3))
START4 = spec("square2F1:1/4", (1, 2), 0, 1, RadConst(1, 2))
S12_03 = spec("hyper3F2:1/2", (1, 4), 1, 6, RadConst(4))
S12_04 = spec("hyper3F2:1/2", (1, 64), 5, 42, RadConst(16))
S13_01 = spec("hyper3F2:1/3", (-9, 16), 1, 5, RadConst(QQ(4, 3), 3))
S13_08 = spec("hyper3F2:1/3", (4, 125), 4, 33, RadConst(QQ(15, 2), 3))
S14_09 = spec("hyper3F2:1/4", (1, 2401), 3, 40, RadConst(QQ(49, 9), 3))
S14_13 = spec("hyper3F2:1/4", (-16, 9), 1, 5, RadConst(1, 3))
S16_01 = spec("hyper3F2:1/6", (-64, 125), 8, 63, RadConst(5, 15))
S16_09 = spec("hyper3F2:1/6", (4, 125), 2, 22, RadConst(QQ(5, 3), 15))


def test_bauer_from_start():
    cert = translate(START4, "pfaff-sq", x0=QQ(1, 2))
    want = spec("hyper3F2:1/2", -1, 1, 4, RadConst(2))
    assert cert.target == want
    assert cert.gate_mode == "boundary" and cert.gate_agreed >= 12
    assert cert.status == "proved-translation"
    assert cert.lam == 1 and cert.beta == RadConst(1, 2)


def test_kummer_from_start():
    cert = translate(START2, "kummer-sq", x0=QQ(1, 2))
    assert cert.target == spec("hyper3F2:1/2", (-1, 8), 1, 6, RadConst(2, 2))
    assert cert.gate_mode == "numeric" and cert.gate_x == QQ(1, 2)
    assert (cert.u0, cert.u1, cert.k) == (QQ(1, 2), 3, 2)


def test_goursat_cubic_from_start():
    cert = translate(START4, "goursat-28n3", x0=QQ(1, 2))
    assert cert.target == spec("hyper3F2:1/6", (27, 125), 3, 28, RadConst(5, 5))


def test_goursat_degree_two_from_start():
    cert = translate(START3, "goursat-22n2", x0=QQ(1, 2))
    assert cert.target == spec("hyper3F2:1/6", (4, 125), 1, 11, RadConst(QQ(5, 6), 15))
    assert cert.target.same_identity(S16_09)


def test_second_quadratic_from_64():
    cert = translate(S12_04, "class3", x0=QQ(1, 64))
    assert cert.target == spec("hyper3F2:1/4", (-256, 3969), 8, 65, RadConst(9, 7))


def test_first_cubic_from_64():
    cert = translate(S12_04, "class4-b", x0=QQ(1, 64))
    assert cert.target == spec("hyper3F2:1/6", (-64, 125), 8, 63, RadConst(5, 15))


def test_second_cubic_from_64():
    cert = translate(S12_04, "class4-a", x0=QQ(1, 64))
    want_printed = spec(
        "hyper3F2:1/6", (64, 614125), 144, 2394, RadConst(QQ(85, 3), 255)
    )
    assert cert.target.same_identity(want_printed)
    assert cert.target == spec(
        "hyper3F2:1/6", (64, 614125), 8, 133, RadConst(QQ(85, 54), 255)
    )


def test_seventh_class_transport():
    cert = translate(S13_01, "class7", x0=QQ(-1, 8))
    assert cert.target == spec(
        "hyper3F2:1/6", (-9, 64000), 31, 506, RadConst(QQ(160, 9), 30)
    )
    assert cert.lam == QQ(10, 9)


def test_target_z_resolution():
    cert = translate(S12_04, "class4-b", target_z=QQ(-64, 125))
    assert cert.x0 == QQ(1, 64)
    assert cert.target.same_identity(S16_01)


def test_divergent_minus_eight():
    cert = translate(START2, "euler-sq", x0=QQ(1, 2))
    assert cert.status == "divergent-certificate"
    assert cert.target == spec("hyper3F2:1/2", -8, 1, 3, RadConst(1))
    assert cert.gate_x is None
    assert any("not checked against the series continued to z" in n for n in cert.notes)
    assert not any("defined" in n or "branch mismatch" in n for n in cert.notes)


def test_divergent_plus_four_two_routes():
    via_cubic = translate(S16_09, "class4-b", x0=4)
    assert via_cubic.orientation == "reversed"
    assert via_cubic.target == spec("hyper3F2:1/2", 4, 1, 3, RadConst(QQ(1, 2), 1, 1))
    via_quad = translate(S14_13, "class3", x0=4)
    assert via_quad.target == spec("hyper3F2:1/2", 4, 1, 3, RadConst(1, 1, 1))
    # both routes agree on (a, b); the assigned constant is branch-dependent
    assert (via_cubic.target.a, via_cubic.target.b) == (via_quad.target.a, via_quad.target.b)
    assert via_cubic.target.c != via_quad.target.c


def test_divergent_sixty_four():
    cert = translate(S16_01, "class4-a", x0=64)
    assert cert.orientation == "reversed"
    assert cert.target == spec("hyper3F2:1/2", 64, 8, 21, RadConst(2, 1, 1))
    assert any("imaginary" in n for n in cert.notes)


def test_divergent_minus_four_self_map():
    cert = translate(S13_08, "class5-rogers", x0=1)
    assert cert.orientation == "forward"
    assert cert.target == spec("hyper3F2:1/3", -4, 4, 15, RadConst(QQ(3, 4), 3))
    assert cert.beta == RadConst(5)


def test_divergent_sixteen_ninths():
    cert = translate(S12_03, "class3", x0=QQ(1, 4))
    assert cert.target == spec("hyper3F2:1/4", (-16, 9), 1, 5, RadConst(1, 3))
    assert cert.status == "divergent-certificate"


def test_gate_refuses_broken_branch():
    src = spec("square2F1:1/3", (1, 2), 0, 1, RadConst(1, 3))
    with pytest.raises(GateRefused) as err:
        translate(src, "warning-1p8x", x0=QQ(1, 2))
    assert "warning-1p8x" in str(err.value)


def test_warning_rule_fine_near_origin():
    src = spec("square2F1:1/3", (1, 100), 0, 1, RadConst(1, 3))
    cert = translate(src, "warning-1p8x", x0=QQ(1, 100))
    assert cert.status == "proved-translation" and cert.gate_agreed >= 12


def test_gate_refuses_domb_branch_point():
    with pytest.raises(GateRefused):
        translate(S14_09, "domb-rogers", x0=9)


def test_family_mismatch_refused():
    with pytest.raises(ArgumentMismatch):
        translate(START2, "goursat-28n3", x0=QQ(1, 2))
    with pytest.raises(ArgumentMismatch):
        translate(START2, "kummer-sq", x0=QQ(1, 4))  # A(x0) != source z


def test_point_selection_is_exclusive():
    with pytest.raises(ArgumentMismatch):
        translate(START2, "kummer-sq")
    with pytest.raises(ArgumentMismatch):
        translate(START2, "kummer-sq", x0=QQ(1, 2), target_z=QQ(-1, 8))


def test_divergent_source_composes():
    outside = spec("hyper3F2:1/2", -8, 1, 3, RadConst(1))
    cert = translate(outside, "euler-sq", target_z=QQ(1, 2))
    assert cert.orientation == "reversed" and cert.x0 == QQ(1, 2)
    assert cert.status == "divergent-certificate"
    assert any("composes" in n for n in cert.notes)
    # inverting the forward derivation recovers the starting spec exactly
    assert cert.target == START2


def test_critical_point_is_singular():
    fam = parse_family("square2F1:1/2")
    synthetic = TransformRule(
        rid="synthetic",
        lhs=fam,
        rhs=fam,
        A=RatFun([0, 2, -2]),
        B=Prefactor(QQ(1), ()),
        C=RatFun([0, 1]),
    )
    src = spec("square2F1:1/2", (1, 2), 0, 1, RadConst(2))
    with pytest.raises(SingularPoint):
        translate(src, synthetic, x0=QQ(1, 2))


def test_vanishing_target_weights_are_singular():
    # the starting formula's own limit point: u0 = u1 = 0 at x0 = 1/2
    with pytest.raises(SingularPoint, match="both target weights vanish at x0 = 1/2"):
        translate(START2, "seed-quad-12", x0=QQ(1, 2))


def test_replay_round_trip():
    for cert in (
        translate(START2, "kummer-sq", x0=QQ(1, 2)),
        translate(S12_04, "class4-a", x0=QQ(1, 64)),
        translate(S16_01, "class4-a", x0=64),
        translate(S13_08, "class5-rogers", x0=1),
    ):
        blob = cert.to_json()
        assert Certificate.from_json(blob) == cert
        report = replay(blob)
        assert report.passed, report.detail


def test_replay_catches_tampering():
    blob = translate(START2, "kummer-sq", x0=QQ(1, 2)).to_json()
    blob["target"]["c"] = "3*sqrt(2)"
    report = replay(blob)
    assert not report.passed and "target" in report.detail


def test_replay_catches_zero_weight_target():
    blob = translate(START2, "kummer-sq", x0=QQ(1, 2)).to_json()
    blob["target"]["a"] = blob["target"]["b"] = "0"
    report = replay(blob)
    assert not report.passed and "target" in report.detail


def test_solve_for_x():
    euler_c = get_rule("euler-sq").C
    assert solve_for_x(euler_c, -8) == [QQ(1, 2), 2]
    assert solve_for_x(euler_c, QQ(32, 81)) == [QQ(-8), QQ(-1, 8)]
    assert solve_for_x(euler_c, QQ(1, 3)) == []


def test_normalized_and_same_identity():
    raw = spec("hyper3F2:1/2", (1, 64), QQ(16, 3), QQ(130, 3), RadConst(6, 7))
    norm, k = raw.normalized()
    assert (norm.a, norm.b, k) == (8, 65, QQ(3, 2))
    assert norm.c == RadConst(9, 7)
    assert raw.same_identity(norm) and norm.same_identity(raw)
    assert not norm.same_identity(spec("hyper3F2:1/2", (1, 64), 8, 65, RadConst(10, 7)))
    assert not norm.same_identity(spec("hyper3F2:1/2", (1, 32), 8, 65, RadConst(9, 7)))
    flipped = spec("hyper3F2:1/2", (1, 64), -8, -65, RadConst(-9, 7))
    assert norm.same_identity(flipped)


# A certificate for a route the gate refuses: warning-1p8x is false as a
# numeric identity at x0 = 1/2.  It is what a gate run to 0 digits would
# produce, and it claims exactly that in gate.digits.
FORGED_GATE_ZERO = {
    "schema": "rpv-certificate/1",
    "source": {"family": "square2F1:1/3", "z": "1/2", "a": "0", "b": "1", "c": "1*sqrt(3)"},
    "rule": "warning-1p8x",
    "orientation": "forward",
    "x0": "1/2",
    "trace": {
        "lam": "1", "dlog_b": "-2/5", "dlog_c": "-22/5", "beta": "1/5*sqrt(5)",
        "u0": "-2/5", "u1": "-22/5", "k": "-5/2",
    },
    "target": {"family": "hyper3F2:1/6", "z": "4/125", "a": "1", "b": "11",
               "c": "-5/2*sqrt(15)"},
    "gate": {"mode": "numeric", "x": "1/2", "digits": 0, "agreed": 0},
    "status": "proved-translation",
    "notes": [],
}


def test_replay_refuses_certificate_of_a_refused_route():
    with pytest.raises(GateRefused, match="warning-1p8x"):
        replay(FORGED_GATE_ZERO)


def _forged(path, value):
    blob = translate(START4, "pfaff-sq", x0=QQ(1, 2)).to_json()
    *parents, last = path.split(".")
    node = blob
    for key in parents:
        node = node[key]
    node[last] = value
    return blob


@pytest.mark.parametrize(
    "path, value",
    [
        ("gate.digits", 0),
        ("gate.digits", -5),
        ("gate.digits", "12"),
        ("gate.digits", 200000),
        ("gate.agreed", 3),
        ("status", "divergent-certificate"),
        ("notes", []),
    ],
)
def test_replay_compares_the_whole_certificate(path, value):
    blob = _forged(path, value)
    t0 = time.perf_counter()
    report = replay(blob)
    assert time.perf_counter() - t0 < 1.0
    assert not report.passed
    assert report.detail == f"replay drift in: {path}"


def test_replay_names_every_drifted_key():
    blob = _forged("trace.u0", "7")
    blob["x0"] = "2/4"  # parses to the same point, but is not the canonical text
    assert replay(blob).detail == "replay drift in: trace.u0, x0"


def test_replay_ignores_key_order_only():
    blob = translate(START4, "pfaff-sq", x0=QQ(1, 2)).to_json()
    reordered = {key: blob[key] for key in reversed(blob)}
    reordered["gate"] = {key: blob["gate"][key] for key in reversed(blob["gate"])}
    assert list(reordered) != list(blob)
    assert replay(reordered).passed


def test_replay_float_agreed_is_drift():
    # 17.0 == 17 in Python, but the canonical JSON text differs
    blob = translate(START4, "pfaff-sq", x0=QQ(1, 2)).to_json()
    blob["gate"]["agreed"] = float(blob["gate"]["agreed"])
    assert replay(blob).detail == "replay drift in: gate.agreed"
