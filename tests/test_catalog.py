"""Catalog loading, invariants, and the verification driver."""

import importlib.util
import json
import shutil
from fractions import Fraction as QQ
from pathlib import Path

import pytest

from rpv.catalog import (
    DATA_DIR,
    CatalogEntry,
    get_entry,
    load_catalog,
    verify_all,
    verify_entry,
)
from rpv.errors import InvariantViolation, ParseError
from rpv.hyper import tail_bound
from rpv.numerics import BigApprox, pi_oracle, prec_for_digits, rad_to_bigapprox

CATALOG = DATA_DIR / "catalog.json"

FAST_IDS = [
    "s12-01", "s12-02", "s12-04", "s14-02", "s14-11", "s13-08",
    "s16-03", "s16-11", "start-1/2", "sun-211", "sun-cor1b", "s12-06", "s13-12",
]


@pytest.fixture(scope="module")
def entries():
    return load_catalog()


@pytest.fixture(scope="module")
def pi55():
    return pi_oracle(55)


def _tampered(tmp_path, mutate):
    doc = json.loads(CATALOG.read_text())
    mutate(doc)
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps(doc))
    shutil.copy(DATA_DIR / "certificates.json", tmp_path / "certificates.json")
    return str(p)


def test_catalog_shape(entries):
    assert len(entries) >= 44
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    svals = {str(e.spec.fam) for e in entries if e.spec.fam.kind == "hyper3F2"}
    assert svals == {"hyper3F2:1/2", "hyper3F2:1/3", "hyper3F2:1/4", "hyper3F2:1/6"}
    for e in entries:
        assert e.status in (
            "proved-start", "proved-translation", "numeric-only", "divergent-certificate"
        )
        assert set(e.tags) <= {"R", "WZ", "modular", "new"}
        assert e.paper_line > 0


def test_edge_status_consistency(entries):
    for e in entries:
        if e.edge >= 1:
            assert e.status in ("proved-translation", "divergent-certificate"), e.id
        if e.status == "divergent-certificate":
            assert e.edge > 1, e.id
            assert e.certificates, e.id


def test_verify_convergent(entries):
    rep = verify_entry(get_entry(entries, "s12-04"), 30, entries=entries)
    assert rep.passed and rep.digits_matched >= 30
    assert abs(float(rep.computed) - float(rep.target)) < 1e-12
    blob = rep.to_json()
    assert set(blob) == {"id", "status", "computed", "target", "digitsMatched", "pass", "detail"}


def test_corrected_entries_never_silent(entries):
    for eid in ["s14-11", "s14-12", "s13-08", "s16-03", "s16-08", "s16-11"]:
        e = get_entry(entries, eid)
        assert e.discrepancy_note, eid
        rep = verify_entry(e, 20, entries=entries)
        assert rep.passed, eid
        assert "discrepancy" in rep.detail or e.status == "proved-translation"


def test_boundary_entries_replay(entries):
    for eid, src in [("s12-01", "start-1/4"), ("sun-cor1b", "s12-02")]:
        e = get_entry(entries, eid)
        assert e.edge == 1
        rep = verify_entry(e, 20, entries=entries)
        assert rep.passed
        assert f"transport from {src}" in rep.detail
        assert rep.digits_matched >= 12


def test_divergent_reports(entries):
    rep = verify_entry(get_entry(entries, "s12-06"), 20, entries=entries)
    assert rep.passed
    assert rep.detail.count("transport from") == 2
    assert "divergence certified" in rep.detail
    for orphan in ["s13-12", "s14-14"]:
        rep = verify_entry(get_entry(entries, orphan), 20, entries=entries)
        assert rep.passed
        assert "no transport route" in rep.detail


def test_verdicts_stable_across_digits():
    lo = verify_all(10, ids=FAST_IDS)
    hi = verify_all(50, ids=FAST_IDS)
    assert [r.passed for r in lo] == [r.passed for r in hi]
    assert [r.id for r in lo] == FAST_IDS


def test_parallel_matches_serial():
    one = verify_all(15, ids=FAST_IDS[:6], jobs=1)
    two = verify_all(15, ids=FAST_IDS[:6], jobs=2)
    assert [r.to_json() for r in one] == [r.to_json() for r in two]


def test_first_term_within_tail_bound(entries, pi55):
    prec = prec_for_digits(55)
    pi = pi55.rescale(prec)
    for e in entries:
        if e.edge >= 1 or e.spec.fam.kind == "domb":
            continue
        s = e.spec
        # |a pi - c| within pi > 3.14159 times the tail bound puts the
        # first term a within that bound of c/pi
        d = BigApprox.from_rational(s.a, prec) * pi - rad_to_bigapprox(s.c, prec)
        tail = tail_bound(s.fam, s.a, s.b, s.z, 1)
        tail_ulps = (tail.numerator << prec) // tail.denominator + 1
        assert (abs(d.man) + d.err) * 100000 <= (tail_ulps + 2) * 314159, e.id


def test_duplicate_id_rejected(tmp_path):
    p = _tampered(tmp_path, lambda d: d["entries"].append(dict(d["entries"][0])))
    with pytest.raises(InvariantViolation):
        load_catalog(p)


def test_short_catalog_rejected(tmp_path):
    p = _tampered(tmp_path, lambda d: d["entries"].__delitem__(slice(20, None)))
    with pytest.raises(InvariantViolation):
        load_catalog(p)


def test_bad_status_rejected(tmp_path):
    def mut(d):
        d["entries"][0]["status"] = "hearsay"
    with pytest.raises(ParseError):
        load_catalog(_tampered(tmp_path, mut))


def test_oversized_radicand_rejected(tmp_path):
    def mut(d):
        d["entries"][0]["c_m"] = 1000000000000000003
    with pytest.raises(ParseError, match="exceeds the cap"):
        load_catalog(_tampered(tmp_path, mut))


def test_bad_tag_rejected(tmp_path):
    def mut(d):
        d["entries"][0]["tags"] = ["WZ", "folklore"]
    with pytest.raises(ParseError):
        load_catalog(_tampered(tmp_path, mut))


def test_divergent_status_must_match_edge(tmp_path):
    def mut(d):
        for rec in d["entries"]:
            if rec["id"] == "s12-05":
                rec["status"] = "numeric-only"
    with pytest.raises(InvariantViolation):
        load_catalog(_tampered(tmp_path, mut))


def test_convergent_cannot_claim_divergence(tmp_path):
    def mut(d):
        for rec in d["entries"]:
            if rec["id"] == "s12-04":
                rec["status"] = "divergent-certificate"
    with pytest.raises(InvariantViolation):
        load_catalog(_tampered(tmp_path, mut))


def test_divergent_needs_certificate(tmp_path):
    p = _tampered(tmp_path, lambda d: None)
    (tmp_path / "certificates.json").unlink()
    with pytest.raises(InvariantViolation):
        load_catalog(p)


def test_unknown_schema_rejected(tmp_path):
    p = _tampered(tmp_path, lambda d: d.__setitem__("schema", "rpv-catalog/999"))
    with pytest.raises(ParseError):
        load_catalog(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_catalog(str(tmp_path / "nope.json"))


def test_env_override(tmp_path, monkeypatch):
    def mut(d):
        for rec in d["entries"]:
            if rec["id"] == "s12-04":
                rec["c_r"] = "17"  # wrong constant
    p = _tampered(tmp_path, mut)
    monkeypatch.setenv("RPV_CATALOG", p)
    entries = load_catalog()
    rep = verify_entry(get_entry(entries, "s12-04"), 15, entries=entries)
    assert not rep.passed


def test_tampered_certificate_detected(tmp_path):
    doc = json.loads(CATALOG.read_text())
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps(doc))
    certs = json.loads((DATA_DIR / "certificates.json").read_text())
    certs["entries"]["s14-02"][0]["certificate"]["trace"]["u0"] = "17/3"
    (tmp_path / "certificates.json").write_text(json.dumps(certs))
    entries = load_catalog(str(p))
    rep = verify_entry(get_entry(entries, "s14-02"), 15, entries=entries)
    assert not rep.passed and "replay" in rep.detail


def test_catalog_replay_diffs_the_raw_stored_certificate(tmp_path):
    # a key the certificate reader ignores, and an x0 that parses to the same
    # point but is not its canonical text, must both show as drift
    doc = json.loads(CATALOG.read_text())
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps(doc))
    certs = json.loads((DATA_DIR / "certificates.json").read_text())
    stored = certs["entries"]["s14-02"][0]["certificate"]
    num, den = stored["x0"].split("/")
    stored["x0"] = f"{2 * int(num)}/{2 * int(den)}"
    stored["trace"]["extra"] = "1"
    (tmp_path / "certificates.json").write_text(json.dumps(certs))
    entries = load_catalog(str(p))
    rep = verify_entry(get_entry(entries, "s14-02"), 15, entries=entries)
    assert not rep.passed
    assert "replay failed: replay drift in: trace.extra, x0" in rep.detail


def test_certificate_generator_reproduces_shipped_file():
    # loads the tool without running main(), so the shipped file is only read
    tool = Path(__file__).resolve().parents[1] / "tools" / "gen_certificates.py"
    spec = importlib.util.spec_from_file_location("gen_certificates", tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render().encode() == (DATA_DIR / "certificates.json").read_bytes()


def test_entry_edge_property(entries):
    assert get_entry(entries, "s12-01").edge == 1
    assert get_entry(entries, "s12-05").edge == 8
    assert get_entry(entries, "sun-cor1b").edge == 1
    assert get_entry(entries, "domb-16n3").edge == QQ(16, 25)
