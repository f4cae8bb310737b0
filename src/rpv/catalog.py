"""The machine-readable series catalog and its verification driver."""

from __future__ import annotations

import json
import os
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .errors import InvariantViolation, ParseError
from .hyper import Report, against_pi, edge, eval_numeric, parse_family, takes_s
from .numerics import RadConst, capped_radicand, format_rational, parse_rational
from .parallel import parallel_map
from .translate import Certificate, SeriesSpec, _parsed, json_field, replay

DATA_DIR = Path(__file__).resolve().parent / "data"
STATUSES = ("proved-start", "proved-translation", "numeric-only", "divergent-certificate")
TAGS = ("R", "WZ", "modular", "new")
CERTIFICATE_KINDS = ("transport", "divergence")
MIN_ENTRIES = 44


class CatalogEntry(NamedTuple):
    id: str
    spec: SeriesSpec
    status: str
    tags: tuple
    paper_line: int
    note: str
    discrepancy_note: str
    certificates: tuple  # raw {"kind": ...} dicts from the certificate file

    @property
    def edge(self):
        """|z| times the envelope radius; < 1 means provably summable."""
        return edge(self.spec.fam, self.spec.z)


class VerifyReport(NamedTuple):
    to_json = Report.to_json
    id: str
    status: str
    computed: str
    target: str
    digits_matched: int
    passed: bool
    detail: str


def _entry_from_json(rec: dict, certs: dict) -> CatalogEntry:
    if not isinstance(rec, dict):
        raise ParseError(f"catalog entry {rec!r:.40} is not a JSON object")
    try:
        for key in ("c_m", "c_t", "paper_line"):
            if type(json_field(rec, key)) is not int:  # refuses bools, 2.5 and 1e400
                raise ParseError(f"field {key!r} must be a JSON integer")
        entry_id = json_field(rec, "id", str)
        family = json_field(rec, "family", str)
        fam = parse_family(f"{family}:{json_field(rec, 's', str)}" if takes_s(family) else family)
        z, a, b, c_r = (_parsed(rec, key, parse_rational) for key in ("z", "a", "b", "c_r"))
        spec = SeriesSpec(fam, z, a, b, RadConst(c_r, capped_radicand(rec["c_m"]), rec["c_t"]))
        tags = json_field(rec, "tags", list)
        if not all(isinstance(t, str) for t in tags):
            raise ParseError("field 'tags' must be an array of strings")
        wrappers = certs.get(entry_id, [])
        if not (isinstance(wrappers, list) and all(isinstance(w, dict) for w in wrappers)):
            raise ParseError("its certificates must be a list of JSON objects")
        for w in wrappers:
            if w.get("kind") not in CERTIFICATE_KINDS:
                raise ParseError(f"unknown certificate kind {w.get('kind')!r:.40}")
        entry = CatalogEntry(
            id=entry_id,
            spec=spec,
            status=json_field(rec, "status", str),
            tags=tuple(tags),
            paper_line=rec["paper_line"],
            note=json_field(rec, "note", str) if "note" in rec else "",
            discrepancy_note=(
                json_field(rec, "discrepancy_note", str) if "discrepancy_note" in rec else ""
            ),
            certificates=tuple(wrappers),
        )
    except (ValueError, ParseError) as exc:
        raise ParseError(f"catalog entry {rec.get('id', '?')}: {exc}") from exc
    if entry.status not in STATUSES:
        raise ParseError(f"catalog entry {entry.id}: unknown status {entry.status!r}")
    bad = set(entry.tags) - set(TAGS)
    if bad:
        raise ParseError(f"catalog entry {entry.id}: unknown tags {sorted(bad)}")
    return entry


def _check_invariants(entries: list) -> None:
    seen = set()
    for e in entries:
        if e.id in seen:
            raise InvariantViolation(f"duplicate catalog id {e.id}")
        seen.add(e.id)
    if len(entries) < MIN_ENTRIES:
        raise InvariantViolation(
            f"catalog has {len(entries)} entries; at least {MIN_ENTRIES} required"
        )
    for e in entries:
        edge = e.edge
        if edge > 1 and e.status != "divergent-certificate":
            raise InvariantViolation(
                f"{e.id}: |z|*R = {format_rational(edge)} > 1 requires "
                f"divergent-certificate status, got {e.status}"
            )
        if edge == 1 and e.status not in ("proved-translation", "divergent-certificate"):
            raise InvariantViolation(
                f"{e.id}: boundary entry must carry a certificate-backed status"
            )
        if edge < 1 and e.status == "divergent-certificate":
            raise InvariantViolation(
                f"{e.id}: |z|*R = {format_rational(edge)} < 1 contradicts "
                "divergent-certificate status"
            )
        if e.status == "divergent-certificate" and not e.certificates:
            raise InvariantViolation(f"{e.id}: divergent entry carries no certificate")
        if e.status == "proved-translation":
            if not any(c["kind"] == "transport" for c in e.certificates):
                raise InvariantViolation(
                    f"{e.id}: proved-translation entry carries no transport certificate"
                )


def read_json(path, what: str):
    """The JSON value held by a file, or ParseError naming the file when it
    cannot be read, is not JSON, holds a number literal longer than CPython's
    int guard (4300 digits) allows, or nests deeper than the parser recurses."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{what} {path}: a number literal is too long") from exc
    except RecursionError as exc:
        raise ParseError(f"{what} {path} is nested too deeply") from exc


def _read_entries(path: Path, what: str, schema: str, kind: type):
    """The "entries" of a JSON data file, refused with ParseError unless the
    file is a readable object of the given schema whose entries are a kind."""
    doc = read_json(path, what)
    if not isinstance(doc, dict):
        raise ParseError(f"{what} {path} must hold a JSON object")
    if doc.get("schema") != schema:
        raise ParseError(f"{what} {path}: unknown schema {doc.get('schema')!r}")
    entries = doc.get("entries")
    if not isinstance(entries, kind):
        raise ParseError(f"{what} {path} must hold \"entries\" as a JSON {kind.__name__}")
    return entries


def load_catalog(path: str | None = None) -> list:
    """Load and validate the catalog (RPV_CATALOG overrides the bundled file).

    Certificates are read from a certificates.json sitting next to the
    catalog file when present.
    """
    if path is None:
        path = os.environ.get("RPV_CATALOG") or str(DATA_DIR / "catalog.json")
    path = Path(path)
    records = _read_entries(path, "catalog file", "rpv-catalog/1", list)
    certs = {}
    cert_path = path.parent / "certificates.json"
    if cert_path.exists():
        certs = _read_entries(cert_path, "certificates file", "rpv-certificates/1", dict)
    entries = [_entry_from_json(rec, certs) for rec in records]
    _check_invariants(entries)
    return entries


def get_entry(entries: list, entry_id: str) -> CatalogEntry:
    for e in entries:
        if e.id == entry_id:
            return e
    raise ParseError(f"no catalog entry with id {entry_id!r}")


# ============================================================
# verification
# ============================================================

def _verify_numeric(entry: CatalogEntry, digits: int) -> VerifyReport:
    s = entry.spec
    total = eval_numeric(s.fam, s.a, s.b, s.z, digits + 5)
    computed, target, ok, agreed = against_pi(total, s.c, digits)
    detail = f"sum times pi vs {s.c} at {digits} digits"
    if entry.discrepancy_note:
        detail += f" [discrepancy: {entry.discrepancy_note}]"
    return VerifyReport(
        id=entry.id,
        status=entry.status,
        computed=computed.to_decimal(digits),
        target=target.to_decimal(digits),
        digits_matched=agreed,
        passed=ok,
        detail=detail,
    )


def _replay_transport(entry: CatalogEntry, wrapper: dict, entries: list) -> tuple:
    """Replay one stored transport certificate; returns (ok, detail)."""
    stored = json_field(wrapper, "certificate", dict)
    cert = Certificate.from_json(stored)
    rep = replay(stored)
    if not rep.passed:
        return False, f"replay failed: {rep.detail}"
    src_id = json_field(wrapper, "source_id", str)
    src = get_entry(entries, src_id)
    if not (cert.source == src.spec or cert.source.same_identity(src.spec)):
        return False, f"stored source does not match catalog entry {src_id}"
    tgt = cert.target
    spec = entry.spec
    if tgt.fam != spec.fam or tgt.z != spec.z:
        return False, "certificate target family/argument mismatch"
    nt, _ = tgt.normalized()
    ne, _ = spec.normalized()
    if (nt.a, nt.b) != (ne.a, ne.b):
        return False, f"certificate target weights ({nt.a},{nt.b}) != ({ne.a},{ne.b})"
    if entry.status == "divergent-certificate":
        if tgt.same_identity(spec):
            return True, f"transport from {src_id} reproduces the printed constant"
        return True, (
            f"transport from {src_id} pins (a,b); constant {tgt.c} vs printed "
            f"{spec.c} (constant-branch factor)"
        )
    if not tgt.same_identity(spec):
        return False, f"certificate constant {tgt.c} != printed {spec.c}"
    return True, f"transport from {src_id} reproduces the entry exactly"


def _verify_certificates(entry: CatalogEntry, entries: list) -> VerifyReport:
    try:
        return _check_certificates(entry, entries)
    except ParseError as exc:
        raise ParseError(f"certificate of {entry.id}: {exc}") from exc


def _check_certificates(entry: CatalogEntry, entries: list) -> VerifyReport:
    details = []
    ok = True
    transports = [c for c in entry.certificates if c["kind"] == "transport"]
    gate_digits = 0
    for wrapper in transports:
        good, detail = _replay_transport(entry, wrapper, entries)
        ok = ok and good
        details.append(detail)
        if good:  # then the stored gate is the re-derived one
            gate_digits = max(gate_digits, wrapper["certificate"]["gate"]["agreed"] or 0)
    for wrapper in entry.certificates:
        if wrapper["kind"] != "divergence":
            continue
        edge = parse_rational(json_field(wrapper, "edge", str))
        if edge != entry.edge or edge < 1:
            ok = False
            details.append("divergence certificate edge mismatch")
        else:
            details.append(f"divergence certified: |z|*R = {format_rational(edge)}")
    if entry.status == "divergent-certificate" and not transports:
        details.append("no transport route exists from the shipped rule set")
    return VerifyReport(
        id=entry.id,
        status=entry.status,
        computed=str(entry.spec),
        target=f"{entry.spec.c}/pi",
        digits_matched=gate_digits,
        passed=ok,
        detail="; ".join(details),
    )


def verify_entry(entry: CatalogEntry, digits: int, entries: list) -> VerifyReport:
    """Check one entry of the catalog `entries` at the requested digit count.

    Convergent entries are summed and compared against c/pi (hyper.against_pi);
    boundary and divergent entries replay their stored certificates instead,
    each checked against the catalog entry it names as its source.  Entries
    that carry both a numeric value and transport certificates must pass both.
    """
    if entry.edge < 1:
        report = _verify_numeric(entry, digits)
        if any(c["kind"] == "transport" for c in entry.certificates):
            cert_rep = _verify_certificates(entry, entries)
            report = report._replace(
                passed=report.passed and cert_rep.passed,
                detail=report.detail + "; " + cert_rep.detail,
            )
        return report
    return _verify_certificates(entry, entries)


@cache
def _worker_catalog() -> list:
    # pool workers only: one catalog load per worker process, not per entry
    return load_catalog()


def _verify_one_by_id(entry_id: str, digits: int) -> VerifyReport:
    entries = _worker_catalog()
    return verify_entry(get_entry(entries, entry_id), digits, entries)


def verify_all(digits: int, ids: list | None = None, jobs: int = 1) -> list:
    """Verify the catalog load_catalog() reads (or a chosen id subset), in
    catalog order, over up to `jobs` processes; spawned workers load the same
    catalog, since they inherit RPV_CATALOG from the environment."""
    entries = load_catalog()
    chosen = entries if ids is None else [get_entry(entries, i) for i in ids]
    if jobs > 1 and len(chosen) > 1:
        return parallel_map(_verify_one_by_id, [(e.id, digits) for e in chosen], jobs)
    return [verify_entry(e, digits, entries) for e in chosen]
