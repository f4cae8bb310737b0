"""Regenerate src/rpv/data/certificates.json from the routes it already stores.

Every transport wrapper is derived again from its own source_id, rule and x0
(the source spec comes from the catalog) and checked the way `rpv verify`
checks it; every divergence wrapper gets its entry's edge again.  Run it
after changing the engine or the catalog:

    python3 tools/gen_certificates.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rpv.catalog import _replay_transport, get_entry, load_catalog
from rpv.numerics import format_rational, parse_rational
from rpv.translate import translate

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "rpv" / "data"
CERTIFICATES = DATA / "certificates.json"

DIVERGENCE_NOTE = (
    "|z| times the envelope radius is outside the open unit disk; "
    "the series is never summed"
)


def _rederive(entry, wrapper: dict, entries: list) -> dict:
    if wrapper["kind"] == "divergence":
        return {"kind": "divergence", "edge": format_rational(entry.edge),
                "note": DIVERGENCE_NOTE}
    source_id, stored = wrapper["source_id"], wrapper["certificate"]
    cert = translate(get_entry(entries, source_id).spec, stored["rule"],
                     x0=parse_rational(stored["x0"]))
    fresh = {"kind": "transport", "source_id": source_id,
             "certificate": cert.to_json()}
    ok, detail = _replay_transport(entry, fresh, entries)
    if not ok:
        raise SystemExit(f"{entry.id} <- {source_id} via {stored['rule']}: {detail}")
    return fresh


def render() -> str:
    """The text of certificates.json, derived again from its stored routes."""
    entries = load_catalog(str(DATA / "catalog.json"))
    stored = json.loads(CERTIFICATES.read_text())["entries"]
    certs = {
        eid: [_rederive(get_entry(entries, eid), w, entries) for w in wrappers]
        for eid, wrappers in stored.items()
    }
    return json.dumps({"schema": "rpv-certificates/1", "entries": certs}, indent=1) + "\n"


def main():
    text = render()
    CERTIFICATES.write_text(text)
    certs = json.loads(text)["entries"]
    n = sum(len(v) for v in certs.values())
    print(f"wrote certificates.json ({n} certificates, {len(certs)} entries)")


if __name__ == "__main__":
    main()
