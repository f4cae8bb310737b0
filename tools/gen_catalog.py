"""Regenerate src/rpv/data/catalog.json from the master entry table."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rpv._backend import QQ
from rpv.hyper import converges, domb, parse_family
from rpv.numerics import RadConst

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "rpv" / "data" / "catalog.json"

# (id, family, s, z, a, b, c_r, c_m, c_t, status, tags, paper_line, note, discrepancy)
T = [
    # --- s = 1/2 ----------------------------------------------------------
    ("s12-01", "hyper3F2", "1/2", "-1", "1", "4", "2", 1, 0,
     "proved-translation", ["WZ", "R"], 92,
     "z sits on the envelope boundary; certified through the gate point and Abel continuity", ""),
    ("s12-02", "hyper3F2", "1/2", "-1/8", "1", "6", "2", 2, 0,
     "proved-translation", ["WZ"], 93, "", ""),
    ("s12-03", "hyper3F2", "1/2", "1/4", "1", "6", "4", 1, 0,
     "numeric-only", ["WZ", "R"], 94, "", ""),
    ("s12-04", "hyper3F2", "1/2", "1/64", "5", "42", "16", 1, 0,
     "numeric-only", ["WZ", "R"], 95, "", ""),
    ("s12-05", "hyper3F2", "1/2", "-8", "1", "3", "1", 1, 0,
     "divergent-certificate", ["WZ"], 96,
     "never summed; the pair is pinned by an exact transport certificate", ""),
    ("s12-06", "hyper3F2", "1/2", "4", "1", "3", "2", 1, 1,
     "divergent-certificate", ["WZ"], 98,
     "two independent routes certify (a,b) = (1,3)",
     "the routes land on constants i/2 and i; tables print 2i (constant-branch factors)"),
    ("s12-07", "hyper3F2", "1/2", "64", "8", "21", "2", 1, 1,
     "divergent-certificate", ["WZ"], 100,
     "never summed; the pair is pinned by an exact transport certificate", ""),
    # --- s = 1/4 ----------------------------------------------------------
    ("s14-01", "hyper3F2", "1/4", "-1/4", "3", "20", "8", 1, 0,
     "numeric-only", ["WZ", "R"], 105, "", ""),
    ("s14-02", "hyper3F2", "1/4", "-256/3969", "8", "65", "9", 7, 0,
     "proved-translation", ["R"], 106, "", ""),
    ("s14-03", "hyper3F2", "1/4", "-1/48", "3", "28", "16/3", 3, 0,
     "numeric-only", ["WZ", "R"], 107, "", ""),
    ("s14-04", "hyper3F2", "1/4", "-1/324", "23", "260", "72", 1, 0,
     "numeric-only", ["R"], 108, "", ""),
    ("s14-05", "hyper3F2", "1/4", "-1/25920", "41", "644", "288/5", 5, 0,
     "numeric-only", ["R"], 109, "", ""),
    ("s14-06", "hyper3F2", "1/4", "-1/777924", "1123", "21460", "3528", 1, 0,
     "numeric-only", ["R"], 110, "", ""),
    ("s14-07", "hyper3F2", "1/4", "32/81", "1", "7", "9/2", 1, 0,
     "proved-translation", ["modular"], 111, "", ""),
    ("s14-08", "hyper3F2", "1/4", "1/9", "1", "8", "2", 3, 0,
     "numeric-only", ["WZ", "R"], 112, "", ""),
    ("s14-09", "hyper3F2", "1/4", "1/2401", "3", "40", "49/9", 3, 0,
     "numeric-only", ["R"], 113, "", ""),
    ("s14-10", "hyper3F2", "1/4", "1/9801", "19", "280", "18", 11, 0,
     "numeric-only", ["R"], 114, "", ""),
    ("s14-11", "hyper3F2", "1/4", "1/96059601", "1103", "26390", "9801/4", 2, 0,
     "numeric-only", ["R"], 115, "",
     "tables print 9801*sqrt(2); the sum equals 9801*sqrt(2)/4 over pi"),
    ("s14-12", "hyper3F2", "1/4", "1/81", "1", "10", "9/4", 2, 0,
     "numeric-only", ["R"], 116, "",
     "tables print 9*sqrt(2); the sum equals 9*sqrt(2)/4 over pi"),
    ("s14-13", "hyper3F2", "1/4", "-16/9", "1", "5", "1", 3, 0,
     "divergent-certificate", ["WZ"], 117,
     "never summed; the pair is pinned by an exact transport certificate", ""),
    ("s14-14", "hyper3F2", "1/4", "256/81", "8", "35", "18", 1, 1,
     "divergent-certificate", ["WZ"], 118,
     "no rational-x0 transport route reaches this argument from the shipped "
     "rule set; divergence certificate only",
     "tables vary between the weight 35n+8 with 18i and 30n+8 with -18i"),
    # --- s = 1/3 ----------------------------------------------------------
    ("s13-01", "hyper3F2", "1/3", "-9/16", "1", "5", "4/3", 3, 0,
     "numeric-only", ["WZ"], 122, "", ""),
    ("s13-02", "hyper3F2", "1/3", "-1/16", "7", "51", "12", 3, 0,
     "numeric-only", ["WZ"], 123, "", ""),
    ("s13-03", "hyper3F2", "1/3", "-1/80", "1", "9", "4/5", 15, 0,
     "numeric-only", ["modular"], 124, "", ""),
    ("s13-04", "hyper3F2", "1/3", "-1/1024", "106", "1230", "192", 3, 0,
     "numeric-only", ["modular"], 125, "", ""),
    ("s13-05", "hyper3F2", "1/3", "-1/3024", "26", "330", "216/7", 7, 0,
     "numeric-only", ["modular"], 126, "", ""),
    ("s13-06", "hyper3F2", "1/3", "1/2", "1", "6", "3", 3, 0,
     "numeric-only", ["WZ"], 127, "", ""),
    ("s13-07", "hyper3F2", "1/3", "2/27", "2", "15", "27/4", 1, 0,
     "numeric-only", ["R"], 128, "", ""),
    ("s13-08", "hyper3F2", "1/3", "4/125", "4", "33", "15/2", 3, 0,
     "numeric-only", ["R"], 129, "",
     "printed constants vary between 15*sqrt(3) and 15*sqrt(3)/2; the sum equals the latter over pi"),
    ("s13-09", "hyper3F2", "1/3", "-1/250000", "827", "14151", "1500", 3, 0,
     "numeric-only", ["modular"], 130, "", ""),
    ("s13-10", "hyper3F2", "1/3", "-4", "4", "15", "3", 3, 0,
     "divergent-certificate", ["WZ"], 131,
     "never summed; the pair is pinned by an exact transport certificate",
     "the certificate lands on 3*sqrt(3)/4; tables print 3*sqrt(3) (constant-branch factor 4)"),
    ("s13-11", "hyper3F2", "1/3", "27/2", "3", "10", "10", 1, 1,
     "divergent-certificate", ["WZ"], 132,
     "the only rational route is the self-map at x0 = 1/8, which pins (a,b) as its fixed pair", ""),
    ("s13-12", "hyper3F2", "1/3", "27/16", "3", "11", "12", 1, 1,
     "divergent-certificate", ["WZ"], 133,
     "no rational-x0 transport route reaches this argument from the shipped "
     "rule set; divergence certificate only", ""),
    # --- s = 1/6 ----------------------------------------------------------
    ("s16-01", "hyper3F2", "1/6", "-64/125", "8", "63", "5", 15, 0,
     "proved-translation", ["WZ"], 137, "", ""),
    ("s16-02", "hyper3F2", "1/6", "-27/512", "15", "154", "32", 2, 0,
     "numeric-only", ["WZ"], 138, "", ""),
    ("s16-03", "hyper3F2", "1/6", "-1/512", "25", "342", "32", 6, 0,
     "numeric-only", ["modular"], 139, "",
     "tables print the argument +1/8^3; the identity holds at -1/8^3"),
    ("s16-04", "hyper3F2", "1/6", "-9/64000", "31", "506", "160/9", 30, 0,
     "proved-translation", ["modular"], 140, "", ""),
    ("s16-05", "hyper3F2", "1/6", "-1/512000", "263", "5418", "640/3", 15, 0,
     "numeric-only", ["modular"], 141, "", ""),
    ("s16-06", "hyper3F2", "1/6", "-1/85184000", "10177", "261702", "1760", 330, 0,
     "numeric-only", ["modular"], 142, "", ""),
    ("s16-07", "hyper3F2", "1/6", "27/125", "3", "28", "5", 5, 0,
     "proved-translation", ["modular"], 143, "", ""),
    ("s16-08", "hyper3F2", "1/6", "8/1331", "20", "252", "11", 33, 0,
     "proved-translation", ["modular"], 144, "",
     "tables print the weight 256n+20; the transported weight is 252n+20"),
    ("s16-09", "hyper3F2", "1/6", "4/125", "2", "22", "5/3", 15, 0,
     "proved-translation", ["R"], 145, "", ""),
    ("s16-10", "hyper3F2", "1/6", "64/614125", "144", "2394", "85/3", 255, 0,
     "proved-translation", ["WZ", "R"], 146, "", ""),
    ("s16-11", "hyper3F2", "1/6", "-1/151931373056000",
     "13591409", "545140134", "426880", 10005, 0,
     "numeric-only", ["modular"], 147, "",
     "tables print (3/2)*53360^3/sqrt(10005), which is 53360 times the verified "
     "constant 426880*sqrt(10005)"),
    # --- starting formulas ------------------------------------------------
    ("start-1/2", "square2F1", "1/2", "1/2", "0", "1", "2", 1, 0,
     "proved-start", ["new"], 296, "", ""),
    ("start-1/3", "square2F1", "1/3", "1/2", "0", "1", "1", 3, 0,
     "proved-start", ["new"], 296, "", ""),
    ("start-1/4", "square2F1", "1/4", "1/2", "0", "1", "1", 2, 0,
     "proved-start", ["new"], 296, "", ""),
    ("start-1/6", "square2F1", "1/6", "1/2", "0", "1", "1", 1, 0,
     "proved-start", ["new"], 296, "", ""),
    # --- central-binomial convolutions ------------------------------------
    ("sun-211", "square2F1", "1/4", "-1/3", "1", "4", "1", 3, 0,
     "proved-translation", ["new"], 1186, "", ""),
    ("sun-cor1a", "convCentral", "1/2", "-1/8", "0", "1", "2", 1, 0,
     "proved-translation", ["new"], 1130, "",
     "tables print 4/(sqrt(2)*pi); the transported constant is 2 over pi"),
    ("sun-cor1b", "convCentral", "1/2", "1/4", "1", "2", "1", 1, 0,
     "proved-translation", ["new"], 1134,
     "z sits on the envelope boundary; certified through the gate point and Abel continuity",
     "tables print 4/(2*sqrt(2)*pi); the transported constant is 1 over pi"),
    ("sun-cor2a", "convCentral", "1/6", "3/500", "17", "128", "250/9", 3, 0,
     "proved-translation", ["new"], 1158, "",
     "printed with an extra sqrt(3) weight and the source constant on the right; "
     "the plain sum equals (250*sqrt(3)/9) over pi"),
    ("sun-cor2b", "convCentral", "1/6", "-3/512", "14", "125", "256/9", 3, 0,
     "proved-translation", ["new"], 1162, "",
     "printed with an extra sqrt(3) weight and the source constant on the right; "
     "the plain sum equals (256*sqrt(3)/9) over pi"),
    # --- domb stream: C(2n,n) * OEIS A002893 (not the Domb numbers) --------
    ("domb-16n3", "domb", "0", "1/100", "3", "16", "25/3", 3, 0,
     "numeric-only", ["new"], 1282,
     "checked numerically; the only rational transport route crosses a "
     "branch-broken gate point", ""),
]


def main():
    entries = []
    seen = set()
    for (eid, fam, s, z, a, b, c_r, c_m, c_t, status, tags, line, note, disc) in T:
        assert eid not in seen, eid
        seen.add(eid)
        f = domb() if fam == "domb" else parse_family(f"{fam}:{s}")
        zq = QQ(*map(int, z.split("/"))) if "/" in z else QQ(int(z))
        num, _, den = c_r.partition("/")
        RadConst(QQ(int(num), int(den or 1)), c_m, c_t)  # parses or raises
        if status == "divergent-certificate":
            assert not converges(f, zq), eid
        elif status not in ("proved-start", "proved-translation", "numeric-only"):
            raise AssertionError(f"{eid}: bad status {status}")
        rec = {
            "id": eid, "family": fam, "s": s, "z": z, "a": a, "b": b,
            "c_r": c_r, "c_m": c_m, "c_t": c_t, "status": status,
            "tags": tags, "paper_line": line, "note": note,
        }
        if disc:
            rec["discrepancy_note"] = disc
        entries.append(rec)
    doc = {"schema": "rpv-catalog/1", "entries": entries}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT} ({len(entries)} entries)")


if __name__ == "__main__":
    main()
