"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction as QQ

import pytest

import rpv.numerics
import rpv.special
from rpv.binsplit import digits_file_text, oracle_digits
from rpv.catalog import DATA_DIR
from rpv.cli import _COMMANDS, _build_parser, main, render_json
from rpv.numerics import RadConst


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_translate_prints_bauer_certificate():
    code, out, _ = run_cli(
        ["translate", "--source", "start-1/4", "--rule", "pfaff-sq", "--x0", "1/2"]
    )
    assert code == 0
    assert "target  family=hyper3F2:1/2 z=-1 (a,b)=(1,4) c=2" in out
    assert "status  proved-translation" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--id", "s12-04", "--digits", "15", "--json"],
        ["rules", "verify", "--order", "8", "--rule", "pfaff-sq", "--json"],
        ["translate", "--source", "start-1/4", "--rule", "pfaff-sq", "--x0", "1/2", "--json"],
        ["start", "--s", "1/2", "--digits", "15", "--json"],
        ["sun", "--check", "s2-identity", "--digits", "20", "--json"],
        ["limit", "--id", "limit-start-1/6", "--tolerance", "1e-6", "--json"],
    ],
)
def test_json_output_round_trips(argv):
    code, out, _ = run_cli(argv)
    assert code == 0
    assert render_json(json.loads(out)) == out


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_render_json_refuses_nan_and_infinity(value):
    # strict JSON parsers reject NaN and Infinity; main maps this to exit 2
    with pytest.raises(ValueError):
        render_json({"tolerance": value})


def test_verify_text_output():
    code, out, _ = run_cli(["verify", "--id", "s12-04", "--digits", "15"])
    assert code == 0
    assert out.startswith("s12-04")
    assert "1 entries, 1 pass, 0 fail" in out


def test_verify_jobs_deterministic():
    code1, out1, _ = run_cli(["verify", "--digits", "10", "--json", "--jobs", "1"])
    code3, out3, _ = run_cli(["verify", "--digits", "10", "--json", "--jobs", "3"])
    assert code1 == code3 == 0
    assert out1 == out3


def test_rules_verify_jobs_deterministic():
    code1, out1, _ = run_cli(["rules", "verify", "--order", "8", "--json", "--jobs", "1"])
    code2, out2, _ = run_cli(["rules", "verify", "--order", "8", "--json", "--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_rules_verify_lists_warning_caveat():
    code, out, _ = run_cli(["rules", "verify", "--order", "8", "--rule", "warning-1p8x"])
    assert code == 0
    assert "caveat:" in out
    assert "FALSE as a numeric identity" in out


def test_usage_errors_exit_2():
    cases = [
        ["verify"],  # missing --digits
        ["verify", "--digits", "0"],
        ["rules", "verify", "--order", "4"],
        ["verify", "--id", "nope", "--digits", "10"],
        ["start", "--s", "0.5", "--digits", "10"],
        ["start", "--s", "3/2", "--digits", "10"],
        # int() takes these, the p/q grammar does not
        ["start", "--s", "1_0/3_0", "--digits", "10"],
        ["start", "--s", "\u0661/\u0663", "--digits", "10"],
        ["start", "--s", "1 / 3", "--digits", "10"],
        ["start", "--s", "1/-3", "--digits", "10"],
        ["translate", "--source", "start-1/4", "--rule", "nope", "--x0", "1/2"],
        ["translate", "--source", "start-1/4", "--rule", "pfaff-sq"],  # no point
        ["limit", "--id", "nope", "--tolerance", "1e-8"],
        ["limit", "--id", "limit-8x1", "--tolerance", "-1"],
        # float() reads both as infinity, which JSON cannot carry
        ["limit", "--id", "limit-x1", "--tolerance", "inf", "--json"],
        ["limit", "--id", "limit-x1", "--tolerance", "1e999", "--json"],
        ["sun", "--check", "bogus", "--digits", "10"],
        ["verify", "--digits", "10", "--jobs", "0"],
    ]
    for argv in cases:
        code, _, _ = run_cli(argv)
        assert code == 2, argv


def test_gate_refused_exits_1():
    code, _, err = run_cli(
        ["translate", "--source", "start-1/3", "--rule", "warning-1p8x", "--x0", "1/2"]
    )
    assert code == 1
    assert "numeric gate" in err


def test_digits_divergent_entry_exits_1():
    code, _, err = run_cli(["digits", "--id", "s12-05", "--digits", "10"])
    assert code == 1
    assert "refused" in err


def test_digits_out_and_check(tmp_path):
    target = tmp_path / "pi.txt"
    code, out, _ = run_cli(
        ["digits", "--id", "s16-11", "--digits", "40", "--out", str(target), "--check"]
    )
    assert code == 0
    assert target.read_text() == digits_file_text(oracle_digits(40))
    assert "all 40 digits match the oracle" in out


def test_digits_unwritable_out_exits_2(tmp_path):
    # a directory stands in for every OSError on the write; a read-only file
    # does not, since root may write it
    code, _, err = run_cli(["digits", "--id", "s12-04", "--digits", "10", "--out", str(tmp_path)])
    assert code == 2
    assert str(tmp_path) in err
    assert "internal error" not in err


def test_digits_check_uncertified_oracle_exits_1(monkeypatch):
    # a Machin interval too wide to certify is a refusal, not an internal error
    monkeypatch.setattr(rpv.numerics, "machin_pi", lambda prec: (0, 1 << prec))
    rpv.numerics.pi_oracle.cache_clear()
    try:
        code, _, err = run_cli(["digits", "--id", "s16-11", "--digits", "50", "--check"])
    finally:
        rpv.numerics.pi_oracle.cache_clear()
    assert code == 1
    assert "failed to certify" in err and "internal error" not in err


@pytest.mark.parametrize("digits", ["50", "500"])
@pytest.mark.parametrize("eid", ["domb-16n3", "start-1/3", "sun-cor2a"])
def test_digits_check_second_order_families(eid, digits):
    code, out, err = run_cli(["digits", "--id", eid, "--digits", digits, "--check"])
    assert code == 0, err
    assert out.endswith(f"check: all {digits} digits match the oracle\n")


@pytest.mark.parametrize("z", ["0", "1/1" + "0" * 400])
def test_digits_zero_or_tiny_z_is_no_internal_error(monkeypatch, tmp_path, z):
    doc = json.loads((DATA_DIR / "catalog.json").read_text())
    for entry in doc["entries"]:
        if entry["id"] == "s12-04":
            entry["z"] = z
    (tmp_path / "catalog.json").write_text(json.dumps(doc))
    shutil.copy(DATA_DIR / "certificates.json", tmp_path)
    monkeypatch.setenv("RPV_CATALOG", str(tmp_path / "catalog.json"))
    t0 = time.perf_counter()
    code, _, err = run_cli(["digits", "--id", "s12-04", "--digits", "10"])
    assert time.perf_counter() - t0 < 1.0
    assert code in (0, 1), err
    assert "internal error" not in err


def test_digits_stdout_stream():
    code, out, _ = run_cli(["digits", "--id", "s12-04", "--digits", "12"])
    assert code == 0
    assert out == "3.14159265358\n"


def test_limit_text_output():
    code, out, _ = run_cli(["limit", "--id", "limit-start-1/6", "--tolerance", "1e-6"])
    assert code == 0
    assert out.startswith("limit-start-1/6: pass")


# sha256 of the default `limit --id X --tolerance 1e-8` output, as
# (--json, text); the exact verdict must print these bytes
LIMIT_OUTPUT_SHA256 = {
    "limit-start-1/2": (
        "e182f9242fbc2c3b61c99b89a8008a8ae9e4fad73b4d797da2417ec6f846cb21",
        "1f0903583a149776a737262cfe946c9e17c9715b7f1e61e02b809d829e5eef94",
    ),
    "limit-start-1/3": (
        "80622ab0d1ec97786d52f5d47ec483b70462ce6eb4c06d67e05457e93df92db5",
        "10b5f927203062a01cee4197b9896f123f22e34b9cb60e02077a77dbd84228df",
    ),
    "limit-start-1/4": (
        "abe9878ae04c89d9f5e3c02c8dc55105faa1d0c6135f4e8eb3d9a4e1bcf963c6",
        "f40bcb4f5bf6a9cdbeeb1e9aee15f0aa90be996c8d8d0634fe0dbd342e30fb53",
    ),
    "limit-start-1/6": (
        "8922113df4d157c0559d51f4de170edbe9305dd387880576eb9a2a541af4b31b",
        "8d796b3d4da0999b0c39f4e383fddcf5e400540c214b70daa5ea99e829449d4d",
    ),
    "limit-8x1": (
        "83c78e95e3a639954f7192ac8ce61d361aa66f2daaebaf6a947f2cc5b2161e05",
        "ebcd29fa1306cedbd2fc0235863a4a552f21b3eb6863a009dce144ce69c41567",
    ),
    "limit-x1": (
        "70b819aa8695fd850fdaaf8b03676bc3424bac2480bf11916ee5022b6d6d3a5a",
        "38570201a92456665151b4b199b11e469631a39b7c14d4aabd92a30f2d939d4b",
    ),
    "limit-8px": (
        "edd04905441a0d7c0b91a9019c1c526068b232cebc7bbc67b5a712278243cad7",
        "e7f54b8a19eb89efb8ca4f595dd48b36e9026fc43e5828c46b54110c8601cd78",
    ),
}


@pytest.mark.parametrize("lid", sorted(LIMIT_OUTPUT_SHA256))
def test_limit_default_output_is_pinned(lid):
    argv = ["limit", "--id", lid, "--tolerance", "1e-8"]
    for extra, want in zip((["--json"], []), LIMIT_OUTPUT_SHA256[lid]):
        code, out, _ = run_cli(argv + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, (lid, extra)


def test_limit_ladder_flag_is_gone():
    code, _, err = run_cli(
        ["limit", "--id", "limit-8px", "--tolerance", "1e-8", "--ladder"]
    )
    assert code == 2
    assert "--ladder" in err


def test_limit_wrong_target_exits_1(monkeypatch):
    old = rpv.special.LIMIT_SPECS["limit-8x1"]
    spec = rpv.special.LimitSpec(
        old.family, old.weight, old.argument, old.x_star, old.direction, RadConst(QQ(1, 2), 2)
    )
    monkeypatch.setitem(rpv.special.LIMIT_SPECS, "limit-wrong", spec)
    code, out, _ = run_cli(["limit", "--id", "limit-wrong", "--tolerance", "1e-8"])
    assert code == 1
    assert out.startswith("limit-wrong: FAIL")


def test_unreadable_catalog_exits_2(monkeypatch, tmp_path):
    monkeypatch.setenv("RPV_CATALOG", str(tmp_path))
    code, _, err = run_cli(["verify", "--id", "s12-04", "--digits", "10"])
    assert code == 2
    assert "cannot read catalog file" in err
    # a directory where certificates.json should be
    shutil.copy(DATA_DIR / "catalog.json", tmp_path / "catalog.json")
    (tmp_path / "certificates.json").mkdir()
    monkeypatch.setenv("RPV_CATALOG", str(tmp_path / "catalog.json"))
    code, _, err = run_cli(["verify", "--id", "s12-04", "--digits", "10"])
    assert code == 2
    assert "cannot read certificates file" in err


@pytest.mark.parametrize(
    "catalog, certificates",
    [
        ("[]", None),
        ('{"schema": "rpv-catalog/1"}', None),
        (None, '{"schema": "rpv-certificates/1"}'),
        ('{"schema": "rpv-catalog/1", "entries": [1]}', None),
        (None, '{"schema": "rpv-certificates/1", "entries": {"s12-04": [1]}}'),
    ],
    ids=["list", "no-entries", "certificates-no-entries", "entry-not-object",
         "wrapper-not-object"],
)
def test_misshapen_catalog_exits_2(monkeypatch, tmp_path, catalog, certificates):
    path = tmp_path / "catalog.json"
    if catalog is None:
        shutil.copy(DATA_DIR / "catalog.json", path)
    else:
        path.write_text(catalog)
    if certificates is not None:
        (tmp_path / "certificates.json").write_text(certificates)
    monkeypatch.setenv("RPV_CATALOG", str(path))
    code, _, err = run_cli(["verify", "--id", "s12-04", "--digits", "10"])
    assert code == 2, err
    assert "internal error" not in err


def _catalog_with_field(tmp_path, entry_id, key, json_text):
    """A catalog copy whose entry entry_id has key set to the literal JSON
    text json_text (so 1e400 stays a number that overflows a float)."""
    doc = json.loads((DATA_DIR / "catalog.json").read_text())
    for entry in doc["entries"]:
        if entry["id"] == entry_id:
            entry[key] = "@@field@@"
    text = json.dumps(doc).replace('"@@field@@"', json_text)
    (tmp_path / "catalog.json").write_text(text)
    shutil.copy(DATA_DIR / "certificates.json", tmp_path)
    return str(tmp_path / "catalog.json")


@pytest.mark.parametrize(
    "key, json_text, message",
    [("paper_line", "1e400", "field 'paper_line' must be a JSON integer"),
     ("c_m", "1e400", "field 'c_m' must be a JSON integer"),
     ("c_m", "2.5", "field 'c_m' must be a JSON integer"),
     ("c_t", "true", "field 'c_t' must be a JSON integer"),
     ("paper_line", '"12"', "field 'paper_line' must be a JSON integer"),
     ("s", '"1000/3"', "family parameter must lie in (0, 1)"),
     ("z", "5", "field 'z' must be a JSON string"),
     ("a", "[1]", "field 'a' must be a JSON string"),
     ("c_r", "2", "field 'c_r' must be a JSON string"),
     ("tags", '[5, "x"]', "field 'tags' must be an array of strings"),
     ("tags", '[["R"]]', "field 'tags' must be an array of strings"),
     ("tags", '"R"', "field 'tags' must be a JSON array"),
     ("discrepancy_note", "7", "field 'discrepancy_note' must be a JSON string"),
     ("id", "5", "field 'id' must be a JSON string")],
)
def test_bad_catalog_field_exits_2(monkeypatch, tmp_path, key, json_text, message):
    # 1e400 used to end in an internal OverflowError (exit 3) and 2.5 was
    # read as 2; at s = 1000/3 the envelope bound fails, so the sum was wrong
    # while its certified error bound was tiny.  A number or an array where a
    # rational string belongs, and tags that are not strings, also ended in
    # exit 3; "R" was read as ["R"], and a numeric id named another entry
    monkeypatch.setenv("RPV_CATALOG", _catalog_with_field(tmp_path, "s12-04", key, json_text))
    code, _, err = run_cli(["verify", "--digits", "5", "--jobs", "1"])
    assert code == 2, err
    shown = json_text if key == "id" else "s12-04"
    assert f"catalog entry {shown}: {message}" in err


def test_sun_checks_run():
    for name in ["2.11", "rogers"]:
        code, out, _ = run_cli(["sun", "--check", name, "--digits", "15"])
        assert code == 0, name
        assert f"sun {name}: pass" in out


def test_replay_round_trip(tmp_path):
    argv = ["translate", "--source", "start-1/2", "--rule", "kummer-sq", "--target-z", "-1/8"]
    code, out, _ = run_cli(argv + ["--json"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    stored = tmp_path / "cert.json"
    stored.write_text(json.dumps(cert))
    code, out, _ = run_cli(argv + ["--replay", str(stored)])
    assert code == 0
    assert "replay  pass" in out

    cert["target"]["a"] = "99"
    stored.write_text(json.dumps(cert))
    code, _, _ = run_cli(argv + ["--replay", str(stored)])
    assert code == 1


def test_replay_zero_weight_target_exits_1(tmp_path):
    argv = ["translate", "--source", "start-1/2", "--rule", "kummer-sq", "--x0", "1/2"]
    code, out, _ = run_cli(argv + ["--json"])
    cert = json.loads(out)["certificate"]
    cert["target"]["a"] = cert["target"]["b"] = "0"
    stored = tmp_path / "cert.json"
    stored.write_text(json.dumps(cert))
    code, out, err = run_cli(argv + ["--replay", str(stored)])
    assert code == 1 and not err
    assert "replay  FAIL" in out


def test_replay_missing_file_exits_2(tmp_path):
    code, _, _ = run_cli(
        [
            "translate",
            "--source",
            "start-1/2",
            "--rule",
            "kummer-sq",
            "--target-z",
            "-1/8",
            "--replay",
            str(tmp_path / "absent.json"),
        ]
    )
    assert code == 2


def test_catalog_env_override(tmp_path, monkeypatch):
    from pathlib import Path

    import rpv

    bundled_path = Path(rpv.__file__).parent / "data" / "catalog.json"
    bundled = json.loads(bundled_path.read_text())
    entries = bundled["entries"] if isinstance(bundled, dict) else bundled
    entries[3]["id"] = entries[2]["id"]
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(bundled))
    monkeypatch.setenv("RPV_CATALOG", str(bad))
    code, _, err = run_cli(["verify", "--digits", "10"])
    assert code == 1
    assert "duplicate catalog id" in err


def test_help_exits_0():
    code, _, _ = run_cli(["--help"])
    assert code == 0


# argv that end in help, a usage error or a parse, one or more per subcommand
PARSER_CASES = [
    ["verify"],
    ["verify", "-h"],
    ["verify", "--digits", "x"],
    ["verify", "--digits", "5", "--bogus"],
    ["verify", "--digits", "5", "extra"],
    ["verify", "--jobs", "0", "--digits", "3"],
    ["verify", "--digits", "5", "--id", "s12-04", "--json"],
    ["rules"],
    ["rules", "-h"],
    ["rules", "bogus"],
    ["rules", "verify", "-h"],
    ["rules", "verify", "--order", "4"],
    ["rules", "verify", "--order", "8", "--nope"],
    ["translate", "-h"],
    ["translate", "--source", "a", "--rule", "b"],
    ["translate", "--source", "a", "--rule", "b", "--x0", "1", "--target-z", "2"],
    ["translate", "--source", "a", "--rule", "b", "--x0", "-1/8"],
    ["digits", "-h"],
    ["digits", "--id", "s", "--digits", "5", "--out"],
    ["limit", "-h"],
    ["limit", "--id", "x", "--tolerance", "abc"],
    ["sun", "-h"],
    ["sun", "--check", "bogus", "--digits", "10"],
    ["start", "-h"],
    ["start", "--s"],
]


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CASES)
def test_subcommand_parser_reads_like_the_full_parser(monkeypatch, argv):
    # the full parser is the one built for an argv that names no subcommand
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(_build_parser(argv), argv) == _parse(_build_parser(), argv)


def test_subcommand_parser_builds_one_subcommand():
    for argv, names in (
        (["digits"], ("digits",)),
        (["-h"], _COMMANDS),
        (["ver"], _COMMANDS),  # an unknown name gets the full parser's error
    ):
        sub = next(a for a in _build_parser(argv)._actions if a.dest == "subcommand")
        assert tuple(sub.choices) == names, argv


def test_subcommand_usage_errors_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = "usage: rpv [-h] {verify,rules,translate,digits,limit,sun,start} ...\n"
    assert run_cli(["verify", "--digits", "5", "--bogus"]) == (
        2, "", usage + "rpv: error: unrecognized arguments: --bogus\n"
    )
    assert run_cli(["rules"]) == (
        2,
        "",
        "usage: rpv rules [-h] {verify} ...\n"
        "rpv rules: error: the following arguments are required: rules_command\n",
    )
    code, out, _ = run_cli(["-h"])
    assert code == 0 and out.startswith(usage)


def test_replay_oversized_radicand_exits_2(tmp_path):
    argv = ["translate", "--source", "start-1/2", "--rule", "kummer-sq", "--target-z", "-1/8"]
    code, out, _ = run_cli(argv + ["--json"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    cert["target"]["c"] = "1*sqrt(1000000000000000003)"
    stored = tmp_path / "cert.json"
    stored.write_text(json.dumps(cert))
    code, _, err = run_cli(argv + ["--replay", str(stored)])
    assert code == 2
    assert "exceeds the cap" in err


# 5000 digits is past CPython's 4300-digit int <-> str guard, which rpv keeps
HUGE_INT = "7" * 5000


def _exits_2_quickly(argv):
    t0 = time.perf_counter()
    code, _, err = run_cli(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2, err
    return err


def test_huge_digit_count_exits_2_quickly():
    assert len(_exits_2_quickly(["digits", "--id", "s16-11", "--digits", HUGE_INT])) < 200
    # under the int guard, so it parses, and is refused by its minimum
    err = _exits_2_quickly(["digits", "--id", "s16-11", "--digits", "-" + "7" * 4000])
    assert len(err) < 200 and "at least 1" in err


def test_target_z_with_smooth_denominator_exits_2_quickly():
    # no rational x0 joins the two sides; enumerating the divisors of the
    # denominator ran past 20 s before the roots were isolated
    argv = ["translate", "--source", "s13-01", "--rule", "class7", "--target-z", "-1/151931373056000"]
    assert "no rational point joins" in _exits_2_quickly(argv)


def test_replay_huge_integer_exits_2_quickly(tmp_path):
    argv = ["translate", "--source", "start-1/2", "--rule", "kummer-sq", "--target-z", "-1/8"]
    code, out, _ = run_cli(argv + ["--json"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    stored = tmp_path / "cert.json"
    # as a rational string, then as a bare JSON number
    stored.write_text(json.dumps(dict(cert, target=dict(cert["target"], a=HUGE_INT))))
    assert len(_exits_2_quickly(argv + ["--replay", str(stored)])) < 200
    stored.write_text(json.dumps(cert).replace('"target": {', f'"target": {{"n": {HUGE_INT}, ', 1))
    err = _exits_2_quickly(argv + ["--replay", str(stored)])
    assert len(err) < 200 and "number literal is too long" in err and str(stored) in err


def test_import_keeps_int_str_guard():
    script = (
        "import sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import rpv.cli, rpv.binsplit, rpv.numerics\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_closed_stdout_exits_2():
    # a reader that stops early (`| head -c 10`) closes the pipe mid-output;
    # in-process runs write to a StringIO, so only a real pipe shows this
    proc = subprocess.Popen(
        [sys.executable, "-m", "rpv.cli", "digits", "--id", "s16-11",
         "--digits", "100000", "--check"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"3.14159265"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2, err
    assert "internal error" not in err and "Traceback" not in err


def _shipped_certificate():
    """The s12-01 transport certificate and the argv that derives it."""
    certs = json.loads((DATA_DIR / "certificates.json").read_text())["entries"]
    wrapper = certs["s12-01"][0]
    cert = wrapper["certificate"]
    argv = ["translate", "--source", wrapper["source_id"], "--rule", cert["rule"],
            "--x0", cert["x0"], "--replay"]
    return cert, argv


@pytest.mark.parametrize(
    "z, code", [("1/1000000007", 1), ("1/999999999989", 1), ("1/1000000000000000003", 2)]
)
def test_replay_at_large_prime_point_ends_quickly(tmp_path, z, code):
    # the prefactor (1-x)^(-1/2) at x0 = 1/P has the radicand (P-1) P, whose
    # factoring once trial-divided for hours; a subprocess with a timeout
    # fails a regression instead of holding the suite
    cert, argv = _shipped_certificate()
    stored = tmp_path / "cert.json"
    stored.write_text(json.dumps(dict(cert, x0=z, source=dict(cert["source"], z=z))))
    proc = subprocess.run(
        [sys.executable, "-m", "rpv.cli", *argv, str(stored)],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert "too large to factor" in proc.stderr and len(proc.stderr) < 200


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda c: [], "schema"),
        (lambda c: {k: v for k, v in c.items() if k != "trace"}, "trace.lam"),
        (lambda c: dict(c, gate={k: v for k, v in c["gate"].items() if k != "x"}), "gate.x"),
        (lambda c: dict(c, x0=1), "x0"),
        (lambda c: dict(c, trace=[]), "trace.lam"),
        (lambda c: dict(c, source=dict(c["source"], family="x" * 5000)), "source.family"),
    ],
    ids=["list", "no-trace", "gate-without-x", "integer-x0", "trace-list", "long-family"],
)
def test_misshapen_replay_certificate_exits_2(tmp_path, mutate, field):
    cert, argv = _shipped_certificate()
    stored = tmp_path / "cert.json"
    stored.write_text(json.dumps(mutate(cert)))
    code, _, err = run_cli(argv + [str(stored)])
    assert code == 2, err
    assert f"field {field!r}" in err and len(err) < 200


def test_replay_file_nested_too_deeply_exits_2(tmp_path):
    _, argv = _shipped_certificate()
    stored = tmp_path / "cert.json"
    stored.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(argv + [str(stored)])
    assert code == 2, err
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "entry_id, kind, key",
    [("s12-01", "transport", "certificate"), ("s12-05", "divergence", "edge"),
     ("s12-01", "transport", "source_id")],
)
def test_misshapen_certificate_wrapper_exits_2(monkeypatch, tmp_path, entry_id, kind, key):
    shutil.copy(DATA_DIR / "catalog.json", tmp_path / "catalog.json")
    certs = json.loads((DATA_DIR / "certificates.json").read_text())
    for wrapper in certs["entries"][entry_id]:
        if wrapper["kind"] == kind:
            del wrapper[key]
    (tmp_path / "certificates.json").write_text(json.dumps(certs))
    monkeypatch.setenv("RPV_CATALOG", str(tmp_path / "catalog.json"))
    code, _, err = run_cli(["verify", "--id", entry_id, "--digits", "10"])
    assert code == 2, err
    assert f"certificate of {entry_id}: field {key!r} is missing" in err


def _catalog_with_wrappers(tmp_path, entry_id, mutate):
    shutil.copy(DATA_DIR / "catalog.json", tmp_path / "catalog.json")
    certs = json.loads((DATA_DIR / "certificates.json").read_text())
    mutate(certs["entries"][entry_id])
    (tmp_path / "certificates.json").write_text(json.dumps(certs))
    return str(tmp_path / "catalog.json")


_NO_KIND = object()


@pytest.mark.parametrize("kind", ["transprot", None, 7, _NO_KIND],
                         ids=["misspelt", "null", "number", "missing"])
def test_unknown_certificate_kind_exits_2(monkeypatch, tmp_path, kind):
    # s14-02 is proved-translation and also sums numerically, so an ignored
    # wrapper used to leave it passing on the sum alone
    def mutate(wrappers):
        if kind is _NO_KIND:
            del wrappers[0]["kind"]
        else:
            wrappers[0]["kind"] = kind

    monkeypatch.setenv("RPV_CATALOG", _catalog_with_wrappers(tmp_path, "s14-02", mutate))
    code, out, err = run_cli(["verify", "--id", "s14-02", "--digits", "15"])
    assert code == 2, (out, err)
    shown = "None" if kind is _NO_KIND else repr(kind)
    assert f"catalog entry s14-02: unknown certificate kind {shown}" in err


def test_proved_translation_without_transport_exits_1(monkeypatch, tmp_path):
    monkeypatch.setenv(
        "RPV_CATALOG", _catalog_with_wrappers(tmp_path, "s14-02", lambda ws: ws.clear())
    )
    code, _, err = run_cli(["verify", "--id", "s14-02", "--digits", "15"])
    assert code == 1
    assert "s14-02: proved-translation entry carries no transport certificate" in err


def test_stored_source_mismatch_exits_1(monkeypatch, tmp_path):
    # the certificate still replays, but its source is s12-04's series
    def mutate(wrappers):
        wrappers[0]["source_id"] = "s12-03"

    monkeypatch.setenv("RPV_CATALOG", _catalog_with_wrappers(tmp_path, "s14-02", mutate))
    code, out, err = run_cli(["verify", "--id", "s14-02", "--digits", "15"])
    assert code == 1, err
    assert "stored source does not match catalog entry s12-03" in out


def test_pool_workers_read_the_overriding_catalog(monkeypatch, tmp_path):
    # spawned workers load the catalog themselves, from RPV_CATALOG: s12-04's
    # sum misses the wrong constant, and the three entries transported from
    # s12-04 no longer match their stored source
    monkeypatch.setenv("RPV_CATALOG", _catalog_with_field(tmp_path, "s12-04", "c_r", '"17"'))
    code, out, err = run_cli(["verify", "--digits", "15", "--jobs", "2"])
    assert code == 1, err
    failed = {line.split()[0] for line in out.splitlines() if " FAIL " in line}
    assert failed == {"s12-04", "s14-02", "s16-01", "s16-10"}
