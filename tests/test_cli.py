"""Tests for the command-line interface."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import rpv.special
from rpv._backend import QQ
from rpv.binsplit import digits_file_text, oracle_digits
from rpv.catalog import DATA_DIR
from rpv.cli import main, render_json
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
        ["translate", "--source", "start-1/4", "--rule", "nope", "--x0", "1/2"],
        ["translate", "--source", "start-1/4", "--rule", "pfaff-sq"],  # no point
        ["limit", "--id", "nope", "--tolerance", "1e-8"],
        ["limit", "--id", "limit-8x1", "--tolerance", "-1"],
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


def test_digits_stdout_stream():
    code, out, _ = run_cli(["digits", "--id", "s12-04", "--digits", "12"])
    assert code == 0
    assert out == "3.14159265358\n"


def test_limit_text_output():
    code, out, _ = run_cli(["limit", "--id", "limit-start-1/6", "--tolerance", "1e-6"])
    assert code == 0
    assert out.startswith("limit-start-1/6: pass")


def test_limit_default_is_exact_without_ladder(monkeypatch):
    def no_ladder(*args, **kwargs):
        raise AssertionError("the ladder ran without --ladder")

    monkeypatch.setattr(rpv.special, "limit_eval", no_ladder)
    code, out, _ = run_cli(["limit", "--id", "limit-8px", "--tolerance", "1e-8", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] == "4*sqrt(3)" and rep["method"] == "closed-form"
    assert rep["kUsed"] == 0 and rep["errorEstimate"] == 0.0
    assert rep["value"] == rep["target"]


def test_limit_ladder_reports_heuristic():
    code, out, _ = run_cli(
        ["limit", "--id", "limit-start-1/6", "--tolerance", "1e-6", "--ladder",
         "--jobs", "1", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["kUsed"] >= 5
    assert rep["errorEstimate"] <= rep["tolerance"]
    assert rep["detail"].startswith("heuristic") and rep["exact"] == "1"


def test_limit_wrong_target_exits_1(monkeypatch):
    spec = replace(rpv.special.LIMIT_SPECS["limit-8x1"], target=RadConst(QQ(1, 2), 2))
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
    ],
    ids=["list", "no-entries", "certificates-no-entries", "entry-not-object"],
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
    _exits_2_quickly(["digits", "--id", "s16-11", "--digits", HUGE_INT])


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
    assert len(_exits_2_quickly(argv + ["--replay", str(stored)])) < 200


def test_import_keeps_int_str_guard():
    script = (
        "import sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import rpv.cli, rpv.binsplit, rpv.numerics\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
