"""The names perfbench/tracer.py wraps from outside must stay in rpv, and the
outputs perfbench/expected.json records must stay byte-identical.

The benchmark's tracer patches rpv functions by module and attribute name and
reads the binary split's positional arguments and result, so a rename there
would silently drop a layer from every traced run.
"""

import contextlib
import hashlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import rpv.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402

sys.path.remove(str(PERFBENCH))


def test_every_traced_layer_resolves():
    for home, attr, *_ in tracer.LAYERS:
        owner = importlib.import_module(f"rpv.{home}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (home, attr)


SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
t = Tracer()
t.install()
import rpv.cli
out = {}
for argv in (["digits", "--id", "s14-08", "--digits", "2000"],
             ["digits", "--id", "domb-16n3", "--digits", "200"]):
    t.spans.clear()
    t.max_depth.clear()
    assert rpv.cli.main(argv) == 0, argv
    out[argv[2]] = t.summary().get("binsplit.split")
print(json.dumps(out))
"""


def test_traced_digit_runs_report_the_split():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.strip().splitlines()[-1])
    for eid in ("s14-08", "domb-16n3"):
        split = spans[eid]
        assert split is not None, eid
        assert {"terms", "q_bits", "t_bits", "depth"} <= set(split), (eid, split)
        assert split["terms"] > 0 and split["depth"] > 1, (eid, split)


RULES_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
t = Tracer()
t.install()
import rpv.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rpv.cli.main(["rules", "verify", "--order", "32", "--jobs", "1", "--json"])
spans = t.summary()
print(json.dumps({"code": code, "extend": spans.get("hyper.extend"),
                  "prefactor": spans.get("transforms.prefactor_series")}))
"""


def test_traced_rules_run_reports_streams_and_prefactors():
    # memoized factors and integer streams must still pass through the
    # wrapped names, or the benchmark would read these layers as idle
    proc = subprocess.run(
        [sys.executable, "-c", RULES_SCRIPT, str(PERFBENCH)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["code"] == 0
    for name in ("extend", "prefactor"):
        span = out[name]
        assert span is not None and span["calls"] > 0 and span["s"] > 0, (name, span)
    assert out["extend"]["n"] == 32


def test_canonical_outputs_match_recorded_digests(monkeypatch):
    # the benchmark checks these outputs byte for byte against its record
    monkeypatch.delenv("RPV_CATALOG", raising=False)
    recorded = json.loads((PERFBENCH / "expected.json").read_text())["outputs"]
    for key, digest in recorded.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert rpv.cli.main(key.split()) == 0, key
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, key
