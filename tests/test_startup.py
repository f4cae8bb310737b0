"""Start-up cost and the record types that keep it low.

Every rpv command starts a fresh interpreter, so what importing the package
costs is paid on every run.  Records are NamedTuples, and values with
arithmetic or a validating constructor are __slots__ classes: creating
neither execs generated code, and the dataclasses module, with the inspect,
ast and dis modules it imports, stays out of the start-up.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as QQ
from pathlib import Path

import pytest

import rpv
from rpv.catalog import load_catalog
from rpv.hyper import CheckReport, hyper3F2
from rpv.numerics import BigApprox, RadConst
from rpv.special import LIMIT_SPECS
from rpv.transforms import get_rule
from rpv.translate import SeriesSpec

SETUP = (
    "import sys\n"
    "import rpv.cli\n"
    "from rpv.catalog import load_catalog\n"
    "from rpv.transforms import load_rules\n"
    "load_catalog()\n"
    "load_rules()\n"
    "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
)


def test_cli_start_imports_neither_dataclasses_nor_inspect():
    # -S: the .pth files of a host's site-packages may import anything, so
    # only what rpv itself imports is counted
    env = {k: v for k, v in os.environ.items() if k != "RPV_CATALOG"}
    env["PYTHONPATH"] = str(Path(rpv.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SETUP], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_stream_cache_is_empty_after_import():
    # perfbench refuses a request that starts with a warm stream cache
    env = {k: v for k, v in os.environ.items() if k != "RPV_CATALOG"}
    env["PYTHONPATH"] = str(Path(rpv.__file__).resolve().parent.parent)
    script = (
        "import rpv.cli\n"
        "from rpv import hyper\n"
        "print(type(hyper._stream_cache).__name__, len(hyper._stream_cache))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["dict", "0"]


def test_bigapprox_refuses_tuple_operations():
    x = BigApprox.from_int(3, 64)
    with pytest.raises(TypeError):
        x < x  # noqa: B015
    with pytest.raises(TypeError):
        3 * x
    with pytest.raises(AttributeError):
        x.err = 0
    assert x == BigApprox(3 << 64, 64, 0) != BigApprox(3 << 64, 64, 1)
    assert pickle.loads(pickle.dumps(x)) == x


def test_records_refuse_assignment_and_pickle():
    spec = SeriesSpec(hyper3F2(QQ(1, 2)), QQ(1, 4), QQ(1), QQ(6), RadConst(4))
    entry = load_catalog()[0]
    for record, name in [(spec, "z"), (entry, "status"), (get_rule("kummer-sq"), "C"),
                         (CheckReport(True, "ok"), "passed"), (LIMIT_SPECS["limit-x1"], "target")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for record in (spec, entry, CheckReport(False, "first mismatch", first_mismatch=3)):
        assert pickle.loads(pickle.dumps(record)) == record
