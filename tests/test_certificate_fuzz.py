"""Property test: a shipped certificate, mutated, never ends in exit 3.

Each example drops one key, gives one value another JSON type, or puts a
5000-digit integer literal in its place, and replays the result through
`rpv translate --replay`.  A derivation that differs fails (exit 1); a
record that cannot be read is a usage error (exit 2).
"""

import contextlib
import io
import json
import time

import pytest

from rpv.catalog import DATA_DIR
from rpv.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WRAPPER = json.loads((DATA_DIR / "certificates.json").read_text())["entries"]["s12-01"][0]
CERT = WRAPPER["certificate"]
ARGV = ["translate", "--source", WRAPPER["source_id"], "--rule", CERT["rule"],
        "--x0", CERT["x0"], "--replay"]
BUDGET_S = 2.0
HUGE = "__huge__"  # written out as a bare 5000-digit literal
OTHER_VALUES = (None, True, 7, 0.5, "7/3", [], {}, HUGE)
DROP = object()


def _paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


PATHS = sorted(_paths(CERT))


def _mutated(path, value):
    """The JSON text of CERT with the key at path dropped or its value replaced."""
    doc = json.loads(json.dumps(CERT))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(HUGE), "7" * 5000)


@st.composite
def mutations(draw):
    path = draw(st.sampled_from(PATHS))
    node = CERT
    for key in path:
        node = node[key]
    others = [v for v in OTHER_VALUES if type(v) is not type(node)]
    return path, draw(st.sampled_from([DROP] + others))


@settings(max_examples=60, deadline=None)
@given(mutations())
def test_mutated_certificate_exits_1_or_2(tmp_path_factory, mutation):
    stored = tmp_path_factory.mktemp("cert") / "cert.json"
    stored.write_text(_mutated(*mutation))
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(ARGV + [str(stored)])
    assert time.perf_counter() - t0 < BUDGET_S
    assert code in (1, 2), (mutation, code, err.getvalue())
