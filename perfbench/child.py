"""Run one rpv request in this fresh interpreter and report on it.

    python3 perfbench/child.py setup
    python3 perfbench/child.py request [--trace] -- <rpv argv ...>

``setup`` imports ``rpv.cli``, loads the catalog and the rules, and reports
the arithmetic backend and ``time.monotonic()`` when done; the parent
subtracts its own monotonic clock reading from before the spawn (both are
CLOCK_MONOTONIC on Linux), so the figure includes interpreter start-up.  ``request`` checks that the caches a
warm process would reuse are empty, times ``rpv.cli.main(argv)`` with its
standard output captured, and reports exit code, time, peak RSS and the
SHA-256 of the output.  Either way the report is one JSON line on the real
standard output.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _setup() -> dict:
    import rpv.cli
    from rpv.catalog import load_catalog
    from rpv.transforms import load_rules

    load_catalog()
    load_rules()
    return {"done": time.monotonic(), "backend": rpv.BACKEND}


def _request(argv: list, trace: bool) -> dict:
    import rpv.cli
    from rpv import hyper, numerics

    oracle = numerics.pi_oracle
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # a warm cache would time a speed-up no user sees on a fresh command
    if hyper._stream_cache or oracle.cache_info().currsize:
        raise SystemExit("perfbench: rpv caches are warm at request start")
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = rpv.cli.main(argv)
    wall = time.perf_counter() - t0
    out = buf.getvalue()
    return {
        "rc": rc,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stdout": out if len(out) <= 65536 else None,
        "layers": tracer.summary() if tracer else None,
    }


def main(args: list) -> int:
    if args[:1] == ["setup"]:
        report = _setup()
    elif args[:1] == ["request"] and "--" in args:
        cut = args.index("--")
        report = _request(args[cut + 1:], "--trace" in args[1:cut])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
