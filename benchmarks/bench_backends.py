"""Timing comparison of the gmpy2 backend against the pure-Fraction fallback.

Each workload runs in a fresh subprocess so the backend choice (made at
import time from RPV_PURE) is honest.  Without gmpy2 there is nothing to
compare, so the script exits 2.  Run from the repository root:

    python3 benchmarks/bench_backends.py [--repeat N] [--json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["rules-order48", "verify-entry-1000", "digits-50000", "limit-1e6"]


def run_workload(name: str) -> float:
    from rpv.catalog import load_catalog, verify_entry
    from rpv.binsplit import pi_digits
    from rpv.special import LIMIT_SPECS, limit_eval
    from rpv.transforms import get_rule, verify_rule_formal

    entries = {e.id: e for e in load_catalog()}
    t0 = time.perf_counter()
    if name == "rules-order48":
        for rid in ["pfaff-sq", "kummer-sq", "goursat-28n3", "class3", "domb-rogers"]:
            assert verify_rule_formal(get_rule(rid), 48).passed
    elif name == "verify-entry-1000":
        assert verify_entry(entries["s14-08"], 1000).passed
    elif name == "digits-50000":
        assert len(pi_digits(entries["s16-11"], 50000)) == 50000
    elif name == "limit-1e6":
        assert limit_eval(LIMIT_SPECS["limit-start-1/2"], 1e-6).passed
    else:
        raise ValueError(f"unknown workload {name!r}")
    return time.perf_counter() - t0


def time_in_subprocess(name: str, pure: bool, repeat: int) -> dict:
    env = dict(os.environ, RPV_PURE="1" if pure else "0")
    times = []
    for _ in range(repeat):
        out = subprocess.run(
            [sys.executable, __file__, "--worker", name],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return {
        "workload": name,
        "backend": "fraction" if pure else "gmpy2",
        "best": min(times),
        "median": statistics.median(times),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        from rpv._backend import BACKEND

        print(BACKEND, file=sys.stderr)
        print(run_workload(args.worker))
        return 0

    try:
        import gmpy2  # noqa: F401
    except ImportError:
        print("gmpy2 cannot be imported; there is no second backend to time", file=sys.stderr)
        return 2

    rows = []
    for name in WORKLOADS:
        fast = time_in_subprocess(name, pure=False, repeat=args.repeat)
        pure = time_in_subprocess(name, pure=True, repeat=args.repeat)
        rows.append({"workload": name, "gmpy2": fast["best"], "fraction": pure["best"]})
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'workload':<16} {'gmpy2':>9} {'fraction':>9} {'ratio':>7}")
    for r in rows:
        ratio = r["fraction"] / r["gmpy2"] if r["gmpy2"] > 0 else float("inf")
        print(
            f"{r['workload']:<16} {r['gmpy2']:>8.3f}s {r['fraction']:>8.3f}s {ratio:>6.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
