"""Repeat the benchmark over several seeds and record medians and spreads.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--traced] [--out perfbench/BENCH_<tag>.json]

For each workload, runs the ``BENCHMARK.json`` command once per seed and
prints, for every end-to-end metric, the median and the spread (the distance
between the first and third quartile of the runs, as a share of the median)
next to the metric's bound.  ``--traced`` adds one traced run per workload
for the per-layer table.  ``--out`` writes everything, with the machine,
Python and backend, as a performance record.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def one_run(cmd: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"spread: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "python": platform.python_version(),
        "backend": "fraction (RPV_PURE=1; run.py refuses any other)",
        "command": bench["command"],
        "run_seconds": seconds,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "workloads": {},
    }
    for workload in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [one_run(bench["command"], workload, s, seconds, 0) for s in seeds]
        entry = {
            "seeds": list(seeds),
            "run_s_max": max(r["run_s"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {args.runs} runs, longest {entry['run_s_max']:.1f} s,"
              f" {entry['failed']} of {entry['attempted']} requests failed")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = dict(stats, unit=results[0]["metrics"][name]["unit"])
            flag = "ok" if stats["spread"] < bound / 3 else ("WIDE" if stats["spread"] > bound else "over 1/3")
            print(f"  {name:<16} median {stats['median']:.4f}  spread {stats['spread']:.4f}"
                  f"  bound {bound}  {flag}")
        if args.traced:
            traced = one_run(bench["command"], workload, args.first_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, value in entry["per_layer"].items():
                print(f"    {name:<36} {value:.6g}")
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
