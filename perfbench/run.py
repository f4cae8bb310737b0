"""Cold-process benchmark of rpv's three jobs: rules, catalog, digits-limits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every request runs ``rpv.cli.main(argv)`` in a
fresh interpreter (``perfbench/child.py``) with the pure backend, because a
user pays cold stream and oracle caches on every command; a warm process
would time speed-ups no user sees.  The workload's requests run as one pass,
and passes repeat until the next one would end past ``--seconds``.  Each
output is checked (digest, limit tolerance or reference digits) and every
failure is counted.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the fastest of
several fresh interpreters importing ``rpv.cli`` and loading catalog and
rules), ``wall_s`` (the sum over requests of each request's fastest time in
``main`` across the passes; see ``summed_fastest``), ``peak_rss_mb`` and
``verified_ratio``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, each the median over traced passes; the spans
come from wrappers installed from outside (``perfbench/tracer.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output was correct, 1 when one was not, and 2 when the benchmark could not
run at all (no ``src/rpv`` next to it), in which case no result is printed.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
PI_DIGITS = HERE / "pi_digits.txt"
REQUEST_TIMEOUT_S = 60
SETUP_PROBES_PER_PASS = 4

# Sizes are cut down from the reference runs (order 64, 300k digits, ...) so
# that several cold passes fit in one run; each request's targeted layer
# still does most of its work (see the baseline in BENCH_seed.json).
RULES_ARGV = ("rules", "verify", "--order", "32", "--jobs", "1", "--json")
CATALOG_ARGV = ("verify", "--digits", "50", "--jobs", "1", "--json")
# (entry, digits, --check): the big-int tail, binary splitting, the oracle
DIGIT_RUNS = (("s16-11", 100000, False), ("s14-08", 20000, False), ("s16-11", 20000, True))
LIMIT_IDS = (
    "limit-start-1/2", "limit-start-1/3", "limit-start-1/4", "limit-start-1/6",
    "limit-8x1", "limit-x1", "limit-8px",
)
LIMIT_TOLERANCE = "1e-8"
SUN_ARGVS = (
    ("sun", "--check", "2.11", "--digits", "30", "--json"),
    ("sun", "--check", "4.14", "--digits", "30", "--json"),
    ("sun", "--check", "rogers", "--digits", "30", "--json"),
    ("sun", "--check", "s2-identity", "--digits", "100", "--json"),
)
# outside the exact sin(pi s) table, so sin_pi takes the numeric path
START_S = ("1/5", "2/5", "3/5", "4/5")
WORKLOADS = ("rules", "catalog", "digits-limits")


@dataclass(frozen=True)
class Request:
    argv: tuple
    check: str  # "digest" | "limit" | "digits"
    digits: int = 0


def build_requests(workload: str, seed: int) -> list:
    """The workload's requests; only digits-limits depends on the seed."""
    if workload == "rules":
        return [Request(RULES_ARGV, "digest")]
    if workload == "catalog":
        return [Request(CATALOG_ARGV, "digest")]
    rng = random.Random(seed)
    reqs = []
    for entry, base, check in DIGIT_RUNS:
        n = base + rng.randint(-base // 100, base // 100)
        argv = ("digits", "--id", entry, "--digits", str(n)) + (("--check",) if check else ())
        reqs.append(Request(argv, "digits", n))
    for lid in LIMIT_IDS:
        argv = ("limit", "--id", lid, "--tolerance", LIMIT_TOLERANCE, "--jobs", "1", "--json")
        reqs.append(Request(argv, "limit"))
    reqs += [Request(argv, "digest") for argv in SUN_ARGVS]
    s = rng.choice(START_S)
    reqs.append(Request(("start", "--s", s, "--digits", "30", "--json"), "digest"))
    rng.shuffle(reqs)
    return reqs


class Checker:
    """Decides whether one request's output is right."""

    def __init__(self):
        doc = json.loads(EXPECTED.read_text())
        self.digests = doc["outputs"]
        self.pi = PI_DIGITS.read_text().strip()
        if hashlib.sha256(self.pi.encode()).hexdigest() != doc["pi_digits_sha256"]:
            raise ValueError(f"{PI_DIGITS} does not match its recorded digest")

    def expected_digits_sha(self, req: Request) -> str:
        ref = self.pi[: req.digits]
        if len(ref) < req.digits:
            raise ValueError(f"reference holds only {len(self.pi)} digits")
        text = f"{ref[0]}.{ref[1:]}\n"
        if "--check" in req.argv:
            text += f"check: all {req.digits} digits match the oracle\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def problem(self, req: Request, rep: dict) -> str | None:
        """None when the output is right, else why not."""
        if rep["rc"] != 0:
            return f"exit code {rep['rc']}"
        if req.check == "digest":
            want = self.digests.get(" ".join(req.argv))
            return None if rep["sha256"] == want else "output digest differs"
        if req.check == "digits":
            return None if rep["sha256"] == self.expected_digits_sha(req) else "wrong digits"
        out = json.loads(rep["stdout"])
        if not out["pass"] or abs(out["value"] - out["target"]) > out["tolerance"]:
            return f"limit {out['value']!r} misses {out['target']!r}"
        return None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RPV_CATALOG"}
    env.update(PYTHONPATH=str(ROOT / "src"), RPV_PURE="1", PYTHONHASHSEED="0")
    return env


def _probe_s() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc = acc * Fraction(i, i + 1) + Fraction(1, i)
    return time.perf_counter() - t0


def fastest_cpu() -> int | None:
    """The CPU that runs a short fixed Fraction loop fastest right now.

    On this host a CPU runs up to 60% slower for seconds at a time while a
    co-tenant shares its core, independently of the other CPU; a child
    started on the CPU that is fast now mostly runs undisturbed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe_s(), _probe_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speed, key=speed.get)


def spawn(args: list, env: dict) -> tuple:
    """(report or None, error text) for one child process.

    The report gains ``spawned``, the monotonic clock just before the spawn.
    """
    cpu = fastest_cpu()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)] + args,
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REQUEST_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["spawned"] = spawned
    return report, ""


def setup_probe(env: dict) -> float | None:
    rep, _ = spawn(["setup"], env)
    return None if rep is None else rep["done"] - rep["spawned"]


def merge_layers(total: dict, layers: dict) -> None:
    for name, agg in layers.items():
        acc = total.setdefault(name, {})
        for key, val in agg.items():
            if key in ("max_s", "depth", "q_bits", "t_bits", "n", "coeff_bits"):
                acc[key] = max(acc.get(key, 0), val)
            else:
                acc[key] = acc.get(key, 0) + val


# per-layer metric -> (unit, span name, span field); see also layer_metrics()
PER_LAYER = {
    "fps.mul.calls": ("count", "fps.mul", "calls"),
    "fps.mul.self_s": ("s", "fps.mul", "self_s"),
    "fps.compose.calls": ("count", "fps.compose", "calls"),
    "fps.compose.s": ("s", "fps.compose", "s"),
    "fps.pow_rational.s": ("s", "fps.pow_rational", "s"),
    "fps.expand_ratfun.s": ("s", "fps.expand_ratfun", "s"),
    "fps.max_coeff_bits": ("bits", "fps.compose", "coeff_bits"),
    "transforms.verify_rule_formal.s": ("s", "transforms.verify_rule_formal", "s"),
    "transforms.verify_rule_formal.max_s": ("s", "transforms.verify_rule_formal", "max_s"),
    "transforms.prefactor_series.s": ("s", "transforms.prefactor_series", "s"),
    "hyper.extend.calls": ("count", "hyper.extend", "calls"),
    "hyper.extend.s": ("s", "hyper.extend", "s"),
    "hyper.stream_max_n": ("count", "hyper.extend", "n"),
    "hyper.eval_numeric.calls": ("count", "hyper.eval_numeric", "calls"),
    "hyper.eval_numeric.self_s": ("s", "hyper.eval_numeric", "self_s"),
    "translate.replay.calls": ("count", "translate.replay", "calls"),
    "translate.replay.s": ("s", "translate.replay", "s"),
    "translate.replay.max_s": ("s", "translate.replay", "max_s"),
    "catalog.load.calls": ("count", "catalog.load", "calls"),
    "catalog.load.s": ("s", "catalog.load", "s"),
    "catalog.verify_entry.s": ("s", "catalog.verify_entry", "s"),
    "catalog.verify_entry.max_s": ("s", "catalog.verify_entry", "max_s"),
    "numerics.pi_oracle.calls": ("count", "numerics.pi_oracle", "calls"),
    "numerics.pi_oracle.s": ("s", "numerics.pi_oracle", "s"),
    "numerics.agm_pi.s": ("s", "numerics.agm_pi", "s"),
    "numerics.machin_pi.s": ("s", "numerics.machin_pi", "s"),
    "binsplit.terms": ("count", "binsplit.split", "terms"),
    "binsplit.depth": ("count", "binsplit.split", "depth"),
    "binsplit.q_bits": ("bits", "binsplit.split", "q_bits"),
    "binsplit.t_bits": ("bits", "binsplit.split", "t_bits"),
    "binsplit.split.s": ("s", "binsplit.split", "s"),
    "binsplit.isqrt.s": ("s", "binsplit.isqrt", "s"),
    # pi_digits minus its traced children: the division and the str() call
    "binsplit.tail_s": ("s", "binsplit.pi_digits", "self_s"),
    "special.limit_eval.calls": ("count", "special.limit_eval", "calls"),
    "special.limit_eval.s": ("s", "special.limit_eval", "s"),
    "special.sun_checks.s": ("s", "special.sun_checks", "s"),
    "special.s2_identity.s": ("s", "special.s2_identity", "s"),
    "special.starting_formula.s": ("s", "special.starting_formula", "s"),
}


def layer_metrics(layers: dict) -> dict:
    """Per-layer metric values from one traced pass's merged spans."""
    out = {name: layers.get(span, {}).get(key, 0) for name, (_, span, key) in PER_LAYER.items()}
    # argument parsing (main minus the dispatched runner) and JSON rendering
    out["cli.self_s"] = (layers.get("cli.main", {}).get("self_s", 0)
                         + layers.get("cli.render_json", {}).get("s", 0))
    return out


def summed_fastest(times: list) -> float:
    """Sum over requests of each request's fastest time across passes.

    A CPU of this host runs up to 60% slower for seconds to tens of seconds
    at a time, so a median moves with the phases a run happens to land in;
    the fastest repetition is the least disturbed one and repeats from run
    to run.
    """
    return sum(min(t) for t in times if t)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "rpv" / "cli.py").is_file():
        print(f"perfbench: no rpv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    # untimed: compiles the bytecode caches and proves the children start
    rep, err = spawn(["setup"], env)
    if rep is None or rep["backend"] != "fraction":
        print(f"perfbench: cannot load rpv on the pure backend: {err or rep}", file=sys.stderr)
        return 2
    checker = Checker()
    reqs = build_requests(workload, seed)
    plain = [[] for _ in reqs]  # per-request untraced times across passes
    pass_walls = {False: [], True: []}  # summed request times per pass, by tracing
    pass_layers = []
    setup, rss = [], []
    attempted = failed = 0
    start = time.monotonic()
    n_pass = 0
    while True:
        for _ in range(SETUP_PROBES_PER_PASS):
            s = setup_probe(env)
            attempted += 1
            if s is None:
                failed += 1
                print("perfbench: FAIL setup probe", file=sys.stderr)
            else:
                setup.append(s)
        with_trace = trace and n_pass % 2 == 1
        layers = {}
        pass_wall = 0.0
        t_pass = time.monotonic()
        for i, req in enumerate(reqs):
            args = ["request"] + (["--trace"] if with_trace else []) + ["--"] + list(req.argv)
            rep, err = spawn(args, env)
            attempted += 1
            why = err if rep is None else checker.problem(req, rep)
            if why:
                failed += 1
                print(f"perfbench: FAIL {' '.join(req.argv)}: {why}", file=sys.stderr)
                continue
            pass_wall += rep["wall_s"]
            rss.append(rep["maxrss_kb"])
            if with_trace:
                merge_layers(layers, rep["layers"])
            else:
                plain[i].append(rep["wall_s"])
        pass_walls[with_trace].append(pass_wall)
        if with_trace:
            pass_layers.append(layers)
        n_pass += 1
        now = time.monotonic()
        enough = n_pass >= (2 if trace else 1)
        if enough and now + (now - t_pass) - start > seconds:
            break

    if trace:
        per_pass = [layer_metrics(layers) for layers in pass_layers]
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units["cli.self_s"] = "s"
        # median_low keeps counts whole and every value one actually measured
        metrics = {name: (statistics.median_low(m[name] for m in per_pass), unit)
                   for name, unit in units.items()}
        # a median over passes, like the layer times, so their shares add up
        traced_wall = statistics.median_low(pass_walls[True])
        digit_idx = [i for i, r in enumerate(reqs) if r.check == "digits" and plain[i]]
        digit_time = sum(min(plain[i]) for i in digit_idx)
        delivered = sum(reqs[i].digits for i in digit_idx)
        metrics["trace.wall_s"] = (traced_wall, "s")
        plain_wall = statistics.median_low(pass_walls[False])
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        metrics["digits_per_s"] = (delivered / digit_time if digit_time else 0, "1/s")
    else:
        metrics = {
            "setup_s": (min(setup) if setup else 0, "s"),
            "wall_s": (summed_fastest(plain), "s"),
            "peak_rss_mb": (max(rss) / 1024 if rss else 0, "MB"),
            "verified_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    print(f"workload {workload}, seed {seed}: {n_pass} passes of {len(reqs)} requests,"
          f" {failed} of {attempted} failed")
    print("  fastest    median    request")
    for i, req in enumerate(reqs):
        times = plain[i]
        if times:
            print(f"  {min(times):7.4f} s {statistics.median(times):7.4f} s  {' '.join(req.argv)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
