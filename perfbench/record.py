"""Record the reference outputs that perfbench/run.py checks against.

    python3 perfbench/record.py

Writes ``perfbench/pi_digits.txt``, the digits of pi that the oracle gives and
that binary splitting from ``s16-11`` reproduces, as many as the largest
jittered digit request needs; and ``perfbench/expected.json``, the SHA-256 of
those digits and of the canonical ``--json`` output of every request that is
checked by digest.  The rpv outputs are promised to stay byte-identical, so
run this only on a commit whose outputs are trusted.
"""

import hashlib
import json
import os
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
os.environ["RPV_PURE"] = "1"

from rpv.binsplit import oracle_digits, pi_digits  # noqa: E402
from rpv.catalog import get_entry, load_catalog  # noqa: E402


def digest_requests() -> list:
    argvs = [run.RULES_ARGV, run.CATALOG_ARGV] + list(run.SUN_ARGVS)
    argvs += [("start", "--s", s, "--digits", "30", "--json") for s in run.START_S]
    return argvs


def main() -> int:
    env = run.child_env()
    outputs = {}
    for argv in digest_requests():
        rep, err = run.spawn(["request", "--"] + list(argv), env)
        if rep is None or rep["rc"] != 0:
            print(f"record: {' '.join(argv)} failed: {err or rep['rc']}", file=sys.stderr)
            return 1
        outputs[" ".join(argv)] = rep["sha256"]
        print(f"{rep['sha256'][:16]}  {' '.join(argv)}")
    n = max(base + base // 100 for _, base, _ in run.DIGIT_RUNS)
    digits = oracle_digits(n)
    if pi_digits(get_entry(load_catalog(), "s16-11"), n) != digits:
        print("record: binary splitting disagrees with the oracle", file=sys.stderr)
        return 1
    run.PI_DIGITS.write_text(digits + "\n")
    doc = {
        "pi_digits_sha256": hashlib.sha256(digits.encode()).hexdigest(),
        "outputs": outputs,
    }
    run.EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{n} reference digits; wrote {run.EXPECTED.name} and {run.PI_DIGITS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
