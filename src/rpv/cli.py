"""Command-line interface for catalog verification, rule checks, and digit runs."""

import argparse
import json
import os
import re
import sys

from .binsplit import digits_file_text, oracle_digits, pi_digits
from .catalog import get_entry, load_catalog, read_json, verify_all
from .errors import (
    ArgumentMismatch,
    DivergentInput,
    GateRefused,
    NonExactConstant,
    ParseError,
    RpvError,
)
from .numerics import _show_literal, parse_rational
from .parallel import parallel_map
from .special import (
    LIMIT_SPECS,
    limit_eval,
    rogers_domb_check,
    starting_formula,
    sun_2_11,
    sun_4_14,
    sun_S2_identity,
)
from .transforms import get_rule, rule_ids, verify_rule_formal
from .translate import Certificate, replay, translate


def render_json(payload: dict) -> str:
    """Canonical JSON rendering; parsing and re-rendering is byte-identical."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict) -> None:
    sys.stdout.write(render_json(payload))


def _default_jobs() -> int:
    return os.cpu_count() or 1


# lets "-1/8" pass as a flag value; argparse's default matcher only covers
# plain negative numbers, so negative rationals would be read as option names
_RATIONAL_MATCHER = re.compile(r"^-\d+(/\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _RATIONAL_MATCHER


def _int_at_least(least: int):
    """argparse type for an integer flag with a minimum; a rejected literal
    is echoed cut short, so a huge one cannot flood stderr."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {_show_literal(text)}"
            ) from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="rpv",
        description="Verify hypergeometric series for 1/pi and their transformation rules.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("verify", help="check catalog entries against the pi oracle")
    p.add_argument("--id", dest="entry_id", help="single catalog entry id (default: all)")
    p.add_argument(
        "--digits", type=_int_at_least(1), required=True, help="decimal digits to match"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_int_at_least(1), default=_default_jobs())

    rules = sub.add_parser("rules", help="transformation-rule operations")
    rsub = rules.add_subparsers(dest="rules_command", required=True)
    p = rsub.add_parser("verify", help="formal power-series check of shipped rules")
    p.add_argument("--order", type=_int_at_least(8), required=True, help="truncation order")
    p.add_argument("--rule", dest="rule_id", help="single rule id (default: all)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_int_at_least(1), default=_default_jobs())

    p = sub.add_parser("translate", help="transport a catalog spec along a rule")
    p.add_argument("--source", required=True, help="catalog entry id")
    p.add_argument("--rule", required=True, help="transformation rule id")
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--x0", help='evaluation point, strictly "p/q"')
    point.add_argument("--target-z", dest="target_z", help='target argument, strictly "p/q"')
    p.add_argument("--replay", dest="replay_file", help="certificate JSON file to replay")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("digits", help="compute pi digits from a catalog entry")
    p.add_argument("--id", dest="entry_id", required=True)
    p.add_argument("--digits", type=_int_at_least(1), required=True)
    p.add_argument("--out", help="write the digit text to this file")
    p.add_argument("--check", action="store_true", help="compare against the Machin pi oracle")

    p = sub.add_parser(
        "limit", help="decide a boundary limit exactly by its Abelian closed form"
    )
    p.add_argument("--id", dest="limit_id", required=True)
    p.add_argument("--tolerance", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=_default_jobs(),
        help="accepted for compatibility; has no effect (the verdict is exact)",
    )

    p = sub.add_parser("sun", help="run one of the conjecture checks")
    p.add_argument(
        "--check",
        required=True,
        choices=["2.11", "4.14", "s2-identity", "rogers"],
        help="which check to run",
    )
    p.add_argument(
        "--digits",
        type=_int_at_least(1),
        required=True,
        help="working digits (for s2-identity: rows of the identity to check)",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("start", help="check the starting formula at a rational s")
    p.add_argument("--s", required=True, help='rational in (0,1), strictly "p/q"')
    p.add_argument("--digits", type=_int_at_least(1), required=True)
    p.add_argument("--json", action="store_true")

    return top


# ============================================================
# subcommand runners
# ============================================================

def _run_verify(args) -> int:
    ids = [args.entry_id] if args.entry_id else None
    if ids:
        get_entry(load_catalog(), ids[0])
    reports = verify_all(args.digits, ids=ids, jobs=args.jobs)
    ok = all(r.passed for r in reports)
    if args.json:
        _emit(
            {
                "digits": args.digits,
                "pass": ok,
                "reports": [r.to_json() for r in reports],
            }
        )
    else:
        for r in reports:
            flag = "pass" if r.passed else "FAIL"
            print(f"{r.id:<12} {flag:<4} {r.digits_matched:>6} digits  {r.detail}")
        npass = sum(1 for r in reports if r.passed)
        print(
            f"{len(reports)} entries, {npass} pass, {len(reports) - npass} fail"
            f" ({args.digits} digits)"
        )
    return 0 if ok else 1


def _rule_check(rid: str, order: int) -> tuple:
    rep = verify_rule_formal(get_rule(rid), order)
    return rid, rep.passed, rep.detail


def _run_rules_verify(args) -> int:
    chosen = [args.rule_id] if args.rule_id else rule_ids()
    rules = {rid: get_rule(rid) for rid in chosen}
    rows = parallel_map(
        _rule_check, [(rid, args.order) for rid in chosen], args.jobs
    )
    ok = all(passed for _, passed, _ in rows)
    if args.json:
        _emit(
            {
                "order": args.order,
                "pass": ok,
                "reports": [
                    {
                        "id": rid,
                        "pass": passed,
                        "detail": detail,
                        "caveat": rules[rid].note if "warning" in rules[rid].tags else None,
                    }
                    for rid, passed, detail in rows
                ],
            }
        )
    else:
        for rid, passed, detail in rows:
            flag = "pass" if passed else "FAIL"
            line = f"{rid:<14} {flag:<4} order={args.order}"
            if "warning" in rules[rid].tags:
                line += f"  caveat: {rules[rid].note}"
            print(line)
        npass = sum(1 for _, passed, _ in rows if passed)
        print(f"{len(rows)} rules, {npass} pass, {len(rows) - npass} fail")
    return 0 if ok else 1


def _spec_line(spec_json: dict) -> str:
    return (
        f"family={spec_json['family']} z={spec_json['z']}"
        f" (a,b)=({spec_json['a']},{spec_json['b']}) c={spec_json['c']}"
    )


def _print_certificate(cert: Certificate) -> None:
    obj = cert.to_json()
    tr, gate = obj["trace"], obj["gate"]
    print(f"certificate {obj['schema']}")
    print(f"  source  {_spec_line(obj['source'])}")
    print(f"  rule    {obj['rule']} ({obj['orientation']}) at x0 = {obj['x0']}")
    print(
        f"  trace   lam={tr['lam']} dlog_b={tr['dlog_b']} dlog_c={tr['dlog_c']}"
        f" beta={tr['beta']} u0={tr['u0']} u1={tr['u1']} k={tr['k']}"
    )
    print(f"  target  {_spec_line(obj['target'])}")
    agreed = "" if gate["agreed"] is None else f", agreed {gate['agreed']} digits"
    at = "" if gate["x"] is None else f" at x = {gate['x']}"
    print(f"  gate    {gate['mode']}{at}{agreed} (requested {gate['digits']})")
    print(f"  status  {obj['status']}")
    for note in obj["notes"]:
        print(f"  note    {note}")


def _run_translate(args) -> int:
    entries = load_catalog()
    entry = get_entry(entries, args.source)
    rule = get_rule(args.rule)
    x0 = parse_rational(args.x0) if args.x0 else None
    target_z = parse_rational(args.target_z) if args.target_z else None
    cert = translate(entry.spec, rule, x0=x0, target_z=target_z)
    ok = True
    replay_result = None
    if args.replay_file:
        doc = read_json(args.replay_file, "certificate file")
        stored = Certificate.from_json(doc)
        rep = replay(doc)
        matches = stored.target.same_identity(cert.target)
        ok = rep.passed and matches
        replay_result = {"pass": rep.passed, "matchesDerivation": matches, "detail": rep.detail}
    if args.json:
        payload = {"certificate": cert.to_json(), "pass": ok}
        if replay_result is not None:
            payload["replay"] = replay_result
        _emit(payload)
    else:
        _print_certificate(cert)
        if replay_result is not None:
            flag = "pass" if ok else "FAIL"
            print(
                f"  replay  {flag} (stored certificate"
                f" {'matches' if replay_result['matchesDerivation'] else 'DIFFERS FROM'}"
                f" this derivation)"
            )
    return 0 if ok else 1


def _run_digits(args) -> int:
    entries = load_catalog()
    entry = get_entry(entries, args.entry_id)
    digits = pi_digits(entry, args.digits)
    text = digits_file_text(digits)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"rpv: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.digits} digits from {entry.id} to {args.out}")
    else:
        sys.stdout.write(text)
    if args.check:
        reference = oracle_digits(args.digits)
        if digits != reference:
            mism = next(i for i, (x, y) in enumerate(zip(digits, reference)) if x != y)
            print(f"check: FAIL first mismatch at digit {mism + 1}")
            return 1
        print(f"check: all {args.digits} digits match the oracle")
    return 0


def _run_limit(args) -> int:
    if args.limit_id not in LIMIT_SPECS:
        known = ", ".join(sorted(LIMIT_SPECS))
        raise ParseError(f"no limit spec with id {args.limit_id!r} (known: {known})")
    rep = limit_eval(LIMIT_SPECS[args.limit_id], args.tolerance)
    if args.json:
        payload = rep.to_json()
        payload["id"] = args.limit_id
        _emit(payload)
    else:
        flag = "pass" if rep.passed else "FAIL"
        print(
            f"{args.limit_id}: {flag}  value={rep.value!r} target={rep.target_value!r}"
            f"  pi*limit={rep.exact!r} (tolerance {rep.tolerance:g})"
        )
        print(f"  {rep.detail}")
    return 0 if rep.passed else 1


def _run_sun(args) -> int:
    if args.check == "2.11":
        rep = sun_2_11(args.digits)
    elif args.check == "4.14":
        rep = sun_4_14(args.digits)
    elif args.check == "rogers":
        rep = rogers_domb_check(args.digits)
    else:
        rep = sun_S2_identity(args.digits)
    if args.json:
        payload = rep.to_json()
        payload["check"] = args.check
        _emit(payload)
    else:
        flag = "pass" if rep.passed else "FAIL"
        print(f"sun {args.check}: {flag}")
        print(f"  {rep.detail}")
    return 0 if rep.passed else 1


def _run_start(args) -> int:
    rep = starting_formula(parse_rational(args.s), args.digits)
    if args.json:
        _emit(rep.to_json())
    else:
        flag = "pass" if rep.passed else "FAIL"
        kind = "exact radical" if rep.exact_target else "numeric"
        print(f"start s={args.s}: {flag}  {rep.digits_agreed} digits ({kind} target)")
        print(f"  computed = {rep.computed}")
        print(f"  target   = {rep.target}")
    return 0 if rep.passed else 1


_DISPATCH = {
    "verify": _run_verify,
    "rules verify": _run_rules_verify,
    "translate": _run_translate,
    "digits": _run_digits,
    "limit": _run_limit,
    "sun": _run_sun,
    "start": _run_start,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    name = args.subcommand
    if name == "rules":
        name = f"rules {args.rules_command}"
    try:
        code = _DISPATCH[name](args)
        # meet a reader that closed early (`| head`) here, not at exit
        sys.stdout.flush()
        return code
    except (ParseError, ArgumentMismatch, ValueError, FileNotFoundError) as exc:
        print(f"rpv: {exc}", file=sys.stderr)
        return 2
    except (GateRefused, DivergentInput, NonExactConstant) as exc:
        print(f"rpv: refused: {exc}", file=sys.stderr)
        return 1
    except RpvError as exc:
        # data-file invariant breaks and other engine refusals are check
        # failures, not usage errors
        print(f"rpv: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the output cannot be delivered, like a `digits --out` that cannot be
        # written; stdout goes to devnull so the final flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"rpv: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
