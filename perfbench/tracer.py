"""Layer spans for rpv, recorded from outside the package.

The tracer replaces public rpv functions with timing wrappers.  A name bound
with ``from .x import y`` is a separate binding in the importing module, so
every rpv module attribute that *is* the original function gets the wrapper,
not only the defining module's.

Spans stay in memory as ``[name, start, end, parent_index, counters]`` and
are folded into per-layer totals by :meth:`Tracer.summary` when the request
ends.  A wrapper entered while its own span is open (the recursion of
``split_range``) opens no new span, so a recursion counts as one span and the
self times of its callers stay right.
"""

import importlib
from time import perf_counter

MODULES = (
    "cli", "catalog", "binsplit", "fps", "hyper", "numerics",
    "poly", "special", "transforms", "translate",
)


def _coeff_bits(series) -> dict:
    bits = 0
    for c in series.coeffs:
        bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
    return {"coeff_bits": bits}


def _split_counters(args, node) -> dict:
    lo, hi = args[3], args[4]
    return {"terms": hi - lo, "q_bits": int(node.Q).bit_length(), "t_bits": int(node.T).bit_length()}


# (module, attribute, span name, counters(args, result) or None, patch only
# the defining module).  Several functions may share one span name.
LAYERS = (
    ("fps", "fps_mul", "fps.mul", None, False),
    ("fps", "fps_compose", "fps.compose", lambda args, r: _coeff_bits(r), False),
    ("fps", "fps_pow_rational", "fps.pow_rational", None, False),
    ("fps", "fps_expand_ratfun", "fps.expand_ratfun", None, False),
    ("transforms", "verify_rule_formal", "transforms.verify_rule_formal", None, False),
    ("transforms", "Prefactor.series", "transforms.prefactor_series", None, False),
    ("hyper", "_extend", "hyper.extend", lambda args, r: {"n": args[1]}, False),
    ("hyper", "eval_numeric", "hyper.eval_numeric", None, False),
    ("translate", "replay", "translate.replay", None, False),
    ("catalog", "load_catalog", "catalog.load", None, False),
    ("catalog", "verify_entry", "catalog.verify_entry", None, False),
    ("numerics", "pi_oracle", "numerics.pi_oracle", None, False),
    ("numerics", "agm_pi", "numerics.agm_pi", None, False),
    ("numerics", "machin_pi", "numerics.machin_pi", None, False),
    ("binsplit", "pi_digits", "binsplit.pi_digits", None, False),
    ("binsplit", "split_range", "binsplit.split", _split_counters, False),
    # numerics binds the same isqrt for the AGM; only the digit tail's counts
    ("binsplit", "isqrt", "binsplit.isqrt", None, True),
    ("special", "limit_eval", "special.limit_eval", None, False),
    ("special", "sun_2_11", "special.sun_checks", None, False),
    ("special", "sun_4_14", "special.sun_checks", None, False),
    ("special", "rogers_domb_check", "special.sun_checks", None, False),
    ("special", "sun_S2_identity", "special.s2_identity", None, False),
    ("special", "starting_formula", "special.starting_formula", None, False),
    ("cli", "render_json", "cli.render_json", None, False),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}  # span name -> nesting depth of its open span
        self.max_depth = {}

    def wrap(self, name, fn, counters=None):
        spans, stack, depth, max_depth = self.spans, self.stack, self.depth, self.max_depth

        def traced(*args, **kwargs):
            d = depth.get(name, 0)
            if d:
                depth[name] = d + 1
                if d + 1 > max_depth[name]:
                    max_depth[name] = d + 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[name] = d
            depth[name] = 1
            max_depth.setdefault(name, 1)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                depth[name] = 0
            if counters is not None:
                span[4] = counters(args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function, and the CLI entry and runners."""
        mods = [importlib.import_module(f"rpv.{m}") for m in MODULES]
        for home, attr, name, counters, home_only in LAYERS:
            owner = importlib.import_module(f"rpv.{home}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counters))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, counters)
            for mod in [owner] if home_only else mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        cli = importlib.import_module("rpv.cli")
        for key, runner in list(cli._DISPATCH.items()):
            cli._DISPATCH[key] = self.wrap("cli.dispatch", runner)
        cli.main = self.wrap("cli.main", cli.main)

    def summary(self) -> dict:
        """Per span name: calls, total, self and max seconds, and counters.

        Counters add up for ``terms`` and keep the maximum otherwise; the
        deepest recursion seen is reported as ``depth``.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, counters) in enumerate(self.spans):
            dur = t1 - t0
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[i]
            agg["max_s"] = max(agg["max_s"], dur)
            for key, val in (counters or {}).items():
                agg[key] = agg.get(key, 0) + val if key == "terms" else max(agg.get(key, 0), val)
        for name, d in self.max_depth.items():
            if name in out:
                out[name]["depth"] = d
        return out
