"""Arithmetic backend selection.

All exact arithmetic in the engine goes through this module.  When gmpy2 is
importable (and RPV_PURE is not set) its mpz/mpq/isqrt are used; otherwise the
stdlib int/Fraction/math.isqrt stand in.  Both backends expose the same small
surface:

    QQ(p[, q])   exact rational constructor
    ZZ(n)        exact integer constructor
    isqrt(n)     floor square root of a nonnegative integer
    BACKEND      "gmpy2" or "fraction"

mpq and Fraction both expose .numerator/.denominator, support arithmetic,
comparisons and ** with integer exponents, so the rest of the code is backend
agnostic.  Values are converted to stdlib types only at serialization edges.

Set RPV_PURE=1 to force the pure-Python backend (used by the benchmark and by
CI to exercise both paths).
"""

from __future__ import annotations

import os

_FORCE_PURE = os.environ.get("RPV_PURE", "") not in ("", "0")

if not _FORCE_PURE:
    try:
        import gmpy2 as _g
    except ImportError:  # pragma: no cover - environment dependent
        _g = None
else:
    _g = None

if _g is not None:
    BACKEND = "gmpy2"
    QQ = _g.mpq
    ZZ = _g.mpz
    isqrt = _g.isqrt
else:
    import math
    from fractions import Fraction

    BACKEND = "fraction"
    QQ = Fraction
    ZZ = int
    isqrt = math.isqrt


def qq_num(q) -> int:
    """Numerator of a backend rational as a stdlib int."""
    return int(q.numerator)


def qq_den(q) -> int:
    """Denominator of a backend rational as a stdlib int (always > 0)."""
    return int(q.denominator)

