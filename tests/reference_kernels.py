"""Engine code that only the tests call, kept here as references.

The series sum and difference and theta = x d/dx, the Pochhammer symbol,
and the Fraction forms of the geometric tail bound and of eval_numeric's
doubling search that hyper replaced with integer ones.  Nothing in rpv
calls them, so they live beside the tests that use them.
"""

from fractions import Fraction as QQ
from math import lcm

from rpv.errors import DivergentInput
from rpv.fps import Series, _series
from rpv.hyper import converges, edge, family_envelope, family_recurrence, sum_terms
from rpv.numerics import BigApprox, prec_for_digits


def fps_add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return _series([x * sa + y * sb for x, y in zip(a.nums[: n + 1], b.nums)], den)


def fps_sub(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return _series([x * sa - y * sb for x, y in zip(a.nums[: n + 1], b.nums)], den)


def fps_theta(a: Series) -> Series:
    """theta = x·d/dx: coefficient n·a_n at index n (order preserved)."""
    return _series([k * c for k, c in enumerate(a.nums)], a.den)


def pochhammer(a, n: int):
    """(a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    a = QQ(a)
    out = QQ(1)
    for k in range(n):
        out *= a + k
    return out


def tail_power_sum(j: int, r, N: int):
    """r^-N sum_{n>=N} n^j r^n for j in {0,1,2}, exactly (0 < r < 1)."""
    one = 1 - r
    if j == 0:
        return 1 / one
    if j == 1:
        return QQ(N) / one + r / one**2
    if j == 2:
        return QQ(N * N) / one + (2 * N + 1) * r / one**2 + 2 * r**2 / one**3
    raise ValueError("tail power sums implemented for j <= 2")


def reference_tail_bound(fam, a, b, z, N: int):
    """hyper.tail_bound as it was: Fraction closed forms of the power sums."""
    _, deg = family_envelope(fam)
    r = edge(fam, z)
    if r >= 1:
        raise DivergentInput(f"family {fam} at z = {z} is outside the envelope")
    if r == 0:
        return QQ(0)
    aa, bb = abs(QQ(a)), abs(QQ(b))
    # (aa + bb n)(n+1)^deg expanded into powers of n
    weights = {0: aa, 1: bb} if deg == 0 else {0: aa, 1: aa + bb, 2: bb}
    return r**N * sum(w * tail_power_sum(j, r, N) for j, w in weights.items() if w)


def reference_eval_numeric(fam, a, b, z, digits: int) -> BigApprox:
    """hyper.eval_numeric as it was: the Fraction tail of every doubling N."""
    a, b, z = QQ(a), QQ(b), QQ(z)
    if not converges(fam, z):
        raise DivergentInput(f"series for family {fam} at z = {z} cannot be summed directly")
    N = 16
    tail = reference_tail_bound(fam, a, b, z, N)
    while tail * 10 ** (digits + 3) >= 1:
        N *= 2
        if N > 1 << 22:
            raise DivergentInput(f"tail does not certify for {fam} at z = {z}")
        tail = reference_tail_bound(fam, a, b, z, N)
    num, den = sum_terms(family_recurrence(fam), a, b, z, N)
    return BigApprox.from_partial_sum(num, den, tail, prec_for_digits(digits))
