"""Property test: RadConst's algebra, which builds its results from radicands
already square-free without factoring them again, gives the same canonical
(r, m, t) as the constructor that factors its radicand.

Square-free radicands up to 10^6 (the square-free parts of random integers),
any rational r of either sign (zero included) and t in {0, 1}.
"""

from fractions import Fraction as QQ

import pytest

from rpv.numerics import RadConst, squarefree_decompose

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

RATIONALS = st.builds(QQ, st.integers(-10**6, 10**6), st.integers(1, 10**6))
RADICANDS = st.integers(1, 10**6).map(lambda n: squarefree_decompose(n)[1])


def _canon(x: RadConst) -> tuple:
    assert type(x.r) is QQ and type(x.m) is int and type(x.t) is int
    return x.r, x.m, x.t


@settings(max_examples=200, deadline=None)
@given(RATIONALS, RADICANDS, st.integers(0, 1), RATIONALS, RADICANDS, st.integers(0, 1), RATIONALS)
def test_algebra_matches_decomposing_constructor(r, m, t, r2, m2, t2, q):
    x, y = RadConst(r, m, t), RadConst(r2, m2, t2)
    assert _canon(x.scale(q)) == _canon(RadConst(r * q, m, t))
    assert _canon(-x) == _canon(RadConst(-r, m, t))
    assert _canon(x + RadConst(r2, m, t)) == _canon(RadConst(r + r2, m, t))
    sign = -1 if t and t2 else 1
    assert _canon(x * y) == _canon(RadConst(sign * r * r2, m * m2, (t + t2) % 2))
    if r:
        assert _canon(x.inverse()) == _canon(RadConst((-1) ** t / (r * m), m, t))
