"""The integer stream generator against the Fraction loop it replaced.

reference_stream is hyper._extend as it ran before streams were integer
numerators over running products of D(n): the family recurrence
(n+1)^3 t_{n+1} = P(n) t_n + Q(n) t_{n-1} in rationals, one Fraction per
term.  family_series and coeff must give the same coefficients for every
kind and any s in (0, 1), whether the stream is built fresh or extended
from a shorter one.
"""

from fractions import Fraction as QQ

import pytest

from rpv import hyper
from rpv.fps import Series
from rpv.hyper import CoeffFamily, coeff, family_recurrence, family_series
from rpv.poly import poly_eval

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_stream(fam: CoeffFamily, n: int) -> list:
    """t_0..t_n, one Fraction per term, as _extend ran before."""
    P, Q = family_recurrence(fam)
    ts = [QQ(1)]
    while len(ts) <= n:
        k = len(ts) - 1
        t = poly_eval(P, k) * ts[k]
        if Q and k:
            t += poly_eval(Q, k) * ts[k - 1]
        ts.append(t / (k + 1) ** 3)
    return ts


_unit_rationals = st.integers(2, 10**6).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: QQ(p, q))
)
families = st.one_of(
    st.just(CoeffFamily("domb", QQ(0))),
    st.builds(
        CoeffFamily, st.sampled_from(["hyper3F2", "square2F1", "convCentral"]), _unit_rationals
    ),
)


@settings(max_examples=30, deadline=None)
@given(fam=families)
def test_streams_match_the_fraction_loop(fam):
    hyper._stream_cache.pop(fam, None)
    ref = reference_stream(fam, 200)
    assert family_series(fam, 64) == Series(ref[:65])
    # coeff extends the order-64 stream; a shorter series reads it back
    assert [coeff(fam, n) for n in range(201)] == ref
    assert family_series(fam, 10) == Series(ref[:11])
    hyper._stream_cache.pop(fam, None)
