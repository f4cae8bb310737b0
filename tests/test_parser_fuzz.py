"""Property test: the literal parsers give a value or a short ParseError.

Arbitrary text, text over the literals' own alphabet and long digit runs go
to parse_rational, parse_radconst and parse_family.  Each call returns or
raises ParseError within BUDGET_S, with a message under MAX_MESSAGE
characters.
"""

import time

import pytest

from rpv.errors import ParseError
from rpv.hyper import parse_family
from rpv.numerics import parse_radconst, parse_rational

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BUDGET_S = 1.0
MAX_MESSAGE = 200
PARSERS = (parse_rational, parse_radconst, parse_family)

DIGITS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=60),
    st.integers(1, 6000).map(lambda n: "9" * n),  # past CPython's 4300-digit guard too
)
SIGNED = st.one_of(
    st.integers(-10**15, 10**15).map(str), st.just("-"), DIGITS, DIGITS.map("-".__add__)
)
RATIONAL = st.one_of(SIGNED, st.tuples(SIGNED, SIGNED).map("/".join))
RADCONST = st.builds(
    lambda r, m, i: f"{r}*sqrt({m}){'*i' if i else ''}", RATIONAL, SIGNED, st.booleans()
)
PIECES = st.one_of(
    st.sampled_from(["*sqrt(", "sqrt(", ")", "*i", "i", "/", "-", "+", " ", ":",
                     "domb", "hyper3F2:", "square2F1:", "convCentral:", "0", "."]),
    st.text(alphabet="0123456789/-+*sqrti() ._:eE", max_size=12),
    DIGITS,
)
TEXT = st.one_of(
    RATIONAL,
    RADCONST,
    st.tuples(st.sampled_from(["hyper3F2", "square2F1", "convCentral", "domb"]), RATIONAL).map(
        ":".join
    ),
    st.text(),
    st.text(alphabet="0123456789/-+*sqrti() ._:eE", max_size=80),
    st.lists(PIECES, max_size=8).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_parsers_return_or_refuse_quickly(text):
    for parse in PARSERS:
        start = time.perf_counter()
        try:
            parse(text)
        except ParseError as exc:
            assert len(str(exc)) < MAX_MESSAGE, (parse.__name__, str(exc)[:300])
        assert time.perf_counter() - start < BUDGET_S, parse.__name__
