"""CharTable JSON round trips: printing a table and parsing it back gives an
equal table, for drawn tables and for the ones the character builders make
(a g Verma table is checked in test_characters.py)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oak.characters import CharTable, char_module, finite_simple_sp_char, verma_char
from oak.liealg import Weight
from oak.scalars import ScalarContext
from oak.weyl import FullLaurent, QuotientModule, ShaleWeil

CTX = ScalarContext(("s", "a1", "a2"))

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
scalars = st.one_of(
    fractions.map(CTX.rational),
    st.tuples(st.sampled_from(("s", "a1", "a2")), fractions).map(
        lambda p: CTX.symbol(p[0]) + p[1]
    ),
)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 3))
    ref = Weight(
        CTX,
        draw(st.lists(scalars, min_size=n, max_size=n)),
        draw(st.one_of(st.none(), scalars)),
    )
    box = []
    for _ in range(n):
        lo = draw(st.integers(-6, 6))
        box.append((lo, lo + draw(st.integers(0, 6))))
    offsets = st.tuples(*(st.integers(lo, hi) for lo, hi in box))
    entries = draw(st.dictionaries(offsets, st.integers(0, 5), max_size=8))
    return CharTable(ref, box, entries)


def round_trip(table):
    return CharTable.from_json_dict(json.loads(json.dumps(table.to_json_dict())), CTX)


@given(tables())
def test_drawn_table_round_trips(table):
    assert round_trip(table) == table


def W(values, zdot=None):
    return Weight(CTX, [CTX.rational(v) for v in values], zdot)


BUILT = {
    "shale-weil": lambda: char_module(ShaleWeil(CTX, 2), 3),
    "full laurent": lambda: char_module(
        FullLaurent(CTX, (CTX.symbol("a1"), CTX.rational(1, 3))), 2
    ),
    "quotient": lambda: char_module(
        QuotientModule(CTX, (CTX.symbol("a1"), CTX.rational(0)), (2,)), 3
    ),
    "verma sp": lambda: verma_char(W([2], 0), "sp", 5),
    "finite sp": lambda: finite_simple_sp_char(W([2, 1], 0), 4),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_table_round_trips(name):
    table = BUILT[name]()
    assert table.entries
    assert round_trip(table) == table
