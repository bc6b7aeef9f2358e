"""The window-restricted convolution and factorization right sides against
the slow reference path: convolve over the Minkowski-sum box, then crop."""

import pytest
from hypothesis import given, strategies as st

from oak.characters import (
    CharTable,
    _generalized_sides,
    _verma_sides,
    char_module,
    convolve,
    delta_char,
    generalized_verma_char,
    verma_char,
)
from oak.liealg import Weight
from oak.scalars import ScalarContext
from oak.weyl import ShaleWeil

CTX = ScalarContext(("s",))


def W(vals, zdot=None):
    values = [CTX.rational(*v) if isinstance(v, tuple) else CTX.rational(v) for v in vals]
    return Weight(CTX, values, CTX.zdot if zdot is None else CTX.rational(zdot))


@st.composite
def boxes(draw, n, lo=-6, hi=6):
    box = []
    for _ in range(n):
        a = draw(st.integers(lo, hi))
        box.append((a, draw(st.integers(a, hi))))
    return tuple(box)


@st.composite
def tables(draw, n):
    box = draw(boxes(n))
    offsets = st.tuples(*(st.integers(lo, hi) for lo, hi in box))
    entries = draw(st.dictionaries(offsets, st.integers(0, 3), max_size=12))
    return CharTable(W([0] * n, 0), box, entries)


@st.composite
def convolution_cases(draw):
    n = draw(st.integers(1, 3))
    a, b = draw(tables(n)), draw(tables(n))
    full = tuple((al + bl, ah + bh) for (al, ah), (bl, bh) in zip(a.box, b.box))
    window = []
    for lo, hi in full:
        wlo = draw(st.integers(lo, hi))
        window.append((wlo, draw(st.integers(wlo, hi))))
    return a, b, tuple(window)


def all_pairs(a, b, window):
    out = {}
    for oa, ma in a.entries.items():
        for ob, mb in b.entries.items():
            off = tuple(x + y for x, y in zip(oa, ob))
            if all(lo <= c <= hi for c, (lo, hi) in zip(off, window)):
                out[off] = out.get(off, 0) + ma * mb
    return out


@given(convolution_cases())
def test_convolve_window_equals_convolve_then_crop(case):
    a, b, window = case
    restricted = convolve(a, b, window)
    assert restricted == convolve(a, b).crop(window)
    assert restricted.entries == all_pairs(a, b, window)


def test_convolve_window_is_validated():
    a = delta_char(W([0], 0))
    with pytest.raises(ValueError):
        convolve(a, a, ((1, 0),))
    with pytest.raises(ValueError):
        convolve(a, a, ((0, 0), (0, 0)))


def reference_verma_rhs(lam, n, depth, window):
    margin = max(n * depth, depth)
    lam_sp = Weight(CTX, tuple(v + CTX.rational(1, 2) for v in lam.values), CTX.rational(0))
    return convolve(
        verma_char(lam_sp, "sp", margin), char_module(ShaleWeil(CTX, n), margin)
    ).crop(window)


def reference_generalized_rhs(v_char, n, depth, window):
    margin = n * depth + max(hi - lo for lo, hi in v_char.box) + 1
    v_sp = v_char.shifted_ref((1,) * n, 2, CTX.rational(0))
    return convolve(
        generalized_verma_char(v_sp, "sp", margin),
        char_module(ShaleWeil(CTX, n), margin),
    ).crop(window)


WEIGHTS = {
    1: ([(1, 3)], [(-5, 2)], [4]),
    2: ([(1, 3), (-5, 2)], [0, 0], [(2, 3), 3]),
    3: ([0, (-11, 3), 1], [(1, 2), 0, (-1, 3)]),
}
DEPTHS = {1: (1, 3, 6), 2: (1, 2, 4), 3: (1, 2)}
CASES = [
    (n, vals, depth) for n in WEIGHTS for vals in WEIGHTS[n] for depth in DEPTHS[n]
]


@pytest.mark.parametrize("n,vals,depth", CASES)
def test_verma_rhs_equals_inflate_and_crop(n, vals, depth):
    lam = W(vals)
    lhs, rhs = _verma_sides(lam, n, depth)
    assert rhs.box == lhs.box
    assert rhs == reference_verma_rhs(lam, n, depth, lhs.box)


@pytest.mark.parametrize("n,vals,depth", CASES)
def test_generalized_rhs_equals_inflate_and_crop(n, vals, depth):
    v_char = delta_char(W(vals))
    lhs, rhs = _generalized_sides(v_char, n, depth)
    assert rhs.box == lhs.box
    assert rhs == reference_generalized_rhs(v_char, n, depth, lhs.box)


def test_generalized_rhs_with_a_wide_top():
    # a top character of several weights, so the margin grows with its box
    top = CharTable(W([0, 0]), ((-2, 2), (0, 2)), {(0, 0): 1, (-2, 2): 2, (2, 0): 1})
    lhs, rhs = _generalized_sides(top, 2, 2)
    assert rhs == reference_generalized_rhs(top, 2, 2, lhs.box)
