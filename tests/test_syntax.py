import random

import pytest
from hypothesis import given, strategies as st

from oak.liealg import LieElement, basis, h_, x_
from oak.scalars import ParseError, ScalarContext
from oak.syntax import (
    format_basis,
    parse_basis_token,
    parse_lie_element,
    parse_module_descriptor,
    parse_root,
    parse_weyl_element,
    parse_word,
)
from oak.weyl import FullLaurent, QuotientModule, ShaleWeil, WeylElement

CTX = ScalarContext(("s", "a1", "b"))


def test_basis_formatting():
    assert format_basis(x_((1, -1))) == "X[+e1-e2]"
    assert format_basis(x_((2, 0))) == "X[+2e1]"
    assert format_basis(x_((-1, -1))) == "X[-e1-e2]"
    assert format_basis(h_(2)) == "h2"


def test_root_parsing_variants():
    assert parse_root("+e1-e2", 2) == (1, -1)
    assert parse_root("+2e1", 2) == (2, 0)
    assert parse_root("+e1+e1", 2) == (2, 0)
    assert parse_root("-e2", 2) == (0, -1)
    with pytest.raises(ParseError):
        parse_root("+e1+e2+e1", 2)  # not a root
    with pytest.raises(ParseError):
        parse_root("", 2)
    with pytest.raises(ParseError):
        parse_basis_token("h9", 2)


def test_word_parsing():
    from oak.liealg import Z

    assert parse_word("X[+e1] X[-e1] h1 z", CTX, 1) == [
        x_((1,)),
        x_((-1,)),
        h_(1),
        Z,
    ]
    with pytest.raises(ParseError):
        parse_word("X[+e1] nope", CTX, 1)


def test_zero_round_trips():
    zero = LieElement(CTX, 2)
    assert parse_lie_element(str(zero), CTX, 2) == zero
    wzero = WeylElement(CTX, 2)
    assert parse_weyl_element(str(wzero), CTX, 2) == wzero


def test_nonzero_scalar_alone_is_not_a_lie_element():
    with pytest.raises(ParseError):
        parse_lie_element("5", CTX, 2)


def _rand_scalar(rng, depth=2):
    gens = [CTX.symbol("s"), CTX.symbol("a1"), CTX.symbol("b")]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(
            gens + [CTX.rational(rng.randint(-6, 6), rng.randint(1, 5))]
        )
    a, b = _rand_scalar(rng, depth - 1), _rand_scalar(rng, depth - 1)
    op = rng.randrange(4)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a / b if not b.is_zero else a


def test_lie_element_round_trip_sweep():
    rng = random.Random(12)
    elems = basis(2)
    for _ in range(150):
        coeffs = {}
        for _ in range(rng.randrange(0, 4)):
            try:
                coeffs[rng.choice(elems)] = _rand_scalar(rng)
            except ZeroDivisionError:
                continue
        el = LieElement(CTX, 2, coeffs)
        assert parse_lie_element(str(el), CTX, 2) == el


def test_weyl_element_round_trip_sweep():
    rng = random.Random(13)
    for _ in range(150):
        terms = {}
        for _ in range(rng.randrange(0, 4)):
            alpha = tuple(rng.randrange(0, 4) for _ in range(2))
            beta = tuple(rng.randrange(0, 4) for _ in range(2))
            try:
                terms[(alpha, beta)] = _rand_scalar(rng)
            except ZeroDivisionError:
                continue
        w = WeylElement(CTX, 2, terms)
        assert parse_weyl_element(str(w), CTX, 2) == w


@st.composite
def coefficients(draw):
    """A polynomial, a polynomial over a constant or a true rational function."""

    def poly():
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            max_size=3,
        ))
        s, a1, b = (CTX.symbol(name) for name in CTX.symbols)
        out = CTX.zero
        for (i, j, k), c in terms.items():
            out = out + CTX.rational(c) * s ** i * a1 ** j * b ** k
        return out

    kind = draw(st.sampled_from(("poly", "constant", "function")))
    x = poly()
    if kind == "constant":
        return x / draw(st.integers(2, 12))
    if kind == "function":
        d = poly()
        return x / (d + CTX.symbol("a1") if d.is_rational() else d)
    return x


@given(st.dictionaries(st.sampled_from(basis(2)), coefficients(), max_size=3))
def test_lie_element_print_parse_round_trip(coeffs):
    el = LieElement(CTX, 2, coeffs)
    back = parse_lie_element(str(el), CTX, 2)
    assert back == el and str(back) == str(el)


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(st.dictionaries(st.tuples(exponents, exponents), coefficients(), max_size=3))
def test_weyl_element_print_parse_round_trip(terms):
    w = WeylElement(CTX, 2, terms)
    back = parse_weyl_element(str(w), CTX, 2)
    assert back == w and str(back) == str(w)


def test_module_descriptor_parsing():
    assert isinstance(parse_module_descriptor("S", CTX, 2), ShaleWeil)
    F = parse_module_descriptor("F a1,1/2", CTX, 2)
    assert isinstance(F, FullLaurent)
    assert F.base[1] == CTX.rational(1, 2)
    G = parse_module_descriptor("G a1,0", CTX, 2)
    assert isinstance(G, QuotientModule) and G.quotiented == frozenset({2})
    with pytest.raises(ParseError):
        parse_module_descriptor("G a1,3", CTX, 2)  # integer entries must be 0
    with pytest.raises(ParseError):
        parse_module_descriptor("G a1,b", CTX, 2)  # no quotiented coordinate
    with pytest.raises(ParseError):
        parse_module_descriptor("F a1", CTX, 2)  # rank mismatch
    with pytest.raises(ParseError):
        parse_module_descriptor("Q 0", CTX, 1)


def test_two_basis_factors_rejected():
    with pytest.raises(ParseError):
        parse_lie_element("h1*h2", CTX, 2)
