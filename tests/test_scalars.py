from fractions import Fraction

import pytest

from oak.scalars import ParseError, ScalarContext


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(("s", "a1", "b"))


def test_s_is_mandatory():
    with pytest.raises(ValueError):
        ScalarContext(("a1",))


def test_canonical_reduction(ctx):
    s = ctx.symbol("s")
    assert (s ** 2 - 1) / (s - 1) == s + 1
    assert ((s + 1) * 2) / 2 == s + 1
    # denominator sign normalization gives one canonical form
    a = (s - 1) / (2 - s)
    b = (1 - s) / (s - 2)
    assert a == b and str(a) == str(b)


def test_equality_is_syntactic_on_canonical_forms(ctx):
    s, a1 = ctx.symbol("s"), ctx.symbol("a1")
    x = (a1 + 1) * (a1 + 2) / ((a1 + 2) * (a1 + 3))
    y = (a1 + 1) / (a1 + 3)
    assert x == y
    assert hash(x) == hash(y)
    assert x != y + s


def test_rational_embed_and_arith(ctx):
    half = ctx.rational(1, 2)
    assert half + half == 1
    assert half * 4 == 2
    assert half - Fraction(1, 2) == 0
    assert (-half).as_fraction() == Fraction(-1, 2)
    assert ctx.rational(6, 4).as_fraction() == Fraction(3, 2)


def test_zero_denominator_rejected(ctx):
    s = ctx.symbol("s")
    with pytest.raises(ZeroDivisionError):
        s / (s - s)
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero


def test_substitution_exact(ctx):
    s, a1 = ctx.symbol("s"), ctx.symbol("a1")
    x = (s ** 2 + a1) / (a1 - 2)
    assert x.evaluate({"s": Fraction(1, 2), "a1": 3, "b": 0}) == Fraction(13, 4)
    with pytest.raises(ZeroDivisionError):
        x.evaluate({"s": 1, "a1": 2, "b": 0})
    with pytest.raises(ValueError):
        x.evaluate({"s": 1, "b": 0})  # a1 occurs but has no value
    # symbols that do not occur need no value
    assert (s + 1).evaluate({"s": 2}) == 3


def test_subs_one_symbol(ctx):
    s, a1 = ctx.symbol("s"), ctx.symbol("a1")
    x = (a1 + s) / (a1 + 1)
    y = x.subs_symbol("a1", 1)
    assert y == (s + 1) / 2


def test_parse_round_trip(ctx):
    for text in ["(s^2-1)/2", "1/2", "-3", "a1+1/2", "s^2*a1/(a1+1)", "2*b-s"]:
        v = ctx.parse(text)
        assert ctx.parse(str(v)) == v


def test_parse_examples(ctx):
    s = ctx.symbol("s")
    assert ctx.parse("(s^2-1)/2") == (s * s - 1) / 2
    assert ctx.parse("s^-2") == 1 / (s * s)
    assert ctx.parse("-(s+1)") == -(s + 1)


def test_parse_errors_carry_position(ctx):
    with pytest.raises(ParseError) as err:
        ctx.parse("s + q")
    assert "q" in str(err.value) and "position 4" in str(err.value)
    with pytest.raises(ParseError):
        ctx.parse("s +")
    with pytest.raises(ParseError):
        ctx.parse("(s + 1")
    with pytest.raises(ParseError):
        ctx.parse("s ^ a1")


def test_cross_context_rejected():
    c1 = ScalarContext(("s",))
    c2 = ScalarContext(("s", "a1"))
    with pytest.raises(ValueError):
        c1.s + c2.s


def sort_key(x):
    return (tuple(sorted(x.num.items())), tuple(sorted(x.ctx._lift(x.den).items())))


def test_sort_key_deterministic(ctx):
    s, a1 = ctx.symbol("s"), ctx.symbol("a1")
    vals = [s + 1, a1, s * a1, ctx.rational(1, 2)]
    order1 = sorted(vals, key=sort_key)
    order2 = sorted(list(reversed(vals)), key=sort_key)
    assert order1 == order2


def test_zdot_is_s_squared(ctx):
    assert ctx.zdot == ctx.symbol("s") ** 2
