"""Every constant or single-term scalar of a context is one shared object.

``ScalarContext.rational`` keeps the canonical scalar of each rational
constant, and every arithmetic result over an int denominator that lands on
a constant, zero included, or on a single term c*x^m/d is that scalar
itself.  Sharing changes no value, no printed form and no equality; it
bounds the table a context holds by the distinct values it meets.

A constant equals the int or Fraction of its value, so it hashes as that
number: sets and dict keys, such as the ``TwistSpec`` parameters in a
context's memo, do not tell the two apart.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oak.morphisms import verify_lie_hom
from oak.scalars import Scalar, ScalarContext

CTX = ScalarContext(("s", "a1"))


def cases():
    ctx, s, a = CTX, CTX.s, CTX.symbol("a1")
    r = ctx.rational
    return [
        ("sum", (s + 1) + (1 - s), 2),
        ("sum to zero", (s + r(1, 2)) + (-s - r(1, 2)), 0),
        ("difference", (s + r(2, 3)) - s, Fraction(2, 3)),
        ("difference to zero", (s * a + 1) - (a * s + 1), 0),
        ("int minus scalar", 3 - (s + 3) + s, 0),
        ("product", r(2, 3) * r(3, 4), Fraction(1, 2)),
        ("product by zero", (s + a) * 0, 0),
        ("product of fractions", (s / (s + 1)) * ((s + 1) / s), 1),
        ("quotient", (2 * s) / s, 2),
        ("quotient of polynomials", (s + 1) / (2 * s + 2), Fraction(1, 2)),
        ("quotient of fractions", (1 / (a + 1)) / (3 / (a + 1)), Fraction(1, 3)),
        ("int over scalar", 4 / r(8), Fraction(1, 2)),
        ("zero quotient", ctx.zero / (s + a), 0),
        ("negation", -r(-5, 7), Fraction(5, 7)),
        ("power", r(-2, 3) ** 3, Fraction(-8, 27)),
        ("power zero", (s + 1) ** 0, 1),
    ]


@pytest.mark.parametrize("name, value, want", cases(), ids=[c[0] for c in cases()])
def test_constant_results_are_the_canonical_scalar(name, value, want):
    assert value is CTX.rational(want)
    assert value is CTX.coerce(want)
    assert value is CTX.coerce(Fraction(want))


def test_single_terms_are_shared_too():
    s, a = CTX.s, CTX.symbol("a1")
    assert (2 * s) / 2 is s
    assert (s + 1) * s - s is s ** 2
    assert -(-s / 3) is (s + a) / 3 - a / 3
    assert (s * a + 1) - 1 is a * s
    # a value of two or more terms is not shared
    assert (s + 1) + 0 is not (s + 1) + 0


def test_zero_and_one_are_the_table_entries():
    assert CTX.zero is CTX.rational(0)
    assert CTX.one is CTX.rational(1)
    assert CTX.rational(6, 4) is CTX.rational(Fraction(3, 2))


def test_printing_and_equality_are_unchanged():
    s = CTX.s
    for value, text in [((s + 2) - s, "2"), ((s - 1) / (2 * s - 2), "1/2"),
                        (s - s, "0"), ((s + 1) * -1 + s, "-1"),
                        (CTX.rational(-4, 6), "-2/3")]:
        assert str(value) == text
        # a constant built outside the table is equal, hashes alike and
        # prints alike
        fresh = Scalar(CTX, dict(value.num), value.den)
        assert fresh is not value
        assert fresh == value and hash(fresh) == hash(value)
        assert str(fresh) == str(value)
        assert value == Fraction(text)
    assert (s + 1) - s == 1 and (s + 1) - s != 2
    assert str((s + 1) / 2) == "(s+1)/2"


def test_sharing_is_per_context():
    other = ScalarContext(("s", "a1"))
    assert (other.s - other.s) is other.zero
    assert other.zero is not CTX.zero
    assert other.rational(1, 2) is not CTX.rational(1, 2)


def test_constant_table_stops_growing_across_hom_checks():
    ctx = ScalarContext(("s",))
    assert verify_lie_hom("phi", 3, ctx).ok
    size = len(ctx._constants)
    for _ in range(3):
        assert verify_lie_hom("phi", 3, ctx).ok
        assert len(ctx._constants) == size


def test_a_constant_hashes_as_its_number():
    assert len({CTX.rational(2), 2}) == 1
    assert len({CTX.rational(1, 2), Fraction(1, 2)}) == 1
    assert {0: "zero"}.get(CTX.zero) == "zero"


numbers = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3)
forms = st.sampled_from(["number", "scalar", "fresh", "symbolic", "through s"])


def in_form(value, form):
    """``value`` as a plain number or as a scalar built one of four ways."""
    c = CTX.rational(value)
    return {
        "number": value,
        "scalar": c,
        "fresh": Scalar(CTX, dict(c.num), c.den),  # not the shared entry
        "symbolic": CTX.s + c,
        "through s": (CTX.s + c) - CTX.s,
    }[form]


@given(numbers, forms, numbers, forms)
def test_equal_values_hash_alike(x, fx, y, fy):
    a, b = in_form(x, fx), in_form(y, fy)
    if a == b:
        assert hash(a) == hash(b)


@given(numbers, forms, forms)
def test_one_value_in_two_forms_hashes_alike(x, fx, fy):
    a, b = in_form(x, fx), in_form(x, fy)
    if "symbolic" in (fx, fy) and fx != fy:
        assert a != b
    else:
        assert a == b and hash(a) == hash(b)
