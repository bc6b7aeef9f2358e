"""The scalar kernel against sympy's own field arithmetic.

``Scalar`` keeps an integer polynomial over an int denominator when the
reduced denominator is a constant, so polynomials stay off sympy's cancel.
The reference here is a separate sympy field over the same symbols, used
as sympy intends: every result is sympy's reduced pair, and ``Scalar`` must
print, order and compare exactly as that pair does.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import QQ
from sympy.polys.fields import field as sympy_field

from oak import morphisms
from oak.liealg import LieElement, x_
from oak.morphisms import (
    LocalizedOperator,
    TwistSpec,
    _lowering_element,
    conjugation_twist_action,
    f_basis,
    f_map,
    verify_lie_hom,
    verify_theta_conjugation,
)
from oak.scalars import ScalarContext, _is_sum, _poly_str
from oak.weyl import (
    FullLaurent,
    LaurentVector,
    WeylElement,
    apply,
    apply_inverse_lowering,
)

SYMBOLS = ("s", "a1")
CTX = ScalarContext(SYMBOLS)
REF = sympy_field(",".join(SYMBOLS), QQ)[0]


# -- values drawn once, built on both sides ---------------------------------

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(monomials, coefficients, max_size=4)
constants = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
nonzero_polys = polys.filter(lambda d: any(d.values()))
ONE = {(0, 0): Fraction(1)}


@st.composite
def values(draw):
    """(numerator terms, denominator terms): a polynomial, a polynomial over
    a constant (the folded case) or a rational function."""
    numer = draw(polys)
    kind = draw(st.sampled_from(("poly", "constant", "function")))
    if kind == "poly":
        denom = {(0, 0): Fraction(1)}
    elif kind == "constant":
        denom = {(0, 0): draw(constants)}
    else:
        denom = draw(polys.filter(lambda d: any(d.values()) and set(d) != {(0, 0)}))
    return numer, denom


def build(terms):
    """The Scalar and the reference fraction of a drawn value."""
    numer, denom = terms

    def scalar_poly(d):
        out = CTX.zero
        for (i, j), c in d.items():
            out = out + CTX.rational(c) * CTX.s ** i * CTX.symbol("a1") ** j
        return out

    def ref_poly(d):
        return REF.ring.from_dict(
            {mon: QQ(c.numerator, c.denominator) for mon, c in d.items() if c}
        )

    return scalar_poly(numer) / scalar_poly(denom), REF.new(ref_poly(numer), ref_poly(denom))


def ref_power(r, k):
    # sympy's negative power swaps the pair without reducing it again
    return r ** k if k >= 0 else (REF.one / r) ** -k


def ref_key(r):
    def poly_key(poly):
        return tuple(
            sorted(
                (mon, Fraction(int(c.numerator), int(c.denominator)))
                for mon, c in poly.terms()
            )
        )

    return (poly_key(r.numer), poly_key(r.denom))


def ref_str(r):
    num = _poly_str(r.numer, SYMBOLS)
    if r.denom == 1:
        return num
    den = _poly_str(r.denom, SYMBOLS)
    if _is_sum(num):
        num = f"({num})"
    if _is_sum(den) or "*" in den or "/" in den:
        den = f"({den})"
    return f"{num}/{den}"


def sort_key(x):
    """A total order on scalars: numerator terms, then denominator terms."""
    return (tuple(sorted(x.num.items())), tuple(sorted(x.ctx._lift(x.den).items())))


def assert_matches(x, r):
    """``x`` is the reference value in every observable way."""
    assert sort_key(x) == ref_key(r)
    assert str(x) == ref_str(r)
    back = CTX.parse(str(x))
    assert back == x and hash(back) == hash(x)


def assert_same(x, y):
    assert x == y and hash(x) == hash(y) and str(x) == str(y)


# -- differential and property tests ----------------------------------------

@given(values())
def test_construction_matches_reference(a):
    x, r = build(a)
    assert_matches(x, r)


@given(values(), values())
def test_ring_operations_match_reference(a, b):
    (x, rx), (y, ry) = build(a), build(b)
    assert_matches(x + y, rx + ry)
    assert_matches(x - y, rx - ry)
    assert_matches(x * y, rx * ry)
    assert_same(x + y, y + x)
    assert_same(x * y, y * x)
    assert_same(x - y, -(y - x))
    assert (x == y) == (rx == ry)


@given(values(), values())
def test_division_matches_reference(a, b):
    (x, rx), (y, ry) = build(a), build(b)
    if not ry:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    assert_matches(x / y, rx / ry)
    assert_same(x / y, x * y ** -1)


@given(polys, nonzero_polys)
def test_exact_quotient_matches_reference(a, b):
    """A division of polynomials that comes out even stays a polynomial, and
    any division of polynomials is sympy's reduced fraction."""
    (x, rx), (y, ry) = build((a, ONE)), build((b, ONE))
    got = (x * y) / y
    assert type(got.den) is int
    assert_matches(got, (rx * ry) / ry)
    assert_same(got, x)
    quotient, rq = x / y, rx / ry
    assert_matches(quotient, rq)
    assert (type(quotient.den) is int) == rq.denom.is_ground


@given(values(), st.integers(-3, 3))
def test_powers_match_reference(a, k):
    x, r = build(a)
    if not r and k <= 0:
        if k < 0:
            with pytest.raises(ZeroDivisionError):
                x ** k
        else:
            assert_same(x ** k, CTX.one)
        return
    got = x ** k
    assert_matches(got, ref_power(r, k))
    product = CTX.one
    for _ in range(abs(k)):
        product = product * x
    assert_same(got, product if k >= 0 else 1 / product)


@given(values(), constants)
def test_mixed_with_python_rationals(a, c):
    x, r = build(a)
    qc = REF.ground_new(QQ(c.numerator, c.denominator))
    assert_matches(x + c, r + qc)
    assert_matches(c - x, qc - r)
    assert_matches(x * c, r * qc)
    assert_matches(x / c, r / qc)
    if r:
        assert_matches(c / x, qc / r)


# -- the one-pass paths against the slow ones ----------------------------------

int_polys = st.dictionaries(monomials, st.integers(-6, 6).filter(bool), max_size=4)
single_terms = st.tuples(monomials, constants, st.sampled_from((1, 2, 3, 6)))


def as_fractions(poly):
    return {m: Fraction(c) for m, c in poly.items()}


def single(term):
    """One term c * s^i * a1^j over the constant d."""
    mon, c, d = term
    return {mon: c}, {(0, 0): Fraction(d)}


@given(values(), values())
def test_difference_is_the_sum_with_the_negation(a, b):
    (x, rx), (y, ry) = build(a), build(b)
    assert_matches(x - y, rx - ry)
    assert_same(x - y, x + (-y))
    assert_same(y - x, y + (-x))


@given(int_polys, int_polys, st.integers(2, 12))
def test_equal_denominator_sums_that_cancel(p, w, d):
    """p/d + (w*d - p)/d is the integer polynomial w: the numerators cancel
    down to a multiple of d, and the result is over 1."""
    denom = {(0, 0): Fraction(d)}
    x, rx = build((as_fractions(p), denom))
    rest = {m: Fraction(d * w.get(m, 0) - p.get(m, 0)) for m in set(p) | set(w)}
    y, ry = build((rest, denom))
    assert type(x.den) is int and x.den == y.den
    total = x + y
    assert_matches(total, rx + ry)
    assert total.den == 1
    assert_same(total, build((as_fractions(w), ONE))[0])
    for zero in (x - x, x + (-x), y - y):
        assert zero.is_zero and zero.den == 1
        assert_same(zero, CTX.zero)


@given(single_terms, single_terms, constants, st.integers(-6, 6))
def test_single_term_products(a, b, c, k):
    (x, rx), (y, ry) = build(single(a)), build(single(b))
    qc = REF.ground_new(QQ(c.numerator, c.denominator))
    assert_matches(x * y, rx * ry)
    assert_matches(x * c, rx * qc)
    assert_matches(c * x, qc * rx)
    assert_matches(x * k, rx * k)
    assert_matches(k * y, k * ry)
    assert_same(x * y, y * x)
    assert_same(x * c, CTX.rational(c) * x)
    assert_same(x * k, x * CTX.rational(k))


@given(single_terms, values())
def test_single_term_times_a_sum(a, b):
    (x, rx), (y, ry) = build(single(a)), build(b)
    assert_matches(x * y, rx * ry)
    assert_matches(y * x, ry * rx)


@given(st.lists(values(), min_size=2, max_size=6))
def test_sort_order_matches_reference(drawn):
    pairs = [build(a) for a in drawn]
    got = [str(x) for x, _ in sorted(pairs, key=lambda p: sort_key(p[0]))]
    want = [ref_str(r) for _, r in sorted(pairs, key=lambda p: ref_key(p[1]))]
    assert got == want


# -- regressions -------------------------------------------------------------

def test_negative_power_is_canonical():
    x, y = CTX.parse("(-s)^-1"), CTX.parse("-1/s")
    assert_same(x, y)
    assert str(x) == "-1/s"
    assert_same(CTX.parse("(s/2)^-2"), CTX.parse("4/s^2"))
    assert_same(CTX.parse("(-2/3)^-1"), CTX.rational(-3, 2))


def test_zero_to_the_zero_is_one():
    assert_same(CTX.zero ** 0, CTX.one)
    assert_same(CTX.parse("0^0"), CTX.one)
    assert_same(CTX.parse("(s-s)^0"), CTX.one)


def test_equal_squares_hash_alike():
    # sympy's square() caches its result's hash before it finishes building it
    a1 = CTX.symbol("a1")
    x = (1 - a1) ** 2
    y = CTX.parse("a1^2-2*a1+1")
    assert_same(x, y)
    assert len({x, y}) == 1


def test_folded_constants():
    s = CTX.s
    assert str((s * s - 1) / 2) == "(s^2-1)/2"
    assert str(s / 2 + CTX.rational(1, 3)) == "(3*s+2)/6"
    assert_same((2 * s + 2) / 4, (s + 1) / 2)
    assert (s / 2).is_rational() is False
    assert CTX.rational(6, 4).as_fraction() == Fraction(3, 2)
    assert CTX.rational(1, 2).is_integer() is False
    assert (CTX.rational(1, 2) * 2).is_one
    assert ((s + 1) / 3).subs_symbol("s", 2) == 1
    assert ((s + 1) / 3).evaluate({"s": Fraction(1, 2)}) == Fraction(1, 2)


def test_constants_are_cached_per_context():
    other = ScalarContext(SYMBOLS)
    assert CTX.rational(1, 2) is CTX.coerce(Fraction(1, 2))
    assert CTX.rational(3) is CTX.rational(Fraction(6, 2))
    assert other.rational(1, 2) is not CTX.rational(1, 2)
    with pytest.raises(ValueError):
        other.rational(1, 2) + CTX.rational(1, 2)


@pytest.mark.parametrize("kind", ["f", "phi"])
def test_homomorphism_checks_never_cancel(kind, cancel_calls):
    """The f and phi checks only meet polynomials in s, so every scalar
    operation stays on the ring path and sympy's gcd is never called."""
    assert verify_lie_hom(kind, 2, ScalarContext(("s",))).ok
    assert not cancel_calls


@pytest.mark.parametrize(
    "n, indices, b, depth", [(1, (1,), (2,), 3), (2, (1, 2), (1, 1), 1)]
)
def test_twist_checks_never_cancel(n, indices, b, depth, cancel_calls):
    """Scaled probes keep both sides of the twist check polynomial: every
    division by the shifted factors (a_i + m_i + r) comes out even."""
    ctx = ScalarContext(("s",) + tuple(f"a{i}" for i in range(1, n + 1)))
    spec = TwistSpec(indices, tuple(ctx.rational(x) for x in b))
    base = tuple(ctx.symbol(f"a{i}") for i in range(1, n + 1))
    report = verify_theta_conjugation(spec, base, depth, ctx, n)
    assert report.ok and report.vectors_checked == 3 * n * (2 * depth + 1) ** n
    assert not cancel_calls


def test_series_reaching_past_the_oracle_never_cancels(cancel_calls, monkeypatch):
    """The probe scale also covers inverse powers that only the series has,
    here only the series of X[+2e1]."""
    series = morphisms.theta_generator

    def padded(g, spec, ctx, n):
        op = series(g, spec, ctx, n)
        if g != x_((2,)):
            return op
        far = [(ctx.one, None, 1, 3), (-1, None, 1, 3)]  # they cancel
        return LocalizedOperator(ctx, n, op.terms + far)

    monkeypatch.setattr(morphisms, "theta_generator", padded)
    ctx = ScalarContext(("s", "a1"))
    spec = TwistSpec((1,), (ctx.rational(1),))
    assert verify_theta_conjugation(spec, (ctx.symbol("a1"),), 2, ctx, 1).ok
    assert not cancel_calls


def test_exact_quotients_never_cancel(cancel_calls):
    s, a1 = CTX.s, CTX.symbol("a1")
    for y in (a1 + 1, (a1 + 2) * (a1 + 3) / 2, s * a1 - s / 3):
        x = (s ** 2 + a1 / 5) * y
        assert_same(x / y, s ** 2 + a1 / 5)
    assert not cancel_calls


def test_cancel_counter_sees_a_true_fraction(cancel_calls):
    """Positive control for the guards above: a sum of true fractions is
    reduced by sympy's cancel, and the fixture records it."""
    s = CTX.s
    assert_same(1 / (s - 1) + 1 / (s + 1), 2 * s / (s ** 2 - 1))
    assert cancel_calls


# -- integer keys ------------------------------------------------------------

@pytest.mark.parametrize("offset", [(0.5,), (True,), (Fraction(1),), ("0",)])
def test_laurent_offsets_must_be_integers(offset):
    with pytest.raises(ValueError):
        LaurentVector(CTX, (Fraction(1, 2),), {offset: 1})


@pytest.mark.parametrize(
    "key", [((0.5,), (0,)), ((0,), (True,)), ((1,), (Fraction(2),))]
)
def test_weyl_exponents_must_be_integers(key):
    with pytest.raises(ValueError):
        WeylElement(CTX, 1, {key: 1})


# -- the conjugation oracle with its operators hoisted ------------------------

def test_conjugation_oracle_matches_unhoisted_operators():
    ctx = ScalarContext(("s", "a1", "a2"))
    module = FullLaurent(ctx, (ctx.symbol("a1"), ctx.symbol("a2")))
    spec = TwistSpec((1, 2), (ctx.rational(2), ctx.rational(1)))
    v = LaurentVector.monomial(module, (1, -1), ctx.rational(1, 3))
    for g in (x_((1, 1)), x_((2, 0)), x_((0, -1))):
        got = conjugation_twist_action(g, spec, v, module)
        # the operators built afresh for every vector
        want = apply_inverse_lowering(
            apply_inverse_lowering(v, 1, module, 2), 2, module, 1
        )
        want = apply(f_map(LieElement.from_basis(ctx, 2, g)), want, module)
        for i, p in ((1, 2), (2, 1)):
            op = f_basis(ctx, 2, _lowering_element(i, 2)) ** p
            want = apply(op, want, module)
        assert got == want
