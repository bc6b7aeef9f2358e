import random
from fractions import Fraction

import pytest

from oak.liealg import LieElement, Z, basis, h_, x_
from oak.scalars import ScalarContext
from oak.uea import UEAElement, engine, multiply, normal_order, reduce_central
from oak.morphisms import (
    LocalizedOperator,
    TensorElement,
    TwistSpec,
    conjugation_twist_action,
    f_basis,
    iota_heisenberg,
    iota_sp,
    phi_basis,
    phi_map,
    theta_generator,
    verify_lie_hom,
    verify_theta_conjugation,
)
from oak.weyl import FullLaurent, LaurentVector, WeylElement, weyl_commutator, weyl_multiply

CTX = ScalarContext(("s",))


def test_f_images():
    t1 = WeylElement.t(CTX, 1, 1)
    d1 = WeylElement.d(CTX, 1, 1)
    assert f_basis(CTX, 1, x_((2,))) == weyl_multiply(t1, t1)
    assert f_basis(CTX, 1, h_(1)) == weyl_multiply(t1, d1) + WeylElement.unit(
        CTX, 1
    ).scale(CTX.rational(1, 2))
    assert f_basis(CTX, 1, x_((1,))) == t1.scale(CTX.s)
    assert f_basis(CTX, 1, x_((-1,))) == d1.scale(-CTX.s)
    assert f_basis(CTX, 1, Z) == WeylElement.unit(CTX, 1).scale(CTX.zdot)
    assert f_basis(CTX, 2, x_((1, -1))) == weyl_multiply(
        WeylElement.t(CTX, 2, 1), WeylElement.d(CTX, 2, 2)
    )
    assert f_basis(CTX, 2, x_((-1, -1))) == weyl_multiply(
        WeylElement.d(CTX, 2, 1), WeylElement.d(CTX, 2, 2)
    ).scale(-1)


def test_f_bracket_compatibility_instance():
    fp = f_basis(CTX, 1, x_((1,)))
    fm = f_basis(CTX, 1, x_((-1,)))
    assert weyl_commutator(fp, fm) == f_basis(CTX, 1, Z)


@pytest.mark.parametrize("n", [1, 2])
def test_f_is_lie_hom(n):
    report = verify_lie_hom("f", n, CTX)
    assert report.ok
    expected_pairs = len(basis(n)) * (len(basis(n)) + 1) // 2
    assert report.pairs_checked == expected_pairs


@pytest.mark.parametrize("n", [1, 2])
def test_phi_is_lie_hom(n):
    report = verify_lie_hom("phi", n, CTX)
    assert report.ok


def test_center_maps_to_scalar():
    n = 2
    z_img = f_basis(CTX, n, Z)
    for b in basis(n):
        assert weyl_commutator(z_img, f_basis(CTX, n, b)).is_zero


def test_phi_images():
    got = phi_basis(CTX, 1, x_((1,)))
    assert got == TensorElement.from_weyl(WeylElement.t(CTX, 1, 1).scale(CTX.s))
    h_img = phi_basis(CTX, 1, h_(1))
    expected = TensorElement.from_sp(CTX, 1, h_(1)) + TensorElement.from_weyl(
        f_basis(CTX, 1, h_(1))
    )
    assert h_img == expected


def test_phi_multiplicative_instance():
    # phi of the canonical form of X_{e1}X_{-e1} equals
    # phi(X_{-e1}) phi(X_{e1}) + s^2 (x) 1
    n = 1
    u = reduce_central(
        multiply(
            UEAElement.from_basis(CTX, n, x_((1,))),
            UEAElement.from_basis(CTX, n, x_((-1,))),
        )
    )
    lhs = phi_map(u)
    rhs = phi_basis(CTX, n, x_((-1,))) * phi_basis(CTX, n, x_((1,)))
    rhs = rhs + TensorElement.unit(CTX, n).scale(CTX.zdot)
    assert (lhs - rhs).is_zero


def test_phi_rejects_central_factor():
    u = UEAElement.from_basis(CTX, 1, Z)
    with pytest.raises(ValueError):
        phi_map(u)


def test_iota_heisenberg_relation():
    n = 2
    for i in range(n):
        rp = [0] * n
        rp[i] = 1
        rm = [-c for c in rp]
        a = iota_heisenberg(CTX, n, x_(rp))
        b = iota_heisenberg(CTX, n, x_(rm))
        assert a * b - b * a == TensorElement.unit(CTX, n).scale(CTX.zdot)


def test_iota_sp_is_multiplicative():
    rng = random.Random(4)
    n = 2
    eng = engine(n, "sp")
    elems = eng.elements

    def rand_sp():
        word = [elems[rng.randrange(len(elems))] for _ in range(rng.randrange(1, 4))]
        return normal_order(CTX, word, n, part="sp")

    for _ in range(10):
        u, v = rand_sp(), rand_sp()
        assert iota_sp(multiply(u, v)) == iota_sp(u) * iota_sp(v)


def _random_z_free_element(rng, ctx, n, terms=2, deg=3):
    eng = engine(n, "g")
    letters = [b for b in eng.elements if b.kind != "z"]
    out = UEAElement(ctx, n, {}, "g")
    for _ in range(terms):
        word = [letters[rng.randrange(len(letters))] for _ in range(rng.randrange(1, deg + 1))]
        piece = normal_order(ctx, word, n)
        out = out + piece.scale(ctx.rational(rng.randint(-3, 3)))
    # normal ordering of z-free words can still produce z factors via brackets
    return reduce_central(out)


def test_phi_multiplicativity_random():
    rng = random.Random(17)
    n = 2
    for _ in range(40):
        u = _random_z_free_element(rng, CTX, n)
        v = _random_z_free_element(rng, CTX, n)
        assert phi_map(multiply_reduced(u, v)) == phi_map(u) * phi_map(v)


def multiply_reduced(u, v):
    return reduce_central(multiply(u, v))


def _phi_injectivity_rank(n, max_deg, s_value):
    """Rank of the images of all PBW monomials of bounded degree, with s
    specialized to a generic rational (independence there implies
    independence over the function field)."""
    eng = engine(n, "g")
    letters = [k for k, b in enumerate(eng.elements) if b.kind != "z"]
    monos = [()]
    frontier = [()]
    for _ in range(max_deg):
        new = []
        for word in frontier:
            start = letters.index(word[-1]) if word else 0
            for pos in range(start, len(letters)):
                new.append(word + (letters[pos],))
        monos.extend(new)
        frontier = new
    images = []
    for word in monos:
        u = UEAElement(
            CTX, n, {eng.monomial_of_word(word): CTX.one}, "g"
        )
        images.append(phi_map(u))
    # columns: all (sp-monomial, weyl-monomial) keys
    keys = sorted({k for img in images for k in img.terms})
    rows = []
    for img in images:
        rows.append(
            [
                img.terms.get(k, CTX.zero).evaluate({"s": s_value})
                for k in keys
            ]
        )
    return _rank(rows), len(monos)


def _rank(rows):
    rows = [r[:] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def test_phi_injectivity_witness():
    rank, count = _phi_injectivity_rank(1, 3, Fraction(5, 7))
    assert rank == count == 56
    rank2, count2 = _phi_injectivity_rank(2, 2, Fraction(5, 7))
    assert rank2 == count2 == 120


# -- twists -------------------------------------------------------------------

CTXT = ScalarContext(("s", "a1", "a2", "b"))


def _spec(indices, values):
    return TwistSpec(tuple(indices), tuple(values))


def test_theta_fixes_lowering_generator():
    spec = _spec([1], [CTXT.symbol("b")])
    op = theta_generator(x_((-1,)), spec, CTXT, 1)
    assert op.canonical() == {
        (1, 0): LieElement.from_basis(CTXT, 1, x_((-1,)))
    }


def test_theta_zero_parameter_is_identity():
    spec = _spec([1], [CTXT.rational(0)])
    for g in (x_((1,)), x_((2,))):
        op = theta_generator(g, spec, CTXT, 1)
        assert op.canonical() == {(1, 0): LieElement.from_basis(CTXT, 1, g)}


def test_theta_series_terms():
    b = CTXT.symbol("b")
    spec = _spec([1], [b])
    op = theta_generator(x_((1,)), spec, CTXT, 1).canonical()
    assert op[(1, 0)] == LieElement.from_basis(CTXT, 1, x_((1,)))
    assert op[(1, 1)] == LieElement.from_basis(CTXT, 1, x_((-1,))).scale(b * 2)
    assert (1, 2) not in op

    op2 = theta_generator(x_((2,)), spec, CTXT, 1).canonical()
    assert op2[(1, 0)] == LieElement.from_basis(CTXT, 1, x_((2,)))
    assert op2[(1, 1)] == LieElement.from_basis(CTXT, 1, h_(1)).scale(b * (-4))
    assert op2[(1, 2)] == LieElement.from_basis(CTXT, 1, x_((-2,))).scale(
        b * (b - 1) * (-4)
    )


def test_theta_closed_form_as_operator_symbolic_b():
    # X_{2e1} twist equals X_{2e1} - 4b(h_1 + b - 1) X_{-2e1}^{-1} as module
    # operators, with b symbolic
    b = CTXT.symbol("b")
    spec = _spec([1], [b])
    series = theta_generator(x_((2,)), spec, CTXT, 1)
    closed = LocalizedOperator(
        CTXT,
        1,
        [
            (CTXT.one, LieElement.from_basis(CTXT, 1, x_((2,))), 1, 0),
            (b * (-4), LieElement.from_basis(CTXT, 1, h_(1)), 1, 1),
            (b * (b - 1) * (-4), None, 1, 1),
        ],
    )
    F = FullLaurent(CTXT, (CTXT.symbol("a1"),))
    for off in range(-4, 5):
        v = LaurentVector.monomial(F, (off,))
        assert series.act(v, F) == closed.act(v, F)


def test_theta_closed_form_single_raising_symbolic_b():
    b = CTXT.symbol("b")
    spec = _spec([1], [b])
    series = theta_generator(x_((1,)), spec, CTXT, 1)
    closed = LocalizedOperator(
        CTXT,
        1,
        [
            (CTXT.one, LieElement.from_basis(CTXT, 1, x_((1,))), 1, 0),
            (b * 2, LieElement.from_basis(CTXT, 1, x_((-1,))), 1, 1),
        ],
    )
    F = FullLaurent(CTXT, (CTXT.symbol("a1"),))
    for off in range(-4, 5):
        v = LaurentVector.monomial(F, (off,))
        assert series.act(v, F) == closed.act(v, F)


def test_theta_integer_closed_form_value():
    # rank 1, b = 1: the twisted long raising operator multiplies t^a by
    # (a+3)(a+4)/((a+1)(a+2)) and shifts by +2
    ctx = ScalarContext(("s", "a1"))
    a1 = ctx.symbol("a1")
    spec = _spec([1], [ctx.rational(1)])
    F = FullLaurent(ctx, (a1,))
    v = LaurentVector.monomial(F, (0,))
    got = theta_generator(x_((2,)), spec, ctx, 1).act(v, F)
    coeff = (a1 + 3) * (a1 + 4) / ((a1 + 1) * (a1 + 2))
    assert got == LaurentVector(ctx, F.base, {(2,): coeff})
    assert got == conjugation_twist_action(x_((2,)), spec, v, F)


@pytest.mark.parametrize("bval", [0, 1, 2])
def test_theta_matches_conjugation_rank1(bval):
    ctx = ScalarContext(("s", "a1"))
    spec = _spec([1], [ctx.rational(bval)])
    report = verify_theta_conjugation(spec, (ctx.symbol("a1"),), 3, ctx, 1)
    assert report.ok and report.vectors_checked == 21


def test_theta_matches_conjugation_rank2_mixed():
    ctx = ScalarContext(("s", "a1", "a2"))
    spec = _spec([1, 2], [ctx.rational(1), ctx.rational(2)])
    base = (ctx.symbol("a1"), ctx.symbol("a2"))
    report = verify_theta_conjugation(spec, base, 2, ctx, 2)
    assert report.ok


def test_theta_index_not_in_set():
    spec = _spec([2], [CTXT.rational(1)])
    with pytest.raises(ValueError):
        theta_generator(x_((1, 0)), spec, CTXT, 2)


def test_conjugation_needs_integer_parameters():
    ctx = ScalarContext(("s", "a1"))
    spec = _spec([1], [ctx.rational(1, 2)])
    F = FullLaurent(ctx, (ctx.symbol("a1"),))
    v = LaurentVector.monomial(F, (0,))
    with pytest.raises(ValueError):
        conjugation_twist_action(x_((1,)), spec, v, F)


def test_twist_on_integer_base_signals_bad_exponent():
    ctx = ScalarContext(("s",))
    spec = _spec([1], [ctx.rational(1)])
    with pytest.raises(
        ZeroDivisionError,
        match=r"^localized action undefined: exponent factor vanishes at \(-2,\)$",
    ):
        verify_theta_conjugation(spec, (ctx.rational(0),), 2, ctx, 1)
