"""The shared linear structure of the six sparse-combination element types."""

from fractions import Fraction

import pytest

from oak.liealg import LieElement, Weight, Z, h_, x_
from oak.morphisms import TensorElement
from oak.scalars import ScalarContext
from oak.uea import UEAElement, VermaVector
from oak.weyl import LaurentVector, WeylElement

CTX = ScalarContext(("s",))
OTHER_CTX = ScalarContext(("s",))


def _verma(ctx, n, top, terms=None):
    return VermaVector(ctx, n, Weight(ctx, [ctx.rational(top)] * n), terms)


# name -> (build(ctx, terms) in one fixed space, three keys of that space,
#          a nonzero element of another space over CTX)
CASES = {
    "LieElement": (
        lambda ctx, terms: LieElement(ctx, 2, terms),
        (x_((1, -1)), h_(1), Z),
        LieElement(CTX, 1, {h_(1): 1}),
    ),
    "UEAElement": (
        lambda ctx, terms: UEAElement(ctx, 1, terms),
        ((), ((0, 1),), ((4, 2),)),
        UEAElement.unit(CTX, 1, "sp"),
    ),
    "VermaVector": (
        lambda ctx, terms: _verma(ctx, 1, Fraction(1, 2), terms),
        ((), ((0, 1),), ((0, 1), (1, 3))),
        _verma(CTX, 1, Fraction(3, 2), {(): 1}),
    ),
    "WeylElement": (
        lambda ctx, terms: WeylElement(ctx, 1, terms),
        (((0,), (0,)), ((1,), (0,)), ((2,), (1,))),
        WeylElement.unit(CTX, 2),
    ),
    "LaurentVector": (
        lambda ctx, terms: LaurentVector(ctx, (Fraction(1, 2),), terms),
        ((0,), (-1,), (3,)),
        LaurentVector(CTX, (Fraction(1, 3),), {(0,): 1}),
    ),
    "TensorElement": (
        lambda ctx, terms: TensorElement(ctx, 1, terms),
        (((), ((0,), (0,))), (((0, 1),), ((1,), (0,))), ((), ((0,), (2,)))),
        TensorElement.unit(CTX, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_linear_structure(name):
    build, (k1, k2, k3), other_space = CASES[name]
    half_s = CTX.s / 2
    x = build(CTX, {k1: 1, k2: half_s})
    y = build(CTX, {k2: -half_s, k3: 3})
    total = x + y
    assert set(total.terms) == {k1, k3}
    assert x - y == x + (-y)
    assert (x - x).is_zero and (x + (-x)).is_zero and x.scale(0).is_zero
    for result in (total, x - y, y - x, -x, x.scale(2), y + x + (-y)):
        assert all(not c.is_zero for c in result.terms.values())
    assert y + x + (-y) == x
    for foreign in (build(OTHER_CTX, {k1: 1}), other_space):
        with pytest.raises(ValueError):
            x + foreign
        with pytest.raises(ValueError):
            x - foreign
        assert x != foreign


@pytest.mark.parametrize(
    "build, bad_key",
    [
        (CASES["LieElement"][0], x_((3, 0))),
        (CASES["VermaVector"][0], ((4, 1),)),
        (CASES["WeylElement"][0], ((1,), (-1,))),
        (CASES["LaurentVector"][0], (0, 0)),
    ],
    ids=["LieElement", "VermaVector", "WeylElement", "LaurentVector"],
)
def test_keys_are_validated_even_with_zero_coefficient(build, bad_key):
    with pytest.raises(ValueError):
        build(CTX, {bad_key: 0})
