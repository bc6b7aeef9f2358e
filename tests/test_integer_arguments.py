"""Integer arguments from callers are refused, never truncated, when they are
not ints: a float, a bool and an integral Fraction all raise ValueError."""

from fractions import Fraction

import pytest

from oak.characters import (
    CharTable,
    char_module,
    classify_flags,
    compare_characters,
    finite_simple_sp_char,
    generalized_verma_char,
    kostant_partition,
    verify_generalized_factorization,
    verify_verma_factorization,
    verma_char,
)
from oak.liealg import Weight, h_, x_
from oak.scalars import ScalarContext
from oak.weyl import (
    FullLaurent,
    LaurentVector,
    QuotientModule,
    ShaleWeil,
    apply_inverse_lowering,
    support,
)

CTX = ScalarContext(("s",))


def table(zdot=CTX.zero):
    return CharTable(Weight(CTX, [CTX.zero], zdot), ((-20, 20),), {(0,): 1})


def weight(zdot=CTX.zero):
    return Weight(CTX, [CTX.zero], zdot)


F_HALF = FullLaurent(CTX, (CTX.rational(1, 2),))
T0 = LaurentVector.monomial(F_HALF, (0,))


SITES = {
    "quotiented index": lambda v: QuotientModule(CTX, (0,), [v]),
    "support box": lambda v: support(FullLaurent(CTX, (CTX.rational(1, 2),)), ((-v,), (v,))),
    "character window": lambda v: compare_characters(table(), table(), ((-v, v),)),
    "probe depth": lambda v: classify_flags(table(), v),
    "lowering index": lambda v: apply_inverse_lowering(T0, v, F_HALF),
    "inverse power": lambda v: apply_inverse_lowering(T0, 1, F_HALF, v),
    "root coordinate": lambda v: x_((v,)),
    "Cartan index": lambda v: h_(v),
    "partition weight": lambda v: kostant_partition((v,), ((1,),)),
    "partition root": lambda v: kostant_partition((1,), ((v,),)),
    "Verma depth": lambda v: verma_char(weight(CTX.zdot), "g", v),
    "module character depth": lambda v: char_module(ShaleWeil(CTX, 1), v),
    "generalized Verma depth": lambda v: generalized_verma_char(table(), "sp", v),
    "finite character depth": lambda v: finite_simple_sp_char(weight(), v),
    "Verma factorization depth": lambda v: verify_verma_factorization(weight(CTX.zdot), 1, v),
    "generalized factorization depth": lambda v: verify_generalized_factorization(
        table(CTX.zdot), 1, v
    ),
}


@pytest.mark.parametrize("value", [1.7, True, Fraction(1)], ids=repr)
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_integers_are_refused(site, value):
    SITES[site](1)  # the same call with an int is accepted
    with pytest.raises(ValueError, match="must be an integer"):
        SITES[site](value)
