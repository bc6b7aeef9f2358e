"""Integer arguments from callers are refused, never truncated, when they are
not ints: a float, a bool and an integral Fraction all raise ValueError."""

from fractions import Fraction

import pytest

from oak.characters import (
    CharTable,
    classify_flags,
    compare_characters,
    kostant_partition,
)
from oak.liealg import Weight, h_, x_
from oak.scalars import ScalarContext
from oak.weyl import FullLaurent, QuotientModule, support

CTX = ScalarContext(("s",))


def table():
    return CharTable(Weight(CTX, [CTX.zero], CTX.zero), ((-20, 20),), {(0,): 1})


SITES = {
    "quotiented index": lambda v: QuotientModule(CTX, (0,), [v]),
    "support box": lambda v: support(FullLaurent(CTX, (CTX.rational(1, 2),)), ((-v,), (v,))),
    "character window": lambda v: compare_characters(table(), table(), ((-v, v),)),
    "probe depth": lambda v: classify_flags(table(), v),
    "root coordinate": lambda v: x_((v,)),
    "Cartan index": lambda v: h_(v),
    "partition weight": lambda v: kostant_partition((v,), ((1,),)),
    "partition root": lambda v: kostant_partition((1,), ((v,),)),
}


@pytest.mark.parametrize("value", [1.7, True, Fraction(1)], ids=repr)
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_integers_are_refused(site, value):
    SITES[site](1)  # the same call with an int is accepted
    with pytest.raises(ValueError, match="must be an integer"):
        SITES[site](value)
