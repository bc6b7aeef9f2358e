import gc
import weakref

import pytest

from oak.morphisms import TwistSpec, _conjugation_powers, verify_lie_hom
from oak.scalars import ScalarContext


def test_realization_images_die_with_their_context():
    refs = []
    for _ in range(3):
        ctx = ScalarContext(("s",))
        assert verify_lie_hom("phi", 1, ctx).ok
        assert ctx.memo  # the images were memoized on the context
        refs.append(weakref.ref(ctx))
        del ctx
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_laurent_tables_share_read_only_offsets_per_shape():
    from oak.characters import char_module
    from oak.weyl import FullLaurent, QuotientModule

    ctx = ScalarContext(("s",))
    a = char_module(FullLaurent(ctx, (ctx.rational(1, 3), ctx.rational(1, 2))), 3)
    b = char_module(FullLaurent(ctx, (ctx.rational(2, 3), ctx.rational(1, 4))), 3)
    assert a.ref != b.ref and a.entries is b.entries
    q = char_module(QuotientModule(ctx, (ctx.rational(1, 3), ctx.rational(0)), (2,)), 3)
    assert q.entries is not a.entries and len(q.entries) < len(a.entries)
    with pytest.raises(TypeError):
        a.entries[(0, 0)] = 2
    other = ScalarContext(("s",))
    c = char_module(FullLaurent(other, (other.rational(1, 3), other.rational(1, 2))), 3)
    assert c.entries == a.entries and c.entries is not a.entries


def test_equal_twist_specs_share_one_powers_entry():
    ctx = ScalarContext(("s",))
    for spec in (TwistSpec((1,), (2,)), TwistSpec((1,), (ctx.rational(2),))):
        assert _conjugation_powers(spec, ctx) == ((1, 2),)
    assert [key for key in ctx.memo if key[0] == "powers"] == [("powers", (1,), (2,))]
