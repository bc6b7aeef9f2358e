import gc
import weakref

from oak.morphisms import verify_lie_hom
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
