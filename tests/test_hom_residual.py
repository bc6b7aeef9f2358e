"""The fused residual of ``verify_lie_hom`` against the public maps.

``verify_lie_hom`` sums image([x,y]) - image(x)image(y) + image(y)image(x)
into one dict per pair.  Here the basis images are broken on purpose (a
term dropped, a coefficient moved by 1/3), and the violations it reports
must equal, byte for byte, those rebuilt from the public functions:
``f_map(lie) - weyl_commutator(A, B)`` for f and
``phi_lie(lie) - (A*B - B*A)`` for phi.  One broken phi image carries a
mixed term m⊗w, whose sp and Weyl factors are both non-units, so the
tensor commutator kernel expands both products there.
"""

import pytest

from oak import morphisms
from oak.liealg import LieElement, basis, bracket, h_, x_
from oak.scalars import ScalarContext
from oak.weyl import weyl_commutator


def targets(n):
    """Basis elements whose images get broken: a Cartan element (two image
    terms), a Heisenberg generator and a long root vector."""
    pad = (0,) * (n - 1)
    return [h_(1), x_((1,) + pad), x_((-2,) + pad)]


def broken(original, target, how):
    def image(ctx, n, b):
        out = original(ctx, n, b)
        if b != target:
            return out
        terms = dict(out.terms)
        key = out.sorted_terms()[0][0]
        if how == "drop":
            del terms[key]
        else:
            terms[key] = terms[key] + ctx.rational(1, 3)
        return out._like(terms)

    return image


def rebuilt(kind, n, ctx):
    """The violations from the public maps, pair by pair."""
    image = morphisms.f_basis if kind == "f" else morphisms.phi_basis
    elems = basis(n)
    out = []
    for i, a in enumerate(elems):
        for b in elems[i:]:
            lie = bracket(LieElement.from_basis(ctx, n, a), LieElement.from_basis(ctx, n, b))
            x, y = image(ctx, n, a), image(ctx, n, b)
            if kind == "f":
                resid = morphisms.f_map(lie) - weyl_commutator(x, y)
            else:
                resid = morphisms.phi_lie(lie) - (x * y - y * x)
            if not resid.is_zero:
                out.append((str(a), str(b), str(resid)))
    return out


@pytest.mark.parametrize("how", ["drop", "perturb"])
@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["f", "phi"])
def test_violations_match_the_public_maps(kind, n, which, how, monkeypatch):
    name = "f_basis" if kind == "f" else "phi_basis"
    target = targets(n)[which]
    monkeypatch.setattr(morphisms, name, broken(getattr(morphisms, name), target, how))
    ctx = ScalarContext(("s",))  # fresh, so no image is memoized unbroken
    report = morphisms.verify_lie_hom(kind, n, ctx)
    want = rebuilt(kind, n, ScalarContext(("s",)))
    assert want, "the broken image must break the homomorphism"
    assert report.violations == want
    assert report.pairs_checked == len(basis(n)) * (len(basis(n)) + 1) // 2


def with_mixed_term(original, target):
    """phi with one more term X⊗w in the image of ``target``: X its sp
    factor, w the Weyl factor of its first term on the Weyl side."""
    def image(ctx, n, b):
        out = original(ctx, n, b)
        if b != target:
            return out
        zero = (0,) * n
        mono = next(m for m, _ in out.terms if m)
        wkey = next(w for m, w in sorted(out.terms) if not m and w != (zero, zero))
        terms = dict(out.terms)
        terms[mono, wkey] = ctx.rational(1, 3)
        return out._like(terms)

    return image


@pytest.mark.parametrize("which", [0, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_mixed_tensor_term_violations_match_the_public_maps(n, which, monkeypatch):
    target = targets(n)[which]
    monkeypatch.setattr(morphisms, "phi_basis", with_mixed_term(morphisms.phi_basis, target))
    ctx = ScalarContext(("s",))
    image = morphisms.phi_basis(ctx, n, target)
    zero = (0,) * n
    assert any(m and w != (zero, zero) for m, w in image.terms)
    report = morphisms.verify_lie_hom("phi", n, ctx)
    want = rebuilt("phi", n, ScalarContext(("s",)))
    assert want, "the mixed term must break the homomorphism"
    assert report.violations == want


@pytest.mark.parametrize("kind", ["f", "phi"])
def test_unbroken_maps_have_no_violations(kind):
    for n in (1, 2):
        assert rebuilt(kind, n, ScalarContext(("s",))) == []
        assert morphisms.verify_lie_hom(kind, n, ScalarContext(("s",))).ok
