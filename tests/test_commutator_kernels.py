"""The commutator kernels against the product kernels they replace.

``weyl_commutator_accumulate`` and ``tensor_commutator_accumulate`` add
sign * (pq - qp) into a dict in one pass over pairs of terms.  The
reference is the product kernel called twice, ``accumulate(out, p, q, sign)``
and ``accumulate(out, q, p, -sign)``.  The inputs are random sums of basis
images and of products of two images with rational and symbolic
coefficients, so the tensor inputs carry terms whose sp factor and Weyl
factor are both non-units, and the PBW products that expand them bring
their Fraction coefficients.  Both sides start from one shared nonzero dict,
so accumulation into existing entries is compared as well.
"""

import random

import pytest

from oak.liealg import basis
from oak.morphisms import (
    TensorElement,
    f_basis,
    phi_basis,
    tensor_accumulate,
    tensor_commutator_accumulate,
)
from oak.scalars import ScalarContext
from oak.weyl import WeylElement, weyl_accumulate, weyl_commutator_accumulate

CTX = ScalarContext(("s",))
KERNELS = {
    "f": (f_basis, weyl_accumulate, weyl_commutator_accumulate),
    "phi": (phi_basis, tensor_accumulate, tensor_commutator_accumulate),
}


def coefficients():
    s = CTX.s
    return [CTX.one, -CTX.one, CTX.rational(2), CTX.rational(1, 2),
            CTX.rational(-2, 3), s, s / 2 + 1]


def random_element(rng, kind, n):
    """A sum of three basis images and two products of two, each scaled."""
    image = KERNELS[kind][0]
    elems = basis(n)
    coeffs = coefficients()
    parts = [image(CTX, n, rng.choice(elems)) for _ in range(3)]
    for _ in range(2):
        x, y = (image(CTX, n, rng.choice(elems)) for _ in range(2))
        parts.append(x * y)
    out = parts[0].scale(rng.choice(coeffs))
    for part in parts[1:]:
        out = out + part.scale(rng.choice(coeffs))
    return out


def start(rng, p):
    """A nonzero dict of terms for both sides to accumulate into."""
    keys = sorted(p.terms)
    return {key: rng.choice(coefficients()) for key in rng.sample(keys, min(3, len(keys)))}


def is_mixed(key, n):
    zero = (0,) * n
    mono, wkey = key
    return bool(mono) and wkey != (zero, zero)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["f", "phi"])
def test_kernel_matches_two_products(kind, n, sign):
    _, product, commutator = KERNELS[kind]
    rng = random.Random(f"{kind}-{n}-{sign}")
    mixed = 0
    for _ in range(6):
        p, q = random_element(rng, kind, n), random_element(rng, kind, n)
        if kind == "phi":
            # pairs of m⊗w terms that are non-units on all four factors:
            # the kernel expands both products there, PBW Fractions and all
            mixed += sum(is_mixed(k1, n) and is_mixed(k2, n) for k1 in p.terms for k2 in q.terms)
        init = start(rng, p)
        got, want = dict(init), dict(init)
        commutator(got, p, q, sign)
        product(want, p, q, sign)
        product(want, q, p, -sign)
        assert p._like(got) == p._like(want)
        assert str(p._like(got)) == str(p._like(want))
    if kind == "phi":
        assert mixed, "the tensor inputs must pair m⊗w terms with non-unit factors"


@pytest.mark.parametrize("kind", ["f", "phi"])
def test_commutator_with_itself_and_the_unit_vanishes(kind):
    rng = random.Random(kind)
    for n in (1, 2):
        p = random_element(rng, kind, n)
        unit = (WeylElement if kind == "f" else TensorElement).unit(CTX, n)
        for q in (p, unit, p.scale(CTX.s)):
            out = {}
            KERNELS[kind][2](out, p, q, 1)
            assert not any(out.values())

