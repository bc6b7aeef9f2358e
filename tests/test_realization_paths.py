"""The realization layer against the constructions it replaced.

``f_basis`` writes each generator image as one normal monomial,
``act_on_verma`` goes through ``multiply``, ``iota_sp`` through phi's
memoized monomial images, and every linear extension through
``add_scaled``.  The earlier constructions are kept here as references --
generator products through ``weyl_multiply``, a double loop over
``normal_word``, a direct product of basis images, repeated
``+ .scale(c)`` -- and the new code must agree with them exactly, down to
the printed form.
"""

import random
from functools import reduce

import pytest

from oak.combination import add_scaled
from oak.liealg import LieElement, Weight, basis, is_sp, validate_element
from oak.morphisms import TensorElement, f_basis, f_map, iota_sp, phi_basis
from oak.scalars import ScalarContext
from oak.uea import UEAElement, VermaVector, act_on_verma, engine, normal_order
from oak.weyl import WeylElement, weyl_multiply


def reference_f_basis(ctx, n, b):
    """The oscillator realization as products of t and d generators."""
    validate_element(b, n)
    if b.kind == "z":
        return WeylElement.unit(ctx, n).scale(ctx.zdot)
    if b.kind == "h":
        i = b.tag[0]
        ti_di = weyl_multiply(WeylElement.t(ctx, n, i), WeylElement.d(ctx, n, i))
        return ti_di + WeylElement.unit(ctx, n).scale(ctx.rational(1, 2))
    root = b.tag
    pos = [(i + 1, c) for i, c in enumerate(root) if c > 0]
    neg = [(i + 1, -c) for i, c in enumerate(root) if c < 0]
    if sum(abs(c) for c in root) == 1:
        if pos:
            return WeylElement.t(ctx, n, pos[0][0]).scale(ctx.s)
        return WeylElement.d(ctx, n, neg[0][0]).scale(-ctx.s)
    if pos and neg:  # e_i - e_j
        return weyl_multiply(
            WeylElement.t(ctx, n, pos[0][0]), WeylElement.d(ctx, n, neg[0][0])
        )
    if pos:  # e_i + e_j, possibly i == j
        idx = [i for i, c in pos for _ in range(c)]
        return weyl_multiply(WeylElement.t(ctx, n, idx[0]), WeylElement.t(ctx, n, idx[1]))
    idx = [i for i, c in neg for _ in range(c)]
    return weyl_multiply(
        WeylElement.d(ctx, n, idx[0]), WeylElement.d(ctx, n, idx[1])
    ).scale(-1)


def reference_phi_basis(ctx, n, b):
    if b.kind == "z":
        return TensorElement.unit(ctx, n).scale(ctx.zdot)
    image = TensorElement.from_weyl(reference_f_basis(ctx, n, b))
    if is_sp(b):
        return TensorElement.from_sp(ctx, n, b) + image
    return image


def reference_act_on_verma(u, v):
    """Normal-order every product word, then project onto n_- monomials."""
    eng = engine(u.n, "g")
    ctx = u.ctx
    lam = v.weight
    out = {}
    for mu, cu in u.terms.items():
        wu = eng.word_of_monomial(mu)
        for mv, cv in v.terms.items():
            raw = eng.normal_word(wu + eng.word_of_monomial(mv))
            for mono, c in raw.items():
                neg, car, pos = eng.split_blocks(mono)
                if pos:
                    continue
                factor = ctx.rational(c)
                for idx, e in car:
                    if idx == eng.z_index:
                        factor = factor * lam.zdot ** e
                    else:
                        factor = factor * lam.values[idx - eng.neg_end] ** e
                cur = out.get(neg)
                out[neg] = cu * cv * factor if cur is None else cur + cu * cv * factor
    return v._like(out)


def reference_iota_sp(u):
    """Multiply the phi images of an sp monomial's factors, left to right."""
    ctx, n = u.ctx, u.n
    eng = engine(n, "sp")
    out = TensorElement(ctx, n)
    for mono, c in u.terms.items():
        term = TensorElement.unit(ctx, n)
        for idx, e in mono:
            for _ in range(e):
                term = term * phi_basis(ctx, n, eng.elements[idx])
        out = out + term.scale(c)
    return out


def random_scalar(ctx, rng):
    return ctx.s * rng.randint(-2, 2) + ctx.rational(rng.randint(-5, 5), rng.randint(1, 4))


def random_element(ctx, n, rng, elements, part="g", words=3, maxlen=3):
    """A sum of normal-ordered random words with random scalar coefficients."""
    total = UEAElement(ctx, n, part=part)
    for _ in range(words):
        word = [rng.choice(elements) for _ in range(rng.randint(0, maxlen))]
        total = total + normal_order(ctx, word, n, part=part).scale(random_scalar(ctx, rng))
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_images_match_the_generator_products(n):
    ctx = ScalarContext(("s",))
    for b in basis(n):
        for new, old in (
            (f_basis(ctx, n, b), reference_f_basis(ctx, n, b)),
            (phi_basis(ctx, n, b), reference_phi_basis(ctx, n, b)),
        ):
            assert new == old
            assert str(new) == str(old)


@pytest.mark.parametrize("n", [1, 2])
def test_act_on_verma_matches_the_double_loop(n):
    ctx = ScalarContext(("s", "l"))
    rng = random.Random(101 + n)
    elements = basis(n)
    lowering = [b for b in elements if engine(n).index[b] < engine(n).neg_end]
    for _ in range(12):
        values = [ctx.symbol("l") + rng.randint(-3, 3) for _ in range(n)]
        lam = Weight(ctx, values)
        negs = random_element(ctx, n, rng, lowering)
        v = VermaVector(ctx, n, lam, negs.terms)
        u = random_element(ctx, n, rng, elements)
        got = act_on_verma(u, v)
        want = reference_act_on_verma(u, v)
        assert got == want
        assert str(got) == str(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iota_sp_matches_the_direct_product(n):
    ctx = ScalarContext(("s",))
    rng = random.Random(211 + n)
    sp = engine(n, "sp").elements
    for _ in range(8):
        u = random_element(ctx, n, rng, sp, part="sp")
        got = iota_sp(u)
        want = reference_iota_sp(u)
        assert got == want
        assert str(got) == str(want)


def test_add_scaled_matches_repeated_scale_and_add():
    ctx = ScalarContext(("s",))
    rng = random.Random(5)
    n = 2
    images = [f_basis(ctx, n, b) for b in basis(n)]
    for _ in range(20):
        pairs = [(rng.choice(images), random_scalar(ctx, rng)) for _ in range(6)]
        e, c = pairs[0]
        pairs.append((e, -c))  # cancels the first pair's contribution
        out = {}
        add_scaled(out, pairs)
        want = reduce(lambda acc, p: acc + p[0].scale(p[1]), pairs, WeylElement(ctx, n))
        assert WeylElement(ctx, n)._like(out) == want


def test_add_scaled_cancels_to_zero():
    ctx = ScalarContext(("s",))
    img = f_basis(ctx, 2, basis(2)[0])
    out = {}
    add_scaled(out, [(img, ctx.s), (img, -ctx.s)])
    assert out and not any(out.values())  # zero entries stay until _like prunes
    assert img._like(out).is_zero


def test_f_map_is_the_linear_extension():
    ctx = ScalarContext(("s",))
    rng = random.Random(9)
    n = 2
    for _ in range(10):
        terms = {b: random_scalar(ctx, rng) for b in rng.sample(basis(n), 4)}
        x = LieElement(ctx, n, terms)
        want = reduce(
            lambda acc, bc: acc + reference_f_basis(ctx, n, bc[0]).scale(bc[1]),
            x.terms.items(),
            WeylElement(ctx, n),
        )
        assert f_map(x) == want
