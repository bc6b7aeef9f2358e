"""Module-owned factor products, operator-owned Weyl images and oak's own
exact division, each against the code it replaced.

``apply``, ``apply_inverse_lowering`` and the twist check's probe scale take
their products of shifted factors (a_i + k) from ``factor_product`` on the
module; the references below build every product factor by factor, as those
functions did before.  ``LocalizedOperator.act`` uses images built once; the
reference realizes each term on every call.  Exact division of polynomials is
compared with sympy's ``div``.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring as sympy_ring

from oak import morphisms
from oak.cli import main
from oak.liealg import LieElement, x_
from oak.morphisms import LocalizedOperator, TwistSpec, f_map, theta_generator
from oak.scalars import ScalarContext, _divide
from oak.weyl import (
    FullLaurent,
    LaurentVector,
    QuotientModule,
    ShaleWeil,
    WeylElement,
    apply,
    apply_inverse_lowering,
)

CTX = ScalarContext(("s", "a1", "a2"))
A1, A2 = CTX.symbol("a1"), CTX.symbol("a2")


# -- the factor loops as they were ---------------------------------------------

def reference_apply(p, v, m):
    ctx = p.ctx
    out = {}
    for off, cv in v.terms.items():
        for (alpha, beta), cp in p.terms.items():
            fac = ctx.one
            dead = False
            for i, (bi, oi) in enumerate(zip(beta, off)):
                e = m.base[i] + oi
                for r in range(bi):
                    factor = e - r
                    if factor.is_zero:
                        dead = True
                        break
                    fac = fac * factor
                if dead:
                    break
            if dead:
                continue
            new = tuple(o + a - b for o, a, b in zip(off, alpha, beta))
            if not m.admits(new):
                continue
            c = cv * cp * fac
            out[new] = out[new] + c if new in out else c
    return v._like(out)


def reference_inverse(v, i, m, power=1):
    ctx = v.ctx
    out = {}
    for off, c in v.terms.items():
        e = m.base[i - 1] + off[i - 1]
        denom = ctx.one
        for r in range(1, 2 * power + 1):
            factor = e + r
            if factor.is_zero:
                raise ZeroDivisionError(
                    f"localized action undefined: exponent factor vanishes at {off}"
                )
            denom = denom * factor
        c = c / denom
        if power % 2:
            c = -c
        out[off[:i - 1] + (off[i - 1] + 2 * power,) + off[i:]] = c
    return v._like(out)


def reference_probe_scale(module, off, reach):
    ctx = module.ctx
    scale = ctx.one
    for i, top in reach:
        e = module.base[i - 1] + off[i - 1]
        part = ctx.one
        for r in range(1, top + 1):
            factor = e + r
            if factor.is_zero:
                return ctx.one
            part = part * factor
        scale = scale * part
    return scale


# -- apply and the inverse on F(a), G(a) and S ---------------------------------

MODULES = {
    "F symbolic": lambda: FullLaurent(CTX, (A1, A2)),
    "F rational": lambda: FullLaurent(CTX, (Fraction(1, 3), Fraction(-5, 2))),
    "F integer": lambda: FullLaurent(CTX, (2, -1)),  # factors vanish
    "G": lambda: QuotientModule(CTX, (A1, 0), [2]),
    "S": lambda: ShaleWeil(CTX, 2),
}

OPERATORS = [
    WeylElement.d(CTX, 2, 1, 3),
    WeylElement.d(CTX, 2, 1, 2) * WeylElement.d(CTX, 2, 2, 2),
    WeylElement.t(CTX, 2, 2, 2) * WeylElement.d(CTX, 2, 1) - WeylElement.d(CTX, 2, 2).scale(A1),
    WeylElement.t(CTX, 2, 1) * WeylElement.d(CTX, 2, 1) * WeylElement.t(CTX, 2, 2),
]


def vectors(module, radius=4):
    offsets = [(o1, o2) for o1 in range(-radius, radius) for o2 in range(-radius, radius)]
    offsets = [o for o in offsets if module.admits(o)]
    yield LaurentVector(CTX, module.base, {o: 1 for o in offsets})
    for o in offsets[::5]:
        yield LaurentVector.monomial(module, o, CTX.s + 1)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_apply_matches_the_factor_loop(name):
    module = MODULES[name]()
    for v in vectors(module):
        for p in OPERATORS:
            assert apply(p, v, module) == reference_apply(p, v, module)


def test_vanishing_factor_drops_the_term():
    module = FullLaurent(CTX, (2, -1))
    # d1^3 t^(2 + 0): factors 2, 1, 0; the last vanishes
    v = LaurentVector.monomial(module, (0, 0))
    assert apply(WeylElement.d(CTX, 2, 1, 3), v, module).is_zero
    assert reference_apply(WeylElement.d(CTX, 2, 1, 3), v, module).is_zero
    assert module.factor_product(1, -2, 0) is None


@pytest.mark.parametrize("name", ["F symbolic", "F rational", "F integer", "G"])
@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_inverse_matches_the_factor_loop(name, power):
    module = MODULES[name]()
    for v in vectors(module):
        try:
            want = reference_inverse(v, 1, module, power)
        except ZeroDivisionError as e:
            with pytest.raises(ZeroDivisionError) as got:
                apply_inverse_lowering(v, 1, module, power)
            assert str(got.value) == str(e)
        else:
            assert apply_inverse_lowering(v, 1, module, power) == want


def test_inverse_raises_at_a_vanishing_factor():
    module = FullLaurent(CTX, (2, -1))
    v = LaurentVector.monomial(module, (-4, 0))
    with pytest.raises(ZeroDivisionError, match="vanishes at \\(-4, 0\\)"):
        apply_inverse_lowering(v, 1, module, 1)  # 2 - 4 + 2 = 0
    with pytest.raises(ZeroDivisionError, match="vanishes at \\(-4, 0\\)"):
        reference_inverse(v, 1, module, 1)


@pytest.mark.parametrize("base", [(A1, A2), (Fraction(1, 3), Fraction(-5, 2)), (2, -1)])
def test_probe_scale_matches_the_factor_loop(base):
    module = FullLaurent(CTX, base)
    for off in [(o1, o2) for o1 in range(-4, 3) for o2 in range(-4, 3)]:
        for reach in [((1, 2),), ((1, 4), (2, 2)), ((2, 0),), ((1, 6), (2, 6))]:
            assert morphisms._probe_scale(module, off, reach) == reference_probe_scale(
                module, off, reach
            )


def test_products_are_shared_and_only_asked_ranges_kept():
    module = FullLaurent(CTX, (A1, A2))
    first = module.factor_product(1, 1, 4)
    assert first == (A1 + 1) * (A1 + 2) * (A1 + 3) * (A1 + 4)
    assert module.factor_product(1, 1, 4) is first
    assert module.factor_product(1, 0, -1) == CTX.one
    assert set(module._products) == {(1, 1, 4), (1, 0, -1)}
    # a new module starts empty: the products live as long as their module
    assert FullLaurent(CTX, (A1, A2))._products == {}


def test_long_falling_factorial_exits_0(capsys):
    code = main([
        "--format", "json", "act", "--rank", "1", "--module", "F 1/3", "--op", "d1^1100",
        "--vector", '[{"offset":[0],"coefficient":"1"}]',
    ])
    assert code == 0
    want = Fraction(1)
    for r in range(1100):
        want *= Fraction(1, 3) - r
    (term,) = json.loads(capsys.readouterr().out)
    assert term["offset"] == [-1100]
    assert Fraction(term["coefficient"]) == want


# -- the localized operator's images -------------------------------------------

def reference_act(op, v, module):
    out = v._like({})
    for c, lie, i, j in op.terms:
        w = apply_inverse_lowering(v, i, module, j) if j else v
        if lie is not None:
            w = apply(f_map(lie), w, module)
        out = out + w.scale(c)
    return out


def test_act_matches_realizing_each_term_per_call():
    module = FullLaurent(CTX, (A1, A2))
    spec = TwistSpec((1, 2), (CTX.rational(2), A2))
    ops = []
    for i in (1, 2):
        for c in (-1, 1, 2):
            root = [0, 0]
            root[i - 1] = c
            ops.append(theta_generator(x_(root), spec, CTX, 2))
    lie = LieElement.from_basis(CTX, 2, x_((1, -1)))
    ops.append(LocalizedOperator(CTX, 2, [(A1, lie, 2, 1), (3, None, 1, 2), (CTX.s, lie, 1, 0)]))
    for op in ops:
        for v in vectors(module, 2):
            assert op.act(v, module) == reference_act(op, v, module)


# -- exact division ------------------------------------------------------------

RING = sympy_ring("s,a1", ZZ)[0]
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
int_polys = st.dictionaries(monomials, st.integers(-5, 5).filter(bool), max_size=5)
nonzero_polys = int_polys.filter(bool)


def primitive(poly):
    c = gcd(*poly.values())
    return {m: v // c for m, v in poly.items()}


def mono(a, b):
    return tuple(x + y for x, y in zip(a, b))


@given(nonzero_polys, int_polys, int_polys, st.sampled_from(("exact", "perturbed", "zero")))
# (3s + 1) a1 / (2s + 1): the leading monomial divides, its coefficient not
@example({(1, 0): 2, (0, 0): 1}, {(0, 1): 1}, {(1, 1): 1}, "perturbed")
def test_division_matches_sympy_div(divisor, factor, noise, kind):
    divisor = primitive(divisor)
    p = RING.from_dict(divisor)
    num = {"exact": p * RING.from_dict(factor), "zero": RING.zero}.get(kind)
    if num is None:
        num = p * RING.from_dict(factor) + RING.from_dict(noise)
    quotient, remainder = num.div(p)
    want = None if remainder else dict(quotient)
    assert _divide(dict(num), divisor, mono) == want
