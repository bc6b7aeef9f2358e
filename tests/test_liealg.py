import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from oak.liealg import (
    LieElement,
    Z,
    _expand_sp,
    _sp_matrix,
    basis,
    bracket,
    bracket_basis,
    decomposition_parts,
    dim_g,
    h_,
    is_sp,
    root_system,
    structure_constants,
    weight_of,
    x_,
)
from oak.scalars import ScalarContext

from matrix_oracle import bracket_oracle

CTX = ScalarContext(("s",))


def elem(n, b):
    return LieElement.from_basis(CTX, n, b)


def test_heisenberg_bracket():
    # [e_i, e_{n+i}] = z
    for n in (1, 2, 3):
        for i in range(n):
            root = [0] * n
            root[i] = 1
            neg = [-c for c in root]
            res = bracket(elem(n, x_(root)), elem(n, x_(neg)), n)
            assert res == elem(n, Z)


def test_center_is_central():
    n = 2
    for alpha in root_system(n)[0]:
        assert bracket(elem(n, Z), elem(n, x_(alpha))).is_zero


def test_sp_bracket_examples():
    n = 2
    res = bracket(elem(n, x_((1, -1))), elem(n, x_((-1, 1))))
    assert res == elem(n, h_(1)) - elem(n, h_(2))
    res = bracket(elem(n, x_((2, 0))), elem(n, x_((-2, 0))))
    assert res == elem(n, h_(1)).scale(4)


def test_mixed_bracket_example():
    n = 2
    res = bracket(elem(n, x_((1, -1))), elem(n, x_((0, 1))))
    assert res == elem(n, x_((1, 0)))


def test_dimensions():
    assert dim_g(1) == 6 and dim_g(2) == 15 and dim_g(3) == 28
    for n in (1, 2, 3):
        assert len(basis(n)) == dim_g(n)
        assert len(set(basis(n))) == dim_g(n)


def test_root_system_counts():
    delta, plus = root_system(1)
    assert set(plus) == {(2,), (1,)}
    assert set(delta) == {(2,), (1,), (-1,), (-2,)}
    delta2, plus2 = root_system(2)
    assert len(delta2) == 12
    assert set(delta2) == set(plus2) | {tuple(-c for c in r) for r in plus2}
    for n in (1, 2, 3):
        d, p = root_system(n)
        assert len(d) == 2 * n * n + 2 * n and len(p) == n * n + n


def test_weight_of():
    assert weight_of(x_((1, 1)), 2) == (1, 1)
    assert weight_of(h_(3), 3) == (0, 0, 0)
    assert weight_of(Z, 2) == (0, 0)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        weight_of(h_(4), 3)
    with pytest.raises(ValueError):
        elem(2, x_((3, 0)))
    with pytest.raises(ValueError):
        bracket_basis(x_((1, 0, 0)), Z, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_antisymmetry_exhaustive(n):
    for a in basis(n):
        for b in basis(n):
            lhs = bracket(elem(n, a), elem(n, b))
            rhs = bracket(elem(n, b), elem(n, a))
            assert (lhs + rhs).is_zero


@pytest.mark.parametrize("n", [1, 2])
def test_jacobi_exhaustive(n):
    for a, b, c in combinations_with_replacement(basis(n), 3):
        xa, xb, xc = elem(n, a), elem(n, b), elem(n, c)
        total = (
            bracket(xa, bracket(xb, xc))
            + bracket(xb, bracket(xc, xa))
            + bracket(xc, bracket(xa, xb))
        )
        assert total.is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_oracle_agreement(n):
    nonzero = set()
    for a in basis(n):
        for b in basis(n):
            expected = bracket_oracle(a, b, n)
            got = {e: c for e, c in bracket_basis(a, b, n)}
            assert got == expected
            if expected:
                nonzero.add((a, b))
    assert set(structure_constants(n)) == nonzero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_matches_the_oracle_on_random_elements(n):
    # multi-term elements with rational and symbolic coefficients, against
    # a double loop over the matrix oracle, which does not read the table
    rng = random.Random(n)
    s = CTX.s
    coeffs = [CTX.one, CTX.rational(-2), CTX.rational(2, 3), s, s / 2 + 1, s * s - 3]
    elems = basis(n)

    def random_element():
        picked = rng.sample(elems, rng.randint(2, 6))
        return LieElement(CTX, n, {b: rng.choice(coeffs) for b in picked})

    for _ in range(20):
        x, y = random_element(), random_element()
        expected = {}
        for a, ca in x.terms.items():
            for b, cb in y.terms.items():
                for e, v in bracket_oracle(a, b, n).items():
                    expected[e] = expected.get(e, CTX.zero) + ca * cb * v
        assert bracket(x, y) == LieElement(CTX, n, expected)


def test_root_additivity():
    n = 2
    for a in basis(n):
        for b in basis(n):
            res = bracket(elem(n, a), elem(n, b))
            if res.is_zero:
                continue
            alpha = weight_of(a, n)
            beta = weight_of(b, n)
            target = tuple(x + y for x, y in zip(alpha, beta))
            for e in res.coeffs:
                assert weight_of(e, n) == target


def test_standard_decomposition():
    neg, zero, pos = decomposition_parts(1, "standard")
    assert set(pos) == {x_((2,)), x_((1,))}
    assert set(zero) == {h_(1), Z}
    assert set(neg) == {x_((-2,)), x_((-1,))}


def test_parabolic_decomposition():
    neg, zero, pos = decomposition_parts(2, "parabolic")
    assert set(zero) == {h_(1), h_(2), Z, x_((1, -1)), x_((-1, 1))}
    assert set(pos) == {x_((2, 0)), x_((1, 1)), x_((0, 2)), x_((1, 0)), x_((0, 1))}
    # rank 1: both decompositions share the positive part
    _, _, pos_std = decomposition_parts(1, "standard")
    _, _, pos_par = decomposition_parts(1, "parabolic")
    assert set(pos_std) == set(pos_par) == {x_((2,)), x_((1,))}


def test_decomposition_partitions_basis():
    for n in (1, 2, 3):
        for kind in ("standard", "parabolic"):
            neg, zero, pos = decomposition_parts(n, kind)
            assert set(neg) | set(zero) | set(pos) == set(basis(n))
            assert len(neg) + len(zero) + len(pos) == dim_g(n)


def test_structure_constants_are_rational():
    for n in (1, 2, 3, 4, 5):
        index = {b: k for k, b in enumerate(basis(n))}
        for res in structure_constants(n).values():
            # no key for a zero bracket, and the terms in strict basis order
            assert res
            assert [index[e] for e, _ in res] == sorted({index[e] for e, _ in res})
            for _, c in res:
                assert type(c) is int and c != 0


def test_expand_sp_rejects_a_matrix_outside_sp():
    n = 2
    mats = {b: _sp_matrix(b, n) for b in basis(n) if is_sp(b)}
    owner = {rc: (b, v) for b, m in mats.items() for rc, v in m.items()}
    # E[0, n] is half of X_{2e_1}; E[0, 0] alone is not in sp_4
    assert _expand_sp({(0, n): 1}, mats, owner) == {x_((2, 0)): Fraction(1, 2)}
    assert _expand_sp({(0, 0): 3, (n, n): -3}, mats, owner) == {h_(1): 3}
    with pytest.raises(ValueError, match="does not lie in sp"):
        _expand_sp({(0, 0): 1}, mats, owner)
    with pytest.raises(ValueError, match="does not lie in sp"):
        _expand_sp({(0, 1): 1, (n + 1, n): 2}, mats, owner)


def test_bilinearity():
    n = 2
    x = elem(n, x_((1, 0))).scale(CTX.rational(2, 3)) + elem(n, h_(1))
    y = elem(n, x_((-1, 0))).scale(CTX.symbol("s"))
    lhs = bracket(x, y)
    rhs = (
        bracket(elem(n, x_((1, 0))), y).scale(CTX.rational(2, 3))
        + bracket(elem(n, h_(1)), y)
    )
    assert lhs == rhs
