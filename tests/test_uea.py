import random
import re

import pytest

from oak.liealg import Weight, Z, basis, h_, weight_of, x_
from oak.scalars import ScalarContext
from oak.uea import (
    UEAElement,
    VermaVector,
    act_on_verma,
    engine,
    multiply,
    normal_order,
    reduce_central,
)

CTX = ScalarContext(("s",))


def gen(n, b):
    return UEAElement.from_basis(CTX, n, b)


def test_normal_order_heisenberg_pair():
    u = normal_order(CTX, [x_((1,)), x_((-1,))], 1)
    expected = multiply(gen(1, x_((-1,))), gen(1, x_((1,)))) + gen(1, Z)
    assert u == expected


def test_normal_order_already_ordered():
    u = normal_order(CTX, [h_(1), h_(1)], 1)
    eng = engine(1, "g")
    mono = eng.monomial_of_word(eng.word_of([h_(1), h_(1)]))
    assert u.terms == {mono: CTX.one}


def test_normal_order_long_roots():
    u = normal_order(CTX, [x_((2,)), x_((-2,))], 1)
    expected = multiply(gen(1, x_((-2,))), gen(1, x_((2,)))) + gen(1, h_(1)).scale(4)
    assert u == expected


def test_empty_word_is_unit():
    assert normal_order(CTX, [], 1) == UEAElement.unit(CTX, 1)


def random_word(rng, n, maxlen=6):
    elems = basis(n)
    return [elems[rng.randrange(len(elems))] for _ in range(rng.randrange(1, maxlen + 1))]


@pytest.mark.parametrize("n", [1, 2])
def test_confluence_of_strategies(n):
    rng = random.Random(7 + n)
    for _ in range(60):
        word = random_word(rng, n)
        right = normal_order(CTX, word, n, strategy="rightmost")
        left = normal_order(CTX, word, n, strategy="leftmost")
        rand = normal_order(
            CTX, word, n, strategy="random", rng=random.Random(rng.random())
        )
        assert right == left == rand


@pytest.mark.parametrize("strategy", ["bogus", None])
def test_unknown_strategy_is_refused(strategy):
    with pytest.raises(ValueError, match=re.escape(f"strategy {strategy!r}")):
        normal_order(CTX, [x_((1,)), x_((-1,))], 1, strategy=strategy)


def test_filtration_respected():
    rng = random.Random(3)
    for _ in range(40):
        word = random_word(rng, 2)
        u = normal_order(CTX, word, 2)
        assert u.degree() <= len(word)


def mono_weight(n, mono):
    """Weight of a PBW monomial of g: the sum of its factors' weights."""
    elements = engine(n, "g").elements
    total = [0] * n
    for idx, e in mono:
        w = weight_of(elements[idx], n)
        for k in range(n):
            total[k] += e * w[k]
    return tuple(total)


def test_weight_grading():
    rng = random.Random(5)
    for _ in range(40):
        word = random_word(rng, 2)
        total = [0, 0]
        for b in word:
            w = weight_of(b, 2)
            total = [a + c for a, c in zip(total, w)]
        u = normal_order(CTX, word, 2)
        for mono in u.terms:
            assert list(mono_weight(2, mono)) == total


def test_multiply_unit():
    u = gen(2, x_((1, -1))) + gen(2, h_(2)).scale(CTX.symbol("s"))
    assert multiply(u, UEAElement.unit(CTX, 2)) == u
    assert multiply(UEAElement.unit(CTX, 2), u) == u


def test_multiply_matches_normal_order():
    got = multiply(gen(1, x_((1,))), gen(1, x_((-1,))))
    assert got == normal_order(CTX, [x_((1,)), x_((-1,))], 1)


def test_associativity_instances():
    a, b = gen(1, x_((1,))), gen(1, x_((-1,)))
    assert multiply(multiply(a, b), a) == multiply(a, multiply(b, a))
    rng = random.Random(11)
    for _ in range(15):
        u = normal_order(CTX, random_word(rng, 2, 3), 2)
        v = normal_order(CTX, random_word(rng, 2, 3), 2)
        w = normal_order(CTX, random_word(rng, 2, 2), 2)
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_reduce_central():
    z = gen(1, Z)
    assert reduce_central(z) == UEAElement.unit(CTX, 1).scale(CTX.zdot)
    u = multiply(gen(1, x_((-1,))), gen(1, x_((1,)))) + z
    red = reduce_central(u)
    assert red == multiply(gen(1, x_((-1,))), gen(1, x_((1,)))) + UEAElement.unit(
        CTX, 1
    ).scale(CTX.zdot)
    z2h = multiply(multiply(z, z), gen(1, h_(1)))
    assert reduce_central(z2h) == gen(1, h_(1)).scale(CTX.s ** 4)


def highest(n, values, zdot=None):
    scalars = [
        CTX.rational(*v) if isinstance(v, tuple) else CTX.rational(v)
        for v in values
    ]
    lam = Weight(CTX, scalars, zdot)
    return VermaVector.highest(CTX, n, lam)


def test_verma_cartan_action():
    v = highest(1, [(3, 2)])
    lam_h1 = CTX.rational(3, 2)
    got = act_on_verma(gen(1, h_(1)), v)
    assert got == v.scale(lam_h1)


def test_verma_raising_lowering_pairs():
    # X_{e_j} X_{-e_k} v = delta_jk * zdot * v
    n = 3
    v = highest(n, [0, 1, 2])
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            rj = [0] * n
            rj[j - 1] = 1
            rk = [0] * n
            rk[k - 1] = -1
            u = multiply(gen(n, x_(rj)), gen(n, x_(rk)))
            got = act_on_verma(u, v)
            expected = v.scale(CTX.zdot) if j == k else v.scale(0)
            assert got == expected


def test_verma_symmetric_raising_kills_highest():
    # X_{e_i+e_j} X_{-e_k} v = 0: the commutator is again a raising vector
    n = 2
    v = highest(n, [1, 2])
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                rij = [0] * n
                rij[i - 1] += 1
                rij[j - 1] += 1
                rk = [0] * n
                rk[k - 1] = -1
                u = multiply(gen(n, x_(rij)), gen(n, x_(rk)))
                assert act_on_verma(u, v).is_zero


def test_verma_raising_lowering_zero_charge():
    n = 2
    v = highest(n, [1, 1], zdot=0)
    u = multiply(gen(n, x_((1, 0))), gen(n, x_((-1, 0))))
    assert act_on_verma(u, v).is_zero


def test_verma_sp_action_on_lowering():
    # X_{e_i-e_j} X_{-e_k} v = -delta_ik X_{-e_j} v  (positive-root case i < j)
    n = 3
    v = highest(n, [2, 3, 5])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                rij = [0] * n
                rij[i - 1], rij[j - 1] = 1, -1
                rk = [0] * n
                rk[k - 1] = -1
                u = multiply(gen(n, x_(rij)), gen(n, x_(rk)))
                got = act_on_verma(u, v)
                if i == k:
                    rj = [0] * n
                    rj[j - 1] = -1
                    expected = act_on_verma(gen(n, x_(rj)), v).scale(-1)
                else:
                    expected = v.scale(0)
                assert got == expected


def test_verma_action_is_module_action():
    rng = random.Random(23)
    n = 2
    v0 = highest(n, [(1, 3), (5, 2)])
    for _ in range(25):
        u1 = normal_order(CTX, random_word(rng, n, 3), n)
        u2 = normal_order(CTX, random_word(rng, n, 3), n)
        lhs = act_on_verma(multiply(u1, u2), v0)
        rhs = act_on_verma(u1, act_on_verma(u2, v0))
        assert lhs == rhs


def test_ordered_basis_matches_triangular_blocks():
    from oak.liealg import decomposition_parts

    for n in (1, 2, 3):
        eng = engine(n, "g")
        neg, zero, pos = decomposition_parts(n, "standard")
        assert list(eng.elements[: eng.neg_end]) == neg
        assert list(eng.elements[eng.neg_end : eng.car_end]) == zero
        assert list(eng.elements[eng.car_end :]) == pos


def test_normal_order_concurrent_use():
    # the memo must tolerate concurrent reads and idempotent writes
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(1)
    words = [random_word(rng, 2) for _ in range(30)]
    expected = [normal_order(CTX, w, 2) for w in words]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda w: normal_order(CTX, w, 2), words * 4))
    for k, got in enumerate(results):
        assert got == expected[k % len(words)]


def test_verma_vector_rejects_non_lowering_monomials():
    eng = engine(1, "g")
    mono = eng.monomial_of_word(eng.word_of([x_((1,))]))
    lam = Weight(CTX, [CTX.rational(0)])
    with pytest.raises(ValueError):
        VermaVector(CTX, 1, lam, {mono: CTX.one})


def term_weight(v, mono):
    """Weight of one term: lambda plus the (negative) roots of its factors."""
    return v.weight.shift(mono_weight(v.n, mono))


def test_verma_term_weight():
    n = 2
    v = highest(n, [1, 2])
    u = gen(n, x_((-1, 0)))
    moved = act_on_verma(u, v)
    (mono,) = moved.terms
    w = term_weight(moved, mono)
    assert w.values == (CTX.rational(0), CTX.rational(2))
