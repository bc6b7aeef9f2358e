"""``accumulate`` with the commutator tables against the public products.

``accumulate(out, p, q, table)`` adds, for every pair of terms, c1*c2 times
``table(k1, k2)`` into a dict.  With ``weyl_mono_commutator`` (Weyl
operators) or ``_key_commutator`` (U(sp_2n) ⊗ D_n) as the table it adds
[p, q] = pq - qp in one pass; the reference is the start dict plus
``p*q - q*p`` from the elements' own products.  The inputs are random sums
of basis images and of products of two images with rational and symbolic
coefficients, so the tensor inputs carry terms whose sp factor and Weyl
factor are both non-units, and the PBW products that expand them bring
their Fraction coefficients.  Both sides start from one shared nonzero dict,
so accumulation into existing entries is compared as well.

A small hand-written table with int and Fraction entries, and entries that
cancel, checks ``accumulate`` and ``commutator_terms`` against plain loops.
"""

import random
from fractions import Fraction

import pytest

from oak.combination import Combination, accumulate, commutator_terms
from oak.liealg import basis
from oak.morphisms import TensorElement, _key_commutator, f_basis, phi_basis
from oak.scalars import ScalarContext
from oak.weyl import WeylElement, weyl_mono_commutator

CTX = ScalarContext(("s",))
KERNELS = {
    "f": (f_basis, weyl_mono_commutator),
    "phi": (phi_basis, _key_commutator),
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


# order 1 accumulates [p, q], order -1 the swapped [q, p]
@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["f", "phi"])
def test_kernel_matches_two_products(kind, n, order):
    table = KERNELS[kind][1]
    rng = random.Random(f"{kind}-{n}-{order}")
    mixed = 0
    for _ in range(6):
        p, q = random_element(rng, kind, n), random_element(rng, kind, n)
        if kind == "phi":
            # pairs of m⊗w terms that are non-units on all four factors:
            # the table expands both products there, PBW Fractions and all
            mixed += sum(is_mixed(k1, n) and is_mixed(k2, n) for k1 in p.terms for k2 in q.terms)
        if order < 0:
            p, q = q, p
        init = start(rng, p)
        got = dict(init)
        accumulate(got, p, q, table)
        want = p._like(init) + (p * q - q * p)
        assert p._like(got) == want
        assert str(p._like(got)) == str(want)
    if kind == "phi":
        assert mixed, "the tensor inputs must pair m⊗w terms with non-unit factors"


@pytest.mark.parametrize("kind", ["f", "phi"])
def test_commutator_with_itself_and_the_unit_vanishes(kind):
    rng = random.Random(kind)
    for n in (1, 2):
        p = random_element(rng, kind, n)
        unit = (WeylElement if kind == "f" else TensorElement).unit(CTX, n)
        for q in (p, unit, p.scale(CTX.s)):
            for x, y in ((p, q), (q, p)):
                out = {}
                accumulate(out, x, y, KERNELS[kind][1])
                assert not any(out.values())


# products of the keys a, b, c: int and Fraction multiples, an empty
# entry, (a, c) equal to (c, a), and the c of (a, b) cancelling the c of
# (b, a) when both orders meet equal coefficients
TABLE = {
    ("a", "a"): (("a", 1),),
    ("a", "b"): (("b", Fraction(1, 2)), ("c", -1)),
    ("a", "c"): (("b", 2),),
    ("b", "a"): (("c", 1), ("a", Fraction(-3, 4))),
    ("b", "b"): (),
    ("b", "c"): (("a", Fraction(2, 3)), ("b", -1)),
    ("c", "a"): (("b", 2),),
    ("c", "b"): (("c", 3),),
    ("c", "c"): (("a", -1), ("c", 1)),
}


def table(k1, k2):
    return TABLE[k1, k2]


def double_loop(init, p, q, entries):
    out = dict(init)
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            for key, k in entries(k1, k2):
                out[key] = out.get(key, CTX.zero) + c1 * c2 * k
    return {key: c for key, c in out.items() if c}


def test_accumulate_matches_a_double_loop():
    rng = random.Random("table")

    def terms(least):
        keys = rng.sample("abc", rng.randint(least, 3))
        return {key: rng.choice(coefficients()) for key in keys}

    for _ in range(40):
        p, q = Combination(CTX, terms(1)), Combination(CTX, terms(1))
        init = terms(0)
        for x, y in ((p, q), (q, p), (p, p)):
            got = dict(init)
            accumulate(got, x, y, table)
            assert {key: c for key, c in got.items() if c} == double_loop(init, x, y, table)
    # equal coefficients on a and b: the c terms of (a, b) and (b, a) cancel
    p = Combination(CTX, {"a": CTX.s, "b": CTX.s})
    got = {}
    accumulate(got, p, p, table)
    assert got["c"].is_zero and double_loop({}, p, p, table).keys() == {"a", "b"}


def test_commutator_terms_cancel_in_ints_and_fractions():
    want = {}
    for k1 in "abc":
        for k2 in "abc":
            diff = {}
            for key, k in TABLE[k1, k2]:
                diff[key] = diff.get(key, 0) + k
            for key, k in TABLE[k2, k1]:
                diff[key] = diff.get(key, 0) - k
            want[k1, k2] = {key: k for key, k in diff.items() if k}
            got = commutator_terms(table, k1, k2)
            assert dict(got) == want[k1, k2]
            assert all(type(k) is int for _, k in got if k.denominator == 1)
    assert want["a", "c"] == {} and want["a", "a"] == {}
    # the commutator table gives pq - qp through accumulate as well
    p = Combination(CTX, {"a": CTX.s, "b": 2, "c": CTX.rational(1, 3)})
    q = Combination(CTX, {"a": 1, "c": CTX.s + 1})
    got = {}
    accumulate(got, p, q, lambda k1, k2: commutator_terms(table, k1, k2))
    pq = double_loop({}, p, q, table)
    qp = double_loop({}, q, p, table)
    diff = {key: pq.get(key, CTX.zero) - qp.get(key, CTX.zero) for key in set(pq) | set(qp)}
    assert {k: c for k, c in got.items() if c} == {k: c for k, c in diff.items() if c}
