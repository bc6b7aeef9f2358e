"""Freudenthal's multiplicity formula as an independent oracle for
``finite_simple_sp_char``.

The oracle shares no code with ``oak.characters``: it has its own positive
roots of sp_2n (type C_n) in eps-coordinates, the standard form
(e_i, e_j) = delta_ij, and works in ints and Fractions only.  Each table is
built deep enough to hold the whole module, so it is compared entry for
entry, its total with the Weyl dimension formula, and its support with its
images under the signed permutations (the Weyl group of C_n).
"""

import itertools
from fractions import Fraction
from math import prod

import pytest

from oak.characters import finite_simple_sp_char
from oak.liealg import Weight
from oak.scalars import ScalarContext

CTX = ScalarContext(("s",))


def positive_roots(n):
    """e_i - e_j and e_i + e_j (i < j), and 2e_i."""
    def vec(*pairs):
        v = [0] * n
        for i, c in pairs:
            v[i] += c
        return tuple(v)

    roots = []
    for i, j in itertools.combinations(range(n), 2):
        roots += [vec((i, 1), (j, -1)), vec((i, 1), (j, 1))]
    roots += [vec((i, 2)) for i in range(n)]
    return roots


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def plus(u, v, k=1):
    return tuple(a + k * b for a, b in zip(u, v))


def simple_coordinates(d):
    """Coordinates of d in the simple roots e_1 - e_2, ..., e_{n-1} - e_n, 2e_n."""
    partial = list(itertools.accumulate(d))
    return partial[:-1] + [Fraction(partial[-1], 2)]


def freudenthal(lam):
    """{mu: multiplicity} of the simple sp_2n module with highest weight lam.

    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_{alpha>0} sum_{k>=1}
    m(mu + k alpha) (mu + k alpha, alpha), over the mu below lam in
    increasing depth; every weight has |mu_i| <= lam_1.
    """
    n = len(lam)
    rho = tuple(range(n, 0, -1))
    roots = positive_roots(n)
    top = lam[0]
    depth = {}
    for mu in itertools.product(range(-top, top + 1), repeat=n):
        coords = simple_coordinates(plus(lam, mu, -1))
        if all(c >= 0 and c.denominator == 1 for c in map(Fraction, coords)):
            depth[mu] = sum(coords)
    norm = dot(plus(lam, rho), plus(lam, rho))
    mult = {}
    for mu in sorted(depth, key=depth.get):
        if mu == tuple(lam):
            mult[mu] = 1
            continue
        rhs = 0
        for alpha in roots:
            up = plus(mu, alpha)
            while up in depth:
                rhs += mult.get(up, 0) * dot(up, alpha)
                up = plus(up, alpha)
        rhs *= 2
        lhs = norm - dot(plus(mu, rho), plus(mu, rho))
        if lhs == 0:
            # mu + rho on the Weyl orbit of lam + rho: not a weight
            assert rhs == 0
            continue
        m = Fraction(rhs, lhs)
        assert m.denominator == 1 and m >= 0
        if m:
            mult[mu] = int(m)
    return mult


def weyl_dimension(lam):
    n = len(lam)
    rho = tuple(range(n, 0, -1))
    dim = prod(
        Fraction(dot(plus(lam, rho), alpha), dot(rho, alpha)) for alpha in positive_roots(n)
    )
    assert dim.denominator == 1
    return int(dim)


def signed_permutations(mu):
    n = len(mu)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * mu[p] for s, p in zip(signs, perm))


def test_oracle_knows_the_small_modules():
    # C^2n, the adjoint sp_2n = Sym^2 C^2n, and Lambda^2 C^6 minus the form
    assert weyl_dimension((1, 0, 0)) == 6 == sum(freudenthal((1, 0, 0)).values())
    assert weyl_dimension((2, 0)) == 10 == sum(freudenthal((2, 0)).values())
    assert weyl_dimension((1, 1, 0)) == 14 == sum(freudenthal((1, 1, 0)).values())
    assert freudenthal((2, 0))[(0, 0)] == 2
    assert freudenthal((1, 1, 0))[(0, 0, 0)] == 2


CASES = [
    (0,), (1,), (4,),
    (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
    (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0),
]


@pytest.mark.parametrize("lam", CASES, ids=str)
def test_finite_simple_char_matches_freudenthal(lam):
    n = len(lam)
    # weights have |mu_i| <= lam_1, so the doubled offsets 2(mu - lam) lie
    # in [-4 lam_1, 2 lam_1] and this box holds the whole module
    table = finite_simple_sp_char(
        Weight(CTX, [CTX.rational(v) for v in lam], CTX.zero), max(1, 2 * lam[0])
    )
    mult = freudenthal(lam)
    assert table.entries == {
        tuple(2 * (m - l) for m, l in zip(mu, lam)): k for mu, k in mult.items()
    }
    assert sum(table.entries.values()) == weyl_dimension(lam)
    for off, k in table.entries.items():
        mu = tuple(l + o // 2 for l, o in zip(lam, off))
        for image in signed_permutations(mu):
            assert table.get(tuple(2 * (m - l) for m, l in zip(image, lam))) == k
