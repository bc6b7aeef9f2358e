"""The partition function is owned by the call that builds it.

``finite_simple_sp_char`` runs through the same induced-character builder as
the Verma characters; here it is compared with the alternating-sum formula
evaluated point by point from the public ``kostant_partition``.  And no
module-level container of ``oak.characters`` outlives a verification.
"""

import itertools
from collections.abc import MutableMapping, MutableSequence, MutableSet

import pytest

import oak.characters
from oak.characters import (
    finite_simple_sp_char,
    kostant_partition,
    positive_roots,
    verify_verma_factorization,
)
from oak.liealg import Weight
from oak.scalars import ScalarContext

CTX = ScalarContext(("s",))


def _sign(perm):
    """Sign of a permutation by counting inversions."""
    inversions = sum(
        1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def alternating_sum_char(vals, depth):
    """Entries of the finite sp_2n character at doubled offsets -2mu:
    sum over signed permutations w of det(w) P(w(lam+rho) - (lam+rho) + mu)."""
    n = len(vals)
    lam_rho = [v + n - i for i, v in enumerate(vals)]
    roots = positive_roots(n, "sp")
    entries = {}
    for mu in itertools.product(range(-depth, depth + 1), repeat=n):
        total = 0
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                det = _sign(perm)
                for s in signs:
                    det *= s
                arg = tuple(
                    signs[i] * lam_rho[perm[i]] - lam_rho[i] + mu[i] for i in range(n)
                )
                total += det * kostant_partition(arg, roots)
        if total:
            entries[tuple(-2 * c for c in mu)] = total
    return entries


CASES = [
    ((0,), 3), ((1,), 2), ((4,), 5), ((7,), 4),
    ((0, 0), 2), ((1, 0), 3), ((2, 1), 3), ((3, 3), 4),
    ((0, 0, 0), 1), ((1, 0, 0), 2), ((1, 1, 0), 2), ((2, 1, 1), 2),
]


@pytest.mark.parametrize("vals,depth", CASES, ids=str)
def test_finite_simple_matches_point_query_formula(vals, depth):
    lam = Weight(CTX, [CTX.rational(v) for v in vals], CTX.zero)
    table = finite_simple_sp_char(lam, depth)
    assert table.box == ((-2 * depth, 2 * depth),) * len(vals)
    assert table.entries == alternating_sum_char(vals, depth)


def _container_sizes(module):
    """Sizes of the mutable containers bound at module or class level."""
    namespaces = [(module.__name__, vars(module))] + [
        (value.__qualname__, vars(value))
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    sizes = {}
    for owner, names in namespaces:
        for name, value in names.items():
            if name.startswith("__"):
                continue
            if isinstance(value, (MutableMapping, MutableSequence, MutableSet)):
                sizes[f"{owner}.{name}"] = len(value)
            elif getattr(value, "__module__", None) == module.__name__ and hasattr(
                value, "cache_info"
            ):
                sizes[f"{owner}.{name}"] = value.cache_info().currsize
    return sizes


def test_no_module_level_container_grows_across_a_verification():
    lam = Weight(CTX, [CTX.rational(3, 7)])
    before = _container_sizes(oak.characters)
    # a depth no other test uses, so a process-wide memo would meet new keys
    assert verify_verma_factorization(lam, 1, 41).ok
    assert _container_sizes(oak.characters) == before
