"""Every key-level table in oak holds ints.

The structure constants of the distinguished basis are integers, so the
PBW normal words built from them, the tensor product table and the
commutator tables that the homomorphism checks read all hold plain ints;
scalars meet them only in ``oak.combination.accumulate``.  These tests
check the type, not only the value: an integral Fraction would compare
equal and still cost Fraction arithmetic on every entry.
"""

import random

import pytest

import oak.morphisms as morphisms
from oak.scalars import ScalarContext
from oak.uea import engine


def assert_ints(entries):
    for _, c in entries:
        assert type(c) is int and c != 0, c


@pytest.mark.parametrize("part", ["g", "sp"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_words_hold_only_ints(n, part):
    eng = engine(n, part)
    rng = random.Random(f"{n}-{part}")
    for _ in range(25):
        word = tuple(rng.randrange(len(eng.elements)) for _ in range(rng.randint(2, 5)))
        for strategy in ("rightmost", "leftmost", "random"):
            normal = eng.normal_word(word, strategy, random.Random(rng.random()))
            assert normal
            assert_ints(normal.items())


@pytest.mark.parametrize("kind, name", [("f", "weyl_mono_commutator"), ("phi", "_key_commutator")])
def test_hom_check_commutator_entries_hold_only_ints(monkeypatch, kind, name):
    table = getattr(morphisms, name)
    seen = []

    def recording(k1, k2):
        entries = table(k1, k2)
        seen.append(entries)
        return entries

    monkeypatch.setattr(morphisms, name, recording)
    assert morphisms.verify_lie_hom(kind, 2, ScalarContext(("s",))).ok
    assert any(seen)
    for entries in seen:
        assert_ints(entries)
