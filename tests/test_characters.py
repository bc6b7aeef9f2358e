import itertools
import random
from fractions import Fraction

import pytest

from oak.liealg import Weight
from oak.scalars import ScalarContext
from oak.characters import (
    CharTable,
    classify_flags,
    compare_characters,
    char_module,
    convolve,
    delta_char,
    finite_simple_sp_char,
    generalized_verma_char,
    kostant_partition,
    lowering_roots,
    positive_roots,
    verify_generalized_factorization,
    verify_verma_factorization,
    verma_char,
)
from oak.weyl import FullLaurent, QuotientModule, ShaleWeil

CTX = ScalarContext(("s", "a1", "a2"))


def W(values, zdot=None):
    scal = [
        CTX.rational(*v) if isinstance(v, tuple) else CTX.rational(v) for v in values
    ]
    return Weight(CTX, scal, zdot)


# -- partition function -------------------------------------------------------

def brute_force_partitions(mu, roots):
    """Independent enumeration over all bounded coefficient tuples."""
    n = len(mu)
    weights = tuple(2 * (n - i) - 1 for i in range(n))

    def ht(v):
        return sum(w * c for w, c in zip(weights, v))

    bound = ht(mu)
    if bound < 0:
        return 0
    ranges = [range(bound // ht(r) + 1) for r in roots]
    count = 0
    for coeffs in itertools.product(*ranges):
        total = [0] * n
        for c, r in zip(coeffs, roots):
            for i in range(n):
                total[i] += c * r[i]
        if tuple(total) == tuple(mu):
            count += 1
    return count


def test_kostant_examples():
    assert kostant_partition((0,), ((2,), (1,))) == 1
    assert kostant_partition((4,), ((2,), (1,))) == 3
    assert kostant_partition((3,), ((2,),)) == 0
    assert kostant_partition((-1,), ((2,), (1,))) == 0


def test_kostant_rejects_duplicates():
    with pytest.raises(ValueError):
        kostant_partition((1,), ((1,), (1,)))


@pytest.mark.parametrize("algebra", ["g", "sp"])
@pytest.mark.parametrize("n", [1, 2])
def test_kostant_against_brute_force(n, algebra):
    roots = positive_roots(n, algebra)
    for mu in itertools.product(range(-4, 5), repeat=n):
        if sum(abs(c) for c in mu) > 8:
            continue
        assert kostant_partition(mu, roots) == brute_force_partitions(mu, roots)


# -- characters ---------------------------------------------------------------

def test_verma_char_rank1_values():
    ch = verma_char(W([0]), "g", 10)
    for k in range(11):
        assert ch.get((-2 * k,)) == k // 2 + 1
    chsp = verma_char(W([0], 0), "sp", 10)
    for k in range(11):
        assert chsp.get((-2 * k,)) == (1 if k % 2 == 0 else 0)


def test_verma_char_highest_weight_line():
    for algebra in ("g", "sp"):
        ch = verma_char(W([1, 2], 0 if algebra == "sp" else None), algebra, 3)
        assert ch.get((0, 0)) == 1


def test_char_module_shale_weil():
    S = ShaleWeil(CTX, 2)
    ch = char_module(S, 3)
    assert ch.ref.values == (CTX.rational(-1, 2), CTX.rational(-1, 2))
    for m1 in range(4):
        for m2 in range(4):
            off = (-2 * m1, -2 * m2)
            expected = 1 if m1 <= 3 and m2 <= 3 else 0
            assert ch.get(off) == expected
    assert ch.get((2, 0)) == 0
    assert ch.get((-1, -1)) == 0  # odd offsets unoccupied


def test_char_module_full_laurent():
    F = FullLaurent(CTX, (CTX.symbol("a1"),))
    ch = char_module(F, 3)
    assert ch.ref.values == (CTX.symbol("a1") + Fraction(1, 2),)
    for k in range(-3, 4):
        assert ch.get((2 * k,)) == 1


def test_convolve_unit_and_commutativity():
    ch = verma_char(W([0], 0), "sp", 4)
    unit = delta_char(W([0], 0))
    assert compare_characters(convolve(ch, unit), ch)[0]

    rng = random.Random(6)

    def rand_table():
        box = ((-4, 4),)
        entries = {}
        for _ in range(4):
            entries[(rng.randrange(-4, 5),)] = rng.randrange(1, 4)
        return CharTable(W([0], 0), box, entries)

    for _ in range(10):
        A, B = rand_table(), rand_table()
        assert convolve(A, B).entries == convolve(B, A).entries


def test_convolve_sp_with_shale_weil_gives_oscillator_verma():
    # multiplicity floor(k/2)+1 at offset -k
    ch = convolve(
        verma_char(W([(1, 2)], 0), "sp", 12),
        char_module(ShaleWeil(CTX, 1), 12),
    )
    for k in range(9):
        assert ch.get((-2 * k,)) == k // 2 + 1


def test_verma_factorization_rank1():
    report = verify_verma_factorization(W([(1, 3)]), 1, 10)
    assert report.ok


def test_verma_factorization_rank2():
    report = verify_verma_factorization(W([(1, 3), (-5, 2)]), 2, 6)
    assert report.ok


def test_verma_factorization_random_weights():
    rng = random.Random(42)
    for _ in range(3):
        vals = [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)]
        report = verify_verma_factorization(W(vals), 2, 4)
        assert report.ok


def test_verma_factorization_needs_standard_charge():
    with pytest.raises(ValueError):
        verify_verma_factorization(W([0], 0), 1, 4)


def test_generalized_verma_char_trivial_rank1():
    # one-dimensional inducing module: same as the partition character over
    # the lowering roots {2e1, e1}
    ch = generalized_verma_char(delta_char(W([0])), "g", 6)
    for k in range(7):
        assert ch.get((-2 * k,)) == kostant_partition((k,), lowering_roots(1, "g"))


def test_generalized_factorization_trivial_and_one_dim():
    for vals in ([0, 0], [(1, 2), 3]):
        report = verify_generalized_factorization(delta_char(W(vals)), 2, 5)
        assert report.ok
    report = verify_generalized_factorization(delta_char(W([(2, 3)])), 1, 6)
    assert report.ok


def test_generalized_char_translation_equivariance():
    base = generalized_verma_char(delta_char(W([0])), "g", 5)
    shifted = generalized_verma_char(delta_char(W([3])), "g", 5)
    assert base.entries == shifted.entries
    assert shifted.ref.values[0] == CTX.rational(3)


# -- finite-dimensional consistency -------------------------------------------

def test_sl2_string_from_verma_difference():
    k = 4
    lam = W([k], 0)
    depth = 12
    m_top = verma_char(lam, "sp", depth)
    m_reflected = verma_char(W([-k - 2], 0), "sp", depth)
    aligned = m_reflected.aligned_to(lam)
    window = ((-2 * depth, 0),)
    total = 0
    simple = finite_simple_sp_char(lam, depth)
    for j in range(depth + 1):
        off = (-2 * j,)
        diff = m_top.get(off) - (aligned.get(off) if aligned.contains(off) else 0)
        assert diff >= 0
        assert diff == simple.get(off)
        total += diff
    assert total == k + 1  # string length along the long root


def test_finite_simple_sp4_char_is_weyl_symmetric():
    lam = W([2, 2], 0)
    ch = finite_simple_sp_char(lam, 8)
    # top weight multiplicity one, support symmetric under coordinate swap
    assert ch.get((0, 0)) == 1
    for off, mult in ch.sorted_entries():
        swapped = (off[1], off[0])
        assert ch.get(swapped) == mult


def test_finite_simple_requires_dominant_integral():
    with pytest.raises(ValueError):
        finite_simple_sp_char(W([(1, 2)], 0), 4)
    with pytest.raises(ValueError):
        finite_simple_sp_char(W([1, 2], 0), 4)


@pytest.mark.parametrize("depth", [0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda d: verma_char(W([0]), "g", d),
        lambda d: char_module(ShaleWeil(CTX, 1), d),
        lambda d: generalized_verma_char(delta_char(W([0], 0)), "sp", d),
        lambda d: finite_simple_sp_char(W([1], 0), d),
    ],
    ids=["verma", "module", "generalized", "finite"],
)
def test_character_builders_refuse_depth_below_one(build, depth):
    build(1)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        build(depth)


# -- classification -----------------------------------------------------------

DEPTH = 28
PROBE = 12


def _fixture_cuspidal():
    F = FullLaurent(CTX, (CTX.symbol("a1"), CTX.symbol("a2")))
    chF = char_module(F, DEPTH)
    N = finite_simple_sp_char(W([2, 1], 0), 6)
    margin = 7
    window = ((-2 * (DEPTH - margin), 2 * (DEPTH - margin)),) * 2
    return convolve(N, chF).crop(window)


def _fixture_highest_weight():
    return generalized_verma_char(delta_char(W([0, 0])), "g", DEPTH)


def _fixture_mixed():
    G = QuotientModule(CTX, (CTX.symbol("a1"), CTX.rational(0)), (2,))
    chG = char_module(G, DEPTH)
    L = delta_char(W([0, 0], 0))
    return convolve(L, chG)


def test_classify_cuspidal_support():
    flags = classify_flags(_fixture_cuspidal(), PROBE)
    assert flags.injective == frozenset({1, 2})
    assert flags.finite == flags.plus == flags.minus == frozenset()


def test_classify_highest_weight_support():
    flags = classify_flags(_fixture_highest_weight(), PROBE)
    assert flags.injective == frozenset()
    assert flags.plus == frozenset({1, 2})


def test_classify_mixed_support():
    flags = classify_flags(_fixture_mixed(), PROBE)
    assert flags.injective == frozenset({1})
    assert flags.plus == frozenset({2})


def test_classify_translation_invariance():
    table = _fixture_highest_weight()
    moved = CharTable(
        Weight(CTX, [v - 3 for v in table.ref.values], table.ref.zdot),
        tuple((lo + 6, hi + 6) for lo, hi in table.box),
        {tuple(c + 6 for c in off): m for off, m in table.entries.items()},
    )
    assert classify_flags(moved, PROBE) == classify_flags(table, PROBE)


def test_classify_box_too_small():
    table = generalized_verma_char(delta_char(W([0, 0])), "g", 5)
    with pytest.raises(ValueError):
        classify_flags(table, PROBE)


def test_flag_union_partitions_indices():
    for fixture in (_fixture_cuspidal(), _fixture_highest_weight(), _fixture_mixed()):
        flags = classify_flags(fixture, PROBE)
        union = flags.injective | flags.finite | flags.plus | flags.minus
        assert union == {1, 2}
        total = (
            len(flags.injective)
            + len(flags.finite)
            + len(flags.plus)
            + len(flags.minus)
        )
        assert total == 2


# -- table plumbing -----------------------------------------------------------

def test_chartable_json_round_trip():
    table = verma_char(W([(1, 2), 0]), "g", 3)
    data = table.to_json_dict()
    back = CharTable.from_json_dict(data, CTX)
    assert back == table


def test_chartable_validation():
    with pytest.raises(ValueError):
        CharTable(W([0]), ((2, -2),))
    with pytest.raises(ValueError):
        CharTable(W([0]), ((-2, 2),), {(4,): 1})
    with pytest.raises(ValueError):
        CharTable(W([0]), ((-2, 2),), {(0,): -1})


def test_aligned_to_requires_half_integer_shift():
    table = delta_char(W([0]))
    with pytest.raises(ValueError):
        table.aligned_to(Weight(CTX, [CTX.symbol("a1")]))
    shifted = table.aligned_to(W([(1, 2)]))
    assert shifted.entries == {(-1,): 1}


def test_crop_beyond_box_rejected():
    table = delta_char(W([0]))
    with pytest.raises(ValueError):
        table.crop(((-2, 2),))


def test_compare_characters_window_guard():
    a = verma_char(W([0]), "g", 3)
    b = verma_char(W([0]), "g", 2)
    with pytest.raises(ValueError):
        compare_characters(a, b, window=((-8, 8),))
