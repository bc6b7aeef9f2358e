"""Scaled twist probes against unscaled ones.

``verify_theta_conjugation`` multiplies each probe t^m by the product D of the
shifted factors (a_k + m_k + r) that the series and the conjugation oracle
divide by, so both sides stay polynomials.  The reference here is the check
without that scaling, rebuilt from public functions: it must give the same
verdicts and byte-identical mismatch reports, also for a deliberately wrong
series.
"""

from fractions import Fraction

import pytest

from oak import morphisms
from oak.liealg import LieElement, x_
from oak.morphisms import (
    LocalizedOperator,
    TwistSpec,
    conjugation_twist_action,
    verify_theta_conjugation,
)
from oak.scalars import Scalar, ScalarContext
from oak.weyl import FullLaurent, LaurentVector


def unscaled_check(spec, base, depth, ctx, n):
    """(vectors checked, mismatches) of the twist check on unscaled probes."""
    module = FullLaurent(ctx, base)
    checked, mismatches = 0, []
    for i in spec.indices:
        for c in (-1, 1, 2):
            root = [0] * n
            root[i - 1] = c
            g = x_(root)
            op = morphisms.theta_generator(g, spec, ctx, n)
            for off in morphisms._box_offsets(n, depth):
                v = LaurentVector.monomial(module, off)
                diff = op.act(v, module) - conjugation_twist_action(g, spec, v, module)
                checked += 1
                if not diff.is_zero:
                    mismatches.append((str(g), off, str(diff)))
    return checked, mismatches


def _drop_last(ctx, n, terms):
    return terms[:-1]


def _perturb_first(ctx, n, terms):
    c, lie, i, j = terms[0]
    return [(c + Fraction(1, 3), lie, i, j)] + terms[1:]


def _extra_far_inverse(ctx, n, terms):
    # a pure inverse term beyond the reach of the series and of the oracle
    i = terms[0][2]
    return terms + [(ctx.rational(2), None, i, 3)]


def _extra_other_index(ctx, n, terms):
    # an inverse at an index the generator does not live at
    i = terms[0][2]
    k = n + 1 - i if n > 1 else i
    lie = LieElement.from_basis(ctx, n, x_(tuple(1 if m == k - 1 else 0 for m in range(n))))
    return terms + [(ctx.s, lie, k, 1)]


PERTURBATIONS = [None, _drop_last, _perturb_first, _extra_far_inverse, _extra_other_index]

CASES = [
    # rank, indices, b, base ("a" for the symbols a1..an), depth
    (1, (1,), (0,), "a", 2),
    (1, (1,), (1,), "a", 2),
    (1, (1,), (2,), "a", 2),
    (1, (1,), (1,), (Fraction(1, 3),), 2),
    (2, (1, 2), (1, 2), "a", 1),
    (2, (2,), (1,), "a", 1),
    (2, (2, 1), (0, 1), (Fraction(-1, 2), "a2"), 1),
]


def _context_and_base(n, base):
    ctx = ScalarContext(("s",) + tuple(f"a{i}" for i in range(1, n + 1)))
    if base == "a":
        base = tuple(f"a{i}" for i in range(1, n + 1))
    return ctx, tuple(ctx.symbol(x) if isinstance(x, str) else ctx.coerce(x) for x in base)


@pytest.mark.parametrize("perturb", PERTURBATIONS, ids=lambda p: p.__name__ if p else "exact")
@pytest.mark.parametrize("n, indices, b, base, depth", CASES)
def test_scaled_probes_match_unscaled(n, indices, b, base, depth, perturb, monkeypatch):
    if perturb is not None:
        series = morphisms.theta_generator

        def wrong_series(g, spec, ctx, rank):
            op = series(g, spec, ctx, rank)
            return LocalizedOperator(ctx, rank, perturb(ctx, rank, list(op.terms)))

        monkeypatch.setattr(morphisms, "theta_generator", wrong_series)
    ctx, base = _context_and_base(n, base)
    spec = TwistSpec(indices, tuple(ctx.rational(x) for x in b))
    report = verify_theta_conjugation(spec, base, depth, ctx, n)
    checked, mismatches = unscaled_check(spec, base, depth, ctx, n)
    assert report.vectors_checked == checked
    assert report.mismatches == mismatches
    assert bool(mismatches) == (perturb is not None)


@pytest.mark.parametrize("b", [Fraction(1, 2), -1, "a1"])
def test_non_natural_parameter_raises_the_oracle_error(b):
    ctx, base = _context_and_base(1, "a")
    spec = TwistSpec((1,), (ctx.symbol(b) if isinstance(b, str) else ctx.coerce(b),))
    with pytest.raises(ValueError, match=r"^conjugation oracle needs nonnegative integer b$"):
        verify_theta_conjugation(spec, base, 1, ctx, 1)
    # a negative depth is refused before any probe, not taken as an empty box
    with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
        verify_theta_conjugation(spec, base, -1, ctx, 1)


def test_vanishing_factor_raises_where_the_unscaled_probe_does():
    ctx = ScalarContext(("s",))
    spec = TwistSpec((1,), (ctx.rational(2),))
    with pytest.raises(ZeroDivisionError) as scaled:
        verify_theta_conjugation(spec, (ctx.rational(-1),), 2, ctx, 1)
    with pytest.raises(ZeroDivisionError) as unscaled:
        unscaled_check(spec, (ctx.rational(-1),), 2, ctx, 1)
    assert str(scaled.value) == str(unscaled.value)


# -- LocalizedOperator terms ---------------------------------------------------

CTX = ScalarContext(("s",))
LIE = LieElement.from_basis(CTX, 2, x_((1, 0)))


@pytest.mark.parametrize(
    "i, j",
    [(1.7, 1), (1, 1.9), (True, 1), (1, False), (Fraction(1), 1), ("1", 1),
     (0, 1), (3, 1), (-1, 1), (1, -1)],
)
def test_localized_operator_refuses_bad_index_or_power(i, j):
    with pytest.raises(ValueError):
        LocalizedOperator(CTX, 2, [(1, LIE, i, j)])
    # a zero term is checked as well
    with pytest.raises(ValueError):
        LocalizedOperator(CTX, 2, [(0, LIE, i, j)])


def test_localized_operator_keeps_valid_terms():
    op = LocalizedOperator(CTX, 2, [(1, LIE, 2, 0), (0, LIE, 1, 3), (Fraction(1, 2), None, 1, 2)])
    assert op.terms == [(CTX.one, LIE, 2, 0), (CTX.rational(1, 2), None, 1, 2)]


def test_oracle_derives_its_powers_once_per_spec(monkeypatch):
    """The oracle's integer powers are derived once per spec and context,
    however many probes it acts on; the derivation reads each parameter's
    value twice (its sign and its int)."""
    calls = []
    original = Scalar.as_fraction

    def counting(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(Scalar, "as_fraction", counting)
    ctx = ScalarContext(("s", "a1", "a2"))
    base = (ctx.symbol("a1"), ctx.symbol("a2"))
    spec = TwistSpec((1, 2), (ctx.rational(2), ctx.rational(1)))
    report = verify_theta_conjugation(spec, base, 1, ctx, 2)
    assert report.ok and report.vectors_checked == 3 * 2 * 9
    assert len(calls) == 2 * len(spec.indices)
    module = FullLaurent(ctx, base)
    for off in ((0, 0), (1, -1), (-1, 2)):
        conjugation_twist_action(x_((1, 0)), spec, LaurentVector.monomial(module, off), module)
    assert len(calls) == 2 * len(spec.indices)
