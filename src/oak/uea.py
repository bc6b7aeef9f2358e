"""PBW monomial arithmetic and normal ordering in the enveloping algebra.

Words in the distinguished basis are rewritten to the Poincare-Birkhoff-Witt
normal form over the canonical order (negative root vectors, then Cartan and
central elements, then positive root vectors).  The only rewrite rule is
xy -> yx + [x, y] on adjacent out-of-order pairs; the kernel works over plain
Fractions (structure constants are rational) and scalar coefficients enter
only at the element level.

The same engine, restricted to the sp_2n sub-basis, drives the tensor-factor
arithmetic in :mod:`oak.morphisms`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combination import Combination
from .liealg import (
    BasisElement,
    basis,
    is_sp,
    structure_constants,
    validate_element,
    weight_of,
)


class PBWEngine:
    """Normal-ordering kernel over an ordered, bracket-closed basis slice."""

    def __init__(self, n, part="g"):
        if part not in ("g", "sp"):
            raise ValueError(f"unknown enveloping-algebra part {part!r}")
        self.n = n
        self.part = part
        full = basis(n)
        if part == "g":
            self.elements = full
        else:
            self.elements = tuple(b for b in full if is_sp(b))
        self.index = {b: k for k, b in enumerate(self.elements)}
        # block boundaries in the fixed order: negatives precede the Cartan
        # elements, which precede the positives (inherited from basis(n))
        kinds = [b.kind for b in self.elements]
        self.neg_end = kinds.index("h")
        self.car_end = self.neg_end + sum(1 for k in kinds if k in ("h", "z"))
        self.z_index = self.index.get(BasisElement("z", ()))
        table = structure_constants(n)
        self.sc = {}
        for (a, b), res in table.items():
            ia, ib = self.index.get(a), self.index.get(b)
            if ia is None or ib is None:
                continue
            out = []
            for elem, c in res:
                ie = self.index.get(elem)
                if ie is None:
                    raise RuntimeError(f"bracket [{a}, {b}] leaves the {part!r} slice")
                out.append((ie, c))
            self.sc[(ia, ib)] = tuple(out)
        self._memo = {"rightmost": {}, "leftmost": {}}

    # -- words ---------------------------------------------------------------

    def word_of(self, elements):
        out = []
        for b in elements:
            validate_element(b, self.n)
            if b not in self.index:
                raise ValueError(f"{b} is not in the {self.part!r} basis slice")
            out.append(self.index[b])
        return tuple(out)

    def monomial_of_word(self, word):
        """Sorted word -> ((index, exponent), ...) with positive exponents."""
        mono = []
        for idx in word:
            if mono and mono[-1][0] == idx:
                mono[-1] = (idx, mono[-1][1] + 1)
            else:
                mono.append((idx, 1))
        return tuple(mono)

    def word_of_monomial(self, mono):
        word = []
        for idx, e in mono:
            word.extend([idx] * e)
        return tuple(word)

    def normal_word(self, word, strategy="rightmost", rng=None):
        """Normal form of a product word as {monomial: Fraction}.

        Strategies resolve the rightmost inversion (production default, with
        a shared memo), the leftmost, or a uniformly random one; all agree on
        the result, which the confluence suite checks explicitly.
        """
        if strategy == "random":
            if rng is None:
                raise ValueError("random strategy needs an rng")
            return self._normalize(word, None, rng, {})
        memo = self._memo[strategy]
        return self._normalize(word, strategy, None, memo)

    def _normalize(self, word, strategy, rng, memo):
        cached = memo.get(word)
        if cached is not None:
            return cached
        inversions = [
            k for k in range(len(word) - 1) if word[k] > word[k + 1]
        ]
        if not inversions:
            result = {self.monomial_of_word(word): Fraction(1)}
        else:
            if strategy == "rightmost":
                k = inversions[-1]
            elif strategy == "leftmost":
                k = inversions[0]
            else:
                k = inversions[rng.randrange(len(inversions))]
            a, b = word[k], word[k + 1]
            swapped = word[:k] + (b, a) + word[k + 2:]
            result = dict(self._normalize(swapped, strategy, rng, memo))
            for elem, c in self.sc.get((a, b), ()):
                shorter = word[:k] + (elem,) + word[k + 2:]
                for mono, c2 in self._normalize(shorter, strategy, rng, memo).items():
                    v = result.get(mono, Fraction(0)) + c * c2
                    if v:
                        result[mono] = v
                    else:
                        result.pop(mono, None)
        if strategy is not None:
            memo[word] = result
        return result

    # -- monomial helpers ------------------------------------------------------

    def split_blocks(self, mono):
        neg, car, pos = [], [], []
        for idx, e in mono:
            if idx < self.neg_end:
                neg.append((idx, e))
            elif idx < self.car_end:
                car.append((idx, e))
            else:
                pos.append((idx, e))
        return tuple(neg), tuple(car), tuple(pos)

    def mono_weight(self, mono):
        total = [0] * self.n
        for idx, e in mono:
            w = weight_of(self.elements[idx], self.n)
            for k in range(self.n):
                total[k] += e * w[k]
        return tuple(total)


@lru_cache(maxsize=None)
def engine(n, part="g"):
    return PBWEngine(n, part)


def _by_degree(kv):
    """Sort key of (PBW monomial, coefficient): total degree, then monomial."""
    return sum(e for _, e in kv[0]), kv[0]


class UEAElement(Combination):
    """Sparse scalar combination of PBW monomials, always in canonical form."""

    __slots__ = ("n", "part")
    SPACE = ("n", "part")

    def __init__(self, ctx, n, terms=None, part="g"):
        self.n = n
        self.part = part
        super().__init__(ctx, terms)

    @classmethod
    def unit(cls, ctx, n, part="g"):
        return cls(ctx, n, {(): ctx.one}, part)

    @classmethod
    def from_basis(cls, ctx, n, b, part="g"):
        eng = engine(n, part)
        return cls(ctx, n, {eng.monomial_of_word(eng.word_of([b])): ctx.one}, part)

    # per-class entry points; see oak.combination
    def __add__(self, other):
        return super().__add__(other)

    def __sub__(self, other):
        return super().__sub__(other)

    def scale(self, c):
        return super().scale(c)

    def degree(self):
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_by_degree)

    def __str__(self):
        from .syntax import format_uea

        return format_uea(self)


def normal_order(ctx, word, n, strategy="rightmost", rng=None, part="g"):
    """Canonical form of a product of basis elements.

    The empty word normal-orders to the unit with coefficient 1.
    """
    eng = engine(n, part)
    raw = eng.normal_word(eng.word_of(word), strategy, rng)
    return UEAElement(ctx, n, {m: ctx.rational(c) for m, c in raw.items()}, part)


def multiply(u, v):
    """Associative product; agrees with normal_order on products of monomials."""
    u._check(v)
    eng = engine(u.n, u.part)
    out = {}
    for m1, c1 in u.terms.items():
        w1 = eng.word_of_monomial(m1)
        for m2, c2 in v.terms.items():
            c12 = c1 * c2
            raw = eng.normal_word(w1 + eng.word_of_monomial(m2))
            for mono, c in raw.items():
                cur = out.get(mono)
                out[mono] = c12 * c if cur is None else cur + c12 * c
    return u._like(out)


def reduce_central(u):
    """Substitute s^2 for the central element z; the result carries no z factor."""
    if u.part != "g":
        raise ValueError("only the full enveloping algebra contains z")
    zi = engine(u.n, "g").z_index
    out = {}
    for mono, c in u.terms.items():
        ze = 0
        kept = []
        for idx, e in mono:
            if idx == zi:
                ze = e
            else:
                kept.append((idx, e))
        if ze:
            c = c * u.ctx.zdot ** ze
        mono = tuple(kept)
        cur = out.get(mono)
        out[mono] = c if cur is None else cur + c
    return u._like(out)


class VermaVector(Combination):
    """Element of the Verma module with highest weight lambda.

    Terms are PBW monomials in negative root vectors only, applied to the
    highest-weight generator.
    """

    __slots__ = ("n", "weight")
    SPACE = ("n", "weight")

    def __init__(self, ctx, n, weight, terms=None):
        if weight.n != n:
            raise ValueError("weight rank mismatch")
        self.n = n
        self.weight = weight
        super().__init__(ctx, terms)

    def _key(self, mono):
        neg, car, pos = engine(self.n, "g").split_blocks(mono)
        if car or pos:
            raise ValueError(f"monomial {mono} is not supported on n_- only")
        return mono

    @classmethod
    def highest(cls, ctx, n, weight):
        return cls(ctx, n, weight, {(): ctx.one})

    def term_weight(self, mono):
        """Weight of one term: lambda plus the (negative) roots of its factors."""
        eng = engine(self.n, "g")
        off = eng.mono_weight(mono)
        return self.weight.shift(off)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_by_degree)

    def __str__(self):
        from .syntax import format_verma

        return format_verma(self)


def act_on_verma(u, v):
    """Apply an enveloping-algebra element to a Verma vector.

    Multiplies u by v's n_- monomials; monomials whose rightmost factor lies
    in n_+ die against the highest-weight generator, Cartan and central
    factors evaluate against the weight, and what remains is an n_- monomial.
    """
    if u.ctx is not v.ctx or u.n != v.n or u.part != "g":
        raise ValueError("rank or context mismatch")
    eng = engine(u.n, "g")
    lam = v.weight
    out = {}
    for mono, c in multiply(u, UEAElement(u.ctx, u.n, v.terms)).terms.items():
        neg, car, pos = eng.split_blocks(mono)
        if pos:
            continue
        for idx, e in car:
            if idx == eng.z_index:
                c = c * lam.zdot ** e
            else:
                c = c * lam.values[idx - eng.neg_end] ** e
        cur = out.get(neg)
        out[neg] = c if cur is None else cur + c
    return v._like(out)
