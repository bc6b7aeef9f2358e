"""Rank-n Weyl algebra arithmetic and its weight modules.

Operators are kept normally ordered (all t factors left of all d factors,
where d_i is the derivative in t_i).  The modules realized here are the full
Laurent module F(a) = t^a C[t_1^±,...,t_n^±], its quotients G(a) by the
polynomial directions of the integer coordinates, and the Shale-Weil module
S (the full quotient at a = 0, spanned by strictly negative exponents).

Inverses of -d_i^2 are never formed symbolically; they act directly on module
vectors by exact division, which is all the localization twists need.  The
factor products both directions need -- the falling factorial of d_i^k and
the divisor of the inverse -- belong to the module: ``factor_product`` builds
prod_k (a_i + k) over a range once and keeps it as long as the module lives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import comb, factorial

from .combination import Combination, accumulate, checked_int, commutator_terms


class WeylElement(Combination):
    """Sparse normally ordered operator: sum of c * t^alpha d^beta."""

    __slots__ = ("n",)
    SPACE = ("n",)

    def __init__(self, ctx, n, terms=None):
        self.n = n
        super().__init__(ctx, terms)

    def _key(self, key):
        alpha, beta = key
        alpha = tuple(checked_int(e, "Weyl exponent") for e in alpha)
        beta = tuple(checked_int(e, "Weyl exponent") for e in beta)
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError("exponent length does not match the rank")
        if any(e < 0 for e in alpha + beta):
            raise ValueError("Weyl monomials use nonnegative exponents")
        return alpha, beta

    @classmethod
    def unit(cls, ctx, n):
        zero = (0,) * n
        return cls(ctx, n, {(zero, zero): ctx.one})

    @classmethod
    def t(cls, ctx, n, i, power=1):
        _check_index(i, n)
        alpha = tuple(power if k == i - 1 else 0 for k in range(n))
        return cls(ctx, n, {(alpha, (0,) * n): ctx.one})

    @classmethod
    def d(cls, ctx, n, i, power=1):
        _check_index(i, n)
        beta = tuple(power if k == i - 1 else 0 for k in range(n))
        return cls(ctx, n, {((0,) * n, beta): ctx.one})

    # per-class entry points; see oak.combination
    def __add__(self, other):
        return super().__add__(other)

    def __sub__(self, other):
        return super().__sub__(other)

    def __neg__(self):
        return super().__neg__()

    def scale(self, c):
        return super().scale(c)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return weyl_multiply(self, other)
        return self.scale(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = WeylElement.unit(self.ctx, self.n)
        for _ in range(k):
            out = weyl_multiply(out, self)
        return out

    def __str__(self):
        from .syntax import format_weyl

        return format_weyl(self)


def _check_index(i, n):
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for rank {n}")


@lru_cache(maxsize=None)
def weyl_mono_product(key1, key2):
    """Normal form of a product of two normal monomials, with integer
    coefficients: uses d^b t^c = sum_k k! C(b,k) C(c,k) t^(c-k) d^(b-k)
    coordinatewise, so no iterative rewriting is needed.  Cached; the data is
    context-free.
    """
    (alpha, beta), (gamma, delta) = key1, key2
    ranges = [range(min(b, g) + 1) for b, g in zip(beta, gamma)]
    out = []
    for k in _cartesian(*ranges):
        coef = 1
        for ki, bi, gi in zip(k, beta, gamma):
            if ki:
                coef *= factorial(ki) * comb(bi, ki) * comb(gi, ki)
        out.append(
            (
                (
                    tuple(a + g - ki for a, g, ki in zip(alpha, gamma, k)),
                    tuple(b + d - ki for b, d, ki in zip(beta, delta, k)),
                ),
                coef,
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_mono_commutator(key1, key2):
    """[m1, m2] of two normal monomials as ((key, int), ...), nonzero
    coefficients only: the two products with their common terms cancelled.
    Cached, like the products."""
    return commutator_terms(weyl_mono_product, key1, key2)


def weyl_multiply(p, q):
    """Canonical normal form of the product pq."""
    p._check(q)
    out = {}
    accumulate(out, p, q, weyl_mono_product)
    return p._like(out)


def weyl_commutator(p, q):
    """Canonical normal form of the commutator pq - qp."""
    p._check(q)
    out = {}
    accumulate(out, p, q, weyl_mono_commutator)
    return p._like(out)


# ---------------------------------------------------------------------------
# weight modules
# ---------------------------------------------------------------------------

class ModuleDescriptor:
    """Common interface: a base exponent vector and the quotiented index set."""

    def __init__(self, ctx, base, quotiented=()):
        self.ctx = ctx
        self.base = tuple(ctx.coerce(b) for b in base)
        self.rank = len(self.base)
        self.quotiented = frozenset(checked_int(i, "quotiented index") for i in quotiented)
        # factor products by absolute range (i, lo, hi); see factor_product
        self._products = {}

    def check_vector(self, v):
        if v.ctx is not self.ctx or v.base != self.base:
            raise ValueError("vector does not live in this module")
        for off in v.terms:
            if not self.admits(off):
                raise ValueError(f"offset {off} lies outside the module")

    def admits(self, off):
        return all(off[i - 1] <= -1 for i in self.quotiented)

    def factor_product(self, i, lo, hi):
        """prod_{k=lo..hi} (a_i + k), one for an empty range, or None when a
        factor vanishes; built in one loop and kept by its range, so every
        caller asking for the same factors shares it."""
        key = (i, lo, hi)
        products = self._products
        if key in products:
            return products[key]
        a = self.base[i - 1]
        out = self.ctx.one
        for k in range(lo, hi + 1):
            factor = a + k
            if factor.is_zero:
                out = None
                break
            out = out * factor
        products[key] = out
        return out


class FullLaurent(ModuleDescriptor):
    """F(a): all Laurent offsets around the base exponent a."""

    def __str__(self):
        return "F " + ",".join(str(b) for b in self.base)


class QuotientModule(ModuleDescriptor):
    """G(a): the quotient killing polynomial directions of integer coordinates.

    The convention a_i = 0 for every quotiented index is enforced; the
    surviving basis classes have strictly negative exponents there.
    """

    def __init__(self, ctx, base, quotiented):
        super().__init__(ctx, base, quotiented)
        for i in self.quotiented:
            _check_index(i, self.rank)
            if not self.base[i - 1].is_zero:
                raise ValueError(
                    f"quotiented coordinate {i} must have base exponent 0"
                )

    def __str__(self):
        return "G " + ",".join(str(b) for b in self.base)


class ShaleWeil(QuotientModule):
    """S: the full quotient at a = 0; basis t^m with every m_i <= -1."""

    def __init__(self, ctx, n):
        super().__init__(ctx, (0,) * n, range(1, n + 1))

    def __str__(self):
        return "S"


class LaurentVector(Combination):
    """Vector sum of c * t^(a+m) with a fixed base exponent a."""

    __slots__ = ("base",)
    SPACE = ("base",)

    def __init__(self, ctx, base, terms=None):
        self.base = tuple(ctx.coerce(b) for b in base)
        super().__init__(ctx, terms)

    def _key(self, off):
        off = tuple(checked_int(x, "offset coordinate") for x in off)
        if len(off) != len(self.base):
            raise ValueError("offset length does not match the rank")
        return off

    @classmethod
    def monomial(cls, module, off, coeff=1):
        v = cls(module.ctx, module.base, {tuple(off): coeff})
        module.check_vector(v)
        return v

    @property
    def rank(self):
        return len(self.base)

    # per-class entry points; see oak.combination
    def __add__(self, other):
        return super().__add__(other)

    def __sub__(self, other):
        return super().__sub__(other)

    def scale(self, c):
        return super().scale(c)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*t^{list(off)}" for off, c in self.sorted_terms()
        )


def apply(p, v, m):
    """Apply a Weyl operator to a module vector.

    t_i shifts the offset by +e_i; d_i multiplies by the running exponent and
    shifts by -e_i.  In quotient modules every resulting term with a
    nonnegative exponent at a quotiented coordinate is projected to zero.
    """
    if p.ctx is not v.ctx or p.n != v.rank:
        raise ValueError("operator and vector ranks or contexts differ")
    m.check_vector(v)
    out = {}
    for off, cv in v.terms.items():
        for (alpha, beta), cp in p.terms.items():
            new = tuple(o + a - b for o, a, b in zip(off, alpha, beta))
            if not m.admits(new):
                continue
            # d_i^b_i multiplies by the module's product of a_i + k over
            # k = m_i - b_i + 1 .. m_i; a vanishing factor drops the term
            c = cv * cp
            for i, (bi, oi) in enumerate(zip(beta, off), 1):
                if bi:
                    part = m.factor_product(i, oi - bi + 1, oi)
                    if part is None:
                        break
                    c = c * part
            else:
                cur = out.get(new)
                out[new] = c if cur is None else cur + c
    return v._like(out)


def apply_inverse_lowering(v, i, m, power=1):
    """Act by (-d_i^2)^(-power); defined wherever the division is exact.

    t^(a+m) goes to (-1)^power t^(a+m+2 power e_i) divided by the module's
    product of a_i + m_i + r over r = 1..2 power.  Raises ZeroDivisionError
    when a factor vanishes, which signals an invalid base exponent for the
    localized action.
    """
    i = checked_int(i, "lowering index")
    power = checked_int(power, "inverse power")
    _check_index(i, m.rank)
    if i in m.quotiented:
        raise ValueError(f"coordinate {i} is quotiented; the inverse is undefined")
    if power < 0:
        raise ValueError("power must be nonnegative")
    m.check_vector(v)
    out = {}
    for off, c in v.terms.items():
        o = off[i - 1]
        denom = m.factor_product(i, o + 1, o + 2 * power)
        if denom is None:
            raise ZeroDivisionError(
                f"localized action undefined: exponent factor vanishes at {off}"
            )
        c = c / denom
        if power % 2:
            c = -c
        new = off[:i - 1] + (o + 2 * power,) + off[i:]
        out[new] = c
    return v._like(out)


# ---------------------------------------------------------------------------
# highest-vector straightening in direct sums of S
# ---------------------------------------------------------------------------

def _as_components(w):
    if isinstance(w, LaurentVector):
        return (w,), True
    return tuple(w), False


def _sum_apply(p, comps, m):
    return tuple(apply(p, c, m) for c in comps)


def _sum_is_zero(comps):
    return all(c.is_zero for c in comps)


def straighten_highest(w, i, module=None):
    """Correct w so that t_i kills it, inside a finite direct sum of copies of S.

    Returns w + sum_{k=1..l} (1/k!) d_i^k t_i^k w, where l is minimal with
    t_i^(l+1) w = 0; the result is annihilated by t_i.  The zero vector is
    rejected; a zero *result* is legal (the correction may cancel w entirely).
    """
    comps, single = _as_components(w)
    if not comps:
        raise ValueError("empty direct sum")
    ctx = comps[0].ctx
    n = comps[0].rank
    if module is None:
        module = ShaleWeil(ctx, n)
    _check_index(i, n)
    if _sum_is_zero(comps):
        raise ValueError("cannot straighten the zero vector")
    ti = WeylElement.t(ctx, n, i)
    di = WeylElement.d(ctx, n, i)

    # nilpotency degree: minimal l with t_i^(l+1) w = 0 (finite in S-sums)
    powers = [comps]
    while not _sum_is_zero(powers[-1]):
        powers.append(_sum_apply(ti, powers[-1], module))
    l = len(powers) - 2

    result = comps
    for k in range(1, l + 1):
        corr = powers[k]
        for _ in range(k):
            corr = _sum_apply(di, corr, module)
        inv = Fraction(1, factorial(k))
        result = tuple(r + c.scale(inv) for r, c in zip(result, corr))
    assert _sum_is_zero(_sum_apply(ti, result, module))
    return result[0] if single else result


def straighten_all(w, module=None):
    """Iterate straightening over all coordinates in ascending order.

    The result is killed by every t_i; intermediate zero vectors short-circuit
    (zero is trivially annihilated).
    """
    comps, single = _as_components(w)
    if not comps:
        raise ValueError("empty direct sum")
    ctx = comps[0].ctx
    n = comps[0].rank
    if module is None:
        module = ShaleWeil(ctx, n)
    if _sum_is_zero(comps):
        raise ValueError("cannot straighten the zero vector")
    current = comps
    for i in range(1, n + 1):
        if _sum_is_zero(current):
            break
        current = _as_components(straighten_highest(current, i, module))[0]
    return current[0] if single else current


def support(m, box):
    """Cartan weights of the nonzero basis vectors with offsets in the box.

    Under the dictionary h_i -> t_i d_i + 1/2 the vector t^(a+m) has weight
    (a_i + m_i + 1/2)_i.  The box is an inclusive (lo, hi) pair of integer
    offset vectors.
    """
    lo, hi = (tuple(checked_int(x, "box bound") for x in side) for side in box)
    if len(lo) != m.rank or len(hi) != m.rank:
        raise ValueError("box rank mismatch")
    if any(l > h for l, h in zip(lo, hi)):
        raise ValueError("empty box")
    half = Fraction(1, 2)
    weights = []
    ranges = []
    for i in range(m.rank):
        top = hi[i]
        if (i + 1) in m.quotiented:
            top = min(top, -1)
        ranges.append(range(lo[i], top + 1))
    for off in _cartesian(*ranges):
        weights.append(tuple(b + o + half for b, o in zip(m.base, off)))
    return weights
