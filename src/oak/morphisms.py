"""Realization maps into the Weyl algebra and the tensor algebra, mechanical
homomorphism verification, and the localization twists.

The oscillator realization sends

    X_{e_i-e_j} -> t_i d_j     X_{e_i+e_j} -> t_i t_j    X_{-e_i-e_j} -> -d_i d_j
    h_i -> t_i d_i + 1/2       X_{e_i} -> s t_i          X_{-e_i} -> -s d_i
    z -> s^2

and the tensor realization sends the sp_2n part to X ⊗ 1 + 1 ⊗ (image above)
and the Heisenberg part to 1 ⊗ (image above).  Each image above is one
normal monomial, written in closed form, and every map out of g_n extends
linearly through ``add_scaled``.  Both are verified pair by pair, each
commutator of images by one ``accumulate`` over a commutator table, which
cancels the two orders of every pair of keys in ints before any scalar
work.  Products of tensors go through the same ``accumulate`` over the
tensor product table, whose entries are ints like every key-level table
(the sp factor's from ``PBWEngine.monomial_product``, the Weyl factor's
from ``weyl_mono_product``).

Twists are handled through their binomial conjugation series
theta_b(u) = sum_j C(b,j) (ad X_{-2e_i})^j(u) X_{-2e_i}^(-j), which truncates
on generators; at nonnegative integer b it agrees with honest conjugation by
X_{-2e_i}^b, and the agreement is checked on Laurent modules with a symbolic
base exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial as _math_factorial

from .combination import Combination, accumulate, add_scaled, checked_int, commutator_terms
from .liealg import (
    LieElement,
    basis,
    bracket,
    is_sp,
    validate_element,
    x_,
)
from .scalars import ScalarContext
from .uea import UEAElement, engine
from .weyl import (
    FullLaurent,
    LaurentVector,
    WeylElement,
    apply,
    apply_inverse_lowering,
    weyl_mono_commutator,
    weyl_mono_product,
)


def f_basis(ctx, n, b):
    """Weyl-algebra image of one distinguished basis element, memoized on ctx."""
    key = ("f", n, b)
    if key not in ctx.memo:
        ctx.memo[key] = _f_basis(ctx, n, b)
    return ctx.memo[key]


def _f_basis(ctx, n, b):
    validate_element(b, n)
    zero = (0,) * n
    if b.kind == "z":
        return WeylElement(ctx, n, {(zero, zero): ctx.zdot})
    if b.kind == "h":
        e_i = tuple(int(k == b.tag[0] - 1) for k in range(n))
        return WeylElement(ctx, n, {(e_i, e_i): 1, (zero, zero): ctx.rational(1, 2)})
    # X_r -> c t^(r+) d^(r-): c is s on the Heisenberg roots, and negated when
    # the entries of r sum below zero
    root = b.tag
    c = ctx.s if sum(abs(x) for x in root) == 1 else ctx.one
    key = (tuple(max(x, 0) for x in root), tuple(max(-x, 0) for x in root))
    return WeylElement(ctx, n, {key: -c if sum(root) < 0 else c})


def f_map(x, n=None):
    """Linear extension of the oscillator realization to Lie elements."""
    if n is not None and n != x.n:
        raise ValueError("rank mismatch")
    out = {}
    add_scaled(out, ((f_basis(x.ctx, x.n, b), c) for b, c in x.terms.items()))
    return WeylElement(x.ctx, x.n)._like(out)


# ---------------------------------------------------------------------------
# tensor algebra U(sp_2n) (x) D_n
# ---------------------------------------------------------------------------

class TensorElement(Combination):
    """Sparse element of U(sp_2n) ⊗ D_n.

    Keys pair an sp PBW monomial with a Weyl normal-form monomial; products
    expand both factors through their own canonical arithmetic.
    """

    __slots__ = ("n",)
    SPACE = ("n",)

    def __init__(self, ctx, n, terms=None):
        self.n = n
        super().__init__(ctx, terms)

    @classmethod
    def unit(cls, ctx, n):
        zero = (0,) * n
        return cls(ctx, n, {((), (zero, zero)): ctx.one})

    @classmethod
    def from_sp(cls, ctx, n, b):
        eng = engine(n, "sp")
        mono = eng.monomial_of_word(eng.word_of([b]))
        zero = (0,) * n
        return cls(ctx, n, {(mono, (zero, zero)): ctx.one})

    @classmethod
    def from_weyl(cls, w):
        return cls(w.ctx, w.n, {((), key): c for key, c in w.terms.items()})

    # per-class entry points; see oak.combination
    def __add__(self, other):
        return super().__add__(other)

    def __sub__(self, other):
        return super().__sub__(other)

    def scale(self, c):
        return super().scale(c)

    def __mul__(self, other):
        self._check(other)
        out = {}
        accumulate(out, self, other, _tensor_products(engine(self.n, "sp")))
        return self._like(out)

    def __str__(self):
        if not self.terms:
            return "0"
        from .syntax import format_mono, format_weyl

        pieces = []
        for (mono, wkey), c in self.sorted_terms():
            left = format_mono(mono, self.n, "sp") or "1"
            right = format_weyl(WeylElement(self.ctx, self.n, {wkey: self.ctx.one}))
            pieces.append(f"({c})*{left}(x){right}")
        return " + ".join(pieces)


def _tensor_products(eng):
    """The product table of tensor keys over the sp engine ``eng``:
    (m1 ⊗ w1)(m2 ⊗ w2) = m1 m2 ⊗ w1 w2, both factors in normal form."""

    def table(key1, key2):
        (m1, w1), (m2, w2) = key1, key2
        wprod = weyl_mono_product(w1, w2)
        return [
            ((mono, wkey), cf * cw)
            for mono, cf in eng.monomial_product(m1, m2)
            for wkey, cw in wprod
        ]

    return table


@lru_cache(maxsize=None)
def _key_commutator(key1, key2):
    """[m1 ⊗ w1, m2 ⊗ w2] as ((key, int), ...), nonzero only.

    With a unit Weyl factor it is [m1, m2] ⊗ w, with a unit sp factor
    m ⊗ [w1, w2], and with a unit on either side it vanishes; only a pair
    that is nontrivial on both sides expands both tensor products.  Cached;
    the data is context-free.
    """
    (m1, w1), (m2, w2) = key1, key2
    n = len(w1[0])
    eng = engine(n, "sp")
    unit = ((0,) * n,) * 2
    if w1 == unit or w2 == unit:
        if not m1 or not m2:
            return ()
        w = w2 if w1 == unit else w1
        return commutator_terms(
            lambda a, b: (((mono, w), c) for mono, c in eng.monomial_product(a, b)), m1, m2
        )
    if not m1 or not m2:
        return tuple(((m1 or m2, wkey), c) for wkey, c in weyl_mono_commutator(w1, w2))
    return commutator_terms(_tensor_products(eng), key1, key2)


def phi_basis(ctx, n, b):
    """Tensor-algebra image of one basis element, memoized on ctx.

    The central element z goes to the scalar s^2.
    """
    key = ("phi", n, b)
    if key not in ctx.memo:
        ctx.memo[key] = _phi_basis(ctx, n, b)
    return ctx.memo[key]


def _phi_basis(ctx, n, b):
    image = TensorElement.from_weyl(f_basis(ctx, n, b))
    if is_sp(b):
        # X ⊗ 1 + 1 ⊗ f(X); the 1/2 of h_i stays with the Weyl factor
        return TensorElement.from_sp(ctx, n, b) + image
    return image


def phi_lie(x):
    """phi on a Lie element (z allowed; it maps to the central charge)."""
    out = {}
    add_scaled(out, ((phi_basis(x.ctx, x.n, b), c) for b, c in x.terms.items()))
    return TensorElement(x.ctx, x.n)._like(out)


def _phi_mono(ctx, n, mono):
    # images of monomials share prefixes; memoize on the monomial
    key = ("phi_mono", n, mono)
    if key in ctx.memo:
        return ctx.memo[key]
    if not mono:
        out = TensorElement.unit(ctx, n)
    else:
        idx, e = mono[-1]
        prefix = mono[:-1] + ((idx, e - 1),) if e > 1 else mono[:-1]
        eng = engine(n, "g")
        out = _phi_mono(ctx, n, prefix) * phi_basis(ctx, n, eng.elements[idx])
    ctx.memo[key] = out
    return out


def phi_map(u, n=None):
    """Multiplicative extension of phi to enveloping-algebra elements.

    The input must already be reduced modulo the central character (no z
    factors); reduce_central does that substitution.
    """
    if n is not None and n != u.n:
        raise ValueError("rank mismatch")
    zi = engine(u.n, "g").z_index
    if any(idx == zi for mono in u.terms for idx, _ in mono):
        raise ValueError("phi_map expects input with no z factor; reduce first")
    out = {}
    add_scaled(out, ((_phi_mono(u.ctx, u.n, mono), c) for mono, c in u.terms.items()))
    return TensorElement(u.ctx, u.n)._like(out)


def iota_sp(u):
    """The embedding of U(sp_2n) into the tensor algebra: phi on the sp
    monomials reindexed into g, whose basis order contains the sp order."""
    if u.part != "sp":
        raise ValueError("iota_sp expects an sp enveloping-algebra element")
    sp, g = engine(u.n, "sp"), engine(u.n, "g")
    terms = {
        tuple((g.index[sp.elements[idx]], e) for idx, e in mono): c
        for mono, c in u.terms.items()
    }
    return phi_map(UEAElement(u.ctx, u.n, terms))


def iota_heisenberg(ctx, n, b):
    """The Weyl-algebra image of a Heisenberg generator X_{±e_i}, as a tensor."""
    validate_element(b, n)
    if b.kind != "x" or sum(abs(c) for c in b.tag) != 1:
        raise ValueError("iota_heisenberg takes X_{+e_i} or X_{-e_i}")
    return phi_basis(ctx, n, b)


# ---------------------------------------------------------------------------
# homomorphism verification
# ---------------------------------------------------------------------------

@dataclass
class HomReport:
    kind: str
    n: int
    pairs_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def to_json_dict(self):
        return {
            "map": self.kind,
            "rank": self.n,
            "pairs_checked": self.pairs_checked,
            "violations": [
                {"x": x, "y": y, "residual": r} for x, y, r in self.violations
            ],
        }


def verify_lie_hom(map_kind, n, ctx=None):
    """Check image([x,y]) = [image(x), image(y)] over all unordered basis pairs.

    Each pair's residual image([x,y]) - [image(x), image(y)] is summed into
    one dict: image([x,y]) by ``add_scaled`` from the basis images, and
    [image(y), image(x)] by one ``accumulate`` over the target algebra's
    commutator table (``weyl_mono_commutator`` for f, ``_key_commutator``
    for phi).  A residual element is built, and printed, only when a
    coefficient is nonzero.
    """
    if map_kind not in ("f", "phi"):
        raise ValueError("map must be 'f' or 'phi'")
    if ctx is None:
        ctx = ScalarContext(("s",))
    if map_kind == "f":
        image_of, commutator = f_basis, weyl_mono_commutator
    else:
        image_of, commutator = phi_basis, _key_commutator
    elems = basis(n)
    gens = {b: LieElement.from_basis(ctx, n, b) for b in elems}
    images = {b: image_of(ctx, n, b) for b in elems}
    report = HomReport(map_kind, n, 0)
    for i, a in enumerate(elems):
        for b in elems[i:]:
            report.pairs_checked += 1
            resid = {}
            bra = bracket(gens[a], gens[b])
            add_scaled(resid, ((images[g], c) for g, c in bra.terms.items()))
            accumulate(resid, images[b], images[a], commutator)
            if any(resid.values()):
                report.violations.append((str(a), str(b), str(images[a]._like(resid))))
    return report


# ---------------------------------------------------------------------------
# localization twists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistSpec:
    """Index set and parameters of a localization twist.

    ``indices`` are the coordinates whose lowering operators X_{-2e_i} are
    inverted; ``b`` are the matching twist parameters (scalars; symbols are
    fine, the series truncates regardless).
    """

    indices: tuple
    b: tuple

    def __post_init__(self):
        if len(self.indices) != len(self.b):
            raise ValueError("one parameter per twisted index is required")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("twisted indices must be distinct")

    def param(self, i):
        return self.b[self.indices.index(i)]


class LocalizedOperator:
    """Finite sum of terms  c * (Lie element) * X_{-2e_i}^(-j).

    Realized on Laurent-type modules by acting with the inverse first and the
    oscillator realization of the Lie element second.  The realization of
    each term is built once, with the operator, and serves every ``act``.
    """

    def __init__(self, ctx, n, terms):
        self.ctx = ctx
        self.n = n
        self.terms = []
        for c, lie, i, j in terms:
            c = ctx.coerce(c)
            i = checked_int(i, "localized index")
            j = checked_int(j, "inverse power")
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range for rank {n}")
            if j < 0:
                raise ValueError(f"inverse power {j} is negative")
            if not c.is_zero and not (lie is not None and lie.is_zero):
                self.terms.append((c, lie, i, j))
        self._images = [
            (c, None if lie is None else f_map(lie), i, j) for c, lie, i, j in self.terms
        ]

    def act(self, v, module):
        out = {}
        for c, image, i, j in self._images:
            w = apply_inverse_lowering(v, i, module, j) if j else v
            if image is not None:
                w = apply(image, w, module)
            add_scaled(out, [(w, c)])
        return v._like(out)

    def canonical(self):
        """Combine terms by (index, inverse power); identity parts get their
        own (i, j, "unit") bucket holding a plain scalar."""
        combined = {}
        for c, lie, i, j in self.terms:
            if lie is None:
                key = (i, j, "unit")
                combined[key] = combined.get(key, self.ctx.zero) + c
            else:
                key = (i, j)
                add = lie.scale(c)
                cur = combined.get(key)
                combined[key] = add if cur is None else cur + add
        return {k: v for k, v in combined.items() if not v.is_zero}


def _lowering_element(i, n):
    root = [0] * n
    root[i - 1] = -2
    return x_(root)


def _twist_index_of(g, n):
    validate_element(g, n)
    if g.kind != "x":
        raise ValueError(f"{g} is not a twistable generator")
    support = [(k + 1, c) for k, c in enumerate(g.tag) if c]
    if len(support) != 1 or support[0][1] not in (1, -1, 2):
        raise ValueError(f"{g} is not one of X_{{±e_i}}, X_{{2e_i}}")
    return support[0][0]


def binomial_scalar(ctx, b, j):
    """C(b, j) for a scalar (possibly symbolic) b."""
    out = ctx.one
    for r in range(j):
        out = out * (b - r)
    return out / Fraction(_math_factorial(j))


def theta_generator(g, spec, ctx, n):
    """The twist of a generator, as a finite localized-operator sum.

    Computes the truncating conjugation series
    sum_j C(b_l, j) (ad X_{-2e_i})^j (g) X_{-2e_i}^(-j) for the index i the
    generator lives at.  The series is exact for symbolic b as well; at
    nonnegative integers it coincides with conjugation by X_{-2e_i}^b, which
    verify_theta_conjugation checks against module actions.
    """
    i = _twist_index_of(g, n)
    if i not in spec.indices:
        raise ValueError(f"index {i} is not in the twist index set {spec.indices}")
    b_l = ctx.coerce(spec.param(i))
    lower = LieElement.from_basis(ctx, n, _lowering_element(i, n))
    terms = []
    cur = LieElement.from_basis(ctx, n, g)
    j = 0
    while not cur.is_zero:
        terms.append((binomial_scalar(ctx, b_l, j), cur, i, j))
        cur = bracket(lower, cur)
        j += 1
        if j > 4 * n + 4:
            raise RuntimeError("ad-nilpotency bound exceeded; bad generator")
    return LocalizedOperator(ctx, n, terms)


def conjugation_twist_action(g, spec, v, module):
    """Oracle: act by  prod X_{-2e_i}^{b_i}  o  g  o  prod X_{-2e_i}^{-b_i}.

    Only defined for nonnegative integer parameters; the inverse factors act
    through exact division on the module.
    """
    ctx = v.ctx
    n = module.rank
    powers = _conjugation_powers(spec, ctx)
    w = v
    for i, p in powers:
        if p:
            w = apply_inverse_lowering(w, i, module, p)
    w = apply(f_basis(ctx, n, g), w, module)
    for i, p in powers:
        if p:
            w = apply(_lowering_power(ctx, n, i, p), w, module)
    return w


def _conjugation_powers(spec, ctx):
    """(index, b) for each twisted index, b as an int; the oracle is only
    defined for nonnegative integer parameters.  Memoized on ctx, so every
    probe of one spec shares one derivation."""
    key = ("powers", tuple(spec.indices), tuple(spec.b))
    if key in ctx.memo:
        return ctx.memo[key]
    powers = []
    for i, b in zip(spec.indices, spec.b):
        b = ctx.coerce(b)
        if not b.is_integer() or b.as_fraction() < 0:
            raise ValueError("conjugation oracle needs nonnegative integer b")
        powers.append((i, int(b.as_fraction())))
    ctx.memo[key] = powers = tuple(powers)
    return powers


def _lowering_power(ctx, n, i, p):
    """f(X_{-2e_i})^p, memoized on ctx; only the conjugation oracle uses it,
    so the twist series it is compared with never sees it."""
    key = ("f_pow", n, i, p)
    if key not in ctx.memo:
        ctx.memo[key] = f_basis(ctx, n, _lowering_element(i, n)) ** p
    return ctx.memo[key]


@dataclass
class TwistReport:
    indices: tuple
    b: tuple
    depth: int
    vectors_checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    def to_json_dict(self):
        return {
            "indices": list(self.indices),
            "b": [str(x) for x in self.b],
            "depth": self.depth,
            "vectors_checked": self.vectors_checked,
            "mismatches": [
                {"generator": g, "offset": list(o), "difference": d}
                for g, o, d in self.mismatches
            ],
        }


def verify_theta_conjugation(spec, base, depth, ctx, n):
    """Compare the twist series against the conjugation oracle on F(a).

    ``base`` supplies the exponents a_i (symbols give the sharpest check; any
    a_i with a_i not an integer keeps every division defined).  All basis
    vectors with offsets in the radius-``depth`` box (``depth`` >= 0) are
    compared for each twistable generator at each twisted index.

    Each probe t^m is scaled by D, the product of every factor
    (a_k + m_k + r) that either side divides by, so both sides stay
    polynomials and no gcd is ever taken.  Both sides are linear and D is
    nonzero, so their difference is D times the unscaled one; a mismatch is
    reported divided by D again.  If a factor vanishes the probe is not
    scaled, so the division that fails raises as it would unscaled; with a
    parameter the oracle refuses, only the series' own factors scale it, and
    the oracle raises at the first probe.
    """
    if checked_int(depth, "depth") < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    module = FullLaurent(ctx, base)
    if module.rank != n:
        raise ValueError("base exponent rank mismatch")
    report = TwistReport(spec.indices, tuple(ctx.coerce(x) for x in spec.b), depth)
    gens = []
    for i in spec.indices:
        for c in (-1, 1, 2):
            root = [0] * n
            root[i - 1] = c
            gens.append(x_(root))
    try:
        powers = _conjugation_powers(spec, ctx)
    except ValueError:
        powers = ()  # the oracle raises this at its first probe, if any
    offsets = _box_offsets(n, depth)
    scales = {}  # D depends only on the offset and the reach, which generators share
    for g in gens:
        op = theta_generator(g, spec, ctx, n)
        reach = _division_reach(op, powers)
        for off in offsets:
            scale = scales.get((off, reach))
            if scale is None:
                scale = scales[off, reach] = _probe_scale(module, off, reach)
            v = LaurentVector.monomial(module, off, scale)
            lhs = op.act(v, module)
            rhs = conjugation_twist_action(g, spec, v, module)
            report.vectors_checked += 1
            diff = lhs - rhs
            if not diff.is_zero:
                report.mismatches.append((str(g), off, str(diff.scale(1 / scale))))
    return report


def _division_reach(op, powers):
    """((k, R_k), ...): on a probe t^m, the series ``op`` and the oracle with
    ``powers`` divide at index k by (a_k + m_k + r) for r = 1..R_k at most."""
    reach = {i: 2 * p for i, p in powers}
    for _, _, i, j in op.terms:
        reach[i] = max(reach.get(i, 0), 2 * j)
    return tuple(sorted(reach.items()))


def _probe_scale(module, off, reach):
    """D for the probe t^off: the product of the module's factor products
    over ``reach``, or one if any of them has a zero factor."""
    scale = module.ctx.one
    for i, top in reach:
        o = off[i - 1]
        part = module.factor_product(i, o + 1, o + top)
        if part is None:
            return module.ctx.one
        scale = scale * part
    return scale


def _box_offsets(n, depth):
    from itertools import product

    return [tuple(o) for o in product(range(-depth, depth + 1), repeat=n)]
