"""Realization maps into the Weyl algebra and the tensor algebra, mechanical
homomorphism verification, and the localization twists.

The oscillator realization sends

    X_{e_i-e_j} -> t_i d_j     X_{e_i+e_j} -> t_i t_j    X_{-e_i-e_j} -> -d_i d_j
    h_i -> t_i d_i + 1/2       X_{e_i} -> s t_i          X_{-e_i} -> -s d_i
    z -> s^2

and the tensor realization sends the sp_2n part to X ⊗ 1 + 1 ⊗ (image above)
and the Heisenberg part to 1 ⊗ (image above).  Both are verified pair by pair
rather than assumed.

Twists are handled through their binomial conjugation series
theta_b(u) = sum_j C(b,j) (ad X_{-2e_i})^j(u) X_{-2e_i}^(-j), which truncates
on generators; at nonnegative integer b it agrees with honest conjugation by
X_{-2e_i}^b, and the agreement is checked on Laurent modules with a symbolic
base exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial as _math_factorial

from .combination import Combination
from .liealg import (
    LieElement,
    basis,
    bracket,
    is_sp,
    validate_element,
    x_,
)
from .scalars import ScalarContext
from .uea import engine
from .weyl import (
    FullLaurent,
    LaurentVector,
    WeylElement,
    apply,
    apply_inverse_lowering,
    weyl_commutator,
    weyl_mono_product,
    weyl_multiply,
)


def _half(ctx):
    return ctx.rational(1, 2)


def f_basis(ctx, n, b):
    """Weyl-algebra image of one distinguished basis element, memoized on ctx."""
    key = ("f", n, b)
    if key not in ctx.memo:
        ctx.memo[key] = _f_basis(ctx, n, b)
    return ctx.memo[key]


def _f_basis(ctx, n, b):
    validate_element(b, n)
    if b.kind == "z":
        return WeylElement.unit(ctx, n).scale(ctx.zdot)
    if b.kind == "h":
        i = b.tag[0]
        ti_di = weyl_multiply(WeylElement.t(ctx, n, i), WeylElement.d(ctx, n, i))
        return ti_di + WeylElement.unit(ctx, n).scale(_half(ctx))
    root = b.tag
    pos = [(i + 1, c) for i, c in enumerate(root) if c > 0]
    neg = [(i + 1, -c) for i, c in enumerate(root) if c < 0]
    if sum(abs(c) for c in root) == 1:
        if pos:
            return WeylElement.t(ctx, n, pos[0][0]).scale(ctx.s)
        return WeylElement.d(ctx, n, neg[0][0]).scale(-ctx.s)
    if pos and neg:  # e_i - e_j
        return weyl_multiply(
            WeylElement.t(ctx, n, pos[0][0]), WeylElement.d(ctx, n, neg[0][0])
        )
    if pos:  # e_i + e_j (possibly i == j)
        idx = []
        for i, c in pos:
            idx.extend([i] * c)
        return weyl_multiply(
            WeylElement.t(ctx, n, idx[0]), WeylElement.t(ctx, n, idx[1])
        )
    idx = []
    for i, c in neg:
        idx.extend([i] * c)
    return weyl_multiply(
        WeylElement.d(ctx, n, idx[0]), WeylElement.d(ctx, n, idx[1])
    ).scale(-1)


def f_map(x, n=None):
    """Linear extension of the oscillator realization to Lie elements."""
    if n is not None and n != x.n:
        raise ValueError("rank mismatch")
    n = x.n
    out = WeylElement(x.ctx, n)
    for b, c in x.terms.items():
        out = out + f_basis(x.ctx, n, b).scale(c)
    return out


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
        eng = engine(self.n, "sp")
        out = {}
        for (m1, w1), c1 in self.terms.items():
            word1 = eng.word_of_monomial(m1)
            for (m2, w2), c2 in other.terms.items():
                c12 = c1 * c2
                sp_prod = eng.normal_word(word1 + eng.word_of_monomial(m2))
                wprod = weyl_mono_product(w1, w2)
                for mono, cf in sp_prod.items():
                    base = c12 if cf == 1 else c12 * cf
                    for wkey, cw in wprod:
                        key = (mono, wkey)
                        add = base if cw == 1 else base * cw
                        cur = out.get(key)
                        out[key] = add if cur is None else cur + add
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


def phi_basis(ctx, n, b):
    """Tensor-algebra image of one basis element, memoized on ctx.

    The central element z goes to the scalar s^2.
    """
    key = ("phi", n, b)
    if key not in ctx.memo:
        ctx.memo[key] = _phi_basis(ctx, n, b)
    return ctx.memo[key]


def _phi_basis(ctx, n, b):
    validate_element(b, n)
    if b.kind == "z":
        return TensorElement.unit(ctx, n).scale(ctx.zdot)
    if is_sp(b):
        # X ⊗ 1 + 1 ⊗ f(X); the 1/2 of h_i stays with the Weyl factor
        return TensorElement.from_sp(ctx, n, b) + TensorElement.from_weyl(
            f_basis(ctx, n, b)
        )
    return TensorElement.from_weyl(f_basis(ctx, n, b))


def phi_lie(x):
    """phi on a Lie element (z allowed; it maps to the central charge)."""
    out = TensorElement(x.ctx, x.n)
    for b, c in x.terms.items():
        out = out + phi_basis(x.ctx, x.n, b).scale(c)
    return out


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
    n = u.n
    ctx = u.ctx
    eng = engine(n, "g")
    zi = eng.z_index
    out = TensorElement(ctx, n)
    for mono, c in u.terms.items():
        if any(idx == zi for idx, _ in mono):
            raise ValueError("phi_map expects input with no z factor; reduce first")
        out = out + _phi_mono(ctx, n, mono).scale(c)
    return out


def iota_sp(u):
    """The embedding of U(sp_2n) into the tensor algebra."""
    if u.part != "sp":
        raise ValueError("iota_sp expects an sp enveloping-algebra element")
    ctx, n = u.ctx, u.n
    eng = engine(n, "sp")
    out = TensorElement(ctx, n)
    for mono, c in u.terms.items():
        term = TensorElement.unit(ctx, n)
        for idx, e in mono:
            img = phi_basis(ctx, n, eng.elements[idx])
            for _ in range(e):
                term = term * img
        out = out + term.scale(c)
    return out


def iota_heisenberg(ctx, n, b):
    """The Weyl-algebra image of a Heisenberg generator X_{±e_i}, as a tensor."""
    validate_element(b, n)
    if b.kind != "x" or sum(abs(c) for c in b.tag) != 1:
        raise ValueError("iota_heisenberg takes X_{+e_i} or X_{-e_i}")
    return TensorElement.from_weyl(f_basis(ctx, n, b))


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
    """Check image([x,y]) = [image(x), image(y)] over all unordered basis pairs."""
    if map_kind not in ("f", "phi"):
        raise ValueError("map must be 'f' or 'phi'")
    if ctx is None:
        ctx = ScalarContext(("s",))
    elems = basis(n)
    images = {}
    for b in elems:
        if map_kind == "f":
            images[b] = f_basis(ctx, n, b)
        else:
            images[b] = phi_basis(ctx, n, b)
    report = HomReport(map_kind, n, 0)
    for i, a in enumerate(elems):
        for b in elems[i:]:
            report.pairs_checked += 1
            lie = bracket(
                LieElement.from_basis(ctx, n, a),
                LieElement.from_basis(ctx, n, b),
            )
            if map_kind == "f":
                lhs = f_map(lie)
                rhs = weyl_commutator(images[a], images[b])
            else:
                lhs = phi_lie(lie)
                rhs = images[a] * images[b] - images[b] * images[a]
            resid = lhs - rhs
            if not resid.is_zero:
                report.violations.append((str(a), str(b), str(resid)))
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
    oscillator realization of the Lie element second.
    """

    def __init__(self, ctx, n, terms):
        self.ctx = ctx
        self.n = n
        self.terms = [
            (ctx.coerce(c), lie, int(i), int(j))
            for c, lie, i, j in terms
            if not ctx.coerce(c).is_zero and not (lie is not None and lie.is_zero)
        ]

    def act(self, v, module):
        out = LaurentVector(v.ctx, v.base)
        for c, lie, i, j in self.terms:
            w = apply_inverse_lowering(v, i, module, j) if j else v
            if lie is not None:
                w = apply(f_map(lie), w, module)
            out = out + w.scale(c)
        return out

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
    powers = []
    for i, b in zip(spec.indices, spec.b):
        b = ctx.coerce(b)
        if not b.is_integer() or b.as_fraction() < 0:
            raise ValueError("conjugation oracle needs nonnegative integer b")
        powers.append((i, int(b.as_fraction())))
    w = v
    for i, p in powers:
        if p:
            w = apply_inverse_lowering(w, i, module, p)
    w = apply(f_map(LieElement.from_basis(ctx, n, g)), w, module)
    for i, p in powers:
        if p:
            op = f_basis(ctx, n, _lowering_element(i, n)) ** p
            w = apply(op, w, module)
    return w


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
    vectors with offsets in the radius-``depth`` box are compared for each
    twistable generator at each twisted index.
    """
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
    offsets = _box_offsets(n, depth)
    for g in gens:
        op = theta_generator(g, spec, ctx, n)
        for off in offsets:
            v = LaurentVector.monomial(module, off)
            lhs = op.act(v, module)
            rhs = conjugation_twist_action(g, spec, v, module)
            report.vectors_checked += 1
            diff = lhs - rhs
            if not diff.is_zero:
                report.mismatches.append((str(g), off, str(diff)))
    return report


def _box_offsets(n, depth):
    from itertools import product

    return [tuple(o) for o in product(range(-depth, depth + 1), repeat=n)]
