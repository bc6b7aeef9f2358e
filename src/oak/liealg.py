"""Root data, distinguished basis, and exact bracket for the symplectic
oscillator algebra g_n = sp_2n ⋉ H_n.

The distinguished basis consists of root vectors X_alpha (alpha in the root
system Delta), the Cartan elements h_1..h_n, and the central element z.  All
structure constants are generated once per rank, in one integer pass over
the pairs whose bracket can be nonzero by weight, from the defining matrix
and vector realization:

    h_i            = E[i,i] - E[n+i,n+i]
    X_{e_i+e_j}    = E[i,n+j] + E[j,n+i]          (so X_{2e_i} = 2 E[i,n+i])
    X_{-e_i-e_j}   = E[n+i,j] + E[n+j,i]
    X_{e_i-e_j}    = E[i,j]  - E[n+j,n+i]         (i != j)
    X_{e_i}  = e_i,   X_{-e_i} = e_{n+i}          (basis vectors of C^2n)

with [X, v] = Xv, [u, v] = omega(u, v) z, and z central.  The matrix
realization is the normative sign convention for all brackets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .combination import Combination, accumulate, checked_int


class BasisElement(NamedTuple):
    kind: str    # "x" root vector, "h" Cartan, "z" central
    tag: tuple   # root in eps coordinates for "x"; (i,) 1-based for "h"; ()

    def __str__(self):
        from .syntax import format_basis

        return format_basis(self)

    __repr__ = __str__


def x_(root):
    return BasisElement("x", tuple(checked_int(c, "root coordinate") for c in root))


def h_(i):
    return BasisElement("h", (checked_int(i, "Cartan index"),))


Z = BasisElement("z", ())


def dim_g(n):
    return n * (2 * n + 1) + 2 * n + 1


@lru_cache(maxsize=None)
def root_system(n):
    """(Delta, Delta_plus) as tuples of integer eps-coordinate vectors."""
    if n < 1:
        raise ValueError("rank must be >= 1")

    def unit(i, c=1):
        v = [0] * n
        v[i] = c
        return tuple(v)

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    plus = []
    for i in range(n):
        for j in range(i + 1, n):
            plus.append(add(unit(i), unit(j, -1)))       # e_i - e_j, i < j
    for i in range(n):
        for j in range(i, n):
            plus.append(add(unit(i), unit(j)))           # e_i + e_j, i <= j
    for i in range(n):
        plus.append(unit(i))                             # e_i
    delta = tuple(plus) + tuple(tuple(-c for c in r) for r in plus)
    return delta, tuple(plus)


def is_root(vec, n):
    return BasisElement("x", tuple(vec)) in basis_index(n)


@lru_cache(maxsize=None)
def basis(n):
    """The distinguished basis in canonical PBW order.

    Negative root vectors first (lexicographic on the root vector), then
    h_1..h_n, z, then positive root vectors (lexicographic).  This order is
    shared by every PBW construction in the package.
    """
    delta, plus = root_system(n)
    plus_set = set(plus)
    neg = sorted(r for r in delta if r not in plus_set)
    pos = sorted(plus)
    elems = [x_(r) for r in neg]
    elems += [h_(i) for i in range(1, n + 1)]
    elems.append(Z)
    elems += [x_(r) for r in pos]
    assert len(elems) == dim_g(n)
    return tuple(elems)


@lru_cache(maxsize=None)
def basis_index(n):
    return {b: k for k, b in enumerate(basis(n))}


def validate_element(b, n):
    if b.kind == "x":
        if len(b.tag) != n or not is_root(b.tag, n):
            raise ValueError(f"{b.tag} is not a rank-{n} root")
    elif b.kind == "h":
        if not 1 <= b.tag[0] <= n:
            raise ValueError(f"Cartan index {b.tag[0]} out of range for rank {n}")
    elif b.kind != "z":
        raise ValueError(f"unknown basis element kind {b.kind!r}")
    return b


def weight_of(b, n):
    """Root of a root vector; the zero vector for Cartan and central elements."""
    validate_element(b, n)
    if b.kind == "x":
        return b.tag
    return (0,) * n


# ---------------------------------------------------------------------------
# structure constants from the matrix realization
# ---------------------------------------------------------------------------

def _sp_matrix(b, n):
    """Sparse 2n x 2n integer matrix {(r, c): int} of an sp_2n basis element."""
    if b.kind == "h":
        i = b.tag[0] - 1
        return {(i, i): 1, (n + i, n + i): -1}
    (i, ci), *rest = [(k, c) for k, c in enumerate(b.tag) if c]
    if not rest:  # X_{±2e_i}
        return {(i, n + i) if ci > 0 else (n + i, i): 2}
    ((j, cj),) = rest
    if ci == cj == 1:
        return {(i, n + j): 1, (j, n + i): 1}
    if ci == cj == -1:
        return {(n + i, j): 1, (n + j, i): 1}
    if ci == 1:
        return {(i, j): 1, (n + j, n + i): -1}
    return {(j, i): 1, (n + i, n + j): -1}


def is_sp(b):
    """True for the basis elements of sp_2n: h_i, X_{±e_i±e_j} and X_{±2e_i}."""
    return b.kind == "h" or (b.kind == "x" and sum(abs(c) for c in b.tag) == 2)


def _expand_sp(m, mats, owner):
    """Write an integer sp_2n matrix in the distinguished basis.

    Every position of a 2n x 2n matrix belongs to the support of exactly one
    basis element (``owner``: position -> (element, entry)), so each
    coefficient is read off one nonzero entry; the reconstruction is
    verified, so a matrix outside sp_2n never passes silently.
    """
    coeffs = {}
    for rc, v in m.items():
        if v:
            b, pivot = owner[rc]
            if b not in coeffs:
                coeffs[b] = v // pivot if v % pivot == 0 else Fraction(v, pivot)
    rebuilt = {}
    for b, c in coeffs.items():
        for rc, v in mats[b].items():
            rebuilt[rc] = rebuilt.get(rc, 0) + c * v
    if rebuilt != {rc: v for rc, v in m.items() if v}:
        raise ValueError("matrix does not lie in sp_2n")
    return coeffs


@lru_cache(maxsize=None)
def structure_constants(n):
    """All nonzero basis brackets, as {(a, b): ((elem, int), ...)}, with
    the pairs and the terms in basis order; cached per rank.  The constants
    are ints, so every key-level table built from these holds ints.

    One pass over the unordered pairs whose bracket can be nonzero by
    weight: z is central, the Cartan elements commute, [h_i, X_alpha] = 0
    when alpha_i = 0, and [X_alpha, X_beta] has weight alpha + beta, which
    must be a root or 0.  Each such bracket is computed once, in integers,
    from the realization: the commutator of the two sp matrices, a matrix
    times a vector, or the symplectic pairing of two vectors.  [b, a] is
    stored as its negation.
    """
    elems = basis(n)
    index = basis_index(n)
    weights = set(root_system(n)[0])
    weights.add((0,) * n)
    mats = {b: _sp_matrix(b, n) for b in elems if is_sp(b)}
    owner = {rc: (b, v) for b, m in mats.items() for rc, v in m.items()}
    # the coordinate in C^2n of X_{e_i} = e_i and of X_{-e_i} = e_{n+i}
    coords = {}
    for b in elems:
        if b.kind == "x" and b not in mats:
            i = next(k for k, c in enumerate(b.tag) if c)
            coords[b] = i if b.tag[i] > 0 else n + i
    vectors = {r: b for b, r in coords.items()}

    def realized(a, b):
        """[a, b] as {BasisElement: int or Fraction}, possibly with no terms."""
        if a in mats and b in mats:
            comm = {}
            for (r, k), va in mats[a].items():
                for (k2, c), vb in mats[b].items():
                    if k == k2:  # entry (r, c) of a b
                        comm[r, c] = comm.get((r, c), 0) + va * vb
                    if c == r:  # entry (k2, k) of b a
                        comm[k2, k] = comm.get((k2, k), 0) - vb * va
            return _expand_sp(comm, mats, owner)
        if a in mats:
            return {vectors[r]: v for (r, c), v in mats[a].items() if c == coords[b]}
        if b in mats:
            return {vectors[r]: -v for (r, c), v in mats[b].items() if c == coords[a]}
        # [u, v] = omega(u, v) z with omega(e_i, e_{n+i}) = 1
        r, c = coords[a], coords[b]
        omega = (c == r + n) - (r == c + n)
        return {Z: omega} if omega else {}

    table = {}
    for k, a in enumerate(elems):
        if a.kind == "z":
            continue
        for b in elems[k + 1:]:
            if b.kind == "z":
                continue
            if a.kind == "h" or b.kind == "h":
                h, x = (a, b) if a.kind == "h" else (b, a)
                if x.kind == "h" or not x.tag[h.tag[0] - 1]:
                    continue
            elif tuple(map(add, a.tag, b.tag)) not in weights:
                continue
            res = realized(a, b)
            if res:
                terms = tuple(sorted(res.items(), key=lambda t: index[t[0]]))
                table[a, b] = terms
                table[b, a] = tuple((e, -c) for e, c in terms)
    return dict(sorted(table.items(), key=lambda kv: (index[kv[0][0]], index[kv[0][1]])))


def bracket_basis(a, b, n):
    """[a, b] for two basis elements as a list of (BasisElement, int)."""
    validate_element(a, n)
    validate_element(b, n)
    return list(structure_constants(n).get((a, b), ()))


# ---------------------------------------------------------------------------
# elements and weights
# ---------------------------------------------------------------------------

class LieElement(Combination):
    """Sparse linear combination of distinguished basis elements."""

    __slots__ = ("n",)
    SPACE = ("n",)

    def __init__(self, ctx, n, coeffs=None):
        self.n = n
        super().__init__(ctx, coeffs)

    def _key(self, b):
        return validate_element(b, self.n)

    @property
    def coeffs(self):
        return self.terms

    @classmethod
    def from_basis(cls, ctx, n, b, coeff=1):
        return cls(ctx, n, {b: ctx.coerce(coeff)})

    def sorted_terms(self):
        idx = basis_index(self.n)
        return sorted(self.terms.items(), key=lambda kv: idx[kv[0]])

    def support(self):
        return [b for b, _ in self.sorted_terms()]

    def __str__(self):
        from .syntax import format_lie

        return format_lie(self)


def bracket(x, y, n=None):
    """Bilinear antisymmetric extension of the basis bracket: one
    ``accumulate`` over the structure constants."""
    x._check(y)
    if n is not None and n != x.n:
        raise ValueError(f"rank mismatch: elements have rank {x.n}, got {n}")
    table = structure_constants(x.n)
    out = {}
    accumulate(out, x, y, lambda a, b: table.get((a, b)))
    return x._like(out)


def decomposition_parts(n, kind="standard"):
    """Basis-element sets (negative, zero, positive) of a triangular decomposition.

    ``standard``  splits along the full positive system; the zero part is the
    Cartan subalgebra h_1..h_n, z.  ``parabolic`` puts all X_{±(e_i+e_j)} and
    X_{±e_i} into the outer parts; the zero part is gl_n ⊕ Cz.  Each part is
    checked to be closed under the bracket.
    """
    delta, plus = root_system(n)
    plus_set = set(plus)
    if kind == "standard":
        neg = [x_(r) for r in sorted(delta) if r not in plus_set]
        zero = [h_(i) for i in range(1, n + 1)] + [Z]
        pos = [x_(r) for r in sorted(plus)]
    elif kind == "parabolic":
        def height(r):
            return sum(r)

        neg = [x_(r) for r in sorted(delta) if height(r) < 0]
        zero = [h_(i) for i in range(1, n + 1)] + [Z] + [
            x_(r) for r in sorted(delta) if height(r) == 0
        ]
        pos = [x_(r) for r in sorted(delta) if height(r) > 0]
    else:
        raise ValueError(f"unknown decomposition kind {kind!r}")

    full = set(neg) | set(zero) | set(pos)
    assert len(neg) + len(zero) + len(pos) == dim_g(n) and full == set(basis(n))
    for part in (neg, zero, pos):
        members = set(part)
        for a in part:
            for b in part:
                for elem, _ in bracket_basis(a, b, n):
                    if elem not in members:
                        raise RuntimeError(
                            f"{kind} part not closed: [{a}, {b}] leaves the span"
                        )
    return neg, zero, pos


class Weight:
    """A Cartan weight: the values on h_1..h_n plus the z-eigenvalue."""

    __slots__ = ("ctx", "values", "zdot")

    def __init__(self, ctx, values, zdot=None):
        self.ctx = ctx
        self.values = tuple(ctx.coerce(v) for v in values)
        self.zdot = ctx.coerce(zdot) if zdot is not None else ctx.zdot

    @property
    def n(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.values == other.values
            and self.zdot == other.zdot
        )

    def __add__(self, other):
        if self.ctx is not other.ctx or self.n != other.n:
            raise ValueError("weights from different contexts or ranks")
        return Weight(
            self.ctx,
            tuple(a + b for a, b in zip(self.values, other.values)),
            self.zdot + other.zdot,
        )

    def shift(self, vec, denom=1):
        """The weight translated by an integer (or half-integer) eps-vector."""
        return Weight(
            self.ctx,
            tuple(v + Fraction(c, denom) for v, c in zip(self.values, vec)),
            self.zdot,
        )

    def __str__(self):
        vals = ",".join(str(v) for v in self.values)
        return f"({vals}; z={self.zdot})"

    __repr__ = __str__
