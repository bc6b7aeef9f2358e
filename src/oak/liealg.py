"""Root data, distinguished basis, and exact bracket for the symplectic
oscillator algebra g_n = sp_2n ⋉ H_n.

The distinguished basis consists of root vectors X_alpha (alpha in the root
system Delta), the Cartan elements h_1..h_n, and the central element z.  All
structure constants are generated once per rank from the defining matrix and
vector realization:

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
from typing import NamedTuple

from .combination import Combination


class BasisElement(NamedTuple):
    kind: str    # "x" root vector, "h" Cartan, "z" central
    tag: tuple   # root in eps coordinates for "x"; (i,) 1-based for "h"; ()

    def __str__(self):
        from .syntax import format_basis

        return format_basis(self)

    __repr__ = __str__


def x_(root):
    return BasisElement("x", tuple(int(c) for c in root))


def h_(i):
    return BasisElement("h", (int(i),))


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
    return tuple(vec) in set(root_system(n)[0])


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
    """Sparse 2n x 2n matrix {(r, c): Fraction} of an sp_2n basis element."""
    m = {}

    def put(r, c, v):
        m[(r, c)] = m.get((r, c), Fraction(0)) + v

    if b.kind == "h":
        i = b.tag[0] - 1
        put(i, i, Fraction(1))
        put(n + i, n + i, Fraction(-1))
        return m
    root = b.tag
    support = [(i, c) for i, c in enumerate(root) if c]
    if len(support) == 1 and abs(support[0][1]) == 2:
        i, c = support[0]
        if c > 0:
            put(i, n + i, Fraction(2))
        else:
            put(n + i, i, Fraction(2))
        return m
    (i, ci), (j, cj) = support
    if ci == 1 and cj == 1:
        put(i, n + j, Fraction(1))
        put(j, n + i, Fraction(1))
    elif ci == -1 and cj == -1:
        put(n + i, j, Fraction(1))
        put(n + j, i, Fraction(1))
    elif ci == 1 and cj == -1:
        put(i, j, Fraction(1))
        put(n + j, n + i, Fraction(-1))
    else:  # ci == -1, cj == 1
        put(j, i, Fraction(1))
        put(n + i, n + j, Fraction(-1))
    return m


def is_sp(b):
    """True for the basis elements of sp_2n: h_i, X_{±e_i±e_j} and X_{±2e_i}."""
    return b.kind == "h" or (b.kind == "x" and sum(abs(c) for c in b.tag) == 2)


def _is_vec(b):
    return b.kind == "x" and sum(abs(c) for c in b.tag) == 1


def _vec(b, n):
    """Sparse coordinate vector {r: Fraction} in C^2n for X_{±e_i}."""
    i = next(k for k, c in enumerate(b.tag) if c)
    return {i if b.tag[i] > 0 else n + i: Fraction(1)}


def _expand_sp(m, n):
    """Write an sp_2n matrix in the distinguished basis.

    Reads coefficients directly off the block structure; verifies the
    reconstruction so bad input never passes silently.
    """
    coeffs = {}
    for i in range(n):
        v = m.get((i, i), Fraction(0))
        if v:
            coeffs[h_(i + 1)] = v
        for j in range(n):
            if i != j:
                v = m.get((i, j), Fraction(0))
                if v:
                    root = [0] * n
                    root[i], root[j] = 1, -1
                    coeffs[x_(root)] = v
        for j in range(i, n):
            v = m.get((i, n + j), Fraction(0))
            if v:
                root = [0] * n
                root[i] += 1
                root[j] += 1
                coeffs[x_(root)] = v / 2 if i == j else v
            v = m.get((n + i, j), Fraction(0))
            if v:
                root = [0] * n
                root[i] -= 1
                root[j] -= 1
                coeffs[x_(root)] = v / 2 if i == j else v
    check = {}
    for b, c in coeffs.items():
        for rc, v in _sp_matrix(b, n).items():
            check[rc] = check.get(rc, Fraction(0)) + c * v
    if {k: v for k, v in check.items() if v} != {k: v for k, v in m.items() if v}:
        raise ValueError("matrix does not lie in sp_2n")
    return coeffs


def _expand_vec(v, n):
    coeffs = {}
    for r, c in v.items():
        if not c:
            continue
        root = [0] * n
        if r < n:
            root[r] = 1
        else:
            root[r - n] = -1
        coeffs[x_(root)] = c
    return coeffs


def _bracket_pair(a, b, n):
    """[a, b] for basis elements, as {BasisElement: Fraction}."""
    if a.kind == "z" or b.kind == "z":
        return {}
    a_sp, b_sp = is_sp(a), is_sp(b)
    if a_sp and b_sp:
        ma, mb = _sp_matrix(a, n), _sp_matrix(b, n)
        comm = {}
        for (r, k), va in ma.items():
            for (k2, c), vb in mb.items():
                if k == k2:
                    comm[(r, c)] = comm.get((r, c), Fraction(0)) + va * vb
        for (r, k), vb in mb.items():
            for (k2, c), va in ma.items():
                if k == k2:
                    comm[(r, c)] = comm.get((r, c), Fraction(0)) - vb * va
        return _expand_sp({k: v for k, v in comm.items() if v}, n)
    if a_sp and _is_vec(b):
        ma, vb = _sp_matrix(a, n), _vec(b, n)
        out = {}
        for (r, c), va in ma.items():
            if c in vb:
                out[r] = out.get(r, Fraction(0)) + va * vb[c]
        return _expand_vec(out, n)
    if _is_vec(a) and b_sp:
        return {k: -v for k, v in _bracket_pair(b, a, n).items()}
    # Heisenberg part: [u, v] = omega(u, v) z with omega(e_i, e_{n+i}) = 1
    va, vb = _vec(a, n), _vec(b, n)
    omega = Fraction(0)
    for r, ca in va.items():
        for c, cb in vb.items():
            if c == r + n and r < n:
                omega += ca * cb
            elif r == c + n and c < n:
                omega -= ca * cb
    return {Z: omega} if omega else {}


@lru_cache(maxsize=None)
def structure_constants(n):
    """All basis brackets, as {(a, b): ((elem, Fraction), ...)}; cached per rank."""
    table = {}
    elems = basis(n)
    for a in elems:
        for b in elems:
            res = _bracket_pair(a, b, n)
            if res:
                table[(a, b)] = tuple(sorted(res.items(), key=lambda kv: basis_index(n)[kv[0]]))
    return table


def bracket_basis(a, b, n):
    """[a, b] for two basis elements as a list of (BasisElement, Fraction)."""
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
    """Bilinear antisymmetric extension of the basis bracket."""
    x._check(y)
    if n is not None and n != x.n:
        raise ValueError(f"rank mismatch: elements have rank {x.n}, got {n}")
    table = structure_constants(x.n)
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            cab = ca * cb
            for elem, frac in table.get((a, b), ()):
                cur = out.get(elem)
                out[elem] = cab * frac if cur is None else cur + cab * frac
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
