"""Independent matrix/vector bracket oracle for the test suite.

Built directly from the defining realization (2n x 2n matrices acting on
C^2n, symplectic pairing to the center) with its own expansion logic, so the
cached structure constants in oak.liealg are checked against a separate code
path.  Everything is exact Fraction arithmetic on sparse dicts.
"""

from fractions import Fraction
from functools import lru_cache

from oak.liealg import Z, basis, x_


def is_sp(b):
    return b.kind == "h" or (b.kind == "x" and sum(abs(c) for c in b.tag) == 2)


def is_vec(b):
    return b.kind == "x" and sum(abs(c) for c in b.tag) == 1


def matrix_of(b, n):
    """Sparse matrix of an sp_2n basis element, straight from the table."""
    one = Fraction(1)
    m = {}

    def add(r, c, v):
        m[(r, c)] = m.get((r, c), Fraction(0)) + v

    if b.kind == "h":
        i = b.tag[0] - 1
        add(i, i, one)
        add(n + i, n + i, -one)
        return m
    nz = [(k, c) for k, c in enumerate(b.tag) if c]
    if len(nz) == 1:
        i, c = nz[0]
        if c == 2:
            add(i, n + i, one)
            add(i, n + i, one)
        else:
            add(n + i, i, one)
            add(n + i, i, one)
        return m
    (i, ci), (j, cj) = nz
    if (ci, cj) == (1, 1):
        add(i, n + j, one)
        add(j, n + i, one)
    elif (ci, cj) == (-1, -1):
        add(n + i, j, one)
        add(n + j, i, one)
    elif (ci, cj) == (1, -1):
        add(i, j, one)
        add(n + j, n + i, -one)
    else:
        add(j, i, one)
        add(n + i, n + j, -one)
    return m


@lru_cache(maxsize=None)
def sp_matrices(n):
    """{b: matrix_of(b, n)} for the sp_2n basis elements, in basis order;
    built once per rank and never changed in place."""
    return {b: matrix_of(b, n) for b in basis(n) if is_sp(b)}


@lru_cache(maxsize=None)
def pivots(n):
    """{position: (b, entry)}: the first entry of each sp basis matrix,
    in basis order; built once per rank."""
    out = {}
    for b, m in sp_matrices(n).items():
        rc, entry = next(iter(m.items()))
        out[rc] = (b, entry)
    return out


def vector_of(b, n):
    k, c = next((k, c) for k, c in enumerate(b.tag) if c)
    return {k if c > 0 else n + k: Fraction(1)}


def mat_commutator(ma, mb):
    out = {}
    for (r, k), va in ma.items():
        for (k2, c), vb in mb.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), Fraction(0)) + va * vb
    for (r, k), vb in mb.items():
        for (k2, c), va in ma.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), Fraction(0)) - vb * va
    return {k: v for k, v in out.items() if v}


def mat_vec(m, v):
    out = {}
    for (r, c), mv in m.items():
        if c in v:
            out[r] = out.get(r, Fraction(0)) + mv * v[c]
    return {k: val for k, val in out.items() if val}


def symplectic_form(u, v, n):
    total = Fraction(0)
    for r, cu in u.items():
        for c, cv in v.items():
            if r < n and c == r + n:
                total += cu * cv
            elif c < n and r == c + n:
                total -= cu * cv
    return total


def expand_in_sp_basis(m, n):
    """Solve for the coordinates of a matrix in the sp basis.

    The basis elements have pairwise disjoint entry supports, so each entry
    determines one coordinate; the reconstruction is verified afterwards.
    """
    coords = {}
    for rc, (b, pivot) in pivots(n).items():
        v = m.get(rc, Fraction(0))
        if v:
            coords[b] = v / pivot
    mats = sp_matrices(n)
    rebuilt = {}
    for b, coeff in coords.items():
        for rc, v in mats[b].items():
            rebuilt[rc] = rebuilt.get(rc, Fraction(0)) + coeff * v
    assert {k: v for k, v in rebuilt.items() if v} == m, "not an sp matrix"
    return coords


def expand_in_vector_basis(v, n):
    coords = {}
    for r, c in v.items():
        root = [0] * n
        if r < n:
            root[r] = 1
        else:
            root[r - n] = -1
        coords[x_(root)] = c
    return coords


def bracket_oracle(a, b, n):
    """[a, b] as {BasisElement: Fraction}, computed from the realization."""
    if a.kind == "z" or b.kind == "z":
        return {}
    mats = sp_matrices(n)
    if is_sp(a) and is_sp(b):
        return expand_in_sp_basis(mat_commutator(mats[a], mats[b]), n)
    if is_sp(a) and is_vec(b):
        return expand_in_vector_basis(mat_vec(mats[a], vector_of(b, n)), n)
    if is_vec(a) and is_sp(b):
        return {
            k: -v
            for k, v in expand_in_vector_basis(mat_vec(mats[b], vector_of(a, n)), n).items()
        }
    omega = symplectic_form(vector_of(a, n), vector_of(b, n), n)
    return {Z: omega} if omega else {}
