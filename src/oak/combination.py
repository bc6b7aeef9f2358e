"""Finite linear combinations of basis keys with exact scalar coefficients.

Every element type in oak -- Lie elements, PBW and Weyl normal forms, Verma
and Laurent vectors, elements of U(sp_2n) ⊗ D_n -- is a dict {key: Scalar}
holding no zero coefficient, plus the attributes that fix the space it lives
in.  This base owns that storage and the linear structure; a subclass names
its space attributes in ``SPACE``, validates keys in ``_key``, and adds its
own products and formatting.

``add_scaled`` is the one linear-extension step: it sums scaled elements
into a plain dict of terms, so a map out of a basis builds one element at
the end instead of two per term.  ``accumulate`` is the one bilinear step:
the Lie bracket and every product and commutator of two combinations sum
c1*c2 times a table entry of the two keys, int multiples of keys, into such
a dict; it is the one place where table entries meet scalars.
``commutator_terms`` turns a product table into a commutator table.

Some subclasses restate ``__add__``, ``__sub__``, ``__neg__`` or ``scale`` as
one-line calls to this core.  That gives each class its own function object,
so a profiler that wraps methods class by class (``perfbench/tracer.py``)
counts each element type's arithmetic apart.
"""

from __future__ import annotations

import numbers


def checked_int(value, what):
    """``value`` as an int for a key coordinate; bools, floats and fractions
    are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def add_scaled(out, pairs):
    """Add the sum of c * e over the (e, c) in ``pairs`` into the dict
    ``out`` of terms, in place; entries may cancel to zero scalars."""
    get = out.get
    for e, c in pairs:
        for key, v in e.terms.items():
            v = v * c
            cur = get(key)
            out[key] = v if cur is None else cur + v


def accumulate(out, p, q, table):
    """Add the sum of c1 * c2 * table(k1, k2) over the terms c1 k1 of p and
    c2 k2 of q into the dict ``out`` of terms, in place: pq for a product
    table, [p, q] for a bracket or commutator table.  ``table(k1, k2)`` is
    ((key, k), ...) for nonzero ints k, or empty; entries may cancel to zero
    scalars.  A pair of terms costs one coefficient product, and none when
    its table entry is empty; a k of 1 or -1 costs no further product."""
    get = out.get
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            terms = table(k1, k2)
            if not terms:
                continue
            c = c1 * c2
            for key, k in terms:
                cur = get(key)
                if k == 1:
                    out[key] = c if cur is None else cur + c
                elif k == -1:
                    out[key] = -c if cur is None else cur - c
                else:
                    v = c * k
                    out[key] = v if cur is None else cur + v


def commutator_terms(table, k1, k2):
    """table(k1, k2) - table(k2, k1) for a product table as above, with the
    common keys cancelled in ints: ((key, k), ...) for the nonzero k only."""
    out = dict(table(k1, k2))
    for key, k in table(k2, k1):
        out[key] = out.get(key, 0) - k
    return tuple((key, k) for key, k in out.items() if k)


class Combination:
    """Sparse combination of keys; ``terms`` never holds a zero coefficient."""

    __slots__ = ("ctx", "terms")
    SPACE = ()  # attributes besides ctx that must agree for + and ==

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        clean = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            c = ctx.coerce(c)
            if not c.is_zero:
                clean[key] = c
        self.terms = clean

    def _key(self, key):
        """Validate and normalize one key; called for every input term."""
        return key

    def _like(self, terms):
        """An element of this space from already valid keys and scalars.

        Zero coefficients are dropped, so callers accumulate without pruning.
        """
        out = object.__new__(type(self))
        out.ctx = self.ctx
        for name in self.SPACE:
            setattr(out, name, getattr(self, name))
        out.terms = {k: c for k, c in terms.items() if not c.is_zero}
        return out

    def _same_space(self, other):
        return (
            type(other) is type(self)
            and other.ctx is self.ctx
            and all(getattr(self, a) == getattr(other, a) for a in self.SPACE)
        )

    def _check(self, other):
        if not self._same_space(other):
            raise ValueError(
                f"{type(self).__name__} operands from different contexts or spaces"
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            out[key] = -c if cur is None else cur - c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = self.ctx.coerce(c)
        return self._like({k: v * c for k, v in self.terms.items()})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._same_space(other) and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        return str(self)
