"""Exact scalar arithmetic: multivariate rational functions over the rationals.

Every computation declares its symbol set up front (the central-charge symbol
``s`` is always present; the central element acts by ``s^2`` throughout the
package).  Scalars are kept in canonical reduced form, so equality is
syntactic and decidable.  This module owns the fixed symbol ordering, the
canonical form, the exact substitution rule, and the ``^``/``/`` surface
syntax used by the CLI.

The canonical form is sympy's reduced pair over the integers: an integer
polynomial over either a positive int coprime to its content, or an integer
polynomial coprime to it with a positive leading coefficient.  It is also
the printed form.  Polynomials -- every scalar of the first kind, ``(s^2-1)/2``
included -- are added, subtracted, multiplied and raised to powers as
plain int dicts, with one gcd of ints to restore the form.  A sum or a
difference is one pass over both numerators, rescaled only when the
denominators differ, and a product with a single-term factor is one pass
over the other factor.  A division of polynomials that comes out even stays
a polynomial.  Only a fraction with a non-constant denominator goes through
sympy's ``cancel``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from sympy import ZZ
from sympy.polys.rings import ring as _sympy_ring

_NAME_OK = lambda t: t.isidentifier()


class ParseError(ValueError):
    """Malformed textual input; carries the offending token and position."""

    def __init__(self, message, text=None, pos=None):
        if text is not None and pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


# Polynomials are {exponent tuple: int} dicts holding no zero coefficient.

def _scale(poly, k):
    return poly if k == 1 else {m: k * c for m, c in poly.items()}


def _lincomb(p, a, q, b):
    """a*p + b*q for nonzero ints a and b, in one pass over each."""
    out = dict(p) if a == 1 else {m: a * c for m, c in p.items()}
    get = out.get
    for m, c in q.items():
        c = get(m, 0) + b * c
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _mul(p, q, mono):
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        # times one term: the monomials stay distinct and nothing cancels
        ((m2, c2),) = q.items()
        if len(p) == 1:
            ((m1, c1),) = p.items()
            return {mono(m1, m2): c1 * c2}
        return {mono(m1, m2): c1 * c2 for m1, c1 in p.items()}
    out = {}
    get = out.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono(m1, m2)
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class ScalarContext:
    """A declared, ordered symbol set and the rational-function field over it.

    The symbol ``s`` is mandatory.  Scalars from different contexts never mix;
    declare every symbol a computation needs before starting it.
    """

    def __init__(self, symbols=("s",)):
        symbols = tuple(symbols)
        if "s" not in symbols:
            raise ValueError("the symbol set must contain 's'")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in {symbols}")
        for name in symbols:
            if not _NAME_OK(name):
                raise ValueError(f"invalid symbol name {name!r}")
        self.symbols = symbols
        self._ring = _sympy_ring(",".join(symbols), ZZ)[0]
        self._origin = origin = (0,) * len(symbols)
        # adds two exponent tuples; a constant factor keeps the other tuple,
        # so products by constants build no new monomials
        mono = self._ring.monomial_mul
        self._mono = lambda a, b: a if b == origin else b if a == origin else mono(a, b)
        self._index = {name: k for k, name in enumerate(symbols)}
        # rational constants by value (an int and an equal Fraction share an
        # entry): coercion of ints and Fractions is hot
        self._constants = {}
        self.zero = Scalar(self, {}, 1)
        self.one = self.rational(1)
        self._gens = {
            name: Scalar(self, dict(g), 1) for name, g in zip(symbols, self._ring.gens)
        }
        # images of basis elements and monomials under the realizations
        # (oak.morphisms) and the offsets of Laurent-module characters
        # (oak.characters), which live and die with this context
        self.memo = {}

    def __repr__(self):
        return f"ScalarContext({','.join(self.symbols)})"

    def symbol(self, name):
        try:
            return self._gens[name]
        except KeyError:
            raise ValueError(f"symbol {name!r} not declared in {self!r}") from None

    @property
    def s(self):
        return self._gens["s"]

    @property
    def zdot(self):
        """The central charge: z acts by s^2 everywhere in this package."""
        return self._gens["s"] ** 2

    def rational(self, p, q=1):
        key = p if type(p) is int and type(q) is int and q == 1 else Fraction(p, q)
        value = self._constants.get(key)
        if value is None:
            fr = Fraction(key)
            num = {self._origin: fr.numerator} if fr else {}
            value = self._constants[key] = Scalar(self, num, fr.denominator)
        return value

    def coerce(self, value):
        if isinstance(value, Scalar):
            if value.ctx is not self:
                raise ValueError("scalar belongs to a different context")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise TypeError(f"cannot coerce {value!r} to a scalar")

    def _lift(self, den):
        """A denominator as a polynomial."""
        return {self._origin: den} if type(den) is int else den

    def _poly(self, num, den):
        """The scalar num/den of a polynomial over a positive int."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        return Scalar(self, num, den)

    def _fraction(self, num, den):
        """The scalar num/den of two polynomials, reduced by sympy's cancel."""
        p, q = self._ring.from_dict(num).cancel(self._ring.from_dict(den))
        return Scalar(self, dict(p), int(q.LC) if q.is_ground else dict(q))

    def parse(self, text):
        """Parse ``(s^2-1)/2`` style syntax into a scalar."""
        tokens = tokenize(text)
        parser = _ScalarParser(self, tokens, text)
        try:
            value = parser.parse_expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", text) from None
        parser.expect_end()
        return value


class Scalar:
    """Element of the declared rational-function field, in canonical form.

    ``num`` is a polynomial with integer coefficients, a dict from exponent
    tuples (in the context's symbol order) to nonzero ints.  ``den`` is a
    positive int coprime to the content of ``num`` (1 for zero), or, when
    the reduced denominator is not a constant, such a dict coprime to
    ``num`` with a positive leading coefficient.  Only ``ScalarContext`` and
    this class build scalars.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        self.ctx = ctx
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("scalars from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            cached = self.ctx._constants.get(other)
            return self.ctx.rational(other) if cached is None else cached
        return None

    # Over int denominators the result only needs its content reduced; a
    # true fraction goes through sympy's cancel.

    def _sum(self, other, sign):
        """self + sign * other for sign = 1 or -1."""
        ctx, d1, d2 = self.ctx, self.den, other.den
        if type(d1) is int and type(d2) is int:
            g = d1 if d1 == d2 else gcd(d1, d2)
            num = _lincomb(self.num, d2 // g, other.num, sign * (d1 // g))
            return ctx._poly(num, d1 // g * d2)
        d1, d2, mono = ctx._lift(d1), ctx._lift(d2), ctx._mono
        num = _lincomb(_mul(self.num, d2, mono), 1, _mul(other.num, d1, mono), sign)
        return ctx._fraction(num, _mul(d1, d2, mono))

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._sum(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx, d1, d2 = self.ctx, self.den, other.den
        num = _mul(self.num, other.num, ctx._mono)
        if type(d1) is int and type(d2) is int:
            return ctx._poly(num, d1 * d2)
        return ctx._fraction(num, _mul(ctx._lift(d1), ctx._lift(d2), ctx._mono))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero scalar")
        ctx, n1, d1, n2, d2 = self.ctx, self.num, self.den, other.num, other.den
        if type(d1) is int and type(d2) is int:
            # n2 = c * p with c > 0 its content: (n1/d1) / (n2/d2) is
            # (n1/p) * d2 / (d1 * c), and since p is primitive, n1/p is an
            # integer polynomial whenever p divides n1 at all (Gauss's lemma)
            c = gcd(*n2.values())
            if len(n2) == 1 and ctx._origin in n2:
                return ctx._poly(_scale(n1, n2[ctx._origin] // c * d2), d1 * c)
            divisor = ctx._ring.from_dict({m: v // c for m, v in n2.items()})
            quotient, remainder = ctx._ring.from_dict(n1).div(divisor)
            if not remainder:
                return ctx._poly(_scale(dict(quotient), d2), d1 * c)
        return ctx._fraction(
            _mul(n1, ctx._lift(d2), ctx._mono), _mul(ctx._lift(d1), n2, ctx._mono)
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            # as for ints and Fractions, 0 ** 0 is 1
            return self.ctx.one
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("negative power of zero scalar")
            return self.ctx.one / self ** -k
        # powers of a reduced pair are reduced
        num, den, mono = self.num, self.den, self.ctx._mono
        for _ in range(k - 1):
            num = _mul(num, self.num, mono)
            den = den * self.den if type(den) is int else _mul(den, self.den, mono)
        return Scalar(self.ctx, num, den)

    def __neg__(self):
        return Scalar(self.ctx, {m: -c for m, c in self.num.items()}, self.den)

    def __bool__(self):
        return bool(self.num)

    # Both sides are canonical and of one context, so equality is equality of
    # the pairs (an int denominator never equals a dict one).

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        den = self.den
        if type(den) is not int:
            den = frozenset(den.items())
        return hash((frozenset(self.num.items()), den))

    @property
    def is_zero(self):
        return not self.num

    @property
    def is_one(self):
        return self == self.ctx.one

    def is_rational(self):
        return type(self.den) is int and self.num.keys() <= {self.ctx._origin}

    def as_fraction(self):
        """Exact rational value; raises if any symbol actually occurs."""
        if not self.is_rational():
            raise ValueError(f"{self} is not a plain rational")
        return Fraction(self.num.get(self.ctx._origin, 0), self.den)

    def is_integer(self):
        return self.is_rational() and self.den == 1

    def evaluate(self, assignment):
        """Substitute Fractions for every occurring symbol; exact result.

        ``assignment`` maps symbol names to Fractions (or ints).  Raises
        ZeroDivisionError when the denominator vanishes at the point.
        """
        values = []
        for name in self.ctx.symbols:
            v = assignment.get(name)
            values.append(None if v is None else Fraction(v))

        def ev(poly):
            total = Fraction(0)
            for mon, c in poly.items():
                for e, v in zip(mon, values):
                    if e:
                        if v is None:
                            raise ValueError(
                                "no value supplied for an occurring symbol"
                            )
                        c *= v ** e
                total += c
            return total

        den = ev(self.ctx._lift(self.den))
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return ev(self.num) / den

    def subs_symbol(self, name, value):
        """Substitute one symbol by a Fraction, staying in the same context."""
        ctx, idx = self.ctx, self.ctx._index[name]
        value = ctx.coerce(Fraction(value))

        def sub(poly):
            total = ctx.zero
            for mon, c in poly.items():
                rest = Scalar(ctx, {mon[:idx] + (0,) + mon[idx + 1:]: c}, 1)
                total = total + rest * value ** mon[idx]
            return total

        den = sub(ctx._lift(self.den))
        if not den:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return sub(self.num) / den

    def sort_key(self):
        return (
            tuple(sorted(self.num.items())),
            tuple(sorted(self.ctx._lift(self.den).items())),
        )

    def __str__(self):
        num = _poly_str(self.num, self.ctx.symbols)
        if self.den == 1:
            return num
        den = _poly_str(self.ctx._lift(self.den), self.ctx.symbols)
        if _is_sum(num):
            num = f"({num})"
        if _is_sum(den) or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _is_sum(text):
    depth = 0
    for ch in text[1:]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return True
    return False


def _poly_str(poly, symbols):
    """A polynomial with integral coefficients as text."""
    if not poly:
        return "0"
    pieces = []
    # descending lex over exponent vectors: deterministic and stable
    for mon, c in sorted(poly.items(), reverse=True):
        factors = []
        for name, e in zip(symbols, mon):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        pieces.append(("-" if c < 0 else "+", "*".join(factors)))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += sign + body
    return text



# ---------------------------------------------------------------------------
# tokenizer shared with the element-syntax layer
# ---------------------------------------------------------------------------

def tokenize(text):
    """Split into (kind, value, pos) tokens: int, name, X[...] groups, ops."""
    tokens = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < size and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == "X" and j < size and text[j] == "[":
                k = text.find("]", j)
                if k < 0:
                    raise ParseError("unterminated 'X[' group", text, i)
                tokens.append(("root", text[j + 1:k], i))
                i = k + 1
            else:
                tokens.append(("name", name, i))
                i = j
        elif ch in "+-*/^(),:;=":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(("end", "", size))
    return tokens


class _ScalarParser:
    """Recursive-descent parser for the scalar grammar (+ - * / ^ parens)."""

    def __init__(self, ctx, tokens, text):
        self.ctx = ctx
        self.tokens = tokens
        self.text = text
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_end(self):
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", self.text, pos)

    def parse_expr(self):
        kind, _, _ = self.peek()
        negate = False
        if kind in ("+", "-"):
            negate = self.next()[0] == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.parse_factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    raise ParseError("division by zero", self.text, self.peek()[2])
                value = value / rhs
        return value

    def parse_factor(self):
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
            value = self.parse_factor()
            return -value if sign < 0 else value
        value = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            ekind, evalue, epos = self.next()
            esign = 1
            if ekind == "-":
                esign = -1
                ekind, evalue, epos = self.next()
            if ekind != "int":
                raise ParseError("exponent must be an integer", self.text, epos)
            value = value ** (esign * int(evalue))
        return value

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            return self.ctx.rational(int(value))
        if kind == "name":
            if value not in self.ctx._index:
                raise ParseError(f"unknown symbol {value!r}", self.text, pos)
            return self.ctx.symbol(value)
        if kind == "(":
            inner = self.parse_expr()
            ckind, cvalue, cpos = self.next()
            if ckind != ")":
                raise ParseError("expected ')'", self.text, cpos)
            return inner
        raise ParseError(f"unexpected token {value!r}", self.text, pos)
