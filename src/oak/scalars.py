"""Exact scalar arithmetic: multivariate rational functions over the rationals.

Every computation declares its symbol set up front (the central-charge symbol
``s`` is always present; the central element acts by ``s^2`` throughout the
package).  Scalars are kept in canonical reduced form, so equality is
syntactic and decidable.  The reduction itself is delegated to sympy's sparse
polynomial rings; this module owns the fixed symbol ordering, the exact
substitution rule, and the ``^``/``/`` surface syntax used by the CLI.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.fields import field as _sympy_field

_NAME_OK = lambda t: t.isidentifier()


class ParseError(ValueError):
    """Malformed textual input; carries the offending token and position."""

    def __init__(self, message, text=None, pos=None):
        if text is not None and pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


def _to_fraction(q):
    # sympy QQ elements are gmpy2.mpq or PythonRational
    return Fraction(int(q.numerator), int(q.denominator))


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
        self._field, *gens = _sympy_field(",".join(symbols), QQ)
        self._ring = self._field.ring
        self._index = {name: k for k, name in enumerate(symbols)}
        self.zero = Scalar(self, self._field.zero)
        self.one = Scalar(self, self._field.one)
        self._gens = {name: Scalar(self, g) for name, g in zip(symbols, gens)}
        # small-constant cache: coercion of ints and Fractions is hot
        self._ground = {}
        # images of basis elements and monomials under the realizations
        # (oak.morphisms), which live and die with this context
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
        fr = Fraction(p, q)
        return Scalar(self, self._field.ground_new(QQ(fr.numerator, fr.denominator)))

    def coerce(self, value):
        if isinstance(value, Scalar):
            if value.ctx is not self:
                raise ValueError("scalar belongs to a different context")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise TypeError(f"cannot coerce {value!r} to a scalar")

    def parse(self, text):
        """Parse ``(s^2-1)/2`` style syntax into a scalar."""
        tokens = tokenize(text)
        parser = _ScalarParser(self, tokens, text)
        value = parser.parse_expr()
        parser.expect_end()
        return value


class Scalar:
    """Element of the declared rational-function field, in reduced form."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, raw):
        self.ctx = ctx
        self.raw = raw

    def _coerce_raw(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("scalars from different contexts")
            return other.raw
        if isinstance(other, int):
            key = (other, 1)
        elif isinstance(other, Fraction):
            key = (other.numerator, other.denominator)
        else:
            return None
        cached = self.ctx._ground.get(key)
        if cached is None:
            cached = self.ctx._field.ground_new(QQ(*key))
            self.ctx._ground[key] = cached
        return cached

    # Polynomial fast paths: when both denominators are 1 the ring result is
    # already canonical, and sympy's per-operation cancel() is pure overhead.

    def __add__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        one = self.ctx._ring.one
        if self.raw.denom == one and raw.denom == one:
            return Scalar(
                self.ctx, self.ctx._field.raw_new(self.raw.numer + raw.numer, one)
            )
        return Scalar(self.ctx, self.raw + raw)

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        one = self.ctx._ring.one
        if self.raw.denom == one and raw.denom == one:
            return Scalar(
                self.ctx, self.ctx._field.raw_new(self.raw.numer - raw.numer, one)
            )
        return Scalar(self.ctx, self.raw - raw)

    def __rsub__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        one = self.ctx._ring.one
        if self.raw.denom == one and raw.denom == one:
            return Scalar(
                self.ctx, self.ctx._field.raw_new(raw.numer - self.raw.numer, one)
            )
        return Scalar(self.ctx, raw - self.raw)

    def __mul__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        one = self.ctx._ring.one
        if self.raw.denom == one and raw.denom == one:
            return Scalar(
                self.ctx, self.ctx._field.raw_new(self.raw.numer * raw.numer, one)
            )
        return Scalar(self.ctx, self.raw * raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        if not raw:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.ctx, self.raw / raw)

    def __rtruediv__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        if not self.raw:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.ctx, raw / self.raw)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and not self.raw:
            raise ZeroDivisionError("negative power of zero scalar")
        return Scalar(self.ctx, self.raw ** k)

    def __neg__(self):
        return Scalar(self.ctx, -self.raw)

    def __bool__(self):
        return bool(self.raw)

    def __eq__(self, other):
        raw = self._coerce_raw(other)
        if raw is None:
            return NotImplemented
        return self.raw == raw

    def __hash__(self):
        return hash(self.raw)

    @property
    def is_zero(self):
        return not self.raw

    @property
    def is_one(self):
        return self.raw == self.ctx._field.one

    def is_rational(self):
        # the field keeps rationals split over numer/denom integer polys
        return (not self.raw.numer or self.raw.numer.is_ground) and (
            self.raw.denom.is_ground
        )

    def as_fraction(self):
        """Exact rational value; raises if any symbol actually occurs."""
        if not self.is_rational():
            raise ValueError(f"{self} is not a plain rational")
        if not self.raw.numer:
            return Fraction(0)
        num = _to_fraction(self.raw.numer.coeff(1))
        den = _to_fraction(self.raw.denom.coeff(1))
        return num / den

    def is_integer(self):
        return self.is_rational() and self.as_fraction().denominator == 1

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
            for mon, coef in poly.terms():
                c = _to_fraction(coef)
                for e, v in zip(mon, values):
                    if e:
                        if v is None:
                            raise ValueError(
                                "no value supplied for an occurring symbol"
                            )
                        c *= v ** e
                total += c
            return total

        den = ev(self.raw.denom)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return ev(self.raw.numer) / den

    def subs_symbol(self, name, value):
        """Substitute one symbol by a Fraction, staying in the same context."""
        value = Fraction(value)
        idx = self.ctx._index[name]
        qv = QQ(value.numerator, value.denominator)

        def sub(poly):
            out = {}
            for mon, coef in poly.terms():
                e = mon[idx]
                if e:
                    coef = coef * qv ** e
                    mon = mon[:idx] + (0,) + mon[idx + 1:]
                out[mon] = out.get(mon, QQ(0)) + coef
            return self.ctx._ring.from_dict(out)

        den = sub(self.raw.denom)
        if not den:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return Scalar(self.ctx, self.ctx._field.new(sub(self.raw.numer), den))

    def sort_key(self):
        def poly_key(poly):
            return tuple(
                sorted((mon, _to_fraction(c)) for mon, c in poly.terms())
            )

        return (poly_key(self.raw.numer), poly_key(self.raw.denom))

    def __str__(self):
        num = _poly_str(self.raw.numer, self.ctx.symbols)
        if self.raw.denom == self.ctx._ring.one:
            return num
        den = _poly_str(self.raw.denom, self.ctx.symbols)
        if _is_sum(num):
            num = f"({num})"
        if _is_sum(den) or "*" in den or "/" in den:
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
    if not poly:
        return "0"
    pieces = []
    # descending lex over exponent vectors: deterministic and stable
    for mon, coef in sorted(poly.terms(), reverse=True):
        c = _to_fraction(coef)
        factors = []
        for name, e in zip(symbols, mon):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag.numerator))
        body = "*".join(factors)
        if mag.denominator != 1:
            body = f"{body}/{mag.denominator}"
        pieces.append(("-" if c < 0 else "+", body))
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
