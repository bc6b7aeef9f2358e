"""Textual element syntax shared by the CLI and the string forms.

Basis elements print as ``X[+e1-e2]``, ``X[+2e1]``, ``h1``, ``z``; Weyl
generators as ``t1``, ``d1`` with ``^`` powers; scalars in the reduced
rational-function syntax of :mod:`oak.scalars`.  Everything printed here
re-parses to an equal value.
"""

from __future__ import annotations

import re

from .liealg import LieElement, Z, h_, is_root, x_
from .scalars import ParseError, _ScalarParser, _is_sum, tokenize
from .weyl import WeylElement, weyl_multiply

_ROOT_TERM = re.compile(r"([+-]?)(\d*)e(\d+)")
_T_GEN = re.compile(r"([td])(\d+)$")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_basis(b):
    if b.kind == "z":
        return "z"
    if b.kind == "h":
        return f"h{b.tag[0]}"
    parts = []
    for i, c in enumerate(b.tag, start=1):
        if not c:
            continue
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        parts.append(f"{sign}{mag if mag != 1 else ''}e{i}")
    return "X[" + "".join(parts) + "]"


def _coeff_prefix(c):
    """Render a scalar coefficient ready to precede '*<element>'."""
    text = str(c)
    if _is_sum(text):
        text = f"({text})"
    return text


def _join_signed(pieces):
    """Join (coeff, body) pairs with ' + '/' - ', folding coefficient signs.

    An empty body stands for the unit monomial; the coefficient then prints
    on its own.
    """
    out = []
    for c, body in pieces:
        neg = False
        if not body:
            s = str(c)
            if s.startswith("-") and not _is_sum(s):
                neg, c = True, -c
            text = _coeff_prefix(c)
        elif c.is_one:
            text = body
        elif (-c).is_one:
            neg, text = True, body
        else:
            s = str(c)
            if s.startswith("-") and not _is_sum(s):
                neg, c = True, -c
            text = f"{_coeff_prefix(c)}*{body}"
        if not out:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f" - {text}" if neg else f" + {text}")
    return "".join(out)


def format_lie(el):
    if not el.terms:
        return "0"
    return _join_signed([(c, format_basis(b)) for b, c in el.sorted_terms()])


def format_mono(mono, n, part="g"):
    from .uea import engine

    eng = engine(n, part)
    factors = []
    for idx, e in mono:
        name = format_basis(eng.elements[idx])
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def format_uea(u):
    if not u.terms:
        return "0"
    pieces = [
        (c, format_mono(mono, u.n, u.part)) for mono, c in u.sorted_terms()
    ]
    return _join_signed(pieces)


def format_verma(v):
    if not v.terms:
        return "0"
    pieces = []
    for mono, c in v.sorted_terms():
        body = format_mono(mono, v.n, "g")
        pieces.append((c, f"{body}*v" if body else "v"))
    return _join_signed(pieces)


def format_weyl(w):
    if not w.terms:
        return "0"
    pieces = []
    for (alpha, beta), c in w.sorted_terms():
        factors = []
        for i, e in enumerate(alpha, start=1):
            if e:
                factors.append(f"t{i}" if e == 1 else f"t{i}^{e}")
        for i, e in enumerate(beta, start=1):
            if e:
                factors.append(f"d{i}" if e == 1 else f"d{i}^{e}")
        pieces.append((c, "*".join(factors)))
    return _join_signed(pieces)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_root(body, n, text=None, pos=None):
    body = body.replace(" ", "")
    if not body:
        raise ParseError("empty root", text, pos)
    vec = [0] * n
    consumed = 0
    for m in _ROOT_TERM.finditer(body):
        if m.start() != consumed:
            raise ParseError(f"bad root syntax {body!r}", text, pos)
        consumed = m.end()
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        i = int(m.group(3))
        if not 1 <= i <= n:
            raise ParseError(f"coordinate e{i} out of range for rank {n}", text, pos)
        vec[i - 1] += sign * mag
    if consumed != len(body):
        raise ParseError(f"bad root syntax {body!r}", text, pos)
    if not is_root(vec, n):
        raise ParseError(f"{body!r} is not a rank-{n} root", text, pos)
    return tuple(vec)


def parse_basis_token(token, n, text=None, pos=None):
    if token == "z":
        return Z
    m = re.fullmatch(r"h(\d+)", token)
    if m:
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ParseError(f"Cartan index {i} out of range for rank {n}", text, pos)
        return h_(i)
    raise ParseError(f"unknown basis element {token!r}", text, pos)


class _ElementParser:
    """Additive chains of scalar-coefficient terms over basis-like factors."""

    def __init__(self, ctx, n, text):
        self.ctx = ctx
        self.n = n
        self.text = text
        self.sp = _ScalarParser(ctx, tokenize(text), text)

    def peek(self):
        return self.sp.peek()

    def parse_sum(self, parse_term):
        kind, _, _ = self.peek()
        negate = False
        if kind in ("+", "-"):
            negate = self.sp.next()[0] == "-"
        try:
            total = parse_term(negate)
            while self.peek()[0] in ("+", "-"):
                negate = self.sp.next()[0] == "-"
                total = total + parse_term(negate)
        except RecursionError:
            raise ParseError("expression nested too deeply", self.text) from None
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", self.text, pos)
        return total


def parse_lie_element(text, ctx, n):
    """Parse a linear combination of distinguished basis elements."""
    parser = _ElementParser(ctx, n, text)

    def parse_term(negate):
        coeff = ctx.one
        elem = None
        expect_factor = True
        while True:
            kind, value, pos = parser.peek()
            if kind == "root":
                parser.sp.next()
                if elem is not None:
                    raise ParseError("two basis factors in one term", text, pos)
                elem = x_(parse_root(value, n, text, pos))
            elif kind == "name" and value not in ctx._index:
                parser.sp.next()
                if elem is not None:
                    raise ParseError("two basis factors in one term", text, pos)
                elem = parse_basis_token(value, n, text, pos)
            elif kind in ("int", "name", "("):
                coeff = coeff * parser.sp.parse_factor()
            elif kind == "/":
                parser.sp.next()
                coeff = coeff / parser.sp.parse_factor()
            elif kind == "*":
                parser.sp.next()
                expect_factor = True
                continue
            else:
                break
            expect_factor = False
        if expect_factor and elem is None:
            kind, value, pos = parser.peek()
            raise ParseError(f"expected a term, got {value!r}", text, pos)
        if elem is None:
            if coeff.is_zero:  # "0" round-trips to the zero element
                return LieElement(ctx, n)
            raise ParseError("term has no basis element", text)
        if negate:
            coeff = -coeff
        return LieElement(ctx, n, {elem: coeff})

    return parser.parse_sum(parse_term)


def parse_word(text, ctx, n):
    """Whitespace-separated basis elements, for the normal-order command."""
    out = []
    for token in text.split():
        if token.startswith("X[") and token.endswith("]"):
            out.append(x_(parse_root(token[2:-1], n, text)))
        else:
            out.append(parse_basis_token(token, n, text))
    return out


def parse_weyl_element(text, ctx, n):
    """Parse sums of scalar-coefficient products of t_i and d_i generators."""
    parser = _ElementParser(ctx, n, text)

    def parse_term(negate):
        coeff = ctx.one
        op = WeylElement.unit(ctx, n)
        saw_factor = False
        while True:
            kind, value, pos = parser.peek()
            gen = _T_GEN.match(value) if kind == "name" else None
            if gen and value not in ctx._index:
                parser.sp.next()
                i = int(gen.group(2))
                if not 1 <= i <= n:
                    raise ParseError(
                        f"generator index {i} out of range for rank {n}", text, pos
                    )
                power = 1
                if parser.peek()[0] == "^":
                    parser.sp.next()
                    ekind, evalue, epos = parser.sp.next()
                    if ekind != "int":
                        raise ParseError("exponent must be an integer", text, epos)
                    power = int(evalue)
                factory = WeylElement.t if gen.group(1) == "t" else WeylElement.d
                op = weyl_multiply(op, factory(ctx, n, i, power))
                saw_factor = True
            elif kind in ("int", "name", "("):
                coeff = coeff * parser.sp.parse_factor()
                saw_factor = True
            elif kind == "/":
                parser.sp.next()
                coeff = coeff / parser.sp.parse_factor()
            elif kind == "*":
                parser.sp.next()
                continue
            else:
                break
        if not saw_factor:
            kind, value, pos = parser.peek()
            raise ParseError(f"expected a term, got {value!r}", text, pos)
        if negate:
            coeff = -coeff
        return op.scale(coeff)

    return parser.parse_sum(parse_term)


def parse_module_descriptor(text, ctx, n=None):
    """Parse ``S`` / ``F a1,a2`` / ``G a1,0`` into a module descriptor.

    For ``G`` the quotiented coordinates are the integer entries, which must
    be 0; symbolic or non-integer rational entries stay Laurent.
    """
    from .weyl import FullLaurent, QuotientModule, ShaleWeil

    parts = text.strip().split(None, 1)
    kind = parts[0]
    if kind == "S":
        if len(parts) > 1:
            raise ParseError("'S' takes no base exponents", text)
        if n is None:
            raise ParseError("rank needed for 'S'", text)
        return ShaleWeil(ctx, n)
    if kind not in ("F", "G"):
        raise ParseError(f"unknown module kind {kind!r}", text)
    if len(parts) != 2:
        raise ParseError("missing base exponents", text)
    base = [ctx.parse(p) for p in parts[1].split(",")]
    if n is not None and len(base) != n:
        raise ParseError(f"expected {n} base exponents", text)
    if kind == "F":
        return FullLaurent(ctx, base)
    quotiented = []
    for i, a in enumerate(base, start=1):
        if a.is_rational() and a.as_fraction().denominator == 1:
            if not a.is_zero:
                raise ParseError(
                    f"integer base exponent at coordinate {i} must be 0", text
                )
            quotiented.append(i)
    if not quotiented:
        raise ParseError("'G' needs at least one integer (0) coordinate", text)
    return QuotientModule(ctx, base, quotiented)
