"""Textual grammar for elements and scalars, shared with the CLI.

    element := ['-'] term (('+'|'-') term)* ;
    term    := (factor ('*'|'/'))* direction ;
    factor  := INT | NAME ['^' INT] | '(' ['-'] group (('+'|'-') group)* ')' ;
    group   := factor (('*'|'/') factor)* ;
    direction := 'd'IDX | 'dmu' ;

NAME is a scalar variable ("mu1", or an auxiliary unknown of the field)
or a t variable ("t2"); exponents may be negative ("t2^-1", no
parentheses).  Parenthesized sums distribute, so "(t1+t2)*dmu" parses to
t1*dmu + t2*dmu; a '/' divisor must be scalar.  "dmu" expands against
the ambient algebra's mu prefix.  The scalar sub-grammar accepts
everything the formatter emits: rationals "p/q", monomials "mu1^2*mu3",
'+'/'-'-joined polynomials, and quotients "(num)/(den)".  parse and
format are mutually inverse on canonical forms.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .errors import ParseError
from .scalars import MuPolynomial, Scalar, ScalarField
from .witt import CartanElement, Exponent, WittAlgebra, WittElement


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


_OPS = "*^()+-/"

# Deepest nesting of parentheses accepted; each level costs a few
# interpreter frames, so this keeps deep input a ParseError rather than
# a RecursionError.
MAX_NESTING = 100

# A term under construction: distributed summands (coefficient, exponent).
_Parts = List[Tuple[Scalar, Exponent]]


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            end = pos + 1
            while end < size and text[end].isdigit():
                end += 1
            tokens.append(_Token("int", text[pos:end], pos))
            pos = end
            continue
        if ch.isalpha():
            end = pos + 1
            while end < size and text[end].isalpha():
                end += 1
            while end < size and text[end].isdigit():
                end += 1
            tokens.append(_Token("ident", text[pos:end], pos))
            pos = end
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", size))
    return tokens


def _t_index(text: str) -> Optional[int]:
    if text[0] == "t" and text[1:].isdigit():
        return int(text[1:])
    return None


def _d_index(text: str) -> Optional[int]:
    if text[0] == "d" and text[1:].isdigit():
        return int(text[1:])
    return None


def _times(c: Scalar, fc: Scalar) -> Scalar:
    # Most factors carry a unit coefficient; Scalars are immutable, so the
    # other side can be reused as the product.
    if fc.is_one():
        return c
    if c.is_one():
        return fc
    return c * fc


def _merge(parts: _Parts, factors: _Parts) -> _Parts:
    return [
        (_times(c, fc), tuple(a + b for a, b in zip(exp, fexp)))
        for c, exp in parts
        for fc, fexp in factors
    ]


def _as_scalar(parts: _Parts, pos: int) -> Scalar:
    """Collapse a distributed factor into one Scalar; t parts are rejected."""
    if any(any(exp) for _, exp in parts):
        raise ParseError("divisor must be a scalar", pos)
    total = parts[0][0]
    for c, _ in parts[1:]:
        total = total + c
    return total


class _Parser:
    """Single-token-lookahead recursive descent over the token list."""

    def __init__(self, text: str, field: ScalarField):
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, chars: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in chars

    def open_group(self) -> None:
        """Consume '(' and enter one nesting level."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)

    def close_group(self) -> None:
        self.expect_op(")")
        self.depth -= 1

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            shown = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"found {shown}", tok.pos, (op,))
        self.advance()

    def integer(self, allow_negative: bool = False) -> int:
        sign = 1
        if allow_negative and self.at_op("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError("expected an integer", tok.pos, ("integer",))
        self.advance()
        return sign * int(tok.text)

    # -- pure scalar expressions (no t variables) -------------------------

    def scalar_expr(self) -> Scalar:
        value = self.scalar_unary()
        while self.at_op("+-"):
            op = self.advance().text
            rhs = self.scalar_unary()
            value = value + rhs if op == "+" else value - rhs
        return value

    def scalar_unary(self) -> Scalar:
        negative = False
        while self.at_op("-"):
            self.advance()
            negative = not negative
        value = self.scalar_product()
        return -value if negative else value

    def scalar_product(self) -> Scalar:
        value = self.scalar_atom()
        while self.at_op("*/"):
            op = self.advance().text
            rhs = self.scalar_atom()
            value = value * rhs if op == "*" else value / rhs
        return value

    def scalar_atom(self) -> Scalar:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return self.field.from_int(int(tok.text))
        if tok.kind == "ident":
            return self.scalar_var()
        if tok.kind == "op" and tok.text == "(":
            self.open_group()
            value = self.scalar_expr()
            self.close_group()
            return value
        shown = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a scalar, found {shown}", tok.pos,
                         ("integer", "variable", "("))

    def scalar_var(self) -> Scalar:
        """NAME ['^' INT], built as the monomial or its reciprocal directly."""
        tok = self.advance()
        if tok.text not in self.field.names:
            raise ParseError(f"unknown scalar variable {tok.text!r}", tok.pos)
        e = 1
        if self.at_op("^"):
            self.advance()
            e = self.integer(allow_negative=True)
        index = self.field.names.index(tok.text)
        mono = tuple(abs(e) if i == index else 0 for i in range(self.field.arity))
        power = Scalar(MuPolynomial.one(self.field.arity).shift(mono))
        return power if e >= 0 else power.inverse()

    # -- elements ---------------------------------------------------------

    def element(self, algebra: WittAlgebra) -> WittElement:
        negative = False
        if self.at_op("+-"):
            negative = self.advance().text == "-"
        total = self.term(algebra, negative)
        while True:
            tok = self.peek()
            if tok.kind == "end":
                return total
            if self.at_op("+-"):
                total = total + self.term(algebra, self.advance().text == "-")
                continue
            raise ParseError(f"found {tok.text!r}", tok.pos, ("+", "-", "end of input"))

    def term(self, algebra: WittAlgebra, negative: bool) -> WittElement:
        start = self.field.from_int(-1) if negative else self.field.one()
        parts: _Parts = [(start, (0,) * algebra.m)]
        consumed = False
        while True:
            tok = self.peek()
            if tok.kind == "ident" and (tok.text == "dmu" or _d_index(tok.text) is not None):
                return self._direction(algebra, parts)
            parts = _merge(parts, self.factor(algebra))
            consumed = True
            while self.at_op("/"):
                slash = self.advance()
                divisor = _as_scalar(self.factor(algebra), slash.pos)
                parts = [(c / divisor, exp) for c, exp in parts]
            if self.at_op("*"):
                self.advance()
                continue
            tok = self.peek()
            terminal = tok.kind == "end" or self.at_op("+-")
            if terminal and consumed and all(c.is_zero for c, _ in parts):
                return algebra.zero()
            raise ParseError("term must end with a direction", tok.pos, ("*", "d<i>", "dmu"))

    def factor(self, algebra: WittAlgebra) -> _Parts:
        """One multiplicative factor, distributed: INT, NAME[^e], or a group."""
        zero_exp = (0,) * algebra.m
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return [(self.field.from_int(int(tok.text)), zero_exp)]
        if tok.kind == "ident":
            idx = _t_index(tok.text)
            if idx is None:
                return [(self.scalar_var(), zero_exp)]
            self.advance()
            if not 1 <= idx <= algebra.m:
                raise ParseError(f"t index {idx} out of range 1..{algebra.m}", tok.pos)
            e = 1
            if self.at_op("^"):
                self.advance()
                e = self.integer(allow_negative=True)
            exponent = tuple(e if j == idx - 1 else 0 for j in range(algebra.m))
            return [(self.field.one(), exponent)]
        if tok.kind == "op" and tok.text == "(":
            self.open_group()
            parts = self.group_sum(algebra)
            self.close_group()
            return parts
        shown = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a factor, found {shown}", tok.pos,
                         ("integer", "variable", "t<i>", "("))

    def group_sum(self, algebra: WittAlgebra) -> _Parts:
        negative = False
        if self.at_op("+-"):
            negative = self.advance().text == "-"
        total = self.group_product(algebra, negative)
        while self.at_op("+-"):
            op = self.advance().text
            total = total + self.group_product(algebra, op == "-")
        return total

    def group_product(self, algebra: WittAlgebra, negative: bool) -> _Parts:
        start = self.field.from_int(-1) if negative else self.field.one()
        parts: _Parts = [(start, (0,) * algebra.m)]
        while True:
            parts = _merge(parts, self.factor(algebra))
            while self.at_op("/"):
                slash = self.advance()
                divisor = _as_scalar(self.factor(algebra), slash.pos)
                parts = [(c / divisor, exp) for c, exp in parts]
            if self.at_op("*"):
                self.advance()
                continue
            return parts

    def _direction(self, algebra: WittAlgebra, parts: _Parts) -> WittElement:
        tok = self.advance()
        if tok.text == "dmu":
            base = algebra.dmu_cartan()
        else:
            idx = _d_index(tok.text)
            if not 1 <= idx <= algebra.m:
                raise ParseError(f"d index {idx} out of range 1..{algebra.m}", tok.pos)
            base = CartanElement.unit(algebra.m, idx - 1, self.field.arity)
        total = algebra.zero()
        for coeff, exponent in parts:
            total = total + WittElement(algebra.m, {exponent: base.scale(coeff)})
        return total


def parse_element(text: str, algebra: WittAlgebra) -> WittElement:
    """Parse element text against the algebra's rank, prefix and field."""
    return _Parser(text, algebra.field).element(algebra)


def parse_scalar(text: str, field: ScalarField) -> Scalar:
    parser = _Parser(text, field)
    value = parser.scalar_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos, ("end of input",))
    return value
