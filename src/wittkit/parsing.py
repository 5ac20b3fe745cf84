"""Textual grammar for elements and scalars, shared with the CLI.

    expression := product (('+'|'-') product)* ;
    product    := ('+'|'-')* factor (('*'|'/') factor)* ;
    factor     := INT | NAME ['^' ['-'] INT] | '(' expression ')' ;
    element    := term (('+'|'-') term)* ;
    term       := ('+'|'-')* [factor (('*'|'/') factor)* '*'] direction | product ;
    direction  := 'd'IDX | 'dmu' ;

Any summand may open with a run of signs ("mu1 - -mu2").  NAME is a
scalar variable ("mu1", or an auxiliary unknown of the field) or, in an
element, a t variable; exponents may be negative ("t2^-1", unbracketed).
Each expression and product is a Laurent polynomial in t whose like
terms are added as they meet, so "(t1+t2)*dmu" is t1*dmu + t2*dmu and a
product of sums costs the terms of its value, not its distributed
summands.  A '/' divisor must be scalar, a term without a direction must
be 0, and "dmu" expands against the algebra's mu prefix.  A scalar is an
expression without t, which covers all the formatter emits ("p/q",
"mu1^2*mu3", polynomials, "(num)/(den)"); parse and format are mutually
inverse on canonical forms.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

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

# A Laurent polynomial in t: exponent -> nonzero coefficient, like terms
# collected.  Its exponents have the algebra's rank m, or rank 0 (the one
# exponent ()) for a scalar.
_Poly = Dict[Exponent, Scalar]


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


def _index(text: str, letter: str) -> Optional[int]:
    """i for a name letter + digits ("t2", "d1"), else None."""
    if text[0] == letter and text[1:].isdigit():
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


def _add_term(total: _Poly, exponent: Exponent, coeff: Scalar) -> None:
    """Add coeff * t^exponent to total, dropping a coefficient that cancels."""
    if exponent in total:
        coeff = total[exponent] + coeff
        if coeff.is_zero:
            del total[exponent]
            return
    total[exponent] = coeff


def _multiply(left: _Poly, right: _Poly) -> _Poly:
    out: _Poly = {}
    for exp, c in left.items():
        for fexp, fc in right.items():
            _add_term(out, tuple(a + b for a, b in zip(exp, fexp)), _times(c, fc))
    return out


class _Parser:
    """Single-token-lookahead recursive descent over the token list.

    Every level returns a _Poly whose exponents have the given rank; at
    rank 0 no t variable is recognised.
    """

    def __init__(self, text: str, field: ScalarField, rank: int):
        self.field = field
        self.rank = rank
        self.zero_exp = (0,) * rank
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
        tok = self.peek()
        if tok.kind != "op" or tok.text != ")":
            shown = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"found {shown}", tok.pos, (")",))
        self.advance()
        self.depth -= 1

    def exponent(self) -> int:
        """The optional '^' ['-'] INT after a variable; 1 when absent."""
        if not self.at_op("^"):
            return 1
        self.advance()
        negative = self.at_op("-")
        if negative:
            self.advance()
        tok = self.advance()
        if tok.kind != "int":
            raise ParseError("expected an integer", tok.pos, ("integer",))
        return -int(tok.text) if negative else int(tok.text)

    def expression(self) -> _Poly:
        value, _ = self.product()
        while self.at_op("+-"):
            # the '+'/'-' opens the next product's sign run
            for exponent, coeff in self.product()[0].items():
                _add_term(value, exponent, coeff)
        return value

    def product(self, algebra: Optional[WittAlgebra] = None
                ) -> Tuple[_Poly, Optional[List[Tuple[int, Scalar]]]]:
        """A signed product and, given the algebra, the direction ending it, if any."""
        negative = False
        while self.at_op("+-"):
            negative ^= self.advance().text == "-"
        value = {self.zero_exp: self.field.from_int(-1 if negative else 1)}
        while True:
            tok = self.peek()
            if algebra is not None and tok.kind == "ident" and (
                    tok.text == "dmu" or _index(tok.text, "d") is not None):
                return value, self.direction(algebra)
            value = _multiply(value, self.factor())
            while self.at_op("/"):
                slash = self.advance()
                divisor = self.factor()
                if any(exp != self.zero_exp for exp in divisor):
                    raise ParseError("divisor must be a scalar", slash.pos)
                inverse = divisor.get(self.zero_exp, self.field.zero()).inverse()
                value = {exp: _times(c, inverse) for exp, c in value.items()}
            if not self.at_op("*"):
                return value, None
            self.advance()

    def factor(self) -> _Poly:
        """One multiplicative factor: INT, NAME['^' e], or a parenthesized expression."""
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = int(tok.text)
            return {self.zero_exp: self.field.from_int(value)} if value else {}
        if tok.kind == "ident":
            self.advance()
            idx = _index(tok.text, "t") if self.rank else None
            if idx is not None:
                if not 1 <= idx <= self.rank:
                    raise ParseError(f"t index {idx} out of range 1..{self.rank}", tok.pos)
                e = self.exponent()
                return {tuple(e if j == idx - 1 else 0 for j in range(self.rank)):
                        self.field.one()}
            if tok.text not in self.field.names:
                raise ParseError(f"unknown scalar variable {tok.text!r}", tok.pos)
            # mu^e is built as the monomial or its reciprocal directly
            e = self.exponent()
            index = self.field.names.index(tok.text)
            mono = tuple(abs(e) if i == index else 0 for i in range(self.field.arity))
            power = Scalar(MuPolynomial.one(self.field.arity).shift(mono))
            return {self.zero_exp: power if e >= 0 else power.inverse()}
        if tok.kind == "op" and tok.text == "(":
            self.open_group()
            value = self.expression()
            self.close_group()
            return value
        shown = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a factor, found {shown}", tok.pos,
                         ("integer", "variable", "t<i>", "("))

    def direction(self, algebra: WittAlgebra) -> List[Tuple[int, Scalar]]:
        """d_i or d_mu as its nonzero Cartan coefficients (j, b), 0-based j."""
        tok = self.advance()
        if tok.text == "dmu":
            return [(j, self.field.mu(j + 1)) for j in range(algebra.n)]
        idx = _index(tok.text, "d")
        if not 1 <= idx <= algebra.m:
            raise ParseError(f"d index {idx} out of range 1..{algebra.m}", tok.pos)
        return [(idx - 1, self.field.one())]

    def element(self, algebra: WittAlgebra) -> WittElement:
        """Each exponent's Cartan coefficients are summed in place, then built once."""
        support: Dict[Exponent, List[Optional[Scalar]]] = {}
        while True:
            value, direction = self.product(algebra)
            tok = self.peek()
            terminal = tok.kind == "end" or self.at_op("+-")
            if direction is None and (value or not terminal):
                raise ParseError("term must end with a direction", tok.pos, ("*", "d<i>", "dmu"))
            for exponent, coeff in value.items():  # none when there is no direction
                coeffs = support.setdefault(exponent, [None] * algebra.m)
                for j, b in direction:
                    term = _times(coeff, b)
                    coeffs[j] = term if coeffs[j] is None else coeffs[j] + term
            if tok.kind == "end":
                break
            if not terminal:
                raise ParseError(f"found {tok.text!r}", tok.pos, ("+", "-", "end of input"))
        zero = self.field.zero()
        return WittElement(algebra.m, {
            exponent: CartanElement(tuple(zero if c is None else c for c in coeffs))
            for exponent, coeffs in support.items()})


def parse_element(text: str, algebra: WittAlgebra) -> WittElement:
    """Parse element text against the algebra's rank, prefix and field."""
    return _Parser(text, algebra.field, algebra.m).element(algebra)


def parse_scalar(text: str, field: ScalarField) -> Scalar:
    """Parse scalar text: an expression without t variables or directions."""
    parser = _Parser(text, field, 0)
    value = parser.expression()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos, ("end of input",))
    return value.get((), field.zero())
