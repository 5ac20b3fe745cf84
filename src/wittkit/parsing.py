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
summands.  Within a product, INT, mu_i^e and t_i^e, as factors or as
divisors, only update the ints of one monomial num/den * mu^a * t^b, and
its coefficient is built once, with no gcd over Z[mu]: for g =
gcd(num, den) with den's sign, (num/g) mu^max(a,0) over (den/g)
mu^max(-a,0) is canonical, the integers coprime, the mu parts of
disjoint support, the denominator positive (`Scalar.monomial`).  Only
parenthesized groups, as factors or divisors, multiply in Scalar
arithmetic.  A '/' divisor must be scalar, a term without a direction
must be 0, and "dmu" expands against the algebra's mu prefix.  A scalar
is an expression without t, which covers all the formatter emits ("p/q",
"mu1^2*mu3", polynomials, "(num)/(den)"); parse and format are mutually
inverse on canonical forms.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .errors import DivisionByZero, ParseError
from .scalars import Scalar, ScalarField
from .witt import CartanElement, Exponent, WittAlgebra, WittElement


# A token is a plain (kind, text, position) tuple, kind one of "int",
# "ident", "op" and "end".
_Token = Tuple[str, str, int]


# One alternative per token kind, then whitespace, then any other
# character.  \d is exactly what int() reads (Unicode decimal digits), so
# a superscript or subscript digit is no INT: it falls in the letter class
# [^\W\d_], which holds every str.isalpha() character, and makes a NAME
# that no rule accepts.
_TOKEN = re.compile(r"(\d+)|([^\W\d_]+\d*)|([-+*/^()])|\s+|(.)", re.DOTALL)
_KINDS = (None, "int", "ident", "op")

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
    for match in _TOKEN.finditer(text):
        kind = match.lastindex  # the group that matched; None for whitespace
        if kind == 4:
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind:
            tokens.append((_KINDS[kind], match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _index(text: str) -> Optional[int]:
    """i for a name of one letter and digits ("t2", "d1"), else None."""
    return int(text[1:]) if text[1:].isdecimal() else None


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
        kind, text, _ = self.tokens[self.i]
        return kind == "op" and text in chars

    def exponent(self) -> int:
        """The optional '^' ['-'] INT after a variable; 1 when absent."""
        if not self.at_op("^"):
            return 1
        self.advance()
        negative = self.at_op("-")
        if negative:
            self.advance()
        kind, text, pos = self.advance()
        if kind != "int":
            raise ParseError("expected an integer", pos, ("integer",))
        return -int(text) if negative else int(text)

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
            negative ^= self.advance()[1] == "-"
        num, den, mu, t = -1 if negative else 1, 1, [0] * self.field.arity, [0] * self.rank
        groups: Optional[_Poly] = None
        slash = direction = None  # slash: position of the '/' before the current factor
        while True:
            kind, text, pos = self.advance()
            idx = _index(text) if kind == "ident" else None
            if kind == "int":
                value = int(text)
                if slash is None:
                    num *= value
                elif value:
                    den *= value
                else:
                    raise DivisionByZero("inverting the zero scalar")
            elif algebra is not None and slash is None and text == "dmu":
                direction = [(j, self.field.mu(j + 1)) for j in range(algebra.n)]
                break
            elif algebra is not None and slash is None and idx is not None and text[0] == "d":
                if not 1 <= idx <= algebra.m:
                    raise ParseError(f"d index {idx} out of range 1..{algebra.m}", pos)
                direction = [(idx - 1, self.field.one())]
                break
            elif idx is not None and text[0] == "t" and self.rank:
                if not 1 <= idx <= self.rank:
                    raise ParseError(f"t index {idx} out of range 1..{self.rank}", pos)
                e = self.exponent()
                if slash is not None and e:
                    raise ParseError("divisor must be a scalar", slash)
                t[idx - 1] += e
            elif kind == "ident":
                if text not in self.field.names:
                    raise ParseError(f"unknown scalar variable {text!r}", pos)
                e = self.exponent()
                mu[self.field.names.index(text)] += e if slash is None else -e
            elif text == "(":
                self.depth += 1
                if self.depth > MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
                value = self.expression()
                kind, text, pos = self.advance()
                if text != ")":
                    shown = "end of input" if kind == "end" else repr(text)
                    raise ParseError(f"found {shown}", pos, (")",))
                self.depth -= 1
                if slash is not None:
                    if any(exp != self.zero_exp for exp in value):
                        raise ParseError("divisor must be a scalar", slash)
                    value = {self.zero_exp: value.get(self.zero_exp, self.field.zero()).inverse()}
                groups = value if groups is None else _multiply(groups, value)
            else:
                shown = "end of input" if kind == "end" else repr(text)
                raise ParseError(f"expected a factor, found {shown}", pos,
                                 ("integer", "variable", "t<i>", "("))
            if not self.at_op("*/"):
                break
            _, op, pos = self.advance()
            slash = pos if op == "/" else None
        if not num:
            return {}, direction
        coeff = Scalar.monomial(num, den, mu)
        if groups is None:
            return {tuple(t): coeff}, direction
        return {tuple(a + b for a, b in zip(exp, t)): _times(c, coeff)
                for exp, c in groups.items()}, direction

    def element(self, algebra: WittAlgebra) -> WittElement:
        """Each exponent's Cartan coefficients are summed in place, then built once."""
        support: Dict[Exponent, List[Optional[Scalar]]] = {}
        while True:
            value, direction = self.product(algebra)
            kind, text, pos = self.peek()
            terminal = kind == "end" or self.at_op("+-")
            if direction is None and (value or not terminal):
                raise ParseError("term must end with a direction", pos, ("*", "d<i>", "dmu"))
            for exponent, coeff in value.items():  # none when there is no direction
                coeffs = support.setdefault(exponent, [None] * algebra.m)
                for j, b in direction:
                    term = _times(coeff, b)
                    coeffs[j] = term if coeffs[j] is None else coeffs[j] + term
            if kind == "end":
                break
            if not terminal:
                raise ParseError(f"found {text!r}", pos, ("+", "-", "end of input"))
        zero = self.field.zero()
        return WittElement(algebra.m, {
            exponent: CartanElement(tuple(zero if c is None else c for c in coeffs))
            for exponent, coeffs in support.items()}, self.field.arity)


def parse_element(text: str, algebra: WittAlgebra) -> WittElement:
    """Parse element text against the algebra's rank, prefix and field."""
    return _Parser(text, algebra.field, algebra.m).element(algebra)


def parse_scalar(text: str, field: ScalarField) -> Scalar:
    """Parse scalar text: an expression without t variables or directions."""
    parser = _Parser(text, field, 0)
    value = parser.expression()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos, ("end of input",))
    return value.get((), field.zero())
