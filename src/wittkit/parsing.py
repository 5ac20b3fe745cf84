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
its coefficient is built once, canonical with no gcd over Z[mu]
(`Scalar.monomial`).  Only parenthesized groups, as factors or divisors,
multiply in Scalar arithmetic.  A '/' divisor must be scalar, a term
without a direction must be 0, and "dmu" expands against the algebra's
mu prefix.  A scalar is an expression without t, which covers all the
formatter emits ("p/q", "mu1^2*mu3", polynomials, "(num)/(den)"); parse
and format are mutually inverse on canonical forms.

One `findall` lexes the text, one token per factor: an INT, a NAME with
its exponent, or one other character.  Tokens carry no position; the
descent passes the token index in and out, and only an error finds its
position, by lexing again.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .errors import DivisionByZero, ParseError
from .scalars import Scalar, ScalarField
from .witt import CartanElement, Exponent, WittAlgebra, WittElement, _trusted


# A token, after any whitespace, as (int, letters, digits, minus, power, op)
# strings, "" where absent: an INT, a NAME with the '^' ['-'] INT after it,
# or any other character.  \d is exactly what int() reads (Unicode decimal
# digits), so a superscript or subscript digit is no INT: it falls in the
# letter class [^\W\d_], which holds every str.isalpha() character, and
# makes a NAME that no rule accepts.
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d_]+)(\d*)(?:\s*\^\s*(-?)\s*(\d+))?|(\S))")
_OPERATORS = "+-*/^()"
_END = ("",) * 6
_SIGNS = ("+", "-")

# Deepest nesting of parentheses accepted; each level costs a few
# interpreter frames, so this keeps deep input a ParseError rather than
# a RecursionError.
MAX_NESTING = 100

# A Laurent polynomial in t: exponent -> nonzero coefficient, like terms
# collected.  Its exponents have the algebra's rank m, or rank 0 (the one
# exponent ()) for a scalar.
_Poly = Dict[Exponent, Scalar]


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
    """Recursive descent over the token list, the token index passed in and out.

    Every level returns a _Poly whose exponents have the given rank; at
    rank 0 no t variable is recognised.
    """

    def __init__(self, text: str, field: ScalarField, rank: int):
        self.text, self.field, self.rank = text, field, rank
        self.tokens = _TOKEN.findall(text) + [_END]
        self.one = field.one()
        self.depth = 0

    def parse(self, algebra: Optional[WittAlgebra]):
        """The element, given the algebra, or else the scalar that the text spells."""
        try:
            if algebra is not None:
                return self.element(algebra)
            value, i = self.expression(0)
            if self.tokens[i] is not _END:
                raise self.error(f"unexpected trailing input {self.shown(i)}", i,
                                 ("end of input",))
            return value.get((), self.field.zero())
        except (ParseError, DivisionByZero):
            # No rule takes a character outside _OPERATORS, so text holding
            # one always fails, and its first such character is the error.
            for index, token in enumerate(self.tokens):
                if token[5] and token[5] not in _OPERATORS:
                    raise self.error(f"unexpected character {token[5]!r}", index) from None
            raise

    def error(self, message: str, index: int, expected: Tuple[str, ...] = (),
              caret: bool = False) -> ParseError:
        """The error at token `index` (at its '^' with caret), or past the last token."""
        position = len(self.text)
        for k, match in enumerate(_TOKEN.finditer(self.text)):
            if k == index:
                token = match.group()  # leading whitespace included
                position = match.start() + (token.index("^") if caret
                                            else len(token) - len(token.lstrip()))
                break
        return ParseError(message, position, expected)

    def shown(self, index: int) -> str:
        """Token `index` as an error quotes it: its text without an exponent."""
        integer, letters, digits, _, _, op = self.tokens[index]
        text = integer or letters + digits or op
        return repr(text) if text else "end of input"

    def exponent(self, index: int, minus: str, power: str) -> int:
        """The exponent lexed with the NAME before token `index`; 1 when absent."""
        if not power and self.tokens[index][5] == "^":  # a '^' ['-'] that no INT follows
            index += 2 if self.tokens[index + 1][5] == "-" else 1
            raise self.error("expected an integer", index, ("integer",))
        return int(minus + power) if power else 1

    def expression(self, i: int) -> Tuple[_Poly, int]:
        value, _, i = self.product(i)
        while self.tokens[i][5] in _SIGNS:
            # the '+'/'-' opens the next product's sign run
            more, _, i = self.product(i)
            for exponent, coeff in more.items():
                _add_term(value, exponent, coeff)
        return value, i

    def product(self, i: int, algebra: Optional[WittAlgebra] = None
                ) -> Tuple[_Poly, Optional[List[Tuple[int, Scalar]]], int]:
        """From token i: a signed product, the direction ending it (given the
        algebra) or None, and the index of the token after it."""
        tokens, field, rank = self.tokens, self.field, self.rank
        num, den, mu, t = 1, 1, [0] * field.arity, [0] * rank
        while tokens[i][5] in _SIGNS:
            num = -num if tokens[i][5] == "-" else num
            i += 1
        groups: Optional[_Poly] = None
        slash = direction = None  # slash: index of the '/' before the current factor
        while True:
            integer, letters, digits, minus, power, op = tokens[i]
            i += 1
            if integer:
                value = int(integer)
                if slash is None:
                    num *= value
                elif value:
                    den *= value
                else:
                    raise DivisionByZero("inverting the zero scalar")
            elif letters == "t" and digits and rank:
                j = int(digits)
                if not 1 <= j <= rank:
                    raise self.error(f"t index {j} out of range 1..{rank}", i - 1)
                e = self.exponent(i, minus, power)
                if slash is not None and e:
                    raise self.error("divisor must be a scalar", slash)
                t[j - 1] += e
            elif algebra is not None and slash is None and (
                    letters == "d" and digits or letters == "dmu" and not digits):
                if digits:
                    j = int(digits)
                    if not 1 <= j <= algebra.m:
                        raise self.error(f"d index {j} out of range 1..{algebra.m}", i - 1)
                    direction = [(j - 1, self.one)]
                else:
                    direction = list(enumerate(algebra.dmu_cartan().coeffs[:algebra.n]))
                if power:  # the term ends at the direction, so the '^' is extra
                    raise self.error("found '^'", i - 1, ("+", "-", "end of input"), caret=True)
                break
            elif letters:
                name = letters + digits
                if name not in field.names:
                    raise self.error(f"unknown scalar variable {name!r}", i - 1)
                e = self.exponent(i, minus, power)
                mu[field.names.index(name)] += e if slash is None else -e
            elif op == "(":
                self.depth += 1
                if self.depth > MAX_NESTING:
                    raise self.error(f"parentheses nested deeper than {MAX_NESTING}", i - 1)
                value, i = self.expression(i)
                if tokens[i][5] != ")":
                    raise self.error(f"found {self.shown(i)}", i, (")",))
                i += 1
                self.depth -= 1
                if slash is not None:
                    zero_exp = (0,) * rank
                    if any(exp != zero_exp for exp in value):
                        raise self.error("divisor must be a scalar", slash)
                    value = {zero_exp: value.get(zero_exp, field.zero()).inverse()}
                groups = value if groups is None else _multiply(groups, value)
            else:
                raise self.error(f"expected a factor, found {self.shown(i - 1)}", i - 1,
                                 ("integer", "variable", "t<i>", "("))
            op = tokens[i][5]
            if op != "*" and op != "/":
                break
            slash = i if op == "/" else None
            i += 1
        if not num:
            return {}, direction, i
        coeff = self.one if num == den == 1 and not any(mu) else Scalar.monomial(num, den, mu)
        if groups is None:
            return {tuple(t): coeff}, direction, i
        return {tuple(a + b for a, b in zip(exp, t)): _times(c, coeff)
                for exp, c in groups.items()}, direction, i

    def element(self, algebra: WittAlgebra) -> WittElement:
        """Each exponent's Cartan coefficients are summed in place, then built once."""
        tokens, one, zero = self.tokens, self.one, self.field.zero()
        support: Dict[Exponent, List[Scalar]] = {}
        i = 0
        while True:
            value, direction, i = self.product(i, algebra)
            end = tokens[i] is _END
            terminal = end or tokens[i][5] in _SIGNS
            if direction is None and (value or not terminal):
                raise self.error("term must end with a direction", i, ("*", "d<i>", "dmu"))
            for exponent, coeff in value.items():  # none when there is no direction
                coeffs = support.setdefault(exponent, [zero] * algebra.m)
                for j, b in direction:
                    term = coeff if b is one else _times(coeff, b)
                    coeffs[j] = term if coeffs[j] is zero else coeffs[j] + term
            if end:
                break
            if not terminal:
                raise self.error(f"found {self.shown(i)}", i, ("+", "-", "end of input"))
        return _trusted(algebra.m, {exponent: CartanElement(coeffs)
                                    for exponent, coeffs in support.items()}, self.field.arity,
                        prune=True)


def parse_element(text: str, algebra: WittAlgebra) -> WittElement:
    """Parse element text against the algebra's rank, prefix and field."""
    return _Parser(text, algebra.field, algebra.m).parse(algebra)


def parse_scalar(text: str, field: ScalarField) -> Scalar:
    """Parse scalar text: an expression without t variables or directions."""
    return _Parser(text, field, 0).parse(None)
