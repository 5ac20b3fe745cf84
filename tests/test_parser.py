"""Element and scalar grammar: parsing, distribution, formatter round trips."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import (
    AlgebraVariant,
    ParseError,
    Scalar,
    WittAlgebra,
    bracket,
    parse_element,
    parse_scalar,
)
from wittkit import scalars
from wittkit.parsing import MAX_NESTING

W2 = WittAlgebra(AlgebraVariant.wn(2))
WMU = WittAlgebra(AlgebraVariant.wnmu(2))


def test_basic_monomials():
    assert parse_element("d1", W2) == W2.d(1)
    assert parse_element("t1*d1", W2) == W2.monomial((1, 0), 1)
    assert parse_element("t1^-1*d1", W2) == W2.monomial((-1, 0), 1)
    assert parse_element("3*t1^2*t2*d2", W2) == W2.monomial(
        (2, 1), 2, W2.field.from_fraction(3))
    assert parse_element("0", W2) == W2.zero()


def test_signs_and_sums():
    x = parse_element("-d1 + 2*d2 - t1*d1", W2)
    assert x == -W2.d(1) + W2.d(2).scale(W2.field.from_fraction(2)) - W2.monomial((1, 0), 1)
    assert parse_element("d1 - d1", W2) == W2.zero()


def test_rational_and_symbolic_coefficients():
    x = parse_element("1/2*t1*d1", W2)
    assert x == W2.monomial((1, 0), 1, W2.field.from_fraction(Fraction(1, 2)))
    y = parse_element("mu2*d1", W2)
    assert y == W2.d(1).scale(W2.field.mu(2))
    z = parse_element("(mu1/(mu1 + mu2))*t1*d1", W2)
    assert z == W2.monomial((1, 0), 1, W2.field.mu(1) / (W2.field.mu(1) + W2.field.mu(2)))


def test_dmu_direction():
    assert parse_element("dmu", WMU) == WMU.dmu()
    assert parse_element("t1*dmu + t2*dmu", WMU) == WMU.power_sum_dmu(1)
    assert parse_element("t1^3*dmu", WMU) == WMU.dmu().translate((3, 0))


def test_parenthesized_sums_distribute():
    assert parse_element("(t1 + t2)*dmu", WMU) == WMU.power_sum_dmu(1)
    assert parse_element("(t1^2 + t2^2)*dmu", WMU) == WMU.power_sum_dmu(2)
    x = parse_element("(1 + t1)*(1 - t1)*d2", W2)
    expect = W2.monomial((0, 0), 2) - W2.monomial((2, 0), 2)
    assert x == expect
    # scalar groups mix with t factors inside one term
    y = parse_element("(2 + mu1)*t2*d1", W2)
    assert y == W2.monomial((0, 1), 1, W2.field.from_fraction(2) + W2.field.mu(1))


def test_division_must_be_scalar():
    assert parse_element("t1/2*d1", W2) == W2.monomial(
        (1, 0), 1, W2.field.from_fraction(Fraction(1, 2)))
    with pytest.raises(ParseError):
        parse_element("d1/t1", W2)
    with pytest.raises(ParseError):
        parse_element("d1/(t1 + 1)", W2)
    with pytest.raises(ParseError):
        parse_element("d1/0", W2)


def test_parse_errors():
    for bad in ("t1*d3", "d0", "t3*d1", "t1", "t1*", "(t1+t2", "d1 +", "q*w",
                "", "t1^x*d1", "2*2", "mu3*d1"):
        with pytest.raises(ParseError):
            parse_element(bad, W2)


# str.isdigit() accepts superscript and subscript digits, which int() does not read
NON_DECIMAL_DIGITS = ["t\u2081*d1", "t1^\u00b2*d1", "\u00b2*d1", "t1*d\u00b2", "mu\u2081*d1"]


@pytest.mark.parametrize("text", NON_DECIMAL_DIGITS)
def test_non_decimal_digits_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_element(text, W2)


def test_decimal_digits_of_any_script_parse():
    # Arabic-Indic three and one are decimal digits, read by int()
    assert parse_element("\u0663*d1", W2) == W2.d(1).scale(W2.field.from_fraction(3))
    assert parse_element("t\u0661*d1", W2) == W2.monomial((1, 0), 1)


# Exact text of each ParseError, recorded before the parser took one token
# per factor.  Element texts parse in W2 unless they hold "dmu" (then in
# WMU); "scalar:" texts go through parse_scalar.
PARSE_ERROR_TEXT = {
    "t1*d3": "d index 3 out of range 1..2 (at position 3)",
    "d0": "d index 0 out of range 1..2 (at position 0)",
    "t3*d1": "t index 3 out of range 1..2 (at position 0)",
    "t1": "term must end with a direction (at position 2) expected one of: *, d<i>, dmu",
    "t1*": "expected a factor, found end of input (at position 3)"
           " expected one of: integer, variable, t<i>, (",
    "(t1+t2": "found end of input (at position 6) expected one of: )",
    "d1 +": "expected a factor, found end of input (at position 4)"
            " expected one of: integer, variable, t<i>, (",
    "q*w": "unknown scalar variable 'q' (at position 0)",
    "": "expected a factor, found end of input (at position 0)"
        " expected one of: integer, variable, t<i>, (",
    "t1^x*d1": "expected an integer (at position 3) expected one of: integer",
    "2*2": "term must end with a direction (at position 3) expected one of: *, d<i>, dmu",
    "mu3*d1": "unknown scalar variable 'mu3' (at position 0)",
    "d1/t1": "found '/' (at position 2) expected one of: +, -, end of input",
    "d1/(t1 + 1)": "found '/' (at position 2) expected one of: +, -, end of input",
    "d1/0": "found '/' (at position 2) expected one of: +, -, end of input",
    "2/t1*d1": "divisor must be a scalar (at position 1)",
    "1/(t1 + 1)*d1": "divisor must be a scalar (at position 1)",
    "t\u2081*d1": "unknown scalar variable 't\u2081' (at position 0)",
    "t1^\u00b2*d1": "expected an integer (at position 3) expected one of: integer",
    "\u00b2*d1": "unknown scalar variable '\u00b2' (at position 0)",
    "t1*d\u00b2": "unknown scalar variable 'd\u00b2' (at position 3)",
    "mu\u2081*d1": "unknown scalar variable 'mu\u2081' (at position 0)",
    "d1 + t9*d1": "t index 9 out of range 1..2 (at position 5)",
    "t1 ^ - x*d1": "expected an integer (at position 7) expected one of: integer",
    "t1 ^ -- 2*d1": "expected an integer (at position 6) expected one of: integer",
    "t1^-": "expected an integer (at position 4) expected one of: integer",
    "mu1 ^": "expected an integer (at position 5) expected one of: integer",
    "t1 ^ 2 ^ 3*d1": "term must end with a direction (at position 7)"
                     " expected one of: *, d<i>, dmu",
    "d1 ^ 2": "found '^' (at position 3) expected one of: +, -, end of input",
    "dmu ^ -1": "found '^' (at position 4) expected one of: +, -, end of input",
    "(t1 t2)*d1": "found 't2' (at position 4) expected one of: )",
    "d1 t1^2": "found 't1' (at position 3) expected one of: +, -, end of input",
    "d1 + $": "unexpected character '$' (at position 5)",
    "t1 ^ -x*d1 + _": "unexpected character '_' (at position 13)",
    ")": "expected a factor, found ')' (at position 0)"
         " expected one of: integer, variable, t<i>, (",
    "scalar:t1": "unknown scalar variable 't1' (at position 0)",
    "scalar:mu1 mu2^2": "unexpected trailing input 'mu2' (at position 4)"
                        " expected one of: end of input",
    "scalar:mu1 ^ -": "expected an integer (at position 7) expected one of: integer",
    "scalar:(mu1": "found end of input (at position 4) expected one of: )",
}


def test_error_position_reported():
    for text, message in PARSE_ERROR_TEXT.items():
        with pytest.raises(ParseError) as caught:
            if text.startswith("scalar:"):
                parse_scalar(text[len("scalar:"):], W2.field)
            else:
                parse_element(text, WMU if "dmu" in text else W2)
        assert str(caught.value) == message, text
        assert caught.value.position == int(message.split("(at position ")[1].split(")")[0])


def test_parse_scalar():
    field = W2.field
    assert parse_scalar("mu1 + mu2", field) == field.mu(1) + field.mu(2)
    assert parse_scalar("-3/4", field) == field.from_fraction(Fraction(-3, 4))
    assert parse_scalar("mu1^2 - mu2^2", field) == (
        field.mu(1) * field.mu(1) - field.mu(2) * field.mu(2))
    assert parse_scalar("(mu1 + 1)/(mu2 - 1)", field) == (
        (field.mu(1) + 1) / (field.mu(2) - 1))
    with pytest.raises(ParseError):
        parse_scalar("t1", field)


def test_format_parse_round_trip_random():
    rng = random.Random(63)
    for algebra in (W2, WMU, WittAlgebra(AlgebraVariant.wn(3))):
        for _ in range(60):
            x = algebra.random_element(rng, box=3)
            assert parse_element(algebra.format(x), algebra) == x


def test_format_parse_round_trip_symbolic():
    x = W2.dmu().translate((1, -2)).scale(W2.field.mu(1) / (W2.field.mu(2) + 1))
    assert parse_element(W2.format(x), W2) == x
    z = W2.zero()
    assert parse_element(W2.format(z), W2) == z


def test_parse_then_bracket_matches_constructed():
    x = parse_element("t1^2*t2^-1*d1 - 1/3*d2", W2)
    y = parse_element("t2*d2", W2)
    built = bracket(
        W2.monomial((2, -1), 1) - W2.d(2).scale(W2.field.from_fraction(Fraction(1, 3))),
        W2.monomial((0, 1), 2),
    )
    assert bracket(x, y) == built


def test_nesting_depth_is_capped():
    deepest = "(" * MAX_NESTING + "t1" + ")" * MAX_NESTING + "*d1"
    assert parse_element(deepest, W2) == W2.monomial((1, 0), 1)
    too_deep = "(" * (MAX_NESTING + 1) + "t1" + ")" * (MAX_NESTING + 1) + "*d1"
    for text in (too_deep, "(" * 3000 + "t1*d1" + ")" * 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_element(text, W2)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_scalar("(" * 3000 + "mu1" + ")" * 3000, W2.field)
    # unary minus signs are counted, not recursed into
    assert parse_scalar("-" * 3001 + "mu1", W2.field) == -W2.field.mu(1)


@pytest.mark.parametrize("e", range(-5, 6))
def test_scalar_power_matches_repeated_product(e):
    field = W2.field
    step = field.mu(2) if e >= 0 else field.mu(2).inverse()
    expected = field.one()
    for _ in range(abs(e)):
        expected = expected * step
    value = parse_scalar(f"mu2^{e}", field)
    assert (value.num, value.den) == (expected.num, expected.den)
    assert parse_element(f"mu2^{e}*t1*d1", W2) == W2.monomial((1, 0), 1, expected)


def test_huge_scalar_powers_parse_at_once(monkeypatch):
    products = []
    multiply = Scalar.__mul__

    def counting(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    up = parse_element("mu1^100000*d1", W2)
    down = parse_element("mu1^-100000*d1", W2)
    # the power is built as one monomial, not by 100000 products; the few
    # left scale the Cartan part of d1
    assert len(products) < 10
    coeff = up.support[(0, 0)].coeffs[0]
    assert coeff.num.terms == {(100000, 0): 1} and coeff.den.is_constant()
    assert down.support[(0, 0)].coeffs[0] == coeff.inverse()
    assert W2.format(up) == "mu1^100000*d1"


def test_product_atoms_build_one_monomial(monkeypatch):
    calls = []
    multiply, gcd = Scalar.__mul__, scalars.poly_gcd

    def counting_mul(self, other):
        calls.append("mul")
        return multiply(self, other)

    def counting_gcd(a, b):
        calls.append("gcd")
        return gcd(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(Scalar, "__mul__", counting_mul)
        patch.setattr(scalars, "poly_gcd", counting_gcd)
        x = parse_element("-105/4*mu1^2*mu2^-1*t1^-1*t2*d1", W2)
    # integers, mu powers and t powers fold into one monomial, built once
    assert calls == []
    field = W2.field
    value = field.from_fraction(Fraction(-105, 4)) * field.mu(1) * field.mu(1) / field.mu(2)
    assert list(x.support) == [(-1, 1)]
    assert [(c.num, c.den) for c in x.support[(-1, 1)].coeffs] == [
        (value.num, value.den), (field.zero().num, field.zero().den)]


def test_products_of_sums_collect_like_terms(monkeypatch):
    products = []
    multiply = Scalar.__mul__

    def counting(self, other):
        products.append(1)
        return multiply(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Scalar, "__mul__", counting)
        parse_element("(t1 + 1)*" * 12 + "d1", W2)
    # at most one product per pair of collected terms, 2 * (1 + ... + 12),
    # where distributing first forms 2^12 summands
    assert len(products) <= 2 * sum(range(1, 13))
    expected = W2.zero()
    for k in range(41):
        expected = expected + W2.monomial((k, 0), 1, W2.field.from_fraction(comb(40, k)))
    assert parse_element("(t1 + 1)*" * 40 + "d1", W2) == expected


# Random expression trees, rendered as text beside their value built with
# WittElement arithmetic.  A Laurent polynomial p in t is held as p*d1.
# Elements are drawn in W2, in W2(mu), in W3 and in winf(2, 3), where dmu
# covers only the first two of three directions.

FIELD = W2.field
ALGEBRAS = [W2, WMU, WittAlgebra(AlgebraVariant.wn(3)),
            WittAlgebra(AlgebraVariant.winf(2, 3))]
sign_runs = st.lists(st.sampled_from("+-"), max_size=3).map("".join)
spaces = st.sampled_from(["", "", " "])


def _divisors(field):
    mu1, mu2 = field.mu(1), field.mu(2)
    return {"2": field.from_fraction(2), "3": field.from_fraction(3), "6": field.from_fraction(6),
            "mu1": mu1, "mu2": mu2, "(mu1 + mu2)": mu1 + mu2}


def _assert_canonical(scalar, oracle):
    """Int coefficients, num and den coprime over Z[mu], den's leading coefficient > 0."""
    num, den = scalar.num, scalar.den
    assert all(type(c) is int for c in [*num.terms.values(), *den.terms.values()])
    assert math.gcd(*num.terms.values(), *den.terms.values()) == 1
    assert oracle.gcd(num, den).is_constant()
    assert den.terms[max(den.terms, key=lambda mono: (sum(mono), mono))] > 0


def _times(algebra, p, x):
    """p*x for a Laurent polynomial p held as p*d1 and any element x."""
    total = algebra.zero()
    for exponent, cartan in p.support.items():
        total = total + x.translate(exponent).scale(cartan.coeffs[0])
    return total


@st.composite
def exponents(draw):
    """(text, e) for an optional exponent, at times spaced ("t1 ^ - 2")."""
    e = draw(st.integers(-2, 2))
    if e == 1 and draw(st.booleans()):
        return "", 1
    before, after, sign = draw(spaces), draw(spaces), draw(spaces)
    return f"{before}^{after}" + (f"-{sign}{-e}" if e < 0 else str(e)), e


@st.composite
def factors(draw, algebra, depth, with_t):
    field = algebra.field
    kind = draw(st.sampled_from(["int", "mu"] + ["t"] * with_t + ["group"] * (depth > 0)))
    if kind == "int":
        k = draw(st.integers(0, 5))
        return str(k), algebra.d(1).scale(field.from_fraction(k))
    if kind == "group":
        text, value = draw(expressions(algebra, depth - 1, with_t))
        return f"({text})", value
    etext, e = draw(exponents())
    i = draw(st.integers(1, algebra.m if kind == "t" else field.n_mu))
    if kind == "t":
        exponent = tuple(e if j == i - 1 else 0 for j in range(algebra.m))
        return f"t{i}{etext}", algebra.monomial(exponent, 1)
    value = field.one()
    for _ in range(abs(e)):
        value = value * field.mu(i) if e > 0 else value / field.mu(i)
    return f"mu{i}{etext}", algebra.d(1).scale(value)


@st.composite
def products(draw, algebra, depth, with_t):
    signs = draw(sign_runs)
    text, value = draw(factors(algebra, depth, with_t))
    divisors = _divisors(algebra.field)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            ftext, fvalue = draw(factors(algebra, depth, with_t))
            text, value = f"{text}*{ftext}", _times(algebra, value, fvalue)
        else:
            divisor = draw(st.sampled_from(sorted(divisors)))
            text, value = f"{text}/{divisor}", value.scale(divisors[divisor].inverse())
    return signs + text, -value if signs.count("-") % 2 else value


@st.composite
def expressions(draw, algebra, depth, with_t):
    text, value = draw(products(algebra, depth, with_t))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("+-"))
        ptext, pvalue = draw(products(algebra, depth, with_t))
        text, value = f"{text} {op} {ptext}", value + pvalue if op == "+" else value - pvalue
    return text, value


@st.composite
def elements(draw):
    """An algebra, then terms of up to three products, groups nested 3 deep,
    each ending in a direction."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    bases = {f"d{j}": algebra.d(j) for j in range(1, algebra.m + 1)}
    bases["dmu"] = algebra.dmu()
    text, value = "", algebra.zero()
    for n in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from("+-")) if n else "+"
        direction = draw(st.sampled_from(sorted(bases)))
        base = bases[direction]
        if draw(st.booleans()):
            signs = draw(sign_runs)
            term, term_value = signs + direction, -base if signs.count("-") % 2 else base
        else:
            ptext, pvalue = draw(products(algebra, 3, True))
            term, term_value = f"{ptext}*{direction}", _times(algebra, pvalue, base)
        text += f" {op} {term}" if n else term
        value = value + term_value if op == "+" else value - term_value
    return algebra, text, value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(elements())
def test_element_text_parses_to_its_tree(fraction_oracle, tree):
    algebra, text, value = tree
    parsed = parse_element(text, algebra)
    assert parsed == value
    for cartan in parsed.support.values():
        for coeff in cartan.coeffs:
            _assert_canonical(coeff, fraction_oracle)
    # the printed text parses back to the element and prints as itself again
    formatted = algebra.format(value)
    reparsed = parse_element(formatted, algebra)
    assert reparsed == value
    assert algebra.format(reparsed) == formatted


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expressions(W2, 3, False))
def test_scalar_text_parses_to_its_tree(fraction_oracle, tree):
    text, value = tree
    expected = value.coefficient((0, 0), 0)
    parsed = parse_scalar(text, FIELD)
    assert parsed == expected
    _assert_canonical(parsed, fraction_oracle)
