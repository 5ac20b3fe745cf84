"""Element and scalar grammar: parsing, distribution, formatter round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wittkit import (
    AlgebraVariant,
    ParseError,
    Scalar,
    WittAlgebra,
    bracket,
    parse_element,
    parse_scalar,
)
from wittkit.parsing import MAX_NESTING

W2 = WittAlgebra(AlgebraVariant.wn(2))
WMU = WittAlgebra(AlgebraVariant.wnmu(2))


def test_basic_monomials():
    assert parse_element("d1", W2) == W2.d(1)
    assert parse_element("t1*d1", W2) == W2.monomial((1, 0), 1)
    assert parse_element("t1^-1*d1", W2) == W2.monomial((-1, 0), 1)
    assert parse_element("3*t1^2*t2*d2", W2) == W2.monomial(
        (2, 1), 2, W2.field.from_int(3))
    assert parse_element("0", W2) == W2.zero()


def test_signs_and_sums():
    x = parse_element("-d1 + 2*d2 - t1*d1", W2)
    assert x == -W2.d(1) + W2.d(2).scale(W2.field.from_int(2)) - W2.monomial((1, 0), 1)
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
    assert y == W2.monomial((0, 1), 1, W2.field.from_int(2) + W2.field.mu(1))


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


def test_error_position_reported():
    try:
        parse_element("d1 + t9*d1", W2)
    except ParseError as err:
        assert "position" in str(err) or err.pos >= 4
    else:  # pragma: no cover
        raise AssertionError("expected ParseError")


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
