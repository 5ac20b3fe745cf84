"""Exact rational-function arithmetic over Q(mu1..mun)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import (
    DenominatorVanishes,
    MuPolynomial,
    Scalar,
    ScalarField,
    format_polynomial,
    poly_gcd,
)

F2 = ScalarField(2)
MU1 = F2.mu(1)
MU2 = F2.mu(2)


# Keep random operands small: rational-function identities normalize by
# multivariate gcd, which swells quickly on dense high-degree inputs.
def random_poly(rng: random.Random, arity: int, nterms: int = 3) -> MuPolynomial:
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randrange(0, 2) for _ in range(arity))
        terms[mono] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return MuPolynomial(arity, terms)


def random_scalar(rng: random.Random, arity: int) -> Scalar:
    num = random_poly(rng, arity)
    den = random_poly(rng, arity, nterms=2)
    while den.is_zero:
        den = random_poly(rng, arity, nterms=2)
    return Scalar(num, den)


def test_fraction_addition():
    half = F2.from_fraction(Fraction(1, 2))
    assert half + half == F2.one()
    assert (half + half).is_one()


def test_variable_product():
    prod = MU1 * MU2
    assert prod.num == MuPolynomial(2, {(1, 1): Fraction(1)})
    assert prod.den.is_constant()


def test_exact_quotient_difference_of_squares():
    # (mu1^2 - mu2^2) / (mu1 - mu2) == mu1 + mu2, checked by cross-multiplying
    quotient = (MU1 * MU1 - MU2 * MU2) / (MU1 - MU2)
    assert quotient == MU1 + MU2
    assert quotient.num * (MU1 - MU2).num == (MU1 * MU1 - MU2 * MU2).num * quotient.den


def test_poly_gcd_frozen_cases():
    p_mu1 = MU1.num
    p_mu2 = MU2.num
    assert poly_gcd(p_mu1 * p_mu2, p_mu1) == p_mu1
    assert poly_gcd(p_mu1 + p_mu2, p_mu1 - p_mu2) == MuPolynomial.one(2)
    # gcd with zero returns the other argument made primitive
    scaled = (p_mu1 + p_mu2).scale(Fraction(6))
    assert poly_gcd(MuPolynomial.zero(2), scaled) == p_mu1 + p_mu2


def test_evaluate_at_rational_point():
    assert (MU1 + MU2).evaluate([Fraction(1), Fraction(2)]) == Fraction(3)
    assert (MU1 * MU2 - MU2).evaluate([Fraction(2), Fraction(3)]) == Fraction(3)


def test_denominator_vanishes():
    inv = MU1.inverse()
    with pytest.raises(DenominatorVanishes):
        inv.evaluate([Fraction(0), Fraction(1)])


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        MU1 / F2.zero()
    with pytest.raises(ZeroDivisionError):
        F2.zero().inverse()


def test_normalization_monic_denominator():
    # equal fractions normalize to identical (num, den) pairs
    a = Scalar(MU1.num.scale(Fraction(3)), (MU1 + MU2).num.scale(Fraction(3)))
    b = Scalar(MU1.num, (MU1 + MU2).num)
    assert a == b
    assert a.num == b.num and a.den == b.den
    rebuilt = Scalar(a.num, a.den)
    assert rebuilt.num == a.num and rebuilt.den == a.den


def test_multiplicative_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        s = random_scalar(rng, 2)
        if s.is_zero:
            continue
        assert (s * s.inverse()).is_one()
        assert (s / s).is_one()


def test_field_arithmetic_random():
    rng = random.Random(11)
    for _ in range(12):
        a = random_scalar(rng, 2)
        b = random_scalar(rng, 2)
        c = random_scalar(rng, 2)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == F2.zero()


def test_int_coercion():
    assert MU1 + 0 == MU1
    assert MU1 * 1 == MU1
    assert 2 * MU1 == MU1 + MU1
    assert 1 - MU1 == -(MU1 - 1)
    assert MU1 / 2 + MU1 / 2 == MU1


def test_lift_and_restrict():
    f3 = ScalarField(3)
    lifted = f3.lift(MU1 + MU2)
    assert lifted.arity == 3
    assert lifted.evaluate([Fraction(1), Fraction(2), Fraction(99)]) == Fraction(3)


def test_format_polynomial_grlex():
    # higher total degree first, then lexicographic within a degree
    poly = (MU1 * MU1 + MU2 + F2.one()).num
    assert format_polynomial(poly, ("mu1", "mu2")) == "mu1^2 + mu2 + 1"
    assert format_polynomial((MU1 * MU2 - MU2).num, ("mu1", "mu2")) == "mu1*mu2 - mu2"
    assert format_polynomial(MuPolynomial.zero(2), ("mu1", "mu2")) == "0"


def test_scalar_field_extension():
    field = ScalarField(2, ("c",))
    c = field.var("c")
    assert field.arity == 3
    assert field.format(c * field.mu(1)) == "mu1*c"
    plain = F2.mu(1) + F2.mu(2)
    assert field.lift(plain).arity == 3


def test_as_fraction_guards():
    assert F2.from_int(5).as_fraction() == Fraction(5)
    assert F2.from_int(5).is_rational()
    assert not MU1.is_rational()
    with pytest.raises(Exception):
        MU1.as_fraction()


@st.composite
def small_polys(draw):
    arity = 2
    nterms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(nterms):
        mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(arity))
        terms[mono] = Fraction(draw(st.integers(min_value=-4, max_value=4)))
    return MuPolynomial(arity, terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
        return
    assert a.exact_div(g) * g == a
    assert b.exact_div(g) * g == b


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
