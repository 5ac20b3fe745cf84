"""Exact rational-function arithmetic over Q(mu1..mun)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import is_rational, q_gcd, random_scalar

from wittkit import (
    AlgebraVariant,
    DenominatorVanishes,
    ExactDivisionError,
    MuPolynomial,
    Scalar,
    ScalarField,
    WittAlgebra,
    format_polynomial,
    parse_element,
    parse_scalar,
    poly_gcd,
)
from wittkit import scalars
from wittkit.scalars import format_scalar

F2 = ScalarField(2)
MU1 = F2.mu(1)
MU2 = F2.mu(2)


def test_fraction_addition():
    half = F2.from_fraction(Fraction(1, 2))
    assert half + half == F2.one()
    assert (half + half).is_one()


def test_field_generators_are_shared_per_arity():
    # mu_i, and each named unknown, is the monomial at its unit exponent: one
    # Scalar per arity and index, whichever field asks for it
    for field in (ScalarField(1), F2, ScalarField(3), ScalarField(2, ("c", "e"))):
        again = ScalarField(field.n_mu, field.extra_names)
        for index, name in enumerate(field.names):
            unit = [int(i == index) for i in range(field.arity)]
            assert field.var(name) == Scalar.monomial(1, 1, unit)
            assert field.var(name) is again.var(name)
            if index < field.n_mu:
                assert field.mu(index + 1) is field.var(name)


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
    assert F2.from_fraction(5).as_fraction() == Fraction(5)
    assert is_rational(F2.from_fraction(5))
    assert not is_rational(MU1)
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
@given(small_polys(), st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.integers(-4, 4).filter(bool))
def test_monomial_gcd_and_quotient_match_the_general_path(p, exponents, coeff):
    # with a monomial both go term by term; times q, which no monomial
    # divides, they take the general path, and must agree with it
    m = MuPolynomial(2, {exponents: coeff})
    q = MuPolynomial(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert poly_gcd(p * q, m * q) == poly_gcd(p, m) * q == poly_gcd(m, p) * q
    assert (p * m).exact_div(m) == p == (p * m * q).exact_div(m * q)
    if any(exponents) or abs(coeff) > 1:
        with pytest.raises(ExactDivisionError):
            (p * m + MuPolynomial.one(2)).exact_div(m)


@st.composite
def linear_forms(draw):
    """c1 mu1 + c2 mu2 + c0 with two or more terms, times a content up to 3."""
    coeffs = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(
        lambda c: sum(map(bool, c)) > 1 and any(c[:2])))
    content = draw(st.integers(1, 3))
    monos = [(1, 0), (0, 1), (0, 0)]
    return MuPolynomial(2, {mono: content * c for mono, c in zip(monos, coeffs)})


@settings(max_examples=80, deadline=None)
@given(small_polys(), st.integers(-3, 3), st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.integers(-6, 6), st.integers(-4, 4).filter(bool),
       st.lists(st.integers(-2, 2), min_size=0, max_size=3))
@example(MuPolynomial(2, {(1, 0): 4, (0, 1): -6}), 0, (0, 0), 0, 1, [])
def test_private_polynomial_constructor_matches_the_public_one(poly, value, mono, num, den,
                                                                exponents):
    # every polynomial built from terms taken as they are equals, term by term and
    # in order, what the pruning constructor builds from the same terms
    built = []
    private = scalars._poly

    def checked(arity, terms):
        public = MuPolynomial(arity, dict(terms))
        made = private(arity, terms)
        assert (made.arity, list(made.terms.items())) == (public.arity, list(public.terms.items()))
        built.append(made)
        return made

    with mock.patch.object(scalars, "_poly", checked):
        neg, shifted, lifted = -poly, poly.shift(mono), poly.lift(3)
        poly.scale(value)
        poly.primitive()
        Scalar.monomial(num, den, exponents)
        laurent = Scalar.monomial(num or 1, -abs(den), [e - 1 for e in exponents])
        if poly.terms:
            Scalar(poly.scale(2), poly.scale(-6))
    made = {id(p) for p in built}
    assert id(laurent.num) in made
    if poly.terms:
        assert {id(neg), id(shifted), id(lifted)} <= made


@settings(max_examples=80, deadline=None)
@given(linear_forms(), st.one_of(small_polys(), linear_forms()), st.booleans())
@example(MuPolynomial(2, {(1, 0): 2, (0, 1): 2}), MuPolynomial(2, {(1, 0): 1, (0, 0): 1}), True)
@example(MuPolynomial(2, {(1, 0): 1, (0, 0): 1}), MuPolynomial(2, {(2, 0): 3, (0, 1): 1}), True)
@example(MuPolynomial(2, {(1, 0): -1, (0, 0): 1}), MuPolynomial(2, {(0, 1): 1, (0, 0): 5}), False)
def test_linear_gcd_matches_the_q_oracle(lin, other, multiple):
    # a linear form's primitive part is irreducible: one trial division
    # decides, in either argument order, against linear forms too
    if multiple:
        other = other * lin
    g = q_gcd(lin, other)
    assert poly_gcd(lin, other) == g == poly_gcd(other, lin)
    if multiple:
        assert g == lin.primitive()


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# -- the integer form's traps, and text pinned before it ---------------------


def test_a_seventh_is_not_one():
    # an is_one() that asks num == 1 but not den == 1 reads 1/7 as one
    assert not (F2.one() / 7).is_one()
    assert (F2.from_fraction(7) / 7).is_one()


def test_rational_keeps_its_denominator():
    value = parse_scalar("3/7", F2)
    assert value.num == MuPolynomial.constant(2, 3)
    assert value.den == MuPolynomial.constant(2, 7)
    assert value != F2.from_fraction(3)


def test_as_fraction_returns_a_fraction():
    for value in (Fraction(3, 7), Fraction(5), Fraction(-1, 2)):
        exact = F2.from_fraction(value).as_fraction()
        assert type(exact) is Fraction and exact == value


@pytest.mark.parametrize("text, expected", [
    ("3/(7*mu2)", "(3/7)/(mu2)"),
    ("mu1/2", "1/2*mu1"),
    ("(3*mu1 + 2)/(6*mu1 + 6*mu2)", "(1/2*mu1 + 1/3)/(mu1 + mu2)"),
    ("-6/(4*mu1 - 2*mu2)", "(-3)/(2*mu1 - mu2)"),
])
def test_format_scalar_pins(text, expected):
    assert F2.format(parse_scalar(text, F2)) == expected


@pytest.mark.parametrize("text, expected", [
    ("(3/7)*t1*d1", "3/7*t1*d1"),
    ("-1/2*mu1*t2*d1", "-1/2*mu1*t2*d1"),
    ("-mu1/2*t2*d1", "-1/2*mu1*t2*d1"),
    ("(2*mu1)/(4*mu2 - 2)*t1*d2 - 5/3*d1", "-5/3*d1 + ((mu1)/(2*mu2 - 1))*t1*d2"),
])
def test_format_element_pins(text, expected):
    algebra = WittAlgebra(AlgebraVariant.wn(2))
    assert algebra.format(parse_element(text, algebra)) == expected


# -- integer coefficients against the Q-coefficient normal form ---------------


@st.composite
def rational_functions(draw, arity):
    """(num, den) with Fraction coefficients, degree <= 1 in each variable.

    num draws 0-3 terms and den 1-3; a den whose terms cancel becomes 1.
    """
    def poly(min_terms):
        terms = {}
        for _ in range(draw(st.integers(min_value=min_terms, max_value=3))):
            mono = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(arity))
            terms[mono] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        return MuPolynomial(arity, terms)

    num, den = poly(0), poly(1)
    return num, den if den.terms else MuPolynomial.one(arity)


def _leading_coefficient(poly):
    return poly.terms[max(poly.terms, key=lambda mono: (sum(mono), mono))]


def _assert_matches_oracle(oracle, scalar, pair, names):
    num, den = scalar.num, scalar.den
    # the canonical form over Z[mu]
    assert all(type(c) is int for c in [*num.terms.values(), *den.terms.values()])
    assert _leading_coefficient(den) > 0
    assert math.gcd(*num.terms.values(), *den.terms.values()) == 1
    assert oracle.gcd(num, den).is_constant()
    if num.is_zero:
        assert den == MuPolynomial.one(num.arity)
    # the same value, and the Q-coefficient form is this one over den's content
    onum, oden = pair
    assert num * oden == onum * den
    c = math.gcd(*den.terms.values())
    assert {m: Fraction(v, c) for m, v in num.terms.items()} == onum.terms
    assert {m: Fraction(v, c) for m, v in den.terms.items()} == oden.terms
    assert format_scalar(scalar, names) == oracle.format(onum, oden, names)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(lambda arity: st.tuples(
    rational_functions(arity), rational_functions(arity),
    st.one_of(st.integers(-5, 5), st.fractions(max_denominator=6).filter(lambda q: abs(q) < 6)))))
def test_integer_arithmetic_matches_fraction_normal_form(fraction_oracle, case):
    normal = fraction_oracle.normal_form
    (an, ad), (bn, bd), k = case
    arity = an.arity
    names = ScalarField(arity).names
    a, b = Scalar(an, ad), Scalar(bn, bd)
    oa, ob = normal(an, ad), normal(bn, bd)
    ok = (MuPolynomial.constant(arity, Fraction(k)), MuPolynomial.one(arity))
    checks = [
        (a, oa),
        (a + b, normal(oa[0] * ob[1] + ob[0] * oa[1], oa[1] * ob[1])),
        (a - b, normal(oa[0] * ob[1] - ob[0] * oa[1], oa[1] * ob[1])),
        (a * b, normal(oa[0] * ob[0], oa[1] * ob[1])),
        (k + a, normal(ok[0] * oa[1] + oa[0], oa[1])),
        (k - a, normal(ok[0] * oa[1] - oa[0], oa[1])),
        (a * k, normal(oa[0] * ok[0], oa[1])),
        (k * a, normal(oa[0] * ok[0], oa[1])),
        (-a, normal(-oa[0], oa[1])),
    ]
    if not b.is_zero:
        checks += [(a / b, normal(oa[0] * ob[1], oa[1] * ob[0])),
                   (b.inverse(), normal(ob[1], ob[0])),
                   (k / b, normal(ok[0] * ob[1], ob[0]))]
    if k:
        checks.append((a / k, normal(oa[0], oa[1] * ok[0])))
    for scalar, pair in checks:
        _assert_matches_oracle(fraction_oracle, scalar, pair, names)
    lifted = ScalarField(arity + 1).lift(a)
    pad = {m + (0,): c for m, c in oa[0].terms.items()}, {m + (0,): c for m, c in oa[1].terms.items()}
    _assert_matches_oracle(fraction_oracle, lifted, tuple(MuPolynomial(arity + 1, t) for t in pad),
                           ScalarField(arity + 1).names)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(rational_functions), st.integers(-50, 50))
def test_int_product_matches_the_general_path(pair, n):
    s = Scalar(*pair)
    general = s * Scalar.from_fraction(s.arity, n)
    for product in (s * n, n * s):
        assert (product.num, product.den) == (general.num, general.den)


def test_int_product_cancels_the_denominator_content():
    # 1/(2 mu1 + 2) * 4 = 2/(mu1 + 1)
    s = Scalar(MuPolynomial.one(1), MuPolynomial(1, {(1,): 2, (0,): 2}))
    product = s * 4
    assert product.num == MuPolynomial.constant(1, 2)
    assert product.den == MuPolynomial(1, {(1,): 1, (0,): 1})
    assert s * 1 is s
    assert (s * 0).is_zero and (s * 0).den == MuPolynomial.one(1)
