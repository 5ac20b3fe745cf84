"""Bracket arithmetic and variant membership for the generalized Witt algebras."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from wittkit import (
    MU_DIRECTION,
    AlgebraVariant,
    ArityMismatch,
    BadArity,
    BadK,
    CartanElement,
    LengthMismatch,
    ScalarField,
    TruncatedSpace,
    WittAlgebra,
    WittElement,
    bracket,
    bracket_monomial_rule,
    check_antisymmetry,
    check_bilinearity,
    check_closure,
    check_jacobi,
    parse_element,
    proportional,
)
from wittkit import centralizer, parsing, witt
from wittkit.witt import VariantKind, iter_basis_pairs

W2 = WittAlgebra(AlgebraVariant.wn(2))
W1 = WittAlgebra(AlgebraVariant.wn(1))


def test_commuting_cartan_monomials():
    x = W2.monomial((1, 0), 1)
    y = W2.monomial((0, 1), 2)
    assert bracket(x, y).is_zero


def test_opposite_weight_bracket():
    # [t1^-1 d1, t1 d1] = (1 - (-1)) t1^0 d1 = 2 d1
    x = W1.monomial((-1,), 1)
    y = W1.monomial((1,), 1)
    two_d1 = W1.d(1).scale(W1.field.from_fraction(2))
    assert bracket(x, y) == two_d1


def test_euler_element_eigenvalues():
    # d_i = t_i (d/dt_i), so ad(d_1 + d_2) scales t^alpha d_j by |alpha|
    euler = W2.d(1) + W2.d(2)
    x = W2.monomial((2, -3), 1)
    assert bracket(euler, x) == x.scale(W2.field.from_fraction(-1))
    y = W2.monomial((1, 1), 2)
    assert bracket(euler, y) == y.scale(W2.field.from_fraction(2))


def test_dmu_cartan_eigenvalue():
    # [d_mu, t^alpha d_i] = (mu . alpha) t^alpha d_i
    wmu = WittAlgebra(AlgebraVariant.wnmu(2))
    x = wmu.monomial((3, -1), 1)
    eigen = wmu.field.mu(1) * 3 - wmu.field.mu(2)
    assert bracket(wmu.dmu(), x) == x.scale(eigen)


def test_bracket_structure_constants():
    # [t^a d_1, t^b d_2] = b_1 t^{a+b} d_2 - a_2 t^{a+b} d_1
    x = W2.monomial((2, 1), 1)
    y = W2.monomial((1, 3), 2)
    out = bracket(x, y)
    assert out.coefficient((3, 4), 1).as_fraction() == Fraction(1)
    assert out.coefficient((3, 4), 0).as_fraction() == Fraction(-1)


def test_bracket_agrees_with_monomial_rule():
    rng = random.Random(23)
    for _ in range(100):
        x = W2.random_element(rng, box=3)
        y = W2.random_element(rng, box=3)
        assert bracket(x, y) == bracket_monomial_rule(x, y)
    # other variants, mu-dependent coefficients, and pairs where one or both
    # pairings (d_a, beta), (d_b, alpha) vanish, so bracket drops that half
    for algebra in (WittAlgebra(AlgebraVariant.wnmu(2)), WittAlgebra(AlgebraVariant.winf(2, 3))):
        mu = algebra.field.mu
        coeffs = [mu(1), mu(1) - mu(2), mu(2) / (mu(1) + 3)]
        for _ in range(40):
            x = algebra.random_element(rng, box=2).scale(rng.choice(coeffs))
            y = algebra.random_element(rng, box=2).scale(rng.choice(coeffs))
            assert bracket(x, y) == bracket_monomial_rule(x, y)
    mu = W2.field.mu
    pairs = [
        (W2.d(1), W2.monomial((1, 3), 2, mu(2))),  # (d_b, alpha) = 0 at alpha = 0
        (W2.monomial((0, 1), 1, mu(1)), W2.monomial((0, 3), 2)),  # (d_a, beta) = 0
        (W2.monomial((0, 2), 1), W2.monomial((0, -1), 1, mu(1) + mu(2))),  # both zero
        (W2.dmu(), W2.monomial((2, -1), 1) + W2.dmu().translate((1, -1))),
    ]
    for x, y in pairs:
        assert bracket(x, y) == bracket_monomial_rule(x, y)
        assert bracket(y, x) == bracket_monomial_rule(y, x)
    assert bracket(*pairs[2]).is_zero


VARIANTS = [AlgebraVariant.wn(2), AlgebraVariant.winf(2, 3), AlgebraVariant.wnplus(2),
            AlgebraVariant.wnplusplus(2), AlgebraVariant.wnmu(2)]


def _operand_pairs(algebra, rng):
    """Operands with constant, linear, shared and higher-degree denominators, mixed
    within and across the two; zero operands; pairs with both pairings zero; x is y."""
    field = algebra.field
    mu1, mu2, one = field.mu(1), field.mu(2), field.one()
    f, g = mu1 + mu2, mu1 * mu2 + 1
    scalars = [one, field.from_fraction(Fraction(-7, 6)), mu1, mu2 / (mu1 + 3), mu1 / f,
               (mu1 - mu2) / f, f / (g * (mu1 - 2)), g / (f * f)]
    const, poly = scalars[:3], scalars[3:]

    def element(choices, parts):
        total = algebra.zero()
        for _ in range(parts):
            total = total + algebra.random_element(rng, box=2).scale(rng.choice(choices))
        return total

    for x_choices, y_choices in ((const, const), (poly, poly), (const, poly), (scalars, scalars)):
        for parts in (1, 2):
            yield element(x_choices, parts), element(y_choices, 3 - parts)
    x = element(scalars, 2)
    yield x, x
    yield x, algebra.zero()
    yield algebra.zero(), x
    # both pairings vanish at the one pair of terms, (d_a, beta) = 0 = (d_b, alpha)
    pad = (0,) * (algebra.m - 2)
    yield algebra.monomial((0, 2) + pad, 1, mu1 / f), algebra.monomial((0, -1) + pad, 1, g)
    yield algebra.dmu().scale(mu1 / f), algebra.dmu().scale(g)
    # two products over g g whose sum g divides once
    x = (algebra.monomial((0,) * algebra.m, 1, mu1 * mu2) + algebra.d(2)).scale(one / g)
    yield x, algebra.monomial((1, 1) + pad, 1, one / g)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind.value)
def test_bracket_matches_cartan_oracle_and_monomial_rule(variant, bracket_oracle):
    # values, and the order gammas come in, which proportional and certificates read
    algebra = WittAlgebra(variant)
    rng = random.Random(repr(variant))
    for x, y in _operand_pairs(algebra, rng):
        for a, b in ((x, y), (y, x)):
            out = bracket(a, b)
            for other in (bracket_oracle(a, b), bracket_monomial_rule(a, b)):
                assert out == other
                assert list(out.support) == list(other.support)
            assert out.scalar_arity() == algebra.field.arity


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind.value)
def test_bracket_on_kept_cleared_forms_matches_fresh_operands(variant, bracket_oracle):
    # a fixed operand, zero or not, on either side of many brackets is cleared once
    # and then read back: values and the order gammas come in match copies that
    # clear afresh and the Cartan oracle
    algebra = WittAlgebra(variant)
    pool = [e for pair in _operand_pairs(algebra, random.Random(repr(variant))) for e in pair]

    def fresh(x):
        return WittElement(x.m, x.support, x.scalar_arity())

    for fixed in pool[::5] + [algebra.zero()]:
        kept = witt._cleared(fixed)
        for x in pool[1::3] + [fixed, algebra.zero()]:
            for a, b in ((x, fixed), (fixed, x)):
                out = bracket(a, b)
                for other in (bracket(fresh(a), fresh(b)), bracket_oracle(a, b)):
                    assert out == other
                    assert list(out.support) == list(other.support)
        assert witt._cleared(fixed) is kept


def test_oversized_box_is_refused_before_enumeration(monkeypatch):
    # the count comes from the variant's lowest exponents alone: for each variant
    # the first box past the limit is refused without enumerating the window
    def enumerate_window(variant, box):
        raise AssertionError(f"{variant} box {box} was enumerated")

    monkeypatch.setattr(witt, "iter_basis_pairs", enumerate_window)
    for variant in VARIANTS + [AlgebraVariant.wn(3), AlgebraVariant.wnplus(4)]:
        box = next(b for b in itertools.count() if witt._window_size(variant, b) > witt.MAX_COLUMNS)
        assert witt._window_size(variant, box - 1) <= witt.MAX_COLUMNS
        with pytest.raises(BadArity, match=f"more than the {witt.MAX_COLUMNS} allowed"):
            WittAlgebra(variant)._basis_pair_list(box)
    # W_3 at box 1002, the default box of lemma 2.2 at k = 1000: 3 * 2005^3 columns
    with pytest.raises(BadArity, match="24180450375 columns"):
        WittAlgebra(AlgebraVariant.wn(3))._basis_pair_list(1002)


def test_bracket_rejects_mismatched_scalar_arities():
    w2c = WittAlgebra(AlgebraVariant.wn(2), ScalarField(2, ("c",)))
    for x, y in ((W2.d(1), w2c.d(2)), (W2.d(1), w2c.monomial((1, 0), 1)),
                 (W2.dmu(), w2c.d(1).scale(w2c.field.var("c")))):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ArityMismatch):
                bracket(a, b)
    # a zero operand meets no coefficient: a zero of the larger arity
    for a, b in ((W2.zero(), w2c.d(2)), (w2c.d(2), W2.zero()), (W2.d(1), w2c.zero())):
        out = bracket(a, b)
        assert out.is_zero and out.scalar_arity() == 3


def test_bracket_with_a_zero_operand_is_the_zero_of_the_larger_arity(bracket_oracle):
    # every pairing of arities 0, 2, 3 and 4: a zero operand on either side gives
    # the zero of the larger arity, two nonzero operands of different arities
    # raise, and equal arities bracket as the oracle does; ranks are checked first
    algebras = [WittAlgebra(AlgebraVariant.wn(2), ScalarField(2, names))
                for names in ((), ("c",), ("c", "e"))]
    zeros = [WittElement.zero(2)] + [a.zero() for a in algebras]
    nonzeros = [a.monomial((1, -1), 2, a.field.mu(1)) + a.d(1) for a in algebras]
    for x in zeros + nonzeros:
        for y in zeros + nonzeros:
            arity = max(x.scalar_arity(), y.scalar_arity())
            if x.is_zero or y.is_zero:
                out = bracket(x, y)
                assert out.is_zero and out.scalar_arity() == arity
                assert out.coefficient((0, 0), 0) == ScalarField(arity).zero()
            elif x.scalar_arity() != y.scalar_arity():
                with pytest.raises(ArityMismatch):
                    bracket(x, y)
            else:
                assert bracket(x, y) == bracket_oracle(x, y)
        with pytest.raises(LengthMismatch):
            bracket(x, W1.zero())


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind.value)
def test_bracket_of_an_element_with_itself_is_zero_at_once(variant, monkeypatch):
    # [x, x] = 0 by antisymmetry: the zero of x's arity, equal to the monomial
    # rule's term-by-term value, and neither operand is cleared to get it
    algebra = WittAlgebra(variant)
    pool = [e for pair in _operand_pairs(algebra, random.Random(repr(variant))) for e in pair]
    pool += [algebra.zero(), WittElement.zero(algebra.m), algebra.power_sum_dmu(2),
             WittAlgebra(variant, ScalarField(2, ("c",))).d(1)]
    expected = [bracket_monomial_rule(x, x) for x in pool]

    def clear(x):
        raise AssertionError("an operand of [x, x] was cleared")

    monkeypatch.setattr(witt, "_cleared", clear)
    for x, other in zip(pool, expected):
        out = bracket(x, x)
        assert out.is_zero and out == other
        assert out.scalar_arity() == x.scalar_arity()
    with pytest.raises(LengthMismatch):
        bracket(W1.zero(), W2.zero())


def test_cartan_arithmetic_checks_arity_on_zero_coefficients():
    # a mismatched scalar on a zero coefficient meets no Scalar operation,
    # so each operation compares the two fields once
    f2, f3 = ScalarField(2), ScalarField(3)
    a = CartanElement((f2.mu(1), f2.zero()))
    b = CartanElement((f3.zero(), f3.mu(2)))
    zero = CartanElement((f2.zero(), f2.zero()))
    for operation in (lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a,
                      lambda: zero + b, lambda: zero.scale(f3.mu(1)), lambda: a.scale(f3.mu(1))):
        with pytest.raises(ArityMismatch):
            operation()
    assert a + zero == a and zero - a == -a and zero.scale(f2.mu(2)) == zero


def test_bracket_axioms_random():
    rng = random.Random(51)
    for _ in range(60):
        x = W2.random_element(rng, box=2)
        y = W2.random_element(rng, box=2)
        z = W2.random_element(rng, box=2)
        assert check_antisymmetry(x, y) is None
        assert check_jacobi(x, y, z) is None
        a = W2.field.from_fraction(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        b = W2.field.from_fraction(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        assert check_bilinearity(a, b, x, y, z) is None


def test_variant_membership():
    plus = WittAlgebra(AlgebraVariant.wnplus(2))
    plusplus = WittAlgebra(AlgebraVariant.wnplusplus(2))
    # W_n^+: nonnegative exponents plus the corner elements t_i^-1 d_i,
    # i.e. derivations of the polynomial ring
    assert plus.member(plus.monomial((0, 2), 1))
    assert plus.member(plus.monomial((-1, 0), 1))
    assert not plus.member(plus.monomial((-1, 0), 2))
    assert not plus.member(plus.monomial((-1, -1), 1))
    assert not plus.member(plus.monomial((-2, 0), 1))
    # W_n^{++}: nonnegative exponents only
    assert plusplus.member(plusplus.monomial((0, 2), 1))
    assert not plusplus.member(plusplus.monomial((-1, 0), 1))
    # the box basis is the window's pairs that are members, in sorted order
    for m in (1, 2, 3):
        variants = [AlgebraVariant.wn(m), AlgebraVariant.wnplus(m),
                    AlgebraVariant.wnplusplus(m), AlgebraVariant.wnmu(m)]
        variants += [AlgebraVariant.winf(m - 1, m)] if m > 1 else []
        for variant in variants:
            algebra = WittAlgebra(variant)
            on_dmu_line = variant.kind is VariantKind.WN_MU
            for box in range(4):
                window = list(itertools.product(range(-box, box + 1), repeat=m))
                directions = [MU_DIRECTION] if on_dmu_line else range(m)
                pairs = [(alpha, d) for alpha in window for d in directions
                         if algebra.member(algebra.pair_element(alpha, d))]
                assert list(iter_basis_pairs(variant, box)) == pairs
                side, count = box + 1, m
                if variant.kind in (VariantKind.WN, VariantKind.W_INF_TRUNC):
                    side = 2 * box + 1
                elif on_dmu_line:
                    side, count = 2 * box + 1, 1
                expected = side ** m * count
                if variant.kind is VariantKind.WN_PLUS and box >= 1:
                    expected += m * (box + 1) ** (m - 1)
                assert len(pairs) == expected, (variant, box)
                assert witt._window_size(variant, box) == len(pairs)
                if on_dmu_line and m > 1:
                    # a single coordinate direction is off the d_mu line
                    assert not any(algebra.member(algebra.monomial(alpha, 1)) for alpha in window)


def test_wnmu_membership_agrees_with_proportional():
    rng = random.Random(808)
    seen = set()
    for n in (1, 2, 3):
        algebra = WittAlgebra(AlgebraVariant.wnmu(n))
        field, dmu = algebra.field, algebra.dmu_cartan()
        scalars = [field.from_fraction(2), field.from_fraction(Fraction(-3, 5)), field.mu(1),
                   field.mu(n) + field.from_fraction(1), field.from_fraction(1) / (field.mu(1) + 2)]
        for _ in range(40):
            alpha = tuple(rng.randrange(-2, 3) for _ in range(n))
            cartan = dmu.scale(rng.choice(scalars))
            if rng.random() < 0.5:
                # move one coordinate off the line (or, by chance, keep it)
                coeffs = list(cartan.coeffs)
                coeffs[rng.randrange(n)] += rng.choice(scalars + [field.zero()])
                cartan = CartanElement(coeffs)
            x = WittElement(n, {alpha: cartan})
            on_line = proportional(x, WittElement(n, {alpha: dmu})) is not None
            assert algebra.member(x) == on_line
            y = x + algebra.pair_element(tuple(-a for a in alpha), MU_DIRECTION)
            assert algebra.member(y) == on_line
            seen.add(on_line)
    assert seen == {True, False}


@pytest.mark.parametrize("variant", VARIANTS + [AlgebraVariant.wnmu(1), AlgebraVariant.wnmu(3),
                                     AlgebraVariant.wnplus(3)],
                         ids=lambda v: f"{v.kind.value}-{v.n}-{v.m}")
def test_membership_by_the_variant_rule_matches_a_scan(variant, member_oracle):
    # random sums of pairs inside and outside the variant's window rule, Cartan
    # parts on and off the d_mu line with rational-function coefficients, zero
    # coefficients at pairs the variant leaves out, and a wrong rank
    algebra = WittAlgebra(variant)
    field, m = algebra.field, algebra.m
    mu = [field.mu(i + 1) for i in range(field.n_mu)]
    scalars = [field.one(), field.from_fraction(Fraction(-3, 7)), mu[0], mu[-1] / (mu[0] + 2),
               (mu[0] - mu[-1]) / (mu[0] * mu[-1] + 1)]
    rng = random.Random(repr(variant))
    seen = set()
    for _ in range(150):
        support = {}
        for _ in range(rng.randint(1, 3)):
            alpha = tuple(rng.randrange(-2, 3) for _ in range(m))
            if rng.random() < 0.5:
                cartan = algebra.dmu_cartan().scale(rng.choice(scalars))
                if rng.random() < 0.4:  # one slot moved off the line, or by chance kept
                    coeffs = list(cartan.coeffs)
                    coeffs[rng.randrange(m)] += rng.choice(scalars + [field.zero()])
                    cartan = CartanElement(coeffs)
            else:
                cartan = CartanElement([rng.choice(scalars + [field.zero()] * 2)
                                        for _ in range(m)])
            support[alpha] = cartan
        x = WittElement(m, support, field.arity)
        expected = member_oracle(algebra, x)
        assert algebra.member(x) == expected
        seen.add(expected)
    for alpha in itertools.product(range(-2, 3), repeat=m):
        for d in range(m):
            x = algebra.monomial(alpha, d + 1, rng.choice(scalars))
            assert algebra.member(x) == member_oracle(algebra, x)
    wider = WittAlgebra(AlgebraVariant.wn(m + 1)).d(1)
    assert not algebra.member(wider) and not member_oracle(algebra, wider)
    # every rank-m element lies in wn, winf and the one-dimensional d_mu line of wnmu(1)
    holds_all = variant.kind in (VariantKind.WN, VariantKind.W_INF_TRUNC) or m == 1
    assert seen == ({True} if holds_all else {True, False})


def test_closure_under_bracket():
    rng = random.Random(404)
    for name in ("wnplus", "wnplusplus"):
        algebra = WittAlgebra(getattr(AlgebraVariant, name)(2))
        for _ in range(40):
            x = algebra.random_element(rng, box=2)
            y = algebra.random_element(rng, box=2)
            assert check_closure(algebra, x, y) is None


def test_random_element_deterministic():
    a = W2.random_element(random.Random(9), box=3)
    b = W2.random_element(random.Random(9), box=3)
    assert a == b
    assert W2.member(a)


def test_proportional():
    x = W2.monomial((1, 2), 1)
    y = x.scale(W2.field.from_fraction(Fraction(-3, 7)))
    ratio = proportional(y, x)
    assert ratio is not None and ratio.as_fraction() == Fraction(-3, 7)
    assert proportional(x, W2.monomial((1, 2), 2)) is None
    zero_ratio = proportional(W2.zero(), x)
    assert zero_ratio is not None and zero_ratio.is_zero


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind.value)
def test_proportional_matches_the_scaling_oracle(variant, proportional_oracle):
    # equal elements, rational-function multiples, zero x and zero y, other
    # supports, and x zero at y's pivot with the rest of y's support kept
    algebra = WittAlgebra(variant)
    field, rng = algebra.field, random.Random(27)
    mu1, mu2 = field.mu(1), field.mu(2)
    scalars = [field.from_fraction(Fraction(-3, 7)), mu1 / (mu2 + 1),
               (mu1 - mu2) / (mu1 * mu2 + 2), mu2 * mu2]
    seen = set()
    for _ in range(10):
        x, y = (algebra.random_element(rng, box=2) for _ in range(2))
        s = rng.choice(scalars)
        alpha, cartan = next(iter(y.support.items()))
        i = next(i for i, c in enumerate(cartan.coeffs) if not c.is_zero)
        off_pivot = y.scale(s) - algebra.monomial(alpha, i + 1, cartan.coeffs[i] * s)
        cases = [(y, y), (y.scale(s), y), (y, y.scale(s)), (algebra.zero(), y),
                 (y, algebra.zero()), (algebra.zero(), algebra.zero()), (x, y),
                 (y.scale(s) + x, y), (y.scale(s).translate((1,) * algebra.m), y),
                 (off_pivot, y)]
        for a, b in cases:
            expected = proportional_oracle(a, b)
            assert proportional(a, b) == expected, (a, b)
            seen.add(expected is None)
        assert proportional(y, y).is_one() and proportional(y.scale(s), y) == s
    assert seen == {True, False}


def test_trusted_constructor_matches_the_public_one(monkeypatch):
    # every element built without the public checks equals, field by field and
    # in support order, what WittElement builds from the same parts
    built = {}
    trusted = witt._trusted

    def checked(m, support, arity=0, prune=False):
        public = WittElement(m, dict(support), arity)
        element = trusted(m, support, arity, prune)
        assert (element.m, list(element.support.items()), element._arity) == (
            public.m, list(public.support.items()), public._arity)
        built[id(element)] = element
        return element

    for module in (witt, centralizer, parsing):
        monkeypatch.setattr(module, "_trusted", checked)
    rng = random.Random(27)
    for variant in VARIANTS:
        algebra = WittAlgebra(variant)
        field, m = algebra.field, algebra.m
        space = TruncatedSpace(algebra, 1)
        scalars = [field.zero(), field.from_fraction(-2), field.mu(1) / (field.mu(2) + 1)]
        results = [algebra.zero(), algebra.dmu(), algebra.power_sum_dmu(2),
                   algebra.power_sum_dmu(-1),
                   parse_element("t1*d1 - t1*d1 + t2*d2", algebra),
                   parse_element("t1*d1 - t1*d1", algebra),
                   parse_element("t2*dmu + dmu - t2*dmu", algebra)]
        for _ in range(6):
            x, y = (algebra.random_element(rng, box=2) for _ in range(2))
            s = rng.choice(scalars[1:])
            gamma = tuple(rng.randrange(-2, 3) for _ in range(m))
            vector = {i: rng.choice(scalars) for i in rng.sample(range(len(space)), 4)}
            results += [bracket(x, y), bracket(x, algebra.zero()), x + y, x - y, x + -x,
                        x - x, -x, x.scale(s), x.scale(field.zero()), x.translate(gamma),
                        space.element_from_vector(vector),
                        parse_element(algebra.format(x), algebra)]
        assert all(id(r) in built for r in results)


def test_power_sum_dmu():
    # (t_1^k + t_2^k) d_mu carries the full d_mu cartan at each exponent
    wmu = WittAlgebra(AlgebraVariant.wnmu(2))
    ps = wmu.power_sum_dmu(3)
    assert ps.coefficient((3, 0), 0) == wmu.field.mu(1)
    assert ps.coefficient((3, 0), 1) == wmu.field.mu(2)
    assert ps.coefficient((0, 3), 1) == wmu.field.mu(2)
    # [d_mu, t_i^k d_mu] = k mu_i t_i^k d_mu
    mu1 = wmu.field.mu(1)
    ti = WittElement(2, {(3, 0): wmu.dmu_cartan()})
    assert bracket(wmu.dmu(), ti) == ti.scale(mu1 * 3)


def test_power_sum_dmu_is_built_once_per_algebra():
    # one shared element per algebra and k, equal across algebras; t^0 leaves
    # an element as it is
    for variant in (AlgebraVariant.wn(3), AlgebraVariant.winf(2, 3), AlgebraVariant.wnmu(2)):
        first, second = WittAlgebra(variant), WittAlgebra(variant)
        for k in (-2, 1, 3):
            z = first.power_sum_dmu(k)
            assert first.power_sum_dmu(k) is z
            assert second.power_sum_dmu(k) == z and second.power_sum_dmu(k) is not z
            assert z.translate((0,) * z.m) is z
            assert z.translate((1,) + (0,) * (z.m - 1)) != z
        for _ in range(2):
            with pytest.raises(BadK):
                first.power_sum_dmu(0)
    with pytest.raises(LengthMismatch):
        W2.power_sum_dmu(1).translate((0,))


def test_cartan_element_pairing():
    # (d_a, beta) read off [d_a, t^beta d_b] = (d_a, beta) t^beta d_b - (d_b, 0) d_a
    field = W2.field
    c = CartanElement.unit(2, 0, field.arity).scale(field.from_fraction(3))
    y = W2.monomial((5, 7), 2)
    assert bracket(WittElement(2, {(0, 0): c}), y) == y.scale(field.from_fraction(15))
    assert CartanElement.zero(2, field.arity).is_zero


def test_monomial_constructs_raw_elements():
    # monomial() never validates membership; member() is the gate
    plus = WittAlgebra(AlgebraVariant.wnplus(2))
    stray = plus.monomial((-2, 0), 1)
    assert not plus.member(stray)
    assert W2.member(stray)


def test_truncated_variant_membership():
    winf = WittAlgebra(AlgebraVariant.winf(2, 4))
    x = winf.monomial((1, 0, 2, -1), 3)
    assert winf.member(x)
    assert x.m == 4


def test_algebra_variant_is_an_immutable_value():
    # The repr is pinned: tests/test_centralizer.py seeds its trials with it.
    assert repr(AlgebraVariant.wn(2)) == "AlgebraVariant(kind=<VariantKind.WN: 'wn'>, n=2, m=2)"
    assert repr(AlgebraVariant.winf(1, 3)) == (
        "AlgebraVariant(kind=<VariantKind.W_INF_TRUNC: 'winf'>, n=1, m=3)")
    a, b = AlgebraVariant.winf(1, 3), AlgebraVariant(VariantKind.W_INF_TRUNC, 1, 3)
    assert a == b and hash(a) == hash(b) and len({a, b, AlgebraVariant.wn(2)}) == 2
    assert a != AlgebraVariant.winf(1, 4) and a != AlgebraVariant.wnplus(1)
    assert a != (VariantKind.W_INF_TRUNC, 1, 3)
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        a.n = 2
    with pytest.raises(AttributeError, match="cannot delete field 'm'"):
        del a.m
    assert (a.kind, a.n, a.m) == (VariantKind.W_INF_TRUNC, 1, 3)
    with pytest.raises(BadArity, match="winf needs n < m, got n=2, m=2"):
        AlgebraVariant.winf(2, 2)
    with pytest.raises(BadArity, match="need n >= 1, got 0"):
        AlgebraVariant.wn(0)
    with pytest.raises(BadArity, match="wnmu needs n == m, got n=1, m=2"):
        AlgebraVariant(VariantKind.WN_MU, 1, 2)


def test_zero_element_keeps_the_scalar_arity():
    zero = W2.field.zero()
    x = W2.monomial((1, 0), 1)
    for z in [W2.zero(), x - x, x.scale(zero), W2.zero().scale(W2.field.mu(1)),
              -W2.zero(), W2.zero().translate((1, 1)), bracket(W2.d(1), W2.d(2)),
              bracket(W2.zero(), W2.zero()), W2.zero() + W2.zero(),
              parse_element("0", W2), parse_element("d1 - d1", W2)]:
        assert z.is_zero and z.coefficient((0, 0), 0) == zero, z
    assert W1.zero().lift(3).coefficient((0,), 0) == ScalarField(3).zero()
