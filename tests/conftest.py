"""Shared oracles: the Cartan-valued bracket, variant membership, the
box element of a coordinate vector, the ad-matrix, the stacked anchor
system, the certificate property, the forcing rank, the Q-coefficient
scalar normal form and the CLI's argv parsing; matrix-vector products;
and small random scalars.

The Cartan-valued bracket is the one `bracket` computed with Scalar
arithmetic, one pairing per pair of stored terms, before it moved to
integer term dicts.  Membership scans every nonzero coefficient against
the variant's exponent rule, written out here, and divides each wnmu
Cartan part by mu_1, as `member` did before it decided by the variant's
rule alone.  The box element of a vector scales a unit Cartan element
(d_mu in wnmu) per coordinate and adds them up, as `element_from_vector`
did before it put each coefficient into its slot.  The ratio of two
elements divides x by y at y's pivot and scales y back, as `proportional`
did before it compared minors over cleared denominators.  The ad-matrix, the
anchor system and the certificate property are rebuilt from `bracket`
over every column of the degree box, independently of the
structure-constant builder behind `ad_matrix` and of how `solve_inner`
organises its own solve.  The
forcing rank is rebuilt by adjoining one unknown per family member to the
scalar field, independently of the bilinear split the verifiers use.  The
scalar normal form is the one `Scalar` kept before its coefficients
became integers: Fraction coefficients, a gcd over Q[mu] with its own
Q-exact division, and a primitive denominator.  The reference `main`
parses the whole argv with the top-level parser's `parse_args`, as
`cli.main` did before it handed an argv that starts with a subcommand's
name straight to that subcommand's parser.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wittkit import (
    MU_DIRECTION,
    CartanElement,
    MuPolynomial,
    Scalar,
    ScalarMatrix,
    TruncatedSpace,
    WittAlgebra,
    WittElement,
    bracket,
    format_polynomial,
    rank,
)
from wittkit.cli import build_parser
from wittkit.errors import ParseError, WittkitError
from wittkit.witt import VariantKind


def parse_args_main(argv):
    """`cli.main` parsing with `build_parser().parse_args`: its handlers and exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except WittkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _pairing(cartan, beta):
    """(d_a, beta) = sum_i a_i beta_i."""
    total = None
    for a, b in zip(cartan.coeffs, beta):
        if b and not a.is_zero:
            total = a * b if total is None else total + a * b
    return Scalar.zero(cartan.coeffs[0].arity) if total is None else total


def cartan_bracket(x, y):
    """[x, y] by the Cartan-valued product rule, with Scalar arithmetic.

    [t^alpha d_a, t^beta d_b] = t^(alpha+beta) ((d_a, beta) d_b - (d_b, alpha) d_a);
    a gamma comes in at the first pair of terms that reaches it.
    """
    acc = {}
    for alpha, da in x.support.items():
        for beta, db in y.support.items():
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            a_beta, b_alpha = _pairing(da, beta), _pairing(db, alpha)
            if b_alpha.is_zero:
                term = db.scale(a_beta)
            elif a_beta.is_zero:
                term = da.scale(-b_alpha)
            else:
                term = db.scale(a_beta) + da.scale(-b_alpha)
            acc[gamma] = acc[gamma] + term if gamma in acc else term
    return WittElement(x.m, acc, max(x.scalar_arity(), y.scalar_arity()))


def scanning_member(algebra, x):
    """Whether x lies in the variant, every nonzero coefficient checked.

    wnplus keeps t^alpha d_j with alpha + e_j >= 0, wnplusplus alpha >= 0,
    and a wnmu Cartan part c must equal (c_1 / mu_1) d_mu.
    """
    if x.m != algebra.m:
        return False
    kind, dmu = algebra.variant.kind, algebra.dmu_cartan().coeffs
    for alpha, cartan in x.support.items():
        for j, c in enumerate(cartan.coeffs):
            if c.is_zero:
                continue
            shifted = [a + (i == j) for i, a in enumerate(alpha)]
            if kind is VariantKind.WN_PLUS and min(shifted) < 0:
                return False
            if kind is VariantKind.WN_PLUS_PLUS and min(alpha) < 0:
                return False
        if kind is VariantKind.WN_MU:
            lam = cartan.coeffs[0] / dmu[0]
            if any(c != lam * mu for c, mu in zip(cartan.coeffs, dmu)):
                return False
    return True


def scaling_proportional(x, y):
    """lam = x_p / y_p at y's pivot p, its first term's first nonzero
    coefficient, when x == lam * y; lam = 0 for a zero x, else None."""
    if x.is_zero:
        return Scalar.zero(max(y.scalar_arity(), 1))
    if y.is_zero:
        return None
    alpha, cartan = next(iter(y.support.items()))
    i = next(i for i, c in enumerate(cartan.coeffs) if not c.is_zero)
    lam = x.coefficient(alpha, i) / cartan.coeffs[i]
    return lam if x == y.scale(lam) else None


def unit_scaled_element(space, vector):
    """sum of vector[i] * basis[i]: a unit Cartan element, or d_mu, scaled per coordinate."""
    algebra = space.algebra
    support = {}
    for i, coeff in vector.items():
        if coeff.is_zero:
            continue
        alpha, direction = space.basis[i]
        if direction == MU_DIRECTION:
            cartan = algebra.dmu_cartan().scale(coeff)
        else:
            cartan = CartanElement.unit(algebra.m, direction, algebra.field.arity).scale(coeff)
        support[alpha] = support[alpha] + cartan if alpha in support else cartan
    return WittElement(algebra.m, support, algebra.field.arity)


def apply(matrix, vector):
    """A @ v for a sparse vector, the nonzero rows."""
    out = {}
    for r, row in enumerate(matrix.rows):
        total = Scalar.zero(matrix.arity)
        for c, a in row.items():
            if c in vector:
                total = total + a * vector[c]
        if not total.is_zero:
            out[r] = total
    return out


def left_apply(matrix, vector):
    """u @ A for a sparse row vector keyed by row index, the nonzero columns."""
    out = {}
    for r, u in vector.items():
        for c, a in matrix.rows[r].items():
            out[c] = out.get(c, Scalar.zero(matrix.arity)) + u * a
    return {c: s for c, s in out.items() if not s.is_zero}


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


def is_rational(scalar):
    return scalar.num.is_constant() and scalar.den.is_constant()


def _support_rows(w):
    for gamma, cartan in w.support.items():
        for j, coeff in enumerate(cartan.coeffs):
            if not coeff.is_zero:
                yield gamma, j, coeff


def bracket_ad_matrix(z, space):
    """(matrix, row keys) of x -> [x, z], one `bracket` per column of the space.

    Rows are the sorted (exponent, direction) keys that some column reaches.
    """
    entries = []
    for col in range(len(space)):
        for gamma, j, coeff in _support_rows(bracket(space.element(col), z)):
            entries.append(((gamma, j), col, coeff))
    keys = sorted({key for key, _, _ in entries})
    row_of = {key: r for r, key in enumerate(keys)}
    matrix = ScalarMatrix(len(keys), len(space), space.algebra.field.arity)
    for key, col, coeff in entries:
        matrix.add(row_of[key], col, coeff)
    return matrix, keys


def build_stacked_system(algebra, constraints, box):
    """(matrix, rhs, row keys) of [a, x_q] = y_q over the whole box.

    Rows are the sorted (constraint, exponent, direction) keys that some
    column or right-hand side reaches; columns follow the box basis.
    """
    space = TruncatedSpace(algebra, box)
    entries = []
    rhs_entries = {}
    for q, (x, y) in enumerate(constraints):
        for col in range(len(space)):
            for gamma, j, coeff in _support_rows(bracket(space.element(col), x)):
                entries.append(((q, gamma, j), col, coeff))
        for gamma, j, coeff in _support_rows(y):
            rhs_entries[(q, gamma, j)] = coeff
    keys = sorted({key for key, _, _ in entries} | set(rhs_entries))
    row_of = {key: r for r, key in enumerate(keys)}
    matrix = ScalarMatrix(len(keys), len(space), algebra.field.arity)
    for key, col, coeff in entries:
        matrix.add(row_of[key], col, coeff)
    rhs = {row_of[key]: value for key, value in rhs_entries.items()}
    return matrix, rhs, keys


def check_certificate(algebra, constraints, box, certificate):
    """None when u A = 0 and u . b != 0 over the whole box, else the reason.

    `certificate` is a list of ((q, gamma, j), weight) rows.
    """
    if not certificate:
        return "empty certificate"
    keys = [key for key, _ in certificate]
    if len(set(keys)) != len(keys):
        return "a row is listed twice"
    space = TruncatedSpace(algebra, box)
    zero = algebra.field.zero()
    for col in range(len(space)):
        total = zero
        images = {}
        for (q, gamma, j), weight in certificate:
            if q not in images:
                images[q] = bracket(space.element(col), constraints[q][0])
            entry = images[q].coefficient(gamma, j)
            if not entry.is_zero:
                total = total + weight * entry
        if not total.is_zero:
            return f"u A != 0 at column {col}"
    ub = zero
    for (q, gamma, j), weight in certificate:
        entry = constraints[q][1].coefficient(gamma, j)
        if not entry.is_zero:
            ub = ub + weight * entry
    return "u . b == 0" if ub.is_zero else None


def adjoined_forcing(algebra, family, x):
    """(support, rank) of [c_1 s_1 + ... + c_r s_r, x] with the c_i adjoined as unknowns.

    The bracket is taken over Q(mu)(c_1..c_r); each coefficient of the image
    is split into its parts linear in the c_i, which must have no
    unknown-free part, and the rank is that of those linear forms.
    """
    base = algebra.field.arity
    ext = algebra.field.extend(*[f"c{i}" for i in range(1, len(family) + 1)])
    a = WittAlgebra(algebra.variant, ext).zero()
    for i, s in enumerate(family, 1):
        a = a + s.lift(ext.arity).scale(ext.var(f"c{i}"))
    image = bracket(a, x.lift(ext.arity))
    rows = [coeff for _, _, coeff in _support_rows(image)]
    matrix = ScalarMatrix(len(rows), len(family), base)
    for r, value in enumerate(rows):
        assert all(not any(mono[base:]) for mono in value.den.terms)
        den = MuPolynomial(base, {mono[:base]: c for mono, c in value.den.terms.items()})
        parts = {}
        for mono, coeff in value.num.terms.items():
            slots = [i for i, e in enumerate(mono[base:]) for _ in range(e)]
            assert len(slots) == 1, "coefficient is not a linear form in the unknowns"
            parts.setdefault(slots[0], {})[mono[:base]] = coeff
        for slot, terms in parts.items():
            matrix.add(r, slot, Scalar(MuPolynomial(base, terms), den))
    return set(image.support), rank(matrix)


def _grlex(poly):
    return max(poly.terms, key=lambda mono: (sum(mono), mono))


def _q_content(poly):
    """Positive rational content: gcd of the numerators over lcm of the denominators."""
    num_gcd, den_lcm = 0, 1
    for v in map(Fraction, poly.terms.values()):
        num_gcd = math.gcd(num_gcd, v.numerator)
        den_lcm = den_lcm * v.denominator // math.gcd(den_lcm, v.denominator)
    return Fraction(num_gcd, den_lcm)


def _q_primitive(poly):
    if poly.is_zero:
        return poly
    c = _q_content(poly)
    return poly.scale(1 / (-c if poly.terms[_grlex(poly)] < 0 else c))


def _q_exact_div(a, b):
    quotient = {}
    dm = _grlex(b)
    while not a.is_zero:
        am = _grlex(a)
        mono = tuple(x - y for x, y in zip(am, dm))
        assert min(mono) >= 0, "inexact division"
        quotient[mono] = Fraction(a.terms[am]) / b.terms[dm]
        a = a - b.shift(mono).scale(quotient[mono])
    return MuPolynomial(b.arity, quotient)


def _q_parts(poly, var):
    """Coefficients of `poly` as a polynomial in `var`, by degree."""
    parts = {}
    for mono, c in poly.terms.items():
        parts.setdefault(mono[var], {})[mono[:var] + (0,) + mono[var + 1:]] = c
    return {d: MuPolynomial(poly.arity, t) for d, t in parts.items()}


def _q_content_in(poly, var):
    acc = MuPolynomial.zero(poly.arity)
    for part in _q_parts(poly, var).values():
        acc = q_gcd(acc, part)
    return acc


def _q_pseudo_rem(a, b, var):
    db = max(_q_parts(b, var))
    lc_b = _q_parts(b, var)[db]
    while not a.is_zero and max(_q_parts(a, var)) >= db:
        da = max(_q_parts(a, var))
        shift = tuple(da - db if i == var else 0 for i in range(a.arity))
        a = a * lc_b - b * _q_parts(a, var)[da].shift(shift)
    return a


def q_gcd(a, b):
    """Gcd over Q[mu], primitive with positive leading coefficient (Euclid on primitive parts)."""
    if a.is_zero or b.is_zero:
        return _q_primitive(a + b)
    if a.is_constant() or b.is_constant():
        return MuPolynomial.one(a.arity)
    var = max(i for mono in [*a.terms, *b.terms] for i, e in enumerate(mono) if e)
    cont = q_gcd(_q_content_in(a, var), _q_content_in(b, var))
    r0 = _q_exact_div(a, _q_content_in(a, var))
    r1 = _q_exact_div(b, _q_content_in(b, var))
    while not r1.is_zero:
        if max(_q_parts(r0, var)) < max(_q_parts(r1, var)):
            r0, r1 = r1, r0
        rem = _q_pseudo_rem(r0, r1, var)
        # primitive over Q too: rational constants are units, and the PRS swells without it
        r0, r1 = r1, (rem if rem.is_zero
                      else _q_primitive(_q_exact_div(rem, _q_content_in(rem, var))))
    return _q_primitive(cont * r0 if max(_q_parts(r0, var)) else cont)


def fraction_normal_form(num, den):
    """(num, den) in the Q-coefficient normal form: coprime over Q[mu], den
    primitive over Z with positive leading coefficient, and den == 1 when
    constant or when num == 0."""
    one = MuPolynomial.one(num.arity)
    if num.is_zero:
        return num, one
    if den.is_constant():
        return num.scale(1 / Fraction(den.constant_value())), one
    g = q_gcd(num, den)
    num, den = _q_exact_div(num, g), _q_exact_div(den, g)
    c = _q_content(den)
    c = -c if den.terms[_grlex(den)] < 0 else c
    return num.scale(1 / c), den.scale(1 / c)


def fraction_format(num, den, names):
    """`format_scalar`'s text for a pair in the Q-coefficient normal form."""
    if den.is_constant():
        return format_polynomial(num, names)
    return f"({format_polynomial(num, names)})/({format_polynomial(den, names)})"


@pytest.fixture
def ad_matrix_oracle():
    return bracket_ad_matrix


@pytest.fixture
def stacked_system():
    return build_stacked_system


@pytest.fixture
def certificate_holds():
    return check_certificate


@pytest.fixture
def forcing_oracle():
    return adjoined_forcing


@pytest.fixture(scope="session")
def fraction_oracle():
    return SimpleNamespace(normal_form=fraction_normal_form, format=fraction_format, gcd=q_gcd)


@pytest.fixture
def bracket_oracle():
    return cartan_bracket


@pytest.fixture
def member_oracle():
    return scanning_member


@pytest.fixture
def element_oracle():
    return unit_scaled_element


@pytest.fixture
def proportional_oracle():
    return scaling_proportional


@pytest.fixture
def reference_main():
    return parse_args_main
