"""Shared oracles: the ad-matrix, the stacked anchor system, the certificate
property and the forcing rank.

The first three are rebuilt here from `bracket` over every column of the
degree box, independently of the structure-constant builder behind
`ad_matrix` and of how `solve_inner` organises its own solve.  The
forcing rank is rebuilt by adjoining one unknown per family member to the
scalar field, independently of the bilinear split the verifiers use.
"""

from __future__ import annotations

import pytest

from wittkit import MuPolynomial, Scalar, ScalarMatrix, TruncatedSpace, WittAlgebra, bracket, rank


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
