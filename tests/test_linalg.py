"""Exact kernels, solves with certificates, and specialized rank bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import apply, left_apply, random_scalar
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittkit import (
    DenominatorVanishes,
    Scalar,
    ScalarField,
    ScalarMatrix,
    kernel,
    modular_rank,
    rank,
    solve,
    specialization_points,
)
from wittkit import AlgebraVariant, TruncatedSpace, WittAlgebra, centralizer
from wittkit.errors import ArityMismatch
from wittkit import linalg
from wittkit.linalg import MODULUS, _canonical_rref, rank_mod_p, scalar_mod_p
from wittkit.scalars import MuPolynomial

F2 = ScalarField(2)


def build(entries, nrows, ncols, arity=2):
    matrix = ScalarMatrix(nrows, ncols, arity)
    for r, c, v in entries:
        matrix.add(r, c, v)
    return matrix


def random_matrix(rng: random.Random, nrows: int, ncols: int, arity: int = 0) -> ScalarMatrix:
    matrix = ScalarMatrix(nrows, ncols, arity)
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.5:
                value = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                matrix.add(r, c, Scalar.from_fraction(arity, value))
    return matrix


def is_zero_vector(vec) -> bool:
    return all(v.is_zero for v in vec.values())


def test_kernel_of_identity_is_empty():
    eye = build([(i, i, F2.one()) for i in range(3)], 3, 3)
    assert kernel(eye) == []
    assert rank(eye) == 3
    # the elimination never evaluates entries: one with a pole at each
    # point of bound 8 (mu1 = 18, 19, 20), one with the modulus in its
    # denominator
    mu1 = F2.mu(1)
    assert [point[0] for point in specialization_points(2, 8)] == [18, 19, 20]
    pole_everywhere = build([(0, 0, 1 / ((mu1 - 18) * (mu1 - 19) * (mu1 - 20)))], 1, 1)
    modulus_in_denominator = build([(0, 0, F2.from_fraction(Fraction(1, MODULUS)))], 1, 1)
    for matrix in (pole_everywhere, modulus_in_denominator):
        assert (kernel(matrix), rank(matrix)) == ([], 1)


def test_kernel_of_zero_matrix():
    zero = ScalarMatrix(2, 3, 2)
    vectors = kernel(zero)
    assert len(vectors) == 3
    assert rank(zero) == 0
    # canonical basis: unit at each column, ascending
    for c, vec in enumerate(vectors):
        assert vec == {c: F2.one()}


def test_kernel_single_symbolic_row():
    mu1, mu2 = F2.mu(1), F2.mu(2)
    matrix = build([(0, 0, mu1), (0, 1, mu2)], 1, 2)
    (vec,) = kernel(matrix)
    assert vec[1].is_one()
    assert vec[0] == -(mu2 / mu1)
    assert is_zero_vector(apply(matrix, vec))


def test_kernel_vectors_annihilate():
    rng = random.Random(31)
    for _ in range(25):
        matrix = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        for vec in kernel(matrix):
            assert is_zero_vector(apply(matrix, vec))


def test_rank_nullity():
    rng = random.Random(77)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        matrix = random_matrix(rng, nrows, ncols)
        assert rank(matrix) + len(kernel(matrix)) == ncols


def test_solve_consistent():
    rng = random.Random(5)
    for _ in range(20):
        matrix = random_matrix(rng, 4, 4)
        x = {c: Scalar.from_fraction(0, rng.randrange(-3, 4)) for c in range(4)}
        rhs = apply(matrix, x)
        result = solve(matrix, rhs)
        assert result.consistent
        # the reported solution reproduces the rhs exactly
        reproduced = apply(matrix, result.solution)
        assert {r: v for r, v in reproduced.items()} == rhs
        assert result.certificate is None
        # general solution: adding any kernel vector stays a solution
        for vec in result.homogeneous:
            shifted = dict(result.solution)
            for c, v in vec.items():
                shifted[c] = shifted.get(c, Scalar.zero(0)) + v
            assert apply(matrix, shifted) == rhs


def test_solve_inconsistent_certificate():
    # rows: x0 = 1, x0 = 2; u = (1, -1) refutes
    one = F2.one()
    matrix = build([(0, 0, one), (1, 0, one)], 2, 1)
    rhs = {0: one, 1: F2.from_int(2)}
    result = solve(matrix, rhs)
    assert not result.consistent
    cert = result.certificate
    assert cert is not None and not is_zero_vector(cert)
    assert is_zero_vector(left_apply(matrix, cert))
    refute = sum((cert[r] * rhs[r] for r in cert if r in rhs), F2.zero())
    assert not refute.is_zero


def test_solve_certificates_random():
    rng = random.Random(13)
    seen_bad = 0
    for _ in range(30):
        matrix = random_matrix(rng, 5, 3)
        rhs = {r: Scalar.from_fraction(0, rng.randrange(-3, 4)) for r in range(5)}
        rhs = {r: v for r, v in rhs.items() if not v.is_zero}
        result = solve(matrix, rhs)
        if result.consistent:
            assert apply(matrix, result.solution) == rhs
        else:
            seen_bad += 1
            cert = result.certificate
            assert is_zero_vector(left_apply(matrix, cert))
            dot = sum(
                (cert[r] * rhs[r] for r in cert if r in rhs),
                Scalar.zero(0),
            )
            assert not dot.is_zero
    assert seen_bad > 0


def test_symbolic_solve():
    mu1, mu2 = F2.mu(1), F2.mu(2)
    # [mu1 0; 0 mu2] x = (mu2, mu1) -> x = (mu2/mu1, mu1/mu2)
    matrix = build([(0, 0, mu1), (1, 1, mu2)], 2, 2)
    result = solve(matrix, {0: mu2, 1: mu1})
    assert result.consistent
    assert result.solution[0] == mu2 / mu1
    assert result.solution[1] == mu1 / mu2


def test_wide_symbolic_kernel_satisfies_rank_nullity():
    # a wide symbolic matrix, checked by rank-nullity and by substituting
    # every kernel vector back
    rng = random.Random(99)
    matrix = ScalarMatrix(6, 14, 2)
    mus = [F2.mu(1), F2.mu(2), F2.one()]
    for r in range(6):
        for c in range(14):
            if rng.random() < 0.3:
                matrix.add(r, c, rng.choice(mus) * rng.randrange(1, 4))
    vectors = kernel(matrix)
    assert rank(matrix) + len(vectors) == 14
    for vec in vectors:
        assert is_zero_vector(apply(matrix, vec))


def test_specialization_points_avoid_small_relations():
    for point in specialization_points(3, bound=4):
        assert len(point) == 3
        base = point[0]
        assert base > 8
        assert point == tuple(base ** i for i in range(1, 4))
    # no small affine combination vanishes at the first point, constant term included
    point = specialization_points(2, bound=4)[0]
    for c in range(-4, 5):
        for a in range(-4, 5):
            for b in range(-4, 5):
                if (c, a, b) != (0, 0, 0):
                    assert c + a * point[0] + b * point[1] != 0
    # one with a coefficient past the bound does: mu1 - 10 at mu1 = 10
    assert point[0] - 10 == 0


def test_specialized_rank_bounds_symbolic_rank():
    rng = random.Random(17)
    f1 = ScalarField(1)
    for _ in range(15):
        matrix = ScalarMatrix(4, 5, 1)
        for r in range(4):
            for c in range(5):
                if rng.random() < 0.5:
                    coeff = f1.from_int(rng.randrange(-3, 4))
                    matrix.add(r, c, coeff * (f1.mu(1) if rng.random() < 0.5 else f1.one()))
        symbolic = rank(matrix)
        for point in specialization_points(1, bound=6):
            assert modular_rank(matrix, point) <= symbolic
            assert modular_rank(matrix, point, prime=101) <= symbolic


def test_modular_rank_certifies_generic_case():
    mu1, mu2 = F2.mu(1), F2.mu(2)
    matrix = build([(0, 0, mu1), (0, 1, mu2), (1, 0, mu2), (1, 1, mu1)], 2, 2)
    assert rank(matrix) == 2
    point = specialization_points(2, bound=2)[0]
    assert modular_rank(matrix, point) == 2
    assert modular_rank(matrix, point, prime=101) == 2
    # a pole at the first point raises; the next point evaluates
    first, second = specialization_points(2, 8)[:2]
    matrix = build([(0, 0, 1 / (mu2 - first[1])), (0, 1, mu1), (1, 1, mu2)], 2, 2)
    with pytest.raises(DenominatorVanishes):
        modular_rank(matrix, first)
    assert modular_rank(matrix, second) == 2
    assert (kernel(matrix), rank(matrix)) == ([], 2)


def _residue_or_error(value, point, prime):
    try:
        return scalar_mod_p(value, point, prime)
    except (DenominatorVanishes, ValueError) as err:
        return type(err)


@pytest.mark.parametrize("arity", [2, 3])
def test_scalar_mod_p_matches_exact_value(arity):
    # the residue of the exact value, DenominatorVanishes at a pole, and
    # ValueError only when p divides the value's reduced denominator
    pad = (Fraction(1),) * (arity - 2)
    mu1, mu2 = (Scalar(MuPolynomial(arity, {tuple(int(j == i) for j in range(arity)): 1}))
                for i in range(2))
    cases = [(1 / (mu1 - mu2), (Fraction(2), Fraction(2)), DenominatorVanishes),  # a pole
             (1 / mu1, (Fraction(7), Fraction(1)), ValueError),  # 7 divides the denominator
             (mu1 / (mu1 + mu2), (Fraction(3), Fraction(4)), ValueError),
             (mu1 / mu2, (Fraction(7), Fraction(14)), 4),  # 7/14 = 1/2, and 2 * 4 = 1 mod 7
             (mu1 / mu2, (Fraction(1, 7), Fraction(2, 7)), 4),  # 7 divides the point
             (mu1 * mu2, (Fraction(1, 7), Fraction(7)), 1),
             (mu1 / mu2 + 1, (Fraction(2), Fraction(3)), 4)]  # 5/3, and 3 * 4 = 5 mod 7
    for value, point, expected in cases:
        assert _residue_or_error(value, point + pad, 7) == expected


def test_scalar_mod_p_at_the_integer_points_matches_the_fraction_reference():
    # the points are ints equal to Fraction(M**i); at each, at its Fraction
    # form (as perfbench/checks.py passes to modular_rank) and at (M/3, M^2/9),
    # a random scalar's residue is that of its value there, and the errors match
    rng = random.Random(25)
    mu1, mu2 = F2.mu(1), F2.mu(2)
    for bound in range(1, 7):
        points = specialization_points(2, bound)
        for t, point in enumerate(points):
            base = 2 * bound + 2 + t
            assert all(type(v) is int for v in point)
            assert point == (Fraction(base), Fraction(base ** 2))
            for at in (point, tuple(map(Fraction, point)),
                       (Fraction(base, 3), Fraction(base ** 2, 9))):
                for _ in range(8):
                    value = random_scalar(rng, 2)
                    try:
                        exact = value.evaluate(tuple(map(Fraction, at)))
                    except DenominatorVanishes:
                        expected = DenominatorVanishes
                    else:
                        den = exact.denominator % MODULUS
                        expected = (exact.numerator * pow(den, -1, MODULUS) % MODULUS if den
                                    else ValueError)
                    assert _residue_or_error(value, at, MODULUS) == expected
                assert _residue_or_error(1 / (mu1 - at[0]), at, MODULUS) is DenominatorVanishes
                assert _residue_or_error(1 / (mu1 + MODULUS - at[0]), at, MODULUS) is ValueError
            # p divides the numerator and the denominator there, yet the value is 1/2
            half = (mu1 + MODULUS - base) / (mu2 + 2 * MODULUS - base ** 2)
            assert scalar_mod_p(half, point, MODULUS) == pow(2, -1, MODULUS)
    # at (5/3, 7/9) num and den are 5p/3 and 7p/9: N = 45p and D = 21p reduce to 15/7
    at = (Fraction(5, 3), Fraction(7, 9))
    value = (mu1 + 5 * (MODULUS - 1) // 3) / (mu2 + 7 * (MODULUS - 1) // 9)
    assert scalar_mod_p(value, at, MODULUS) == 15 * pow(7, -1, MODULUS) % MODULUS
    # a point whose own denominator is p
    assert _residue_or_error(mu1, (Fraction(1, MODULUS), Fraction(2)), MODULUS) is ValueError


def test_scalar_mod_p_rejects_a_point_of_the_wrong_length():
    value = F2.mu(1) / (F2.mu(2) + 1)
    for point in [(Fraction(3),), (Fraction(3), Fraction(1), Fraction(2))]:
        with pytest.raises(ArityMismatch):
            scalar_mod_p(value, point, MODULUS)
        with pytest.raises(ArityMismatch):
            modular_rank(build([(0, 0, value)], 1, 1), point)


def test_rank_drops_at_degenerate_point():
    mu1, mu2 = F2.mu(1), F2.mu(2)
    matrix = build([(0, 0, mu1 - mu2)], 1, 1)
    assert rank(matrix) == 1
    assert modular_rank(matrix, (Fraction(3), Fraction(3))) == 0
    assert modular_rank(matrix, (Fraction(3), Fraction(3)), prime=101) == 0


# ----------------------------------------------------------------------
# The F_p rank against two oracles: an earlier sparse elimination, which
# picked the sparsest column as pivot by intersecting every column's row
# set with the active rows at every step, and a dense Gaussian
# elimination on lists; neither shares code with linalg.


def _rank_block_by_intersection(rows, prime):
    col_rows = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    active = set(range(len(rows)))
    count = 0
    while True:
        best = None
        for c, holders in col_rows.items():
            live = holders & active
            if live and (best is None or (len(live), c) < best[0]):
                best = ((len(live), c), c, live)
        if best is None:
            return count
        _, pc, live = best
        pr = min(live, key=lambda r: (len(rows[r]), r))
        pivot_row = rows[pr]
        inv = pow(pivot_row[pc], -1, prime)
        for r in live - {pr}:
            target = rows[r]
            factor = target[pc] * inv % prime
            for c, v in pivot_row.items():
                acc = (target.get(c, 0) - factor * v) % prime
                if acc:
                    if c not in target:
                        col_rows.setdefault(c, set()).add(r)
                    target[c] = acc
                elif c in target:
                    del target[c]
                    col_rows[c].discard(r)
        active.discard(pr)
        count += 1


@pytest.mark.parametrize("prime", [3, 7, MODULUS])
def test_rank_mod_p_matches_intersecting_search(prime):
    rng = random.Random(prime)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 14), rng.randrange(1, 14)
        density = rng.choice([0.1, 0.25, 0.5])
        rows = [{c: rng.randrange(1, prime) for c in range(ncols) if rng.random() < density}
                for _ in range(nrows)]
        if rng.random() < 0.5 and nrows > 1:
            # a row that is a combination of two others
            a, b = rng.sample(range(nrows), 2)
            combo = {}
            for c in set(rows[a]) | set(rows[b]):
                v = (rows[a].get(c, 0) + 2 * rows[b].get(c, 0)) % prime
                if v:
                    combo[c] = v
            rows.append(combo)
        expected = _rank_block_by_intersection([dict(row) for row in rows], prime)
        assert rank_mod_p(rows, prime) == expected


def _dense_rank_mod_p(rows, ncols, prime):
    matrix = [[row.get(c, 0) % prime for c in range(ncols)] for row in rows]
    count = 0
    for c in range(ncols):
        pr = next((r for r in range(count, len(matrix)) if matrix[r][c]), None)
        if pr is None:
            continue
        matrix[count], matrix[pr] = matrix[pr], matrix[count]
        inv = pow(matrix[count][c], -1, prime)
        for r in range(count + 1, len(matrix)):
            factor = matrix[r][c] * inv % prime
            if factor:
                matrix[r] = [(a - factor * b) % prime for a, b in zip(matrix[r], matrix[count])]
        count += 1
    return count


@pytest.mark.parametrize("prime", [3, 7, MODULUS])
def test_rank_mod_p_matches_dense_elimination(prime):
    rng = random.Random(1000 + prime)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 61), rng.randrange(1, 61)
        density = rng.choice([0.03, 0.08, 0.2, 0.5])
        rows = [{c: rng.randrange(1, prime) for c in range(ncols) if rng.random() < density}
                for _ in range(nrows)]
        # dependent rows: combinations of two earlier ones, reduced mod p
        for _ in range(rng.randrange(0, nrows // 3 + 1)):
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            x, y = rng.randrange(1, prime), rng.randrange(1, prime)
            combo = {}
            for c in set(rows[a]) | set(rows[b]):
                v = (x * rows[a].get(c, 0) + y * rows[b].get(c, 0)) % prime
                if v:
                    combo[c] = v
            rows.append(combo)
        rows += [{} for _ in range(rng.randrange(0, 4))]
        rng.shuffle(rows)
        before = [dict(row) for row in rows]
        assert rank_mod_p(rows, prime) == _dense_rank_mod_p(rows, ncols, prime)
        # centralizer_basis reads the residue rows again after ranking them
        assert rows == before
    # most rows settle their column: unit rows and combinations of them, with a
    # few general rows whose pivot tails meet columns settled after them
    for _ in range(40):
        ncols = rng.randrange(1, 61)
        units = rng.sample(range(ncols), rng.randrange(ncols // 2, ncols + 1))
        rows = [{c: rng.randrange(1, prime)} for c in units]
        for cols, count in ((units, len(units)), (range(ncols), 4)):
            for _ in range(rng.randrange(0, count + 1)):
                picked = rng.sample(cols, min(len(cols), rng.randrange(1, 5)))
                rows.append({c: rng.randrange(1, prime) for c in picked})
        rng.shuffle(rows)
        before = [dict(row) for row in rows]
        assert rank_mod_p(rows, prime) == _dense_rank_mod_p(rows, ncols, prime)
        assert rows == before


def _sorted_echelon(rows, inverse, subtract):
    """`_echelon` as it took every nonempty row in order of last column, shorter
    first among equals, a row of one entry settling its column where it came."""
    tails = {}
    settled = set()
    for row in sorted(sorted(filter(None, rows), key=len), key=max):
        if len(row) == 1:
            lead, = row
            settled.add(lead)
            tails[lead] = {}
            continue
        row = {c: v for c, v in row.items() if c not in settled}
        while row:
            lead = min(row)
            factor = row.pop(lead)
            tail = tails.get(lead)
            if tail is None:
                if row:
                    inv = inverse(factor)
                    row = {c: inv * v for c, v in row.items()}
                else:
                    settled.add(lead)
                tails[lead] = row
                break
            subtract(row, factor, tail)
    return tails


def _sorted_rref(rows):
    """`_canonical_rref` on the sorted-order echelon: back substitution from the right."""
    tails = _sorted_echelon(rows, Scalar.inverse, linalg._subtract)
    for pc in sorted(tails, reverse=True):
        tail = tails[pc]
        for c in [c for c in tail if c in tails]:
            linalg._subtract(tail, tail.pop(c), tails[c])
    return [(pc, {pc: Scalar.one(0), **tails[pc]}) for pc in sorted(tails)]


def _subtract_mod_7(row, factor, tail):
    for c, v in tail.items():
        acc = (row.get(c, 0) - factor * v) % 7
        if acc:
            row[c] = acc
        elif c in row:
            del row[c]


@st.composite
def rows_with_singletons(draw):
    """Rows of residues mod 7 on eight columns, one-entry and empty rows among them, shuffled."""
    entry = st.integers(1, 6)
    longer = draw(st.lists(st.dictionaries(st.integers(0, 7), entry, min_size=2, max_size=4),
                           max_size=8))
    singles = draw(st.lists(st.builds(lambda c, v: {c: v}, st.integers(0, 7), entry), max_size=5))
    return draw(st.permutations(longer + singles + [{}] * draw(st.integers(0, 2))))


@settings(max_examples=150, deadline=None)
@given(rows_with_singletons())
# the singleton's column leads a longer row whose last column is smaller than
# that of the row before it, and the singleton comes last
@example([{0: 2, 7: 1}, {3: 1, 4: 2}, {3: 5}])
# the singleton's column in the middle, and at the end, of longer rows
@example([{1: 1, 3: 2, 6: 4}, {2: 3, 3: 1}, {3: 4}, {3: 6}])
def test_singleton_rows_first_match_the_sorted_order(rows):
    # rank and RREF do not depend on the row order: settling one-entry rows before
    # the sort gives what the order by last column gave
    before = [dict(row) for row in rows]
    expected = len(_sorted_echelon(rows, lambda f: pow(f, -1, 7), _subtract_mod_7))
    assert rank_mod_p(rows, 7) == expected
    over_q = [{c: Scalar.from_fraction(0, v - 3) for c, v in row.items() if v != 3}
              for row in rows]
    assert _canonical_rref(over_q) == _sorted_rref(over_q)
    assert rows == before


def test_settled_columns_keep_their_own_empty_tails():
    # `_canonical_rref` edits tails in place: no two settled columns share one
    rows = [{0: 1}, {2: 3}, {4: 1, 5: 2}, {5: 6}, {1: 2, 2: 5}, {0: 4}]
    tails = linalg._echelon(rows, lambda f: pow(f, -1, 7), _subtract_mod_7)
    settled = [c for c, tail in tails.items() if not tail]
    assert sorted(settled) == [0, 1, 2, 4, 5]
    for c in settled:
        tails[c][9] = 1
        assert not any(tails[other] for other in settled if other != c)
        del tails[c][9]


def test_rank_mod_p_of_lemma_2_2_residues():
    # n = 4, k = -1, box 2: 4,496 residue rows of ad(z) on 2,500 columns,
    # whose kernel is the line of z
    algebra = WittAlgebra(AlgebraVariant.wn(4))
    z = algebra.power_sum_dmu(-1)
    space = TruncatedSpace(algebra, 2)
    rows = list(centralizer._ad_rows(z, space, range(len(space)),
                                     specialization_points(4, 2)[0])[0].values())
    assert len(rows) == 4496
    assert rank_mod_p(rows) == len(space) - 1


# ----------------------------------------------------------------------
# kernel, rank and the canonical RREF against the dense Gauss-Jordan
# oracle `dense_rref` below, which shares no code with linalg.


def dense_kernel_and_rank(matrix):
    _, homogeneous, dense_rank = dense_solve(matrix, {})
    return homogeneous, dense_rank


def _random_entry(rng, arity):
    value = Scalar.from_fraction(arity, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                 rng.randrange(1, 4)))
    if arity == 0:
        return value
    return value * rng.choice([F2.one(), F2.mu(1), F2.mu(2), F2.mu(1) + F2.mu(2)])


def planted_matrix(rng, arity, blocks, density=0.3):
    """Block-diagonal matrix; a block (rows, cols, planted) ends in `planted`
    columns that are combinations of its other columns."""
    matrix = ScalarMatrix(sum(b[0] for b in blocks), sum(b[1] for b in blocks), arity)
    r0 = c0 = 0
    for brows, bcols, planted in blocks:
        free = bcols - planted
        weights = [[_random_entry(rng, arity) for _ in range(free)] for _ in range(planted)]
        for i in range(brows):
            # a chain through the free columns keeps the block connected
            row = {j: _random_entry(rng, arity) for j in range(free)
                   if j in (i % free, (i + 1) % free) or rng.random() < density}
            for k, ws in enumerate(weights):
                row[free + k] = sum((ws[j] * row[j] for j in range(free) if j in row),
                                    Scalar.zero(arity))
            for j, v in row.items():
                matrix.add(r0 + i, c0 + j, v)
        r0 += brows
        c0 += bcols
    return matrix


@pytest.mark.parametrize("arity", [0, 2])
def test_kernel_and_rank_match_dense_oracle(arity):
    rng = random.Random(400 + arity)
    for _ in range(6):
        blocks = [(rng.randrange(2, 6), rng.randrange(2, 5), 0) for _ in range(3)]
        blocks += [(rng.randrange(3, 6), rng.randrange(3, 5), rng.randrange(1, 3))
                   for _ in range(2)]
        rng.shuffle(blocks)
        matrix = planted_matrix(rng, arity, blocks)
        vectors = kernel(matrix)
        assert (vectors, rank(matrix)) == dense_kernel_and_rank(matrix)
        assert len(vectors) >= sum(b[2] for b in blocks)
        for vec in vectors:
            assert is_zero_vector(apply(matrix, vec))


def test_large_block_kernel_matches_dense_oracle():
    # two 13-column blocks, one square and one with a planted kernel
    rng = random.Random(77)
    matrix = planted_matrix(rng, 2, [(13, 13, 0), (14, 13, 1), (3, 2, 0)], density=0.0)
    vectors = kernel(matrix)
    assert (vectors, rank(matrix)) == dense_kernel_and_rank(matrix)
    assert len(vectors) >= 1


@pytest.mark.parametrize("arity", [0, 2])
def test_canonical_rref_is_unique_and_leaves_rows_alone(arity):
    rng = random.Random(600 + arity)
    for _ in range(4):
        blocks = [(rng.randrange(2, 5), rng.randrange(2, 5), 0),
                  (rng.randrange(3, 6), rng.randrange(3, 5), rng.randrange(1, 3)),
                  (rng.randrange(1, 4), rng.randrange(1, 4), 0)]
        matrix = planted_matrix(rng, arity, blocks)
        pivots, work = dense_rref(matrix, {})
        expected = [(pc, {c: v for c, v in enumerate(work[i]) if not v.is_zero})
                    for i, pc in enumerate(pivots)]
        rows = matrix.rows
        before = [dict(row) for row in rows]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        orders = [rows, shuffled, rows[::-1], rows + shuffled[:3], [{}] + rows + [{}, {}]]
        for order in orders:
            rref = _canonical_rref(order)
            assert rref == expected
            assert all(row[pc].is_one() for pc, row in rref)
        assert rows == before
    assert _canonical_rref([{}, {}]) == []


# ----------------------------------------------------------------------
# solve against a dense Gauss-Jordan oracle with leftmost pivots, whose
# RREF of [A | b] is the unique one, and certificates against the left
# kernel read off directly.


def dense_rref(matrix, rhs):
    """(pivot columns, pivot rows) of the unique RREF of [A | b] as dense lists,
    by Gauss-Jordan with leftmost pivots; b is column ncols."""
    zero = Scalar.zero(matrix.arity)
    b = matrix.ncols
    work = [[row.get(c, zero) for c in range(b)] + [rhs.get(r, zero)]
            for r, row in enumerate(matrix.rows)]
    pivots = []
    for c in range(b + 1):
        pr = next((r for r in range(len(pivots), len(work)) if not work[r][c].is_zero), None)
        if pr is None:
            continue
        top = len(pivots)
        work[top], work[pr] = work[pr], work[top]
        inv = work[top][c].inverse()
        work[top] = [inv * v for v in work[top]]
        for r in range(len(work)):
            if r != top and not work[r][c].is_zero:
                lead = work[r][c]
                work[r] = [v - lead * p for v, p in zip(work[r], work[top])]
        pivots.append(c)
    return pivots, work[:len(pivots)]


def dense_solve(matrix, rhs):
    """(solution, homogeneous, rank) from the unique RREF of [A | b], or None
    when some row reduces to b alone."""
    b = matrix.ncols
    pivots, work = dense_rref(matrix, rhs)
    if pivots and pivots[-1] == b:
        return None
    solution = {pc: work[i][b] for i, pc in enumerate(pivots) if not work[i][b].is_zero}
    homogeneous = []
    for f in range(b):
        if f not in pivots:
            v = {f: Scalar.one(matrix.arity)}
            v.update((pc, -work[i][f]) for i, pc in enumerate(pivots) if not work[i][f].is_zero)
            homogeneous.append(v)
    return solution, homogeneous, len(pivots)


def transpose(matrix):
    out = ScalarMatrix(matrix.ncols, matrix.nrows, matrix.arity)
    for r, row in enumerate(matrix.rows):
        for c, v in row.items():
            out.add(c, r, v)
    return out


def dot(u, rhs, arity):
    return sum((u[r] * v for r, v in rhs.items() if r in u), Scalar.zero(arity))


def assert_certificate(matrix, rhs, result):
    """The certificate separates b and is the first such vector of ker A^T."""
    left = kernel(transpose(matrix))
    first = next(u for u in left if not dot(u, rhs, matrix.arity).is_zero)
    assert result.certificate == first
    assert is_zero_vector(left_apply(matrix, result.certificate))
    assert result.rank == matrix.nrows - len(left) == rank(matrix)
    assert result.solution is None and result.homogeneous == []


@pytest.mark.parametrize("arity", [0, 2])
def test_solve_matches_dense_oracle(arity):
    rng = random.Random(900 + arity)
    outcomes = set()
    for _ in range(12):
        blocks = [(rng.randrange(1, 5), rng.randrange(1, 5), 0) for _ in range(2)]
        blocks.append((rng.randrange(3, 5), rng.randrange(3, 5), rng.randrange(1, 3)))
        rng.shuffle(blocks)
        matrix = planted_matrix(rng, arity, blocks)
        x = {c: _random_entry(rng, arity) for c in range(matrix.ncols) if rng.random() < 0.7}
        rhs = apply(matrix, x)
        if rng.random() < 0.5:
            # perturb one row: inconsistent exactly when it leaves the column space
            r = rng.randrange(matrix.nrows)
            rhs[r] = rhs.get(r, Scalar.zero(arity)) + _random_entry(rng, arity)
        result = solve(matrix, rhs)
        expected = dense_solve(matrix, rhs)
        outcomes.add(result.consistent)
        if expected is None:
            assert not result.consistent
            assert_certificate(matrix, rhs, result)
        else:
            assert (result.solution, result.homogeneous, result.rank) == expected
            assert result.certificate is None
    assert outcomes == {True, False}


def test_solve_one_inconsistent_component_among_several():
    mu1, mu2 = F2.mu(1), F2.mu(2)
    one = F2.one()
    # x0 + x1 = 1 | x2 = 1, x2 = 2 | mu1 x3 = mu2
    matrix = build([(0, 0, one), (0, 1, one), (1, 2, one), (2, 2, one), (3, 3, mu1)], 4, 4)
    rhs = {0: one, 1: one, 2: F2.from_int(2), 3: mu2}
    result = solve(matrix, rhs)
    assert not result.consistent
    assert result.certificate == {1: -one, 2: one}
    assert_certificate(matrix, rhs, result)
    # the same system with the middle block made consistent
    rhs[2] = one
    result = solve(matrix, rhs)
    assert result.solution == {0: one, 2: one, 3: mu2 / mu1}
    assert result.homogeneous == [{0: -one, 1: one}]
    assert result.rank == 3


@pytest.mark.parametrize("arity", [0, 2])
def test_solve_block_diagonal_inconsistent_in_one_block(arity):
    rng = random.Random(700 + arity)
    # the middle block has more rows than columns, so some row of it leaves
    # the column space when its right-hand side is perturbed
    blocks = [(3, 3, 0), (5, 3, 1), (2, 3, 0)]
    matrix = planted_matrix(rng, arity, blocks)
    x = {c: _random_entry(rng, arity) for c in range(matrix.ncols)}
    consistent = apply(matrix, x)
    assert solve(matrix, consistent).consistent
    middle = range(3, 8)
    for r in middle:
        rhs = dict(consistent)
        rhs[r] = rhs.get(r, Scalar.zero(arity)) + Scalar.one(arity)
        if dense_solve(matrix, rhs) is None:
            break
    else:
        raise AssertionError("no row of the middle block leaves the column space")
    result = solve(matrix, rhs)
    assert not result.consistent
    u = result.certificate
    assert u and set(u) <= set(middle)
    assert is_zero_vector(left_apply(matrix, u))
    assert not dot(u, rhs, arity).is_zero
    assert_certificate(matrix, rhs, result)


def test_solve_zero_row_with_nonzero_rhs():
    mu1 = F2.mu(1)
    one = F2.one()
    matrix = build([(0, 0, one), (2, 1, one)], 3, 2)
    result = solve(matrix, {0: one, 1: mu1, 2: F2.from_int(2)})
    assert not result.consistent
    assert result.certificate == {1: one}
    assert result.rank == 2
    assert_certificate(matrix, {0: one, 1: mu1, 2: F2.from_int(2)}, result)
    # a zero row with a zero right-hand side constrains nothing
    result = solve(matrix, {0: one, 1: F2.zero(), 2: F2.from_int(2)})
    assert result.solution == {0: one, 1: F2.from_int(2)} and result.homogeneous == []


def test_solve_arity_zero():
    def q(value):
        return Scalar.from_fraction(0, Fraction(value))

    # 2 x0 + x1 = 3, 4 x0 + 2 x1 = 6, x2 - x3 = 1/2
    matrix = ScalarMatrix(3, 4, 0)
    for r, c, v in [(0, 0, 2), (0, 1, 1), (1, 0, 4), (1, 1, 2), (2, 2, 1), (2, 3, -1)]:
        matrix.add(r, c, q(v))
    result = solve(matrix, {0: q(3), 1: q(6), 2: q(Fraction(1, 2))})
    assert result.solution == {0: q(Fraction(3, 2)), 2: q(Fraction(1, 2))}
    assert result.homogeneous == [{1: q(1), 0: q(Fraction(-1, 2))}, {3: q(1), 2: q(1)}]
    assert result.rank == 2
    rhs = {0: q(3), 1: q(7), 2: q(Fraction(1, 2))}
    result = solve(matrix, rhs)
    assert result.certificate == {0: q(-2), 1: q(1)}
    assert_certificate(matrix, rhs, result)
