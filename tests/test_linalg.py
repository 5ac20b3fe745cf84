"""Exact kernels, solves with certificates, and specialized rank bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

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
from wittkit import linalg
from wittkit.linalg import MODULUS, _full_rank_mod_p, _modular_rank_block, rank_mod_p

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
    assert is_zero_vector(matrix.apply(vec))


def test_kernel_vectors_annihilate():
    rng = random.Random(31)
    for _ in range(25):
        matrix = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        for vec in kernel(matrix):
            assert is_zero_vector(matrix.apply(vec))


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
        rhs = matrix.apply(x)
        result = solve(matrix, rhs)
        assert result.consistent
        # the reported solution reproduces the rhs exactly
        reproduced = matrix.apply(result.solution)
        assert {r: v for r, v in reproduced.items()} == rhs
        assert result.certificate is None
        # general solution: adding any kernel vector stays a solution
        for vec in result.homogeneous:
            shifted = dict(result.solution)
            for c, v in vec.items():
                shifted[c] = shifted.get(c, Scalar.zero(0)) + v
            assert matrix.apply(shifted) == rhs


def test_solve_inconsistent_certificate():
    # rows: x0 = 1, x0 = 2; u = (1, -1) refutes
    one = F2.one()
    matrix = build([(0, 0, one), (1, 0, one)], 2, 1)
    rhs = {0: one, 1: F2.from_int(2)}
    result = solve(matrix, rhs)
    assert not result.consistent
    cert = result.certificate
    assert cert is not None and not is_zero_vector(cert)
    assert is_zero_vector(matrix.left_apply(cert))
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
            assert matrix.apply(result.solution) == rhs
        else:
            seen_bad += 1
            cert = result.certificate
            assert is_zero_vector(matrix.left_apply(cert))
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
        assert is_zero_vector(matrix.apply(vec))


def test_specialization_points_avoid_small_relations():
    for point in specialization_points(3, bound=4):
        assert len(point) == 3
        assert point[0] == 1
        base = point[1]
        assert base > 8
        assert point == tuple(base ** i for i in range(3))
    # no small integer combination vanishes at the first point
    point = specialization_points(2, bound=4)[0]
    for a in range(-4, 5):
        for b in range(-4, 5):
            if (a, b) != (0, 0):
                assert a * point[0] + b * point[1] != 0


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


def test_rank_drops_at_degenerate_point():
    mu1, mu2 = F2.mu(1), F2.mu(2)
    matrix = build([(0, 0, mu1 - mu2)], 1, 1)
    assert rank(matrix) == 1
    assert modular_rank(matrix, (Fraction(3), Fraction(3))) == 0
    assert modular_rank(matrix, (Fraction(3), Fraction(3)), prime=101) == 0


# ----------------------------------------------------------------------
# The F_p pivot search against the implementation it replaced, which
# intersected every column's row set with the active rows at every step.


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
        assert rank_mod_p(rows, ncols, prime) == expected
        assert _modular_rank_block([dict(row) for row in rows], prime) == expected


# ----------------------------------------------------------------------
# kernel and rank with the full-rank check against the same calls with the
# check declining, so that every component is eliminated symbolically, and
# against the dense Gauss-Jordan oracle `dense_solve` below, which shares
# no code with linalg.


@pytest.fixture
def check_results(monkeypatch):
    """Record what the full-rank check answered, component by component."""
    answers = []

    def spy(matrix, row_idx, cols):
        answer = _full_rank_mod_p(matrix, row_idx, cols)
        answers.append((len(row_idx), len(cols), answer))
        return answer

    monkeypatch.setattr(linalg, "_full_rank_mod_p", spy)
    return answers


def symbolic_only(monkeypatch, matrix):
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_full_rank_mod_p", lambda *args: False)
        return kernel(matrix), rank(matrix)


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
def test_check_keeps_kernel_and_rank(monkeypatch, check_results, arity):
    rng = random.Random(400 + arity)
    for _ in range(6):
        blocks = [(rng.randrange(2, 6), rng.randrange(2, 5), 0) for _ in range(3)]
        blocks += [(rng.randrange(3, 6), rng.randrange(3, 5), rng.randrange(1, 3))
                   for _ in range(2)]
        rng.shuffle(blocks)
        matrix = planted_matrix(rng, arity, blocks)
        vectors = kernel(matrix)
        assert (vectors, rank(matrix)) == symbolic_only(monkeypatch, matrix)
        assert (vectors, rank(matrix)) == dense_kernel_and_rank(matrix)
        assert len(vectors) >= sum(b[2] for b in blocks)
        for vec in vectors:
            assert is_zero_vector(matrix.apply(vec))
    # both outcomes happened: full-rank blocks skipped, planted ones eliminated
    assert {answer for _, _, answer in check_results} == {True, False}


def test_check_keeps_large_component_kernel(monkeypatch, check_results):
    # two 13-column components: the square one is full rank mod p, the
    # other has a planted kernel and is eliminated symbolically
    rng = random.Random(77)
    matrix = planted_matrix(rng, 2, [(13, 13, 0), (14, 13, 1), (3, 2, 0)], density=0.0)
    vectors = kernel(matrix)
    assert (vectors, rank(matrix)) == symbolic_only(monkeypatch, matrix)
    assert (vectors, rank(matrix)) == dense_kernel_and_rank(matrix)
    assert len(vectors) >= 1
    assert (13, 13, True) in check_results and (14, 13, False) in check_results


def test_check_declines_when_rank_drops_at_first_point(monkeypatch, check_results):
    mu1, mu2 = F2.mu(1), F2.mu(2)
    assert specialization_points(2, linalg._CHECK_BOUND)[0][0] == 1
    # mu1 - 1 vanishes at every geometric point, and the first point decides
    matrix = build([(0, 0, mu1 - 1), (1, 1, mu2), (1, 2, mu1), (2, 2, mu2)], 3, 3)
    assert kernel(matrix) == [] and rank(matrix) == 3
    assert (kernel(matrix), rank(matrix)) == symbolic_only(monkeypatch, matrix)
    assert (1, 1, False) in check_results and (2, 2, True) in check_results


def test_check_skips_a_pole_at_the_first_point(monkeypatch):
    mu1, mu2 = F2.mu(1), F2.mu(2)
    first, second = specialization_points(2, linalg._CHECK_BOUND)[:2]
    matrix = build([(0, 0, 1 / (mu2 - first[1])), (0, 1, mu1), (1, 1, mu2)], 2, 2)
    assert _full_rank_mod_p(matrix, [0, 1], [0, 1])
    with pytest.raises(DenominatorVanishes):
        modular_rank(matrix, first)
    assert modular_rank(matrix, second) == 2
    assert (kernel(matrix), rank(matrix)) == ([], 2) == symbolic_only(monkeypatch, matrix)


def test_check_declines_when_no_point_evaluates(monkeypatch):
    mu1 = F2.mu(1)
    pole_everywhere = build([(0, 0, 1 / (mu1 - 1))], 1, 1)
    modulus_in_denominator = build([(0, 0, F2.from_fraction(Fraction(1, MODULUS)))], 1, 1)
    for matrix in (pole_everywhere, modulus_in_denominator):
        assert not _full_rank_mod_p(matrix, [0], [0])
        assert (kernel(matrix), rank(matrix)) == ([], 1) == symbolic_only(monkeypatch, matrix)


def test_check_skips_wide_components_in_kernel(monkeypatch, check_results):
    mu1, mu2 = F2.mu(1), F2.mu(2)
    matrix = build([(0, 0, mu1), (0, 1, mu2), (0, 2, F2.one()), (1, 1, mu1), (1, 2, mu2)], 2, 3)
    vectors = kernel(matrix)
    assert len(vectors) == 1 and check_results == []
    assert rank(matrix) == 2 and check_results == [(2, 3, True)]
    assert (vectors, 2) == symbolic_only(monkeypatch, matrix)


# ----------------------------------------------------------------------
# solve against a dense Gauss-Jordan oracle with leftmost pivots, whose
# RREF of [A | b] is the unique one, and certificates against the left
# kernel read off directly.


def dense_solve(matrix, rhs):
    """(solution, homogeneous, rank) from the unique RREF of [A | b], or None
    when some row reduces to b alone."""
    zero = Scalar.zero(matrix.arity)
    b = matrix.ncols
    work = [[row.get(c, zero) for c in range(b)] + [rhs.get(r, zero)]
            for r, row in enumerate(matrix.rows)]
    pivots = []
    for c in range(b):
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
    if any(not row[b].is_zero for row in work[len(pivots):]):
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
    assert is_zero_vector(matrix.left_apply(result.certificate))
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
        rhs = matrix.apply(x)
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
