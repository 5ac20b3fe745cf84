"""Truncated centralizer computation against the predicted bases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wittkit import (
    AlgebraVariant,
    TruncatedSpace,
    WittAlgebra,
    ad_matrix,
    bracket,
    centralizer_basis,
    kernel,
    lemma_4_1_families,
    parse_element,
    proportional,
    rank,
    span_rank,
    specialization_points,
    verify_lemma_2_2,
    verify_lemma_4_1,
)
from wittkit import centralizer, linalg, witt
from wittkit.cli import main
from wittkit.errors import BadArity, BadK, DenominatorVanishes, PairOutsideBox, SelfCheckFailed
from wittkit.linalg import MODULUS, rank_mod_p

W2 = WittAlgebra(AlgebraVariant.wn(2))


def test_space_coordinate_round_trip():
    space = TruncatedSpace(W2, box=2)
    rng = random.Random(3)
    for _ in range(20):
        x = W2.random_element(rng, box=2)
        coords = space.coordinates_of(x)
        assert space.element_from_vector(coords) == x
    for i in range(0, len(space), 7):
        e = space.element(i)
        assert space.coordinates_of(e) == {i: W2.field.one()}


VARIANTS = [AlgebraVariant.wn(2), AlgebraVariant.winf(1, 2), AlgebraVariant.wnplus(2),
            AlgebraVariant.wnplusplus(2), AlgebraVariant.wnmu(2)]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind.value)
def test_space_index_is_built_on_first_read(variant):
    # the certified lemma path reads no pair index; the first read builds it once
    space = TruncatedSpace(WittAlgebra(variant), box=2)
    assert "index" not in vars(space)
    index = space.index
    assert index == {pair: i for i, pair in enumerate(space.basis)}
    assert space.index is index


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind.value)
def test_element_from_vector_matches_scaled_units(variant, element_oracle):
    # unit vectors, and random vectors with zero, rational and rational-function
    # coordinates, several directions of one exponent among them: values, the order
    # exponents come in and the scalar arity match the sum of scaled unit elements
    algebra = WittAlgebra(variant)
    field = algebra.field
    space = TruncatedSpace(algebra, box=1)
    one = field.one()
    for i in range(len(space)):
        assert space.element_from_vector({i: one}) == element_oracle(space, {i: one}) \
            == space.element(i)
    rng = random.Random(repr(variant))
    scalars = [field.zero(), one, field.from_fraction(Fraction(-2, 3)), field.mu(field.n_mu)]
    for _ in range(40):
        start = rng.randrange(len(space) - 2)
        columns = [start, start + 1, start + 2] + rng.sample(range(len(space)), 3)
        rng.shuffle(columns)
        vector = {c: rng.choice(scalars + [_rational_coefficient(rng, field)]) for c in columns}
        element, expected = space.element_from_vector(vector), element_oracle(space, vector)
        assert element == expected and list(element.support) == list(expected.support)
        assert element.scalar_arity() == field.arity
    assert space.element_from_vector({0: field.zero()}).scalar_arity() == field.arity


def test_space_contains():
    space = TruncatedSpace(W2, box=1)
    assert space.coordinates_of(W2.monomial((1, -1), 2)) == {
        space.index[((1, -1), 1)]: W2.field.one()}
    with pytest.raises(PairOutsideBox):
        space.coordinates_of(W2.monomial((2, 0), 1))


def test_ad_matrix_of_dmu_is_diagonal():
    # [t^gamma d_j, d_mu] = -(mu . gamma) t^gamma d_j
    space = TruncatedSpace(W2, box=1)
    matrix, keys = ad_matrix(W2.dmu(), space)
    mu = (W2.field.mu(1), W2.field.mu(2))
    for col in range(len(space)):
        (gamma, j) = space.basis[col]
        expect = -(mu[0] * gamma[0] + mu[1] * gamma[1])
        for r, key in enumerate(keys):
            entry = matrix.entry(r, col)
            if key == (gamma, j):
                assert entry == expect
            else:
                assert entry.is_zero


def test_centralizer_of_dmu_is_cartan():
    result = centralizer_basis(W2, W2.dmu(), box=2)
    assert result.dimension == 2
    for e in result.basis:
        assert set(e.support) == {(0, 0)}
        assert bracket(e, W2.dmu()).is_zero


def test_centralizer_of_power_sum_symbolic(monkeypatch):
    # direct kernel computation, no specialization shortcut
    monkeypatch.setattr(linalg, "specialization_points", lambda arity, bound: [])
    ps = W2.power_sum_dmu(2)
    result = centralizer_basis(W2, ps, box=4)
    assert result.dimension == 1
    assert proportional(result.basis[0], ps) is not None


def test_verify_lemma_2_2_small():
    report = verify_lemma_2_2(2, 2)
    assert report.passed
    assert report.data["dimension"] == 1
    assert report.parameters == {"n": 2, "k": 2, "box": 4}
    payload = report.to_dict()
    assert payload["pass"] is True and payload["lemma"] == "2.2"


def test_verify_lemma_2_2_certified_matches_symbolic():
    # the specialization certificate must agree with the brute-force kernel
    report = verify_lemma_2_2(2, 3)
    algebra = WittAlgebra(AlgebraVariant.wn(2))
    brute = centralizer_basis(algebra, algebra.power_sum_dmu(3), box=5)
    assert report.passed
    assert report.data["dimension"] == brute.dimension == 1


def test_verify_lemma_2_2_negative_k():
    report = verify_lemma_2_2(1, -2)
    assert report.passed
    assert report.data["dimension"] == 1


def test_lemma_4_1_families_structure():
    winf = WittAlgebra(AlgebraVariant.winf(2, 3))
    shifts, h_family = lemma_4_1_families(winf, k=1, box=2)
    # shift exponents live in the tail coordinates only
    assert len(shifts) == 5
    for beta, e in shifts:
        assert beta[:2] == (0, 0)
        assert e == winf.power_sum_dmu(1).translate(beta)
    assert len(h_family) == 5
    for beta, j, e in h_family:
        assert j == 3
        assert e == winf.monomial(beta, 3)


def test_oversized_shift_family_is_refused_before_listing(monkeypatch):
    # 3 * 259^2 = 201,243 elements at box 129, one box past the 200,000 limit
    def list_tails(*args, **kwargs):
        raise AssertionError("shift tails were listed")

    monkeypatch.setattr(centralizer, "product", list_tails)
    with pytest.raises(BadArity, match="201243 elements"):
        lemma_4_1_families(WittAlgebra(AlgebraVariant.winf(1, 3)), 1, 129)


def test_predicted_family_centralizes():
    winf = WittAlgebra(AlgebraVariant.winf(2, 3))
    ps = winf.power_sum_dmu(1)
    shifts, h_family = lemma_4_1_families(winf, k=1, box=2)
    for e in [e for _, e in shifts] + [e for _, _, e in h_family]:
        assert bracket(ps, e).is_zero


def test_verify_lemma_4_1_truncation():
    report = verify_lemma_4_1(2, 3, 1, box=2)
    assert report.passed
    assert report.data["dimension"] == 10
    assert report.data["spans_equal"] is True
    assert report.data["predicted_dimension"] == 10


def test_span_rank_counts_independent_elements():
    a = W2.monomial((1, 0), 1)
    b = W2.monomial((0, 1), 2)
    assert span_rank([a, b]) == 2
    assert span_rank([a, a.scale(W2.field.from_int(5))]) == 1
    assert span_rank([a, b, a + b]) == 2
    assert span_rank([]) == 0


def test_collapsed_families_match_2_2():
    # with m == n the shift family reduces to the power-sum line
    shifts, h_family = lemma_4_1_families(W2, k=2, box=3)
    assert len(shifts) == 1 and h_family == []
    assert proportional(shifts[0][1], W2.power_sum_dmu(2)) is not None


def _rational_coefficient(rng: random.Random, field):
    """A random element of Q(mu) with a denominator positive at every geometric point."""
    mu = [field.mu(i + 1) for i in range(field.n_mu)]
    num = (field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
           + mu[rng.randrange(len(mu))] * field.from_int(rng.randint(-3, 3)))
    if num.is_zero:
        num = field.one()
    return num / (mu[rng.randrange(len(mu))] + field.from_int(rng.randint(1, 4)))


def _residue(value: Fraction) -> int:
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, MODULUS) % MODULUS


@pytest.mark.parametrize("variant", VARIANTS)
def test_ad_builder_matches_bracket_oracle(variant, ad_matrix_oracle, monkeypatch):
    # the structure-constant builder, over Q(mu) and over F_p, is the bracket per column,
    # and so are the rows the certified-rank loop yields; wnmu's columns are all MU_DIRECTION
    algebra = WittAlgebra(variant)
    space = TruncatedSpace(algebra, box=2)
    pairs = algebra._basis_pair_list(1)
    rng = random.Random(11)
    points = []

    def recorded(arity, bound):
        for point in specialization_points(arity, bound):
            points.append(point)
            yield point

    monkeypatch.setattr(linalg, "specialization_points", recorded)
    for trial in range(5):
        z = algebra.zero()
        if trial < 3:
            for alpha, direction in rng.sample(pairs, 3):
                coeff = _rational_coefficient(rng, algebra.field)
                z = z + algebra.pair_element(alpha, direction).scale(coeff)
        elif trial == 3:
            # exponents two past the box, negative ones at the low edge of the row codes
            for alpha, (_, direction) in zip([(-4, -4), (4, -3)], [pairs[0], pairs[-1]]):
                coeff = _rational_coefficient(rng, algebra.field)
                z = z + algebra.pair_element(alpha, direction).scale(coeff)
        else:
            # t1^p d2: the entries (e_1, beta) b_2 = p vanish mod p and are left out
            z = algebra.pair_element((MODULUS, 0), pairs[-1][1]) + algebra.pair_element(*pairs[0])
        matrix, keys = ad_matrix_oracle(z, space)
        built, built_keys = ad_matrix(z, space)
        assert built_keys == keys and built.rows == matrix.rows
        columns = sorted(rng.sample(range(len(space)), len(space) // 3))
        some = {(key, c): s for key, row in zip(keys, matrix.rows)
                for c, s in row.items() if c in columns}
        assert _flat_entries(z, space, columns) == some
        if trial == 3:  # reach = 2 + 4; only the full windows hold alpha = (-2, -2)
            assert max(abs(g) for gamma, _ in keys for g in gamma) == 6
            assert keys[0][0] == (-6, -6) or variant.kind in witt._LOWEST
        for point in specialization_points(algebra.field.arity, space.box):
            expected = {}
            for key, row in zip(keys, matrix.rows):
                for c, s in row.items():
                    residue = _residue(s.evaluate(point))
                    if residue:
                        expected[(key, c)] = residue
            entries = _flat_entries(z, space, range(len(space)), point)
            assert {k: e % MODULUS for k, e in entries.items() if e % MODULUS} == expected
        # each row the certified-rank loop yields is an oracle row reduced mod p at the
        # loop's own point (the last one drawn), entry by entry, and so is its rank
        yielded = 0
        for r0, rows in centralizer._specialized_ranks(z, space):
            residues = [{c: _residue(s.evaluate(points[-1])) for c, s in row.items()}
                        for row in matrix.rows]
            expected = [{c: e for c, e in row.items() if e} for row in residues]
            expected = [row for row in expected if row]
            assert (sorted(sorted(row.items()) for row in rows)
                    == sorted(sorted(row.items()) for row in expected))
            assert r0 == rank_mod_p(expected)
            yielded += 1
        assert yielded


def _flat_entries(z, space, columns, point=None):
    """The builder's nonzero entries keyed by ((gamma, j), column); each key comes once.

    Row codes sort as their keys do.
    """
    rows, key = centralizer._ad_rows(z, space, columns, point)
    flat = {}
    for code in sorted(rows):
        assert rows[code] and all(rows[code].values())
        for c, e in rows[code].items():
            flat[(key(code), c)] = e
    assert len(flat) == sum(map(len, rows.values()))
    assert list(flat) == sorted(flat, key=lambda k: k[0])
    return flat


def test_specialized_ranks_reduce_entries_mod_p():
    # at column t1^2*t2*d1 the entry (e_1, beta) b_1 - (b, alpha) = 1 - (2 - 1) is zero,
    # but its residues give 1 - (2 + (p - 1)) = -p, which must be reduced away
    z = parse_element("t1*d1 - t1*d2", W2)
    space = TruncatedSpace(W2, box=2)
    r = rank(ad_matrix(z, space)[0])
    assert r in [r0 for r0, _ in centralizer._specialized_ranks(z, space)]


def test_centralizer_of_an_exponent_divisible_by_p(monkeypatch):
    # beta_1 = p: the residues of (e_1, beta) b_2 vanish, and no zero entry may reach
    # the echelon, whose rank would rise above the generic rank
    fallbacks = _count_fallbacks(monkeypatch)
    for text in ["t1^2147483647*d2", "t1^2147483647*d2 + t2*d1", "t1^2147483647*d2 + d1"]:
        z = parse_element(text, W2)
        space = TruncatedSpace(W2, box=1)
        r = rank(ad_matrix(z, space)[0])
        for r0, rows in centralizer._specialized_ranks(z, space):
            assert r0 <= r and all(all(row.values()) for row in rows)
        fallbacks.clear()
        assert centralizer_basis(W2, z, 1).vectors == _symbolic_kernel(W2, z, 1)


def _count_fallbacks(monkeypatch):
    """Counter of `centralizer_basis` calls that built the symbolic ad-matrix."""
    calls = []
    original = centralizer.ad_matrix
    monkeypatch.setattr(centralizer, "ad_matrix", lambda z, space: calls.append(z) or
                        original(z, space))
    return calls


def _symbolic_kernel(algebra, z, box):
    return kernel(ad_matrix(z, TruncatedSpace(algebra, box))[0])


def test_centralizer_basis_matches_symbolic_kernel(monkeypatch):
    # z may stick out of the box and carry mu-dependent coefficients; z and the zero
    # columns do not always span the kernel, so some z must fall back
    fallbacks = _count_fallbacks(monkeypatch)
    certified = 0
    for variant in [AlgebraVariant.wn(2), AlgebraVariant.winf(1, 2), AlgebraVariant.wnplus(2),
                    AlgebraVariant.wnplusplus(2), AlgebraVariant.wnmu(2)]:
        certified += _differential_trials(WittAlgebra(variant), fallbacks)
    assert certified and fallbacks


def _differential_trials(algebra, fallbacks):
    """Random z checked against the symbolic kernel; returns how many certified."""
    field = algebra.field
    rng = random.Random(repr(algebra.variant))
    coefficients = [lambda: field.from_fraction(Fraction(rng.randint(1, 9), rng.randint(1, 4))),
                    lambda: _rational_coefficient(rng, field),
                    lambda: field.mu(1) - field.one()]
    certified = 0
    for trial in range(8):
        box = 1 + trial % 2
        pairs = algebra._basis_pair_list(box + trial % 3 // 2)
        z = algebra.zero()
        for alpha, direction in rng.sample(pairs, rng.randint(1, 3)):
            coeff = coefficients[0]() if trial % 3 == 0 else rng.choice(coefficients)()
            z = z + algebra.pair_element(alpha, direction).scale(coeff)
        if z.is_zero:
            continue
        before = len(fallbacks)
        result = centralizer_basis(algebra, z, box)
        certified += len(fallbacks) == before
        assert result.vectors == _symbolic_kernel(algebra, z, box)
        assert all(bracket(e, z).is_zero for e in result.basis)
    return certified


def test_centralizer_accidental_zero_column_is_no_member(monkeypatch):
    # the first point sets mu1 = 10, where the columns t2^j*d2 and t1*t2^(+-1)*d1 lose
    # their images, which come from (10 - mu1)*t2^3*d2 alone; counted as members beside
    # the true zero column t1*d1 they would meet ncols - r0 and certify a wrong kernel
    z = parse_element("t1*d1 + (10 - mu1)*t2^3*d2", W2)
    space = TruncatedSpace(W2, box=1)
    assert linalg.specialization_points(2, 4)[0][0] == 10
    r0, rows = next(centralizer._specialized_ranks(z, space))
    silent = [c for c in range(len(space)) if not any(c in row for row in rows)]
    exact = [c for c in silent if bracket(space.element(c), z).is_zero]
    assert exact == [space.index[((1, 0), 0)]] and len(silent) == len(space) - r0 == 6
    first_only = linalg.specialization_points
    monkeypatch.setattr(linalg, "specialization_points",
                        lambda arity, bound: first_only(arity, bound)[:1])
    result = centralizer_basis(W2, z, 1)
    assert result.vectors == _symbolic_kernel(W2, z, 1)
    assert result.dimension == 1


def test_centralizer_certifies_at_a_later_point(monkeypatch):
    # at the first point, mu = (8, 64), the residues of ad(z) have rank 48 of 49
    z = parse_element("(t1 + t2)*dmu - 8*t2*d1", W2)
    assert linalg.specialization_points(2, 3)[0] == (8, 64)
    fallbacks = _count_fallbacks(monkeypatch)
    certified = centralizer_basis(W2, z, 2)
    assert not fallbacks
    first_only = linalg.specialization_points
    monkeypatch.setattr(linalg, "specialization_points",
                        lambda arity, bound: first_only(arity, bound)[:1])
    assert centralizer_basis(W2, z, 2).vectors == certified.vectors
    assert len(fallbacks) == 1


@pytest.mark.parametrize("text, error", [
    ("t1*t2*d1 + 1/(mu1 - 6)*t1*d2", DenominatorVanishes),
    ("t1*t2*d1 + 1/(mu1 + 2147483641)*t1*d2", ValueError),
], ids=["pole", "denominator-divisible-by-p"])
def test_centralizer_skips_a_point_that_does_not_evaluate(monkeypatch, text, error):
    # reach 2 puts the first point at mu1 = 6, where the t1*d2 coefficient has a pole
    # or a denominator of 2^31 - 1; the loop goes on to the next two points
    z = parse_element(text, W2)
    space = TruncatedSpace(W2, box=1)
    points = linalg.specialization_points(2, 2)
    assert points[0] == (6, 36)
    with pytest.raises(error):
        centralizer._ad_rows(z, space, range(len(space)), points[0])
    later = [list(centralizer._ad_rows(z, space, range(len(space)), point)[0].values())
             for point in points[1:]]
    assert [rows for _, rows in centralizer._specialized_ranks(z, space)] == later
    fallbacks = _count_fallbacks(monkeypatch)
    result = centralizer_basis(W2, z, 1)
    assert not fallbacks
    assert result.vectors == _symbolic_kernel(W2, z, 1)


def test_centralizer_certifies_an_affine_coefficient(monkeypatch):
    # the t2 term's Cartan coefficient mu1 - 1 vanished at every point while they set mu1 = 1
    z = parse_element("(t1 + t2)*dmu - t2*d1", W2)
    fallbacks = _count_fallbacks(monkeypatch)
    result = centralizer_basis(W2, z, 3)
    assert not fallbacks
    assert result.vectors == _symbolic_kernel(W2, z, 3)


def test_centralizer_falls_back_when_no_point_certifies(monkeypatch):
    # mu = 0 kills every d_mu entry, so no point certifies and the symbolic kernel decides
    z = parse_element("(t1 + t2)*dmu + 3*t1*t2^-1*d1", W2)
    fallbacks = _count_fallbacks(monkeypatch)
    certified = centralizer_basis(W2, z, 1)
    assert not fallbacks
    monkeypatch.setattr(linalg, "specialization_points",
                        lambda arity, bound: [(0,) * arity])
    assert centralizer_basis(W2, z, 1).vectors == certified.vectors
    assert len(fallbacks) == 1
    assert certified.vectors == _symbolic_kernel(W2, z, 1)


@pytest.mark.parametrize("path", ["certified", "symbolic"])
def test_centralizer_self_check_catches_a_corrupt_basis_vector(monkeypatch, capsys, path):
    z_text = "(t1 + t2)*dmu"
    one = W2.field.one()
    if path == "certified":
        rref = centralizer._canonical_rref
        monkeypatch.setattr(centralizer, "_canonical_rref",
                            lambda rows: [(pc, {**row, 0: one}) for pc, row in rref(rows)])
    else:
        monkeypatch.setattr(linalg, "specialization_points", lambda arity, bound: [])
        kernel_of = centralizer.matrix_kernel
        monkeypatch.setattr(centralizer, "matrix_kernel",
                            lambda matrix: [{**v, 0: one} for v in kernel_of(matrix)])
    with pytest.raises(SelfCheckFailed):
        centralizer_basis(W2, parse_element(z_text, W2), 1)
    assert main(["centralize", "--arity", "2", "--box", "1", z_text]) == 2
    assert "does not commute" in capsys.readouterr().err


def test_verify_falls_back_when_no_point_certifies(monkeypatch):
    # mu = 0 kills every entry, so no point certifies and the symbolic kernel decides
    monkeypatch.setattr(linalg, "specialization_points",
                        lambda arity, bound: [(0,) * arity])
    report = verify_lemma_2_2(2, 2)
    assert report.passed
    assert report.data["method"] == "symbolic-kernel"
    basis = parse_element(report.data["basis"][0], W2)
    assert proportional(basis, W2.power_sum_dmu(2)) is not None
    report = verify_lemma_4_1(1, 2, 1, box=1)
    assert report.passed
    assert report.data["method"] == "symbolic-kernel"
    assert report.data["dimension"] == report.data["predicted_dimension"] == 6


def test_verify_lemma_2_2_fallback_checks_its_kernel(monkeypatch):
    # a corrupt kernel on the symbolic path no longer commutes with z
    monkeypatch.setattr(linalg, "specialization_points", lambda arity, bound: [])
    one = W2.field.one()
    kernel_of = centralizer.matrix_kernel
    monkeypatch.setattr(centralizer, "matrix_kernel",
                        lambda matrix: [{**v, 0: one} for v in kernel_of(matrix)])
    with pytest.raises(SelfCheckFailed, match="does not commute"):
        verify_lemma_2_2(2, 2)


def test_verify_lemma_4_1_box_below_k_compares_the_kernel(monkeypatch):
    # no shift fits box 3 at k = -4, so the centralizer is the seven t2^j d2, |j| <= 3;
    # forcing the symbolic kernel shows the comparison is not vacuous
    monkeypatch.setattr(linalg, "specialization_points",
                        lambda arity, bound: [(0,) * arity])
    report = verify_lemma_4_1(1, 2, -4, box=3)
    assert report.passed
    assert report.data["method"] == "symbolic-kernel"
    assert report.data["dimension"] == report.data["predicted_dimension"] == 7
    assert report.data["spans_equal"]
    assert sorted(report.data["basis"]) == sorted(report.data["predicted"])


def test_verify_lemma_2_2_rejects_box_below_k():
    with pytest.raises(BadK):
        verify_lemma_2_2(2, 4, box=2)
