"""Inner-derivation recovery, certificates, and the forcing lemma verifiers."""

from __future__ import annotations

import random

import pytest

import wittkit.rigidity as rigidity
from wittkit import (
    AlgebraVariant,
    BadArity,
    MissingProbe,
    PointwiseMap,
    SelfCheckFailed,
    TruncatedSpace,
    WittAlgebra,
    WittkitError,
    bracket,
    lemma_4_1_families,
    parse_element,
    realize_in_span,
    rigidity_pipeline,
    solve,
    solve_inner,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_3_4,
    verify_lemma_4_1,
    verify_lemma_4_3,
    verify_lemma_4_4,
)
from wittkit.cli import main

W2 = WittAlgebra(AlgebraVariant.wn(2))


def standard_probes(algebra, rng, count=10, box=2):
    probes = [algebra.dmu(), algebra.power_sum_dmu(1),
              algebra.power_sum_dmu(2), algebra.power_sum_dmu(3)]
    while len(probes) < 4 + count:
        x = algebra.random_element(rng, box=box)
        if not x.is_zero:
            probes.append(x)
    return probes


def test_solve_inner_single_anchor_gives_cartan():
    result = solve_inner(W2, [(W2.dmu(), W2.zero())], box=2)
    assert result.consistent
    assert result.solution.is_zero
    assert result.homogeneous == [W2.d(1), W2.d(2)]
    assert result.solution_dimension == 2


def test_solve_inner_two_anchors_unique():
    constraints = [(W2.dmu(), W2.zero()),
                   (W2.power_sum_dmu(1), W2.zero())]
    result = solve_inner(W2, constraints, box=2)
    assert result.consistent
    assert result.solution.is_zero
    assert result.homogeneous == []


def test_solve_inner_inconsistent_certificate():
    # image of the Cartan under ad(. , ps(1)) is span{t1 dmu, t2 dmu},
    # so t1^2 dmu cannot be hit
    target = W2.dmu().translate((2, 0))
    constraints = [(W2.dmu(), W2.zero()),
                   (W2.power_sum_dmu(1), target)]
    result = solve_inner(W2, constraints, box=2)
    assert not result.consistent
    assert result.certificate
    for (q, gamma, j), weight in result.certificate:
        assert q in (0, 1)
        assert len(gamma) == 2 and 0 <= j < 2
        assert not weight.is_zero


def test_solve_inner_recovers_generator():
    rng = random.Random(77)
    for _ in range(10):
        b = W2.random_element(rng, box=2)
        constraints = [(W2.dmu(), bracket(b, W2.dmu())),
                       (W2.power_sum_dmu(1), bracket(b, W2.power_sum_dmu(1)))]
        result = solve_inner(W2, constraints, box=2)
        assert result.consistent
        assert result.solution == b


VARIANTS = {
    "wn": AlgebraVariant.wn(2),
    "wnplus": AlgebraVariant.wnplus(2),
    "wnplusplus": AlgebraVariant.wnplusplus(2),
    "wnmu": AlgebraVariant.wnmu(2),
    "winf": AlgebraVariant.winf(2, 3),
}


def anchor_constraints(algebra, b):
    return [(z, bracket(b, z)) for z in (algebra.dmu(), algebra.power_sum_dmu(1))]


@pytest.mark.parametrize("box", [1, 2])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_solve_inner_matches_stacked_solve(stacked_system, name, box):
    # against the generic solve of the system stacking every constraint
    # over every box column; box 1 adds a random probe to the anchors (at
    # box 2 that makes the stacked winf solve alone take seconds)
    algebra = WittAlgebra(VARIANTS[name])
    rng = random.Random(f"{name}:{box}")
    b = algebra.random_element(rng, box=box)
    constraints = anchor_constraints(algebra, b)
    if box == 1:
        x = algebra.random_element(rng, box=box)
        constraints.append((x, bracket(b, x)))
    result = solve_inner(algebra, constraints, box)
    matrix, rhs, _ = stacked_system(algebra, constraints, box)
    oracle = solve(matrix, rhs)
    space = TruncatedSpace(algebra, box)
    assert result.consistent and oracle.consistent
    assert result.solution == space.element_from_vector(oracle.solution)
    assert result.homogeneous == [space.element_from_vector(v) for v in oracle.homogeneous]
    assert result.rank == oracle.rank


# name -> (variant, box, perturbed anchor, term added to its value, certificate rows)
INCONSISTENT = {
    "cartan-in-dmu": ("wn", 2, 0, "2*d1", 1),
    "outside-wnplus": ("wnplus", 1, 0, "t1^-1*d2", 1),
    "off-line-wnmu": ("wnmu", 2, 0, "t1*d1", 2),
    "out-of-box": ("wn", 1, 1, "t1^3*d2", 1),
    "in-reach": ("wn", 2, 1, "t1^2*dmu", None),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_solve_inner_certificates(stacked_system, certificate_holds, case):
    name, box, anchor, extra, size = INCONSISTENT[case]
    algebra = WittAlgebra(VARIANTS[name])
    b = algebra.random_element(random.Random(case), box=box)
    constraints = anchor_constraints(algebra, b)
    x, y = constraints[anchor]
    constraints[anchor] = (x, y + parse_element(extra, algebra))
    result = solve_inner(algebra, constraints, box)
    matrix, rhs, _ = stacked_system(algebra, constraints, box)
    oracle = solve(matrix, rhs)
    assert not result.consistent and not oracle.consistent
    assert result.rank == oracle.rank
    assert certificate_holds(algebra, constraints, box, result.certificate) is None
    if size is not None:
        assert len(result.certificate) == size
        assert {q for (q, _, _), _ in result.certificate} == {anchor}


def test_solve_inner_requires_dmu_anchor_first():
    constraints = anchor_constraints(W2, W2.d(1))
    with pytest.raises(WittkitError, match="first constraint"):
        solve_inner(W2, constraints[::-1], box=1)


def test_self_check_rejects_corrupted_solution(monkeypatch):
    def corrupted(matrix, rhs):
        outcome = solve(matrix, rhs)
        outcome.solution[0] = W2.field.one()
        return outcome

    monkeypatch.setattr(rigidity, "matrix_solve", corrupted)
    with pytest.raises(SelfCheckFailed, match="solve_inner"):
        solve_inner(W2, anchor_constraints(W2, W2.monomial((1, 0), 2)), box=1)


def test_self_check_rejects_corrupted_certificate(monkeypatch):
    wmu = WittAlgebra(VARIANTS["wnmu"])
    honest = rigidity._anchor_certificate

    def corrupted(space, value):
        (key, u), *rest = honest(space, value)
        return [(key, u + u), *rest]

    monkeypatch.setattr(rigidity, "_anchor_certificate", corrupted)
    constraints = anchor_constraints(wmu, wmu.zero())
    constraints[0] = (wmu.dmu(), parse_element("t1*d1", wmu))
    with pytest.raises(SelfCheckFailed, match="annihilate"):
        solve_inner(wmu, constraints, box=1)


def test_self_check_rejects_wrong_realizer(monkeypatch):
    monkeypatch.setattr(rigidity, "realize_in_span", lambda algebra, span, x, target: algebra.d(1))
    probes = standard_probes(W2, random.Random(5), count=2)
    delta = PointwiseMap(W2, [(x, bracket(W2.d(2), x)) for x in probes])
    with pytest.raises(SelfCheckFailed, match="realizer"):
        rigidity_pipeline(delta, box=1)


def test_realize_in_span():
    span = [W2.d(1)]
    x = W2.monomial((1, 0), 1)
    target = x
    found = realize_in_span(W2, span, x, target)
    assert found is not None and bracket(found, x) == target
    assert realize_in_span(W2, span, x, W2.monomial((0, 1), 2)) is None
    assert realize_in_span(W2, [], x, W2.zero()) == W2.zero()


def test_pipeline_round_trip():
    rng = random.Random(15)
    for _ in range(5):
        b = W2.random_element(rng, box=2)
        delta = PointwiseMap(W2, [(x, bracket(b, x)) for x in standard_probes(W2, rng)])
        report = rigidity_pipeline(delta, box=2)
        assert report.verdict == "inner"
        assert report.passed
        assert report.recovered_a == b
        assert report.common_centralizer == []
        for rec in report.residuals:
            assert rec.residual.is_zero
            assert rec.realizer == W2.zero()


def test_pipeline_inconsistent_table():
    delta = PointwiseMap(W2, [
        (W2.dmu(), W2.zero()),
        (W2.power_sum_dmu(1), W2.dmu().translate((2, 0))),
    ])
    report = rigidity_pipeline(delta, box=2)
    assert report.verdict == "inconsistent"
    assert not report.passed
    assert report.recovered_a is None
    assert report.certificate
    payload = report.to_dict()
    assert payload["verdict"] == "inconsistent"
    assert payload["certificate"]


def test_pipeline_requires_anchors():
    delta = PointwiseMap(W2, [(W2.dmu(), W2.zero())])
    with pytest.raises(MissingProbe):
        rigidity_pipeline(delta, box=2)


def test_pointwise_map_rejects_contradictory_pairs():
    x = W2.dmu()
    with pytest.raises(Exception):
        PointwiseMap(W2, [(x, W2.zero()), (x, W2.d(1))])
    # a repeated consistent pair collapses
    table = PointwiseMap(W2, [(x, W2.zero()), (x, W2.zero())])
    assert len(table) == 1


def test_verify_lemma_3_2():
    x = W2.monomial((1, 0), 1) + W2.monomial((1, 1), 2)
    report = verify_lemma_3_2(x)
    assert report.passed
    assert report.data["solution_is_cartan"]
    assert report.data["eigenvalues"]["t1"] == "h1"
    assert report.data["eigenvalues"]["t1*t2"] == "h1 + h2"


def test_verify_lemma_3_3_coefficients():
    for k, expected in ((2, "mu1*c"), (3, "2*mu1*c"), (-1, "-2*mu1*c")):
        report = verify_lemma_3_3(2, k)
        assert report.passed, (k, report.data)
        assert report.data["coefficient"] == expected
        assert report.data["forced_zero"] == ["c"]
    # k = -1 collides at exponent zero: the full coefficient picks up mu2
    image = bracket(W2.power_sum_dmu(1), W2.power_sum_dmu(-1))
    gamma, probe, full, ok = rigidity._power_obstruction(W2, (0, 0), -1, image)
    ext = W2.field.extend("c")
    c = ext.var("c")
    assert ok and gamma == (0, 0)
    assert ext.lift(probe) * c == c * (-2) * ext.mu(1)
    assert ext.lift(full) * c == c * (-2) * (ext.mu(1) + ext.mu(2))
    assert verify_lemma_3_3(2, -1).data["full_coefficient"] == ext.format(ext.lift(full) * c)


W3_2 = WittAlgebra(AlgebraVariant.winf(2, 3))
W2_1 = WittAlgebra(AlgebraVariant.winf(1, 2))


def _forcing_case(name):
    """(algebra, family, x) of one lemma's forcing, or of a rank-deficient family."""
    if name == "3.3":
        return W2, [W2.power_sum_dmu(1)], W2.power_sum_dmu(-1)
    if name == "3.4":
        return W2, [W2.power_sum_dmu(7)], parse_element("t1^2*t2^-1*d1 + t2*d2", W2)
    if name == "4.3":
        shifts, _ = lemma_4_1_families(W3_2, 1, 1)
        return W3_2, [s for _, s in shifts], W3_2.power_sum_dmu(3)
    if name == "4.4":
        shifts, _ = lemma_4_1_families(W2_1, 5, 5)
        return W2_1, [s for _, s in shifts], parse_element("t1*d1", W2_1)
    if name == "wn-deficient":
        s = W2.power_sum_dmu(1)
        return W2, [s, s.scale(W2.field.from_fraction(2)), W2.d(1)], W2.power_sum_dmu(3)
    # the h' family kills x, and two shifts repeat
    shifts, h_family = lemma_4_1_families(W3_2, 1, 1)
    family = [s for _, s in shifts[:3] + shifts[:2]] + [e for _, _, e in h_family[:2]]
    return W3_2, family, W3_2.power_sum_dmu(-1)


@pytest.mark.parametrize("name", ["3.3", "3.4", "4.3", "4.4", "wn-deficient", "winf-deficient"])
def test_forcing_matches_adjoined_unknowns(forcing_oracle, name):
    algebra, family, x = _forcing_case(name)
    images, support, forcing_rank = rigidity._forcing(family, x)
    assert images == [bracket(s, x) for s in family]
    assert (support, forcing_rank) == forcing_oracle(algebra, family, x)
    assert (forcing_rank < len(family)) == name.endswith("deficient")


@pytest.mark.parametrize("verify", [
    lambda: verify_lemma_3_3(2, 3),
    lambda: verify_lemma_4_3(2, 3, 3, box=1),
    lambda: verify_lemma_3_4(parse_element("t1*d2 + d1", W2)),
    lambda: verify_lemma_4_4(parse_element("t1*d1", W2_1), 1),
], ids=["3.3", "4.3", "3.4", "4.4"])
def test_forcing_one_rank_short_fails(monkeypatch, verify):
    # the failing branch of each forcing core, through the W_n and the W_inf entry point
    rank = rigidity.span_rank
    monkeypatch.setattr(rigidity, "span_rank", lambda images: rank(images) - 1)
    report = verify()
    assert not report.passed
    assert report.data["forced_zero"] == []
    assert report.data["forcing_rank"] == report.data.get("shifts", 1) - 1


def test_verify_lemma_3_3_rejects_degenerate_k():
    with pytest.raises(Exception):
        verify_lemma_3_3(2, 1)
    with pytest.raises(Exception):
        verify_lemma_3_3(2, 0)


def test_verify_lemma_3_4():
    x = W2.monomial((2, -1), 1) + W2.monomial((0, 1), 2)
    report = verify_lemma_3_4(x)
    assert report.passed
    assert report.parameters["n_x"] == 3
    assert report.parameters["k"] == 7
    assert report.data["forced_zero"] == ["c"]


def test_verify_lemma_4_3():
    report = verify_lemma_4_3(2, 3, 2)
    assert report.passed
    assert report.data["shifts"] == 5
    assert report.data["h_part_zero"]
    assert report.data["forced_zero"] == [f"c{i}" for i in range(1, 6)]


def test_verify_lemma_4_4():
    x2 = W2.monomial((1, 0), 1) + W2.d(2)
    x = parse_element("t1*d1 + d2", W3_2)
    report = verify_lemma_4_4(x, 2)
    assert report.passed
    assert report.data["h_part_zero"]
    assert report.data["forcing_rank"] == report.data["shifts"]
    with pytest.raises(Exception):
        verify_lemma_4_4(x2, 2)


@pytest.mark.parametrize("x, algebra", [("t1*d2 + d1", W2),
                                        ("d1", WittAlgebra(AlgebraVariant.wn(3)))])
def test_verify_lemma_3_4_takes_its_rank_from_x(x, algebra):
    report = verify_lemma_3_4(parse_element(x, algebra))
    assert report.parameters["n"] == algebra.m


@pytest.mark.parametrize("n, algebra", [(1, W2_1), (2, W3_2),
                                        (1, WittAlgebra(AlgebraVariant.winf(1, 3)))])
def test_verify_lemma_4_4_takes_its_ambient_rank_from_x(n, algebra):
    report = verify_lemma_4_4(parse_element("t1*d1", algebra), n)
    assert (report.parameters["n"], report.parameters["m"]) == (n, algebra.m)


@pytest.mark.parametrize("verify", [
    lambda: verify_lemma_4_1(2, 2, 1, 1),
    lambda: verify_lemma_4_1(3, 2, 1),
    lambda: verify_lemma_4_3(2, 2, 2),
    lambda: verify_lemma_4_3(3, 2, 2, 1),
    lambda: verify_lemma_4_4(parse_element("t1*d1", W2), 2),
    lambda: verify_lemma_4_4(parse_element("t1*d1", W2_1), 2),
], ids=["4.1", "4.1-wider", "4.3", "4.3-wider", "4.4", "4.4-wider"])
def test_winf_verifiers_refuse_n_at_least_m(verify):
    with pytest.raises(BadArity, match="winf needs n < m"):
        verify()


@pytest.mark.parametrize("box", [-1, 0, 4])
def test_verify_lemma_4_4_rejects_box_below_k(box):
    # n_x = 2, so k = 5: a box below 5 holds no shift, so the check would be vacuous
    x = parse_element("t1*d1 + d2", W3_2)
    with pytest.raises(BadArity, match="power-5 shift family"):
        verify_lemma_4_4(x, 2, box)


# Each self-check branch below is reached by a real result with one part
# corrupted, and raises its own message.


def _inconsistent_case():
    """(honest, perturbed constraints, result): the in-reach table, a lifted certificate."""
    algebra = WittAlgebra(VARIANTS["wn"])
    b = algebra.random_element(random.Random("in-reach"), box=2)
    constraints = anchor_constraints(algebra, b)
    honest = list(constraints)
    x, y = constraints[1]
    constraints[1] = (x, y + parse_element("t1^2*dmu", algebra))
    return honest, constraints, solve_inner(algebra, constraints, 2)


def test_self_check_rejects_empty_or_repeated_certificate_rows():
    _, constraints, result = _inconsistent_case()
    for certificate in ([], result.certificate + result.certificate[:1]):
        with pytest.raises(SelfCheckFailed, match="empty or repeats a row"):
            result._replace(certificate=certificate).check(constraints)


def test_self_check_rejects_certificate_that_does_not_separate():
    # against the table the perturbation came from, the same rows still
    # annihilate every column but meet a right-hand side in the image
    honest, constraints, result = _inconsistent_case()
    result.check(constraints)
    with pytest.raises(SelfCheckFailed, match="does not separate the right-hand side"):
        result.check(honest)


def test_self_check_rejects_homogeneous_vector_outside_the_centralizer():
    constraints = [(W2.dmu(), W2.zero())]
    result = solve_inner(W2, constraints, box=2)
    corrupted = result._replace(homogeneous=[W2.d(1), W2.monomial((1, 0), 2)])
    with pytest.raises(SelfCheckFailed, match="homogeneous vector does not commute"):
        corrupted.check(constraints)


def test_anchor_certificate_refuses_a_value_in_the_image():
    # [t1 d2, d_mu] = -mu1 t1 d2 has a nonzero eigenvalue: no row certifies it
    space = TruncatedSpace(W2, 1)
    value = bracket(W2.monomial((1, 0), 2), W2.dmu())
    with pytest.raises(SelfCheckFailed, match="lies in the image of ad"):
        rigidity._anchor_certificate(space, value)


def _inner_report():
    rng = random.Random(15)
    b = W2.random_element(rng, box=2)
    delta = PointwiseMap(W2, [(x, bracket(b, x)) for x in standard_probes(W2, rng, count=2)])
    report = rigidity_pipeline(delta, box=2)
    assert report.verdict == "inner"
    return delta, report


def test_report_check_rejects_residuals_off_the_table():
    delta, report = _inner_report()
    with pytest.raises(SelfCheckFailed, match="do not follow the probe table"):
        report._replace(residuals=report.residuals[:-1]).check(delta)


def test_report_check_rejects_an_anchor_residual():
    delta, report = _inner_report()
    first, *rest = report.residuals
    assert first.probe == W2.dmu()
    corrupted = [first._replace(residual=W2.d(1)), *rest]
    with pytest.raises(SelfCheckFailed, match="does not reproduce both anchors"):
        report._replace(residuals=corrupted).check(delta)


def test_report_check_rejects_a_verdict_against_the_residuals():
    delta, report = _inner_report()
    with pytest.raises(SelfCheckFailed, match="verdict obstructed disagrees"):
        report._replace(verdict="obstructed").check(delta)


def test_small_exponent_in_the_support_fails_lemma_4_4(monkeypatch, capsys):
    # n_x = 2 for t1*d1, so an image exponent (0, 0) violates the bound
    forcing = rigidity._forcing

    def with_small_exponent(family, x):
        images, support, forcing_rank = forcing(family, x)
        return images, support | {(0, 0)}, forcing_rank

    monkeypatch.setattr(rigidity, "_forcing", with_small_exponent)
    report = verify_lemma_4_4(parse_element("t1*d1", W2_1), 1)
    assert not report.passed
    assert not report.data["exponent_bound_holds"]
    assert report.data["violating_exponent"] == [0, 0]
    assert main(["verify", "--arity", "2", "--prefix", "1", "lemma4.4", "t1*d1"]) == 1
    out = capsys.readouterr().out
    assert ": FAIL" in out.splitlines()[0]
    assert "violating_exponent: [0, 0]" in out
