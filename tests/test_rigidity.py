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
    lemma_3_3_obstruction,
    parse_element,
    realize_in_span,
    rigidity_pipeline,
    solve,
    solve_inner,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_3_4,
    verify_lemma_4_3,
    verify_lemma_4_4,
    widen_element,
)

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
    delta = PointwiseMap.from_inner(W2, W2.d(2), standard_probes(W2, random.Random(5), count=2))
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
        delta = PointwiseMap.from_inner(W2, b, standard_probes(W2, rng))
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
    data = lemma_3_3_obstruction(2, -1)
    ext = data.algebra.field
    c = ext.var("c")
    assert data.probe_coefficient == c * (-2) * ext.mu(1)
    assert data.coefficient == c * (-2) * (ext.mu(1) + ext.mu(2))


def test_verify_lemma_3_3_rejects_degenerate_k():
    with pytest.raises(Exception):
        verify_lemma_3_3(2, 1)
    with pytest.raises(Exception):
        verify_lemma_3_3(2, 0)


def test_verify_lemma_3_4():
    x = W2.monomial((2, -1), 1) + W2.monomial((0, 1), 2)
    report = verify_lemma_3_4(x, 2)
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
    x = widen_element(x2, 3)
    report = verify_lemma_4_4(x, 2, 3)
    assert report.passed
    assert report.data["h_part_zero"]
    assert report.data["forcing_rank"] == report.data["shifts"]
    with pytest.raises(Exception):
        verify_lemma_4_4(x2, 2, 3)


@pytest.mark.parametrize("box", [-1, 0, 4])
def test_verify_lemma_4_4_rejects_box_below_k(box):
    # n_x = 2, so k = 5: a box below 5 holds no shift, so the check would be vacuous
    x = widen_element(W2.monomial((1, 0), 1) + W2.d(2), 3)
    with pytest.raises(BadArity, match="power-5 shift family"):
        verify_lemma_4_4(x, 2, 3, box)
