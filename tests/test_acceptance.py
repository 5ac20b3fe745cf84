"""Acceptance suite: ten criteria, exact arithmetic, one verdict line each.

Run with -s to see the per-criterion lines; every check is exact, the
only tolerances are the stated runtime ceilings.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from wittkit import (
    AlgebraVariant,
    PointwiseMap,
    ScalarField,
    WittAlgebra,
    bracket,
    centralizer_basis,
    check_antisymmetry,
    check_bilinearity,
    check_closure,
    check_jacobi,
    parse_element,
    proportional,
    rigidity_pipeline,
    span_rank,
    verify_lemma_2_2,
    verify_lemma_3_3,
    verify_lemma_3_4,
    verify_lemma_4_1,
    verify_lemma_4_4,
)
from wittkit.rigidity import _power_obstruction


def conclude(num: int, label: str, problems, started: float, budget=None):
    elapsed = time.time() - started
    verdict = "PASS" if not problems else "FAIL"
    print(f"criterion {num} ({label}): {verdict} [{elapsed:.2f}s]")
    assert not problems, problems
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_lie_algebra_laws():
    started = time.time()
    algebra = WittAlgebra(AlgebraVariant.wn(3))
    rng = random.Random(2026)
    problems = []
    for trial in range(500):
        x = algebra.random_element(rng, box=3)
        y = algebra.random_element(rng, box=3)
        z = algebra.random_element(rng, box=3)
        a = algebra.field.from_fraction(
            Fraction(rng.choice([s for s in range(-9, 10) if s]), rng.randint(1, 4)))
        b = algebra.field.from_fraction(
            Fraction(rng.choice([s for s in range(-9, 10) if s]), rng.randint(1, 4)))
        for law, message in (
            ("antisymmetry", check_antisymmetry(x, y)),
            ("bilinearity", check_bilinearity(a, b, x, y, z)),
            ("jacobi", check_jacobi(x, y, z)),
        ):
            if message is not None:
                problems.append((trial, law, message))
    conclude(1, "Lie-algebra laws, 500 triples in W3 box 3", problems, started, budget=30)


def test_criterion_02_lemma_2_2_grid():
    started = time.time()
    problems = []
    for n in (1, 2, 3):
        algebra = WittAlgebra(AlgebraVariant.wn(n))
        for k in (-3, -1, 1, 2, 4):
            report = verify_lemma_2_2(n, k)
            if not report.passed or report.data["dimension"] != 1:
                problems.append((n, k, report.data))
                continue
            if report.parameters["box"] != abs(k) + 2:
                problems.append((n, k, "wrong box"))
            basis = parse_element(report.data["basis"][0], algebra)
            if proportional(basis, algebra.power_sum_dmu(k)) is None:
                problems.append((n, k, "basis not proportional to the power sum"))
    conclude(2, "lemma 2.2 centralizers, n in {1,2,3}, k in {-3,-1,1,2,4}",
             problems, started, budget=120)


def test_criterion_03_anchored_bracket_identity():
    started = time.time()
    ext = ScalarField(2, ("c",))
    algebra = WittAlgebra(AlgebraVariant.wn(2), ext)
    c = ext.var("c")
    problems = []
    for k in (1, 2, 3):
        x = algebra.dmu().translate((k, 0)).scale(c)
        y = algebra.dmu().translate((0, k))
        expected = algebra.dmu().translate((k, k)).scale(
            c * k * (ext.mu(2) - ext.mu(1)))
        if bracket(x, y) != expected:
            problems.append(k)
    conclude(3, "[c t1^k dmu, t2^k dmu] = ck(mu2-mu1) t1^k t2^k dmu, k in {1,2,3}",
             problems, started)


def test_criterion_04_lemma_3_3_obstruction():
    started = time.time()
    problems = []
    algebra = WittAlgebra(AlgebraVariant.wn(2))
    ext = algebra.field.extend("c")
    c, mu1 = ext.var("c"), ext.mu(1)
    for k in (-1, 1, 2, 3):
        # the probe [c t1 dmu, t1^k dmu] of the shift c (t1 + t2) dmu against power k
        image = bracket(algebra.power_sum_dmu(1), algebra.power_sum_dmu(k))
        _, probe, _, ok = _power_obstruction(algebra, (0, 0), k, image)
        coefficient = ext.lift(probe) * c
        if not ok or coefficient != c * (k - 1) * mu1:
            problems.append((k, "coefficient mismatch"))
        # the coefficient c(k-1)mu1 vanishes exactly at k = 1
        if coefficient.is_zero != (k == 1):
            problems.append((k, "coefficient zero" if k != 1 else "expected zero coefficient"))
        if k != 1:
            report = verify_lemma_3_3(2, k)
            if not report.passed or report.data["coefficient"] != ext.format(coefficient):
                problems.append((k, report.data))
    conclude(4, "lemma 3.3 coefficient c(k-1)mu1, zero exactly at k=1",
             problems, started)


def test_criterion_05_lemma_4_1_truncation():
    started = time.time()
    problems = []
    report = verify_lemma_4_1(2, 3, 1, box=2)
    if not (report.passed and report.data["dimension"] == 10
            and report.data["spans_equal"]):
        problems.append(report.data)
    # independent brute-force kernel: rank equality in both directions
    algebra = WittAlgebra(AlgebraVariant.winf(2, 3))
    computed = centralizer_basis(algebra, algebra.power_sum_dmu(1), box=2)
    predicted = [parse_element(text, algebra) for text in report.data["predicted"]]
    if computed.dimension != 10:
        problems.append(("brute-force dimension", computed.dimension))
    if span_rank(predicted) != 10:
        problems.append("predicted family is not 10-dimensional")
    if span_rank(predicted + computed.basis) != 10:
        problems.append("computed kernel escapes the predicted span")
    conclude(5, "lemma 4.1 truncation n=2 m=3 k=1 N=2, dimension 10",
             problems, started)


def standard_probe_table(algebra, rng, randoms=10, box=2):
    probes = [algebra.dmu(), algebra.power_sum_dmu(1),
              algebra.power_sum_dmu(2), algebra.power_sum_dmu(3)]
    while len(probes) < 4 + randoms:
        x = algebra.random_element(rng, box=box)
        if not x.is_zero:
            probes.append(x)
    return probes


def test_criterion_06_rigidity_round_trip():
    started = time.time()
    algebra = WittAlgebra(AlgebraVariant.wn(2))
    rng = random.Random(314)
    problems = []
    for trial in range(20):
        b = algebra.random_element(rng, box=2)
        probes = standard_probe_table(algebra, rng)
        delta = PointwiseMap(algebra, [(x, bracket(b, x)) for x in probes])
        report = rigidity_pipeline(delta, box=2)
        if report.verdict != "inner":
            problems.append((trial, report.verdict))
            continue
        if report.recovered_a != b:
            problems.append((trial, "recovered element differs"))
        if any(not rec.residual.is_zero for rec in report.residuals):
            problems.append((trial, "nonzero residual"))
    conclude(6, "20 rigidity round trips in W2 box 2, a = b exactly",
             problems, started, budget=120)


def test_criterion_07_inconsistency_detection():
    started = time.time()
    algebra = WittAlgebra(AlgebraVariant.wn(2))
    table = PointwiseMap(algebra, [
        (algebra.dmu(), algebra.zero()),
        (algebra.power_sum_dmu(1), algebra.dmu().translate((2, 0))),
    ])
    report = rigidity_pipeline(table, box=2)
    problems = []
    if report.verdict != "inconsistent":
        problems.append(report.verdict)
    if not report.certificate:
        problems.append("missing certificate")
    elif all(weight.is_zero for _, weight in report.certificate):
        problems.append("certificate weights all zero")
    conclude(7, "inconsistent probe table detected with left-kernel certificate",
             problems, started)


def test_criterion_08_variant_closure():
    started = time.time()
    problems = []
    rng = random.Random(777)
    for name in ("wnplus", "wnplusplus"):
        algebra = WittAlgebra(getattr(AlgebraVariant, name)(2))
        for trial in range(200):
            x = algebra.random_element(rng, box=2)
            y = algebra.random_element(rng, box=2)
            message = check_closure(algebra, x, y)
            if message is not None:
                problems.append((name, trial, message))
    plus = WittAlgebra(AlgebraVariant.wnplus(2))
    corner = bracket(plus.monomial((-1, 0), 1), plus.monomial((1, 0), 1))
    if corner != plus.d(1).scale(plus.field.from_fraction(2)):
        problems.append("corner identity failed")
    conclude(8, "bracket closure, 200 pairs each in W2+ and W2++",
             problems, started)


def test_criterion_09_variant_rigidity():
    started = time.time()
    problems = []
    rng = random.Random(2718)
    for name in ("wnplusplus", "wnmu"):
        algebra = WittAlgebra(getattr(AlgebraVariant, name)(2))
        for trial in range(5):
            b = algebra.random_element(rng, box=2)
            delta = PointwiseMap(
                algebra, [(x, bracket(b, x)) for x in standard_probe_table(algebra, rng)])
            report = rigidity_pipeline(delta, box=2)
            if report.verdict != "inner":
                problems.append((name, trial, report.verdict))
                continue
            for rec in report.residuals:
                if rec.realizer is None:
                    problems.append((name, trial, "unrealizable residual"))
                elif not rec.residual.is_zero:
                    # realizer must reproduce the residual from the span
                    if bracket(rec.realizer, rec.probe) != rec.residual:
                        problems.append((name, trial, "bad realizer"))
    conclude(9, "rigidity protocol on W2++ and W2(mu), residuals realizable",
             problems, started)


def test_criterion_10_support_forcing():
    started = time.time()
    algebra = WittAlgebra(AlgebraVariant.wn(2))
    wide_algebra = WittAlgebra(AlgebraVariant.winf(2, 3))
    rng = random.Random(905)
    problems = []
    for trial in range(20):
        x = algebra.random_element(rng, box=2)
        while x.is_zero:
            x = algebra.random_element(rng, box=2)
        n_x = 1 + max(abs(e) for alpha in x.support for e in alpha)
        report = verify_lemma_3_4(x)
        if not report.passed or report.parameters["k"] != 2 * n_x + 1:
            problems.append((trial, "3.4", report.data))
        if report.data["forcing_rank"] != 1:
            problems.append((trial, "3.4 rank"))
        wide = parse_element(algebra.format(x), wide_algebra)
        report4 = verify_lemma_4_4(wide, 2)
        if not report4.passed or report4.parameters["k"] != 2 * n_x + 1:
            problems.append((trial, "4.4", report4.data))
        if report4.data["forcing_rank"] != report4.data["shifts"]:
            problems.append((trial, "4.4 rank"))
    conclude(10, "lemmas 3.4/4.4, k = 2n_x+1 forces coefficients to zero",
             problems, started)
