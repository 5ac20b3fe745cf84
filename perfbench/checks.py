"""Exact checks of every job's output, with the library as the oracle.

A check returns None when the job's exit code and report are right and a
short reason otherwise.  Checks run after the timed run has ended, in
the parent process, so they cost neither wall time nor peak memory of
the workload.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Optional

from wittkit import (
    AlgebraVariant,
    ScalarMatrix,
    WittAlgebra,
    bracket,
    modular_rank,
    parse_element,
    proportional,
)
from wittkit.centralizer import TruncatedSpace, ad_matrix
from wittkit.errors import DenominatorVanishes
from wittkit.parsing import parse_scalar

SPECIALIZATION_TRIES = 4


def _algebra(variant: str, arity: int, prefix: int) -> WittAlgebra:
    factory = getattr(AlgebraVariant, variant)
    return WittAlgebra(factory(prefix, arity) if variant == "winf" else factory(arity))


def _specialized_ranks(matrix: ScalarMatrix, arity: int):
    """Ranks mod p at successive random points; each bounds the generic rank below.

    Random points rather than the library's geometric ones: those put
    mu1 = 1, where entries such as (1 - mu1)/2 from rational coefficients
    of z vanish for every try.
    """
    rng = random.Random(0)
    for _ in range(SPECIALIZATION_TRIES):
        point = tuple(Fraction(rng.randint(1, 10**9)) for _ in range(arity))
        try:
            yield modular_rank(matrix, point)
        except (DenominatorVanishes, ValueError):
            continue


def check_lemma(job: dict, code: Optional[int], report: dict) -> Optional[str]:
    if code != 0 or report.get("pass") is not True:
        return f"exit {code}, pass {report.get('pass')}"
    if report["parameters"].get("box") != job["box"]:
        return "wrong box"
    if job["lemma"] == "2.2":
        if report["dimension"] != 1 or len(report["basis"]) != 1:
            return f"dimension {report['dimension']}"
        algebra = _algebra("wn", job["n"], job["n"])
        basis = parse_element(report["basis"][0], algebra)
        if proportional(basis, algebra.power_sum_dmu(job["k"])) is None:
            return "basis not proportional to the power sum"
        return None
    # Lemma 4.1: the shift family exists when |k| <= box, plus m - n h' directions,
    # each over every tail exponent in the box.
    n, m, k, box = job["n"], job["m"], job["k"], job["box"]
    expected = (2 * box + 1) ** (m - n) * ((1 if abs(k) <= box else 0) + m - n)
    if report["dimension"] != expected:
        return f"dimension {report['dimension']} != {expected}"
    return None


def _certificate_holds(job: dict, algebra: WittAlgebra, certificate) -> Optional[str]:
    """Rebuild the certificate's rows from the anchors: u A = 0 and u . b != 0."""
    if not certificate:
        return "inconsistent without a certificate"
    probes = job["table"]["probes"]
    space = TruncatedSpace(algebra, job["box"])
    rows = []
    for entry in certificate:
        q = entry["constraint"]
        monomial = parse_element(entry["monomial"], algebra)
        (gamma, cartan), = monomial.support.items()
        j = next(i for i, c in enumerate(cartan.coeffs) if not c.is_zero)
        weight = parse_scalar(entry["weight"], algebra.field)
        anchor = parse_element(probes[q]["x"], algebra)
        value = parse_element(probes[q]["dx"], algebra)
        rows.append((anchor, gamma, j, weight, value))
    zero = algebra.field.zero()
    for col in range(len(space)):
        element = space.element(col)
        total = zero
        for anchor, gamma, j, weight, _ in rows:
            entry = bracket(element, anchor).coefficient(gamma, j)
            if not entry.is_zero:
                total = total + weight * entry
        if not total.is_zero:
            return f"u A != 0 at column {col}"
    ub = zero
    for _, gamma, j, weight, value in rows:
        entry = value.coefficient(gamma, j)
        if not entry.is_zero:
            ub = ub + weight * entry
    return "u . b == 0" if ub.is_zero else None


def check_rigidity(job: dict, code: Optional[int], report: dict) -> Optional[str]:
    algebra = _algebra(job["variant"], job["arity"], job["prefix"])
    expected = {"inner": ("inner", 0), "obstructed": ("obstructed", 1),
                "inconsistent": ("inconsistent", 1)}[job["kind"]]
    if (report.get("verdict"), code) != expected:
        return f"verdict {report.get('verdict')} exit {code}, expected {expected}"
    if job["kind"] == "inconsistent":
        return _certificate_holds(job, algebra, report["certificate"])
    b = parse_element(job["b"], algebra)
    a = parse_element(report["recovered_a"], algebra)
    anchors = [parse_element(p["x"], algebra) for p in job["table"]["probes"][:2]]
    if job["variant"] == "winf":
        # a is fixed only up to the anchors' common centralizer
        if any(not bracket(b - a, z).is_zero for z in anchors):
            return "recovered a - b does not commute with the anchors"
    elif a != b:
        return "recovered a differs from the generating b"
    records = report["residuals"]
    if len(records) != len(job["table"]["probes"]):
        return "residual count differs from the probe count"
    for i, (record, probe) in enumerate(zip(records, job["table"]["probes"])):
        x = parse_element(probe["x"], algebra)
        residual = parse_element(probe["dx"], algebra) - bracket(a, x)
        if parse_element(record["residual"], algebra) != residual:
            return f"residual {i} is not Delta(x) - [a, x]"
        if i == job["perturbed"]:
            if record["pass"] or record["realizer"] is not None:
                return f"perturbed probe {i} passed"
            continue
        if record["realizer"] is None:
            return f"residual {i} not realized"
        if bracket(parse_element(record["realizer"], algebra), x) != residual:
            return f"realizer {i} does not re-bracket to its residual"
    return None


def check_centralize(job: dict, code: Optional[int], report: dict) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    algebra = _algebra("wn", 2, 2)
    z = parse_element(job["z"], algebra)
    space = TruncatedSpace(algebra, job["box"])
    basis = [parse_element(text, algebra) for text in report["basis"]]
    if report["dimension"] != len(basis) or report["box"] != job["box"]:
        return "report fields disagree"
    if any(not bracket(e, z).is_zero for e in basis):
        return "a basis element does not commute with z"
    arity = algebra.field.arity
    if basis:
        coords = ScalarMatrix(len(basis), len(space), arity)
        for r, e in enumerate(basis):
            for c, s in space.coordinates_of(e).items():
                coords.add(r, c, s)
        if not any(r == len(basis) for r in _specialized_ranks(coords, arity)):
            return "basis not shown independent"
    # The specialized rank bounds the generic rank below, so ncols - r0 bounds
    # the kernel above; with len(basis) independent members it pins the kernel.
    matrix, _ = ad_matrix(z, space)
    if not any(matrix.ncols - r == len(basis)
               for r in _specialized_ranks(matrix, arity)):
        return "no specialization point certifies the dimension"
    return None


CHECKS = {"lemma": check_lemma, "rigidity": check_rigidity, "centralize": check_centralize}


def check(job: dict, record: dict) -> Optional[str]:
    if record["status"] != "ok":
        return record["status"]
    try:
        report = json.loads(record["stdout"])
    except ValueError:
        return f"exit {record['code']}, output is not JSON"
    return CHECKS[job["check"]](job, record["code"], report)
