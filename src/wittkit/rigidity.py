"""Inner-derivation solving and the 2-local rigidity pipeline.

A 2-local derivation is only observable at desk scale as a finite probe
table x -> Delta(x).  The pipeline recovers one inner element a from the
two anchor probes d_mu and (t_1+...+t_n)d_mu, then tests every other
table entry against ad(a), allowing a per-probe correction drawn from
the anchors' common centralizer: a 2-local map may pick a different
inner element at every point, and any two valid picks differ by
something commuting with both anchors.  Over W_n that centralizer is
zero and the test degenerates to Delta(x) = [a, x] exactly.

The verify_lemma_* functions check the support arithmetic the rigidity
argument rests on.  Each free coefficient is adjoined to the scalar
field as an unknown, its bracket image is split into allowed-span and
out-of-span rows, and "the coefficient is forced to zero" becomes a
rank statement about the out-of-span linear forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .centralizer import TruncatedSpace, VerificationReport, _ad_entries, _same, lemma_4_1_families
from .errors import (
    ArityMismatch,
    BadArity,
    BadK,
    MissingProbe,
    PairOutsideBox,
    SelfCheckFailed,
    WittkitError,
)
from .linalg import ScalarMatrix, rank as matrix_rank, solve as matrix_solve
from .scalars import MuPolynomial, Scalar, ScalarField
from .witt import (
    MU_DIRECTION,
    AlgebraVariant,
    Exponent,
    WittAlgebra,
    WittElement,
    bracket,
    proportional,
)

ConstraintRow = Tuple[int, Exponent, int]


def _support_rows(w: WittElement) -> Iterator[Tuple[Exponent, int, Scalar]]:
    """Nonzero (exponent, 0-based direction, coefficient) triples of w."""
    for gamma, cartan in w.support.items():
        for j, coeff in enumerate(cartan.coeffs):
            if not coeff.is_zero:
                yield gamma, j, coeff


def _monomial_label(gamma: Exponent, j: int) -> str:
    parts = [f"t{i + 1}^{e}" if e != 1 else f"t{i + 1}" for i, e in enumerate(gamma) if e]
    parts.append(f"d{j + 1}")
    return "*".join(parts)


class PointwiseMap:
    """A candidate 2-local derivation, recorded as probe -> value pairs."""

    __slots__ = ("algebra", "pairs", "table")

    def __init__(self, algebra: WittAlgebra, pairs: Sequence[Tuple[WittElement, WittElement]]):
        self.algebra = algebra
        self.pairs: List[Tuple[WittElement, WittElement]] = []
        self.table: Dict[WittElement, WittElement] = {}
        for x, dx in pairs:
            if not algebra.member(x) or not algebra.member(dx):
                raise WittkitError(f"probe pair outside the variant: {algebra.format(x)}")
            previous = self.table.get(x)
            if previous is not None:
                if previous != dx:
                    raise WittkitError(f"probe {algebra.format(x)} listed with two values")
                continue
            self.pairs.append((x, dx))
            self.table[x] = dx

    @classmethod
    def from_inner(cls, algebra: WittAlgebra, a: WittElement,
                   probes: Sequence[WittElement]) -> "PointwiseMap":
        return cls(algebra, [(x, bracket(a, x)) for x in probes])

    def value_at(self, x: WittElement) -> Optional[WittElement]:
        return self.table.get(x)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Tuple[WittElement, WittElement]]:
        return iter(self.pairs)


def _keyed_rows(w: WittElement, q: int) -> Dict[ConstraintRow, Scalar]:
    """w's nonzero coefficients keyed as rows (q, exponent, direction)."""
    return {(q, gamma, j): coeff for gamma, j, coeff in _support_rows(w)}


def _keyed_system(arity: int, columns: Sequence[Dict[ConstraintRow, Scalar]],
                  rhs: Dict[ConstraintRow, Scalar]
                  ) -> Tuple[ScalarMatrix, Dict[int, Scalar], List[ConstraintRow]]:
    """Matrix whose column c holds columns[c], on the sorted row keys met, and its rhs."""
    keys = sorted(set(rhs).union(*columns))
    row_of = {key: r for r, key in enumerate(keys)}
    matrix = ScalarMatrix(len(keys), len(columns), arity)
    for c, column in enumerate(columns):
        for key, coeff in column.items():
            matrix.add(row_of[key], c, coeff)
    return matrix, {row_of[key]: value for key, value in rhs.items()}, keys


def _entry(w: WittElement, gamma: Exponent, j: int) -> Optional[Scalar]:
    """Coefficient of t^gamma d_j in w, or None when it is zero."""
    cartan = w.support.get(gamma)
    if cartan is None or cartan.coeffs[j].is_zero:
        return None
    return cartan.coeffs[j]


def _weighted_sum(terms) -> Optional[Scalar]:
    """Sum of u * v over the (u, v) pairs with v not None; None when it is zero."""
    total = None
    for u, v in terms:
        if v is not None:
            total = u * v if total is None else total + u * v
    return None if total is None or total.is_zero else total


def _left_product(space: TruncatedSpace, constraints: Sequence[Tuple[WittElement, WittElement]],
                  weights: Dict[ConstraintRow, Scalar]) -> Dict[int, Scalar]:
    """Nonzero entries of u A for the stacked system of the constraints over the box.

    Column t^alpha d reaches row (q, gamma, j) only if alpha = gamma - beta
    for a term t^beta of x_q, so only those columns are bracketed.
    """
    directions = (MU_DIRECTION, *range(space.algebra.m))
    columns = set()
    for q, gamma, _ in weights:
        for beta in constraints[q][0].support:
            alpha = tuple(g - b for g, b in zip(gamma, beta))
            columns.update(space.index[(alpha, d)] for d in directions
                           if (alpha, d) in space.index)
    out: Dict[int, Scalar] = {}
    for c in sorted(columns):
        images = {q: bracket(space.element(c), constraints[q][0])
                  for q in {key[0] for key in weights}}
        total = _weighted_sum((u, _entry(images[q], gamma, j))
                              for (q, gamma, j), u in weights.items())
        if total is not None:
            out[c] = total
    return out


def _certificate_problem(space: TruncatedSpace,
                         constraints: Sequence[Tuple[WittElement, WittElement]],
                         certificate: List[Tuple[ConstraintRow, Scalar]]) -> Optional[str]:
    """Why the certificate fails u A = 0, u . b != 0 on the rebuilt rows, or None."""
    weights = dict(certificate)
    if not weights or len(weights) != len(certificate):
        return "certificate is empty or repeats a row"
    if _left_product(space, constraints, weights):
        return "certificate does not annihilate every column"
    if _weighted_sum((u, _entry(constraints[q][1], gamma, j))
                     for (q, gamma, j), u in weights.items()) is None:
        return "certificate does not separate the right-hand side"
    return None


@dataclass
class InnerSolveResult:
    """Outcome of solving [a, x_q] = y_q over a in a box.

    Exactly one of solution and certificate is set.  The homogeneous
    part is the common centralizer of the x_q inside the box, so the
    full solution set is solution + span(homogeneous); rank is that of
    the system stacking every constraint over every box column.
    Certificate rows are (constraint index, exponent, 0-based direction,
    weight) of that stacked system and witness a row combination that
    annihilates every column but not the right-hand side.
    """

    space: TruncatedSpace
    solution: Optional[WittElement]
    homogeneous: List[WittElement]
    certificate: Optional[List[Tuple[ConstraintRow, Scalar]]]
    rank: int

    @property
    def consistent(self) -> bool:
        return self.solution is not None

    @property
    def solution_dimension(self) -> int:
        return len(self.homogeneous)

    def check(self, constraints: Sequence[Tuple[WittElement, WittElement]]) -> None:
        """Re-verify exactly against the constraints; SelfCheckFailed on any failure."""
        if self.certificate is not None:
            problem = _certificate_problem(self.space, constraints, self.certificate)
        elif any(bracket(self.solution, x) != y for x, y in constraints):
            problem = "the solution does not reproduce every constraint"
        elif any(not bracket(h, x).is_zero for h in self.homogeneous for x, _ in constraints):
            problem = "a homogeneous vector does not commute with every x_q"
        else:
            problem = None
        if problem is not None:
            raise SelfCheckFailed(f"solve_inner: {problem}")


def _anchor_certificate(space: TruncatedSpace,
                        value: WittElement) -> List[Tuple[ConstraintRow, Scalar]]:
    """Rows of the d_mu anchor certifying that value is outside ad(d_mu)'s image.

    Column t^alpha d maps to -(mu, alpha_{1..n}) t^alpha d, so a row at an
    exponent where the box has no column of nonzero eigenvalue, or in a
    direction no column there takes, is reached by no column and certifies
    alone.  In wnmu the column t^alpha d_mu fills the rows (alpha, j) along
    d_mu; mu_j e_(alpha,i) - mu_i e_(alpha,j) annihilates it and separates
    a part off that line.
    """
    algebra = space.algebra
    dmu = algebra.dmu_cartan().coeffs
    for gamma in sorted(value.support):
        coeffs = value.support[gamma].coeffs
        nonzero = any(gamma[:algebra.n])
        if nonzero and (gamma, MU_DIRECTION) in space.index:
            for i, j in combinations(range(algebra.m), 2):
                if dmu[j] * coeffs[i] != dmu[i] * coeffs[j]:
                    return [((0, gamma, i), dmu[j]), ((0, gamma, j), -dmu[i])]
            continue
        for j, coeff in enumerate(coeffs):
            if not coeff.is_zero and not (nonzero and (gamma, j) in space.index):
                return [((0, gamma, j), algebra.field.one())]
    raise SelfCheckFailed("solve_inner: Delta(d_mu) lies in the image of ad(d_mu)")


def _lift_certificate(space: TruncatedSpace,
                      constraints: Sequence[Tuple[WittElement, WittElement]],
                      reduced: Dict[ConstraintRow, Scalar]) -> List[Tuple[ConstraintRow, Scalar]]:
    """Extend a certificate u2 of the zero-eigenvalue system to the stacked rows.

    u2 annihilates the zero-eigenvalue columns of the later constraints
    and separates y - [a_D, x].  Every other column c it meets, with
    s = u2 . A2[:, c], gets the weight -s / A1[r_c, c] on its first d_mu
    row r_c, which no other column reaches; then u A = 0, and
    u . b = u2 . (y - A2 a_D) != 0 because Delta(d_mu) = A1 a_D.
    """
    weights = dict(reduced)
    for c, s in _left_product(space, constraints, reduced).items():
        first = next(_ad_entries(constraints[0][0], space, [c], _same), None)
        if first is not None:  # else c has eigenvalue zero, and the self-check fails
            (gamma, j), _, pivot = first
            weights[(0, gamma, j)] = -s / pivot
    return sorted(weights.items())


def solve_inner(algebra: WittAlgebra, constraints: Sequence[Tuple[WittElement, WittElement]],
                box: int) -> InnerSolveResult:
    """Find a in the box with [a, x_q] = y_q for every constraint pair.

    The first constraint must be the anchor (d_mu, Delta(d_mu)).  ad(d_mu)
    is diagonal on the box basis, [t^alpha d, d_mu] = -(mu, alpha_{1..n})
    t^alpha d, so the anchor fixes every coordinate of a with a nonzero
    eigenvalue by one exact division, and fails at once when Delta(d_mu)
    leaves the box or the variant's span or touches a zero-eigenvalue
    pair.  The other constraints then form a small system on the
    zero-eigenvalue columns, kept in box order, against y_q - [a_D, x_q],
    a_D being the part of a the anchor fixed.

    The answer is that of the system stacking every constraint over every
    box column: its reduced row echelon form has a unit row for each
    nonzero-eigenvalue column and the small system's rows on the rest,
    so the particular solution (free columns zero), the canonical
    homogeneous basis and the rank are the same.  Certificates are
    indexed by that system's rows (constraint, exponent, direction).
    Bracket outputs are never truncated, so a solution commutes as
    required in the full algebra.  The result checks itself before it is
    returned.
    """
    if not constraints:
        raise WittkitError("need at least one constraint")
    for q, (x, y) in enumerate(constraints):
        if x.m != algebra.m or y.m != algebra.m:
            raise ArityMismatch(f"constraint {q} has rank {x.m}/{y.m}, ambient {algebra.m}")
    if constraints[0][0] != algebra.dmu():
        raise WittkitError("the first constraint must be (d_mu, Delta(d_mu))")
    space = TruncatedSpace(algebra, box)
    arity = algebra.field.arity
    zero_cols = [c for c, (alpha, _) in enumerate(space.basis) if not any(alpha[:algebra.n])]
    position = {c: k for k, c in enumerate(zero_cols)}
    columns: List[Dict[ConstraintRow, Scalar]] = [{} for _ in zero_cols]
    for q, (x, _) in enumerate(constraints[1:], 1):
        for (gamma, j), c, entry in _ad_entries(x, space, zero_cols, _same):
            columns[position[c]][(q, gamma, j)] = entry
    nonzero = len(space) - len(zero_cols)
    try:
        coords = space.coordinates_of(constraints[0][1])
    except PairOutsideBox:
        coords = None
    if coords is None or not set(coords).isdisjoint(zero_cols):
        matrix, _, _ = _keyed_system(arity, columns, {})
        certificate = _anchor_certificate(space, constraints[0][1])
        result = InnerSolveResult(space, None, [], certificate, nonzero + matrix_rank(matrix))
    else:
        dmu = algebra.dmu_cartan()
        vector = {c: value / -dmu.pairing(space.basis[c][0]) for c, value in coords.items()}
        fixed = space.element_from_vector(vector)
        rhs: Dict[ConstraintRow, Scalar] = {}
        for q, (x, y) in enumerate(constraints[1:], 1):
            rhs.update(_keyed_rows(y - bracket(fixed, x), q))
        matrix, rhs_rows, keys = _keyed_system(arity, columns, rhs)
        outcome = matrix_solve(matrix, rhs_rows)
        rank = nonzero + outcome.rank
        if outcome.consistent:
            vector.update((zero_cols[k], value) for k, value in outcome.solution.items())
            homogeneous = [space.element_from_vector({zero_cols[k]: s for k, s in v.items()})
                           for v in outcome.homogeneous]
            result = InnerSolveResult(space, space.element_from_vector(vector), homogeneous,
                                      None, rank)
        else:
            reduced = {keys[r]: u for r, u in outcome.certificate.items()}
            certificate = _lift_certificate(space, constraints, reduced)
            result = InnerSolveResult(space, None, [], certificate, rank)
    result.check(constraints)
    return result


def realize_in_span(algebra: WittAlgebra, span: Sequence[WittElement], x: WittElement,
                    target: WittElement) -> Optional[WittElement]:
    """An element b of the span with [b, x] = target, if one exists."""
    if target.is_zero:
        return algebra.zero()
    if not span:
        return None
    columns = [_keyed_rows(bracket(b, x), 0) for b in span]
    matrix, rhs, _ = _keyed_system(algebra.field.arity, columns, _keyed_rows(target, 0))
    outcome = matrix_solve(matrix, rhs)
    if not outcome.consistent:
        return None
    b = algebra.zero()
    for col in sorted(outcome.solution):
        b = b + span[col].scale(outcome.solution[col])
    return b


@dataclass
class ResidualRecord:
    """One probe's leftover after subtracting ad(recovered_a)."""

    probe: WittElement
    value: WittElement
    residual: WittElement
    realizer: Optional[WittElement]

    @property
    def passed(self) -> bool:
        return self.realizer is not None


@dataclass
class RigidityReport:
    """Verdict of the pipeline on one probe table.

    verdict is "inner" (every residual is realizable inside the common
    centralizer of the anchors), "obstructed" (some residual is not), or
    "inconsistent" (no single a matches both anchors; certificate set).
    """

    verdict: str
    algebra: WittAlgebra
    box: int
    recovered_a: Optional[WittElement]
    common_centralizer: List[WittElement]
    residuals: List[ResidualRecord]
    certificate: Optional[List[Tuple[ConstraintRow, Scalar]]]

    @property
    def passed(self) -> bool:
        return self.verdict == "inner"

    def check(self, delta: PointwiseMap) -> None:
        """Re-verify exactly against the probe table; SelfCheckFailed on any failure.

        A certificate must satisfy u A = 0, u . b != 0 on the anchor rows.
        Otherwise the records must follow the table, both anchors' residuals
        must vanish, every realizer must commute with both anchors and
        re-bracket to its residual, and the verdict must follow from which
        residuals were realized.
        """
        algebra = self.algebra
        anchors = [(z, delta.value_at(z)) for z in (algebra.dmu(), algebra.power_sum_dmu(1))]
        problem = None
        if self.verdict == "inconsistent":
            problem = _certificate_problem(TruncatedSpace(algebra, self.box), anchors,
                                           self.certificate or [])
        elif [(rec.probe, rec.value) for rec in self.residuals] != delta.pairs:
            problem = "the residuals do not follow the probe table"
        elif any(not rec.residual.is_zero for rec in self.residuals
                 if rec.probe in (anchors[0][0], anchors[1][0])):
            problem = "the recovered a does not reproduce both anchors"
        elif any(rec.realizer is not None
                 and (bracket(rec.realizer, rec.probe) != rec.residual
                      or any(not bracket(rec.realizer, z).is_zero for z, _ in anchors))
                 for rec in self.residuals):
            problem = "a realizer does not re-bracket to its residual from the centralizer"
        elif self.passed != all(rec.passed for rec in self.residuals):
            problem = f"verdict {self.verdict} disagrees with the residuals"
        if problem is not None:
            raise SelfCheckFailed(f"rigidity report: {problem}")

    def to_dict(self) -> Dict[str, object]:
        fmt = self.algebra.format
        out: Dict[str, object] = {
            "verdict": self.verdict,
            "variant": self.algebra.variant.kind.value,
            "box": self.box,
            "recovered_a": None if self.recovered_a is None else fmt(self.recovered_a),
            "common_centralizer": [fmt(e) for e in self.common_centralizer],
            "residuals": [
                {
                    "probe": fmt(rec.probe),
                    "value": fmt(rec.value),
                    "residual": fmt(rec.residual),
                    "realizer": None if rec.realizer is None else fmt(rec.realizer),
                    "pass": rec.passed,
                }
                for rec in self.residuals
            ],
            "certificate": None,
        }
        if self.certificate is not None:
            out["certificate"] = [
                {
                    "constraint": key[0],
                    "monomial": _monomial_label(key[1], key[2]),
                    "weight": self.algebra.field.format(u),
                }
                for key, u in self.certificate
            ]
        return out


def rigidity_pipeline(delta: PointwiseMap, box: int) -> RigidityReport:
    """Decide whether a probe table is consistent with one inner map.

    Stage one solves [a, z] = Delta(z) over the two anchors z = d_mu and
    (t_1+...+t_n)d_mu (`solve_inner`).  Stage two forms the residual
    Delta(x) - [a, x] for every table entry and asks whether it is
    realizable as [b, x] with b in the anchors' common centralizer.  The
    report checks itself against the table before it is returned.
    """
    algebra = delta.algebra
    anchors = [algebra.dmu(), algebra.power_sum_dmu(1)]
    for z in anchors:
        if delta.value_at(z) is None:
            raise MissingProbe(f"probe table lacks a value at {algebra.format(z)}")
    stacked = [(z, delta.value_at(z)) for z in anchors]
    inner = solve_inner(algebra, stacked, box)
    if not inner.consistent:
        report = RigidityReport("inconsistent", algebra, box, None, [], [], inner.certificate)
    else:
        a = inner.solution
        ambiguity = inner.homogeneous
        residuals: List[ResidualRecord] = []
        for x, dx in delta:
            r = dx - bracket(a, x)
            residuals.append(ResidualRecord(x, dx, r, realize_in_span(algebra, ambiguity, x, r)))
        verdict = "inner" if all(rec.passed for rec in residuals) else "obstructed"
        report = RigidityReport(verdict, algebra, box, a, ambiguity, residuals, None)
    report.check(delta)
    return report


# ----------------------------------------------------------------------
# Symbolic forcing.  The lemma verifiers adjoin unknowns c1..cr to the
# field, bracket the unknown-weighted family against a fixed element,
# and read each resulting coefficient as a linear form in the unknowns.


def _linear_parts(value: Scalar, base_arity: int) -> Dict[int, Scalar]:
    """Split a scalar linear in the trailing unknowns into base parts.

    Returns {slot: coefficient} over the base field, slot counting from
    base_arity; slot -1 holds the unknown-free part.
    """
    for mono in value.den.terms:
        if any(mono[base_arity:]):
            raise WittkitError("denominator mixes in auxiliary unknowns")
    den_base = value.den.restrict(base_arity)
    groups: Dict[int, Dict[Tuple[int, ...], object]] = {}
    for mono, coeff in value.num.terms.items():
        tail = mono[base_arity:]
        if sum(tail) > 1:
            raise WittkitError("coefficient is not linear in the unknowns")
        slot = -1
        for offset, e in enumerate(tail):
            if e:
                slot = base_arity + offset
        groups.setdefault(slot, {})[mono[:base_arity]] = coeff
    return {
        slot: Scalar(MuPolynomial(base_arity, terms), den_base)
        for slot, terms in groups.items()
    }


def _forcing_rank(coefficients: Sequence[Scalar], base_arity: int, unknowns: int) -> int:
    """Rank of the given linear forms in the trailing unknown slots."""
    matrix = ScalarMatrix(len(coefficients), unknowns, base_arity)
    for r, value in enumerate(coefficients):
        parts = _linear_parts(value, base_arity)
        constant = parts.pop(-1, None)
        if constant is not None and not constant.is_zero:
            raise WittkitError("out-of-span coefficient has an unknown-free part")
        for slot, coeff in parts.items():
            matrix.add(r, slot - base_arity, coeff)
    return matrix_rank(matrix)


def _dmu_coefficient(algebra: WittAlgebra, w: WittElement, gamma: Exponent) -> Scalar:
    """The scalar lam with w's part at t^gamma equal to lam * t^gamma d_mu."""
    cartan = w.support.get(gamma)
    if cartan is None:
        return algebra.field.zero()
    lam = proportional(
        WittElement(algebra.m, {gamma: cartan}),
        WittElement(algebra.m, {gamma: algebra.dmu_cartan()}),
    )
    if lam is None:
        raise WittkitError(f"part at {gamma} is not a multiple of d_mu")
    return lam


# ----------------------------------------------------------------------
# Lemma verifiers.


def verify_lemma_3_2(x: WittElement, box: int = 2) -> VerificationReport:
    """Cartan ambiguity maps x into its own support span.

    The solution space of [a, d_mu] = 0 inside the box must be exactly
    the Cartan subalgebra; then [h, x] for symbolic h = h1 d1 + ... +
    hn dn must stay inside sum over alpha in S(x) of C t^alpha d_alpha,
    with eigenvalue (h, alpha) on each support exponent.
    """
    if x.is_zero:
        raise WittkitError("x must be nonzero")
    n = x.m
    algebra = WittAlgebra(AlgebraVariant.wn(n))
    if x.scalar_arity() != algebra.field.arity:
        raise ArityMismatch("x must be written over the plain mu field")
    inner = solve_inner(algebra, [(algebra.dmu(), algebra.zero())], box)
    cartan_basis = [algebra.d(i) for i in range(1, n + 1)]
    solution_is_cartan = (
        inner.consistent
        and inner.solution.is_zero
        and inner.homogeneous == cartan_basis
    )
    ext = algebra.field.extend(*[f"h{i}" for i in range(1, n + 1)])
    ext_algebra = WittAlgebra(AlgebraVariant.wn(n), ext)
    h = ext_algebra.zero()
    for i in range(1, n + 1):
        h = h + ext_algebra.d(i).scale(ext.var(f"h{i}"))
    x_ext = x.lift(ext.arity)
    image = bracket(h, x_ext)
    inside = True
    eigenvalues: Dict[str, str] = {}
    for gamma, cartan in image.support.items():
        part = WittElement(x.m, {gamma: cartan})
        target = WittElement(x.m, {gamma: x_ext.support[gamma]}) if gamma in x_ext.support else None
        lam = None if target is None else proportional(part, target)
        if lam is None:
            inside = False
            break
        expected = ext.zero()
        for i, e in enumerate(gamma):
            if e:
                expected = expected + ext.var(f"h{i + 1}") * e
        if lam != expected:
            inside = False
            break
        label = _monomial_label(gamma, 0).rsplit("*", 1)[0] if any(gamma) else "1"
        eigenvalues[label] = ext.format(lam)
    passed = solution_is_cartan and inside
    data: Dict[str, object] = {
        "solution_dimension": inner.solution_dimension,
        "solution_is_cartan": solution_is_cartan,
        "image_in_support_span": inside,
        "eigenvalues": eigenvalues,
    }
    return VerificationReport(
        "3.2", {"n": n, "x": algebra.format(x), "box": box}, passed, data)


@dataclass
class ObstructionData:
    """Bracket [c*(t_1+...+t_n)d_mu, (t_1^k+...+t_n^k)d_mu] with symbolic c.

    probe_coefficient is read off the single product
    [c t_1 d_mu, t_1^k d_mu] and equals c(k-1)mu_1 for every k; the full
    bracket's coefficient at (k+1)e_1 agrees except at k = -1, where the
    diagonal products of every direction collide at exponent zero.
    """

    algebra: WittAlgebra
    k: int
    exponent: Exponent
    image: WittElement
    probe_coefficient: Scalar
    coefficient: Scalar


def lemma_3_3_obstruction(n: int, k: int) -> ObstructionData:
    if k == 0:
        raise BadK("k must be nonzero")
    ext = ScalarField(n, ("c",))
    algebra = WittAlgebra(AlgebraVariant.wn(n), ext)
    c = ext.var("c")
    a = algebra.power_sum_dmu(1).scale(c)
    z = algebra.power_sum_dmu(k)
    image = bracket(a, z)
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    ke1 = tuple(k if i == 0 else 0 for i in range(n))
    gamma = tuple(k + 1 if i == 0 else 0 for i in range(n))
    pair = bracket(algebra.dmu().translate(e1).scale(c), algebra.dmu().translate(ke1))
    return ObstructionData(
        algebra,
        k,
        gamma,
        image,
        _dmu_coefficient(algebra, pair, gamma),
        _dmu_coefficient(algebra, image, gamma),
    )


def verify_lemma_3_3(n: int, k: int) -> VerificationReport:
    """The degree-(k+1) obstruction forces the shift coefficient to zero.

    [c(t_1+...+t_n)d_mu, (t_1^k+...+t_n^k)d_mu] carries the coefficient
    c(k-1)mu_1 on t_1^{k+1} d_mu, nonzero for k outside {0, 1}, and its
    support avoids every t_i^k d_mu, so membership in the power-sum span
    pins c = 0.  At k = -1 the full bracket collects the collided value
    c(k-1)(mu_1+...+mu_n) at exponent zero while the defining product
    still shows c(k-1)mu_1.
    """
    if k in (0, 1):
        raise BadK("k must avoid 0 and 1")
    data = lemma_3_3_obstruction(n, k)
    ext = data.algebra.field
    c = ext.var("c")
    expected = c * (k - 1) * ext.mu(1)
    if k == -1:
        full_expected = sum((ext.mu(i) for i in range(2, n + 1)), ext.mu(1)) * c * (k - 1)
    else:
        full_expected = expected
    span = {tuple(k if j == i else 0 for j in range(n)) for i in range(n)}
    support_disjoint = not (set(data.image.support) & span)
    coefficients = [coeff for _, _, coeff in _support_rows(data.image)]
    forcing_rank = _forcing_rank(coefficients, n, 1)
    passed = (
        support_disjoint
        and not data.probe_coefficient.is_zero
        and data.probe_coefficient == expected
        and data.coefficient == full_expected
        and forcing_rank == 1
    )
    report_data: Dict[str, object] = {
        "coefficient": ext.format(data.probe_coefficient),
        "expected": ext.format(expected),
        "full_coefficient": ext.format(data.coefficient),
        "obstruction_exponent": list(data.exponent),
        "support_disjoint": support_disjoint,
        "forcing_rank": forcing_rank,
        "forced_zero": ["c"] if forcing_rank == 1 else [],
    }
    return VerificationReport("3.3", {"n": n, "k": k}, passed, report_data)


def verify_lemma_3_4(x: WittElement, n: int) -> VerificationReport:
    """High power-sum probes push x's image out of every bounded box.

    With n_x = 1 + max exponent magnitude of x and k = 2n_x + 1, every
    term of [c(t_1^k+...+t_n^k)d_mu, x] has some exponent entry of
    magnitude above n_x, hence sits outside the support span of x, and
    the symbolic coefficient c is forced to zero by rank.
    """
    if x.is_zero:
        raise WittkitError("x must be nonzero")
    if x.m != n:
        raise ArityMismatch(f"element rank {x.m} != n = {n}")
    algebra = WittAlgebra(AlgebraVariant.wn(n))
    if x.scalar_arity() != algebra.field.arity:
        raise ArityMismatch("x must be written over the plain mu field")
    n_x = 1 + max(abs(e) for alpha in x.support for e in alpha)
    k = 2 * n_x + 1
    ext = algebra.field.extend("c")
    ext_algebra = WittAlgebra(AlgebraVariant.wn(n), ext)
    a = ext_algebra.power_sum_dmu(k).scale(ext.var("c"))
    image = bracket(a, x.lift(ext.arity))
    violating = None
    for gamma in sorted(image.support):
        if max(abs(e) for e in gamma) <= n_x:
            violating = gamma
            break
    coefficients = [coeff for _, _, coeff in _support_rows(image)]
    forcing_rank = _forcing_rank(coefficients, n, 1)
    disjoint = not (set(image.support) & set(x.support))
    passed = violating is None and disjoint and forcing_rank == 1
    witness = max(image.support, key=lambda g: (max(abs(e) for e in g), g), default=None)
    data: Dict[str, object] = {
        "n_x": n_x,
        "k": k,
        "exponent_bound_holds": violating is None,
        "forcing_rank": forcing_rank,
        "forced_zero": ["c"] if forcing_rank == 1 else [],
    }
    if witness is not None:
        data["witness_exponent"] = list(witness)
    if violating is not None:
        data["violating_exponent"] = list(violating)
    return VerificationReport(
        "3.4", {"n": n, "x": algebra.format(x), "n_x": n_x, "k": k}, passed, data)


def verify_lemma_4_3(n: int, m: int, k: int, box: int = 2) -> VerificationReport:
    """Shift coefficients of the degree-one centralizer die against power k.

    a ranges over the box part of the (t_1+...+t_n)d_mu centralizer:
    shifts c_beta t^beta (t_1+...+t_n)d_mu plus the t^beta h' family.
    The h' family brackets to zero against (t_1^k+...+t_n^k)d_mu; each
    shift contributes the obstruction c_beta(k-1)mu_1 at (k+1)e_1+beta,
    outside the allowed span over t^{k e_i + beta} d_mu, so every c_beta
    is forced to zero.
    """
    if k in (0, 1):
        raise BadK("k must avoid 0 and 1")
    if not n < m:
        raise BadArity(f"need n < m, got n={n}, m={m}")
    if box < 1:
        raise BadArity("box must cover the degree-one shift family")
    base = WittAlgebra(AlgebraVariant.winf(n, m))
    shifts, h_family = lemma_4_1_families(base, 1, box)
    names = [f"c{i}" for i in range(1, len(shifts) + 1)]
    ext = base.field.extend(*names)
    ext_algebra = WittAlgebra(AlgebraVariant.winf(n, m), ext)
    a = ext_algebra.zero()
    for name, (beta, _) in zip(names, shifts):
        a = a + ext_algebra.power_sum_dmu(1).translate(beta).scale(ext.var(name))
    z = ext_algebra.power_sum_dmu(k)
    image = bracket(a, z)

    def allowed(gamma: Exponent) -> bool:
        head = gamma[:n]
        return any(head == tuple(k if j == i else 0 for j in range(n)) for i in range(n))

    support_disjoint = not any(allowed(gamma) for gamma in image.support)
    coefficients = [coeff for _, _, coeff in _support_rows(image)]
    forcing_rank = _forcing_rank(coefficients, n, len(shifts))
    obstructions = []
    coefficients_ok = True
    e1 = tuple(1 if i == 0 else 0 for i in range(m))
    ke1 = tuple(k if i == 0 else 0 for i in range(m))
    mu_sum = sum((ext.mu(i) for i in range(2, n + 1)), ext.mu(1))
    for name, (beta, _) in zip(names, shifts):
        c = ext.var(name)
        gamma = tuple(b + (k + 1 if i == 0 else 0) for i, b in enumerate(beta))
        full = _dmu_coefficient(ext_algebra, image, gamma)
        shifted_e1 = tuple(b + e for b, e in zip(beta, e1))
        pair = bracket(
            ext_algebra.dmu().translate(shifted_e1).scale(c),
            ext_algebra.dmu().translate(ke1),
        )
        probe = _dmu_coefficient(ext_algebra, pair, gamma)
        expected = c * (k - 1) * ext.mu(1)
        full_expected = c * (k - 1) * mu_sum if k == -1 else expected
        if probe != expected or full != full_expected:
            coefficients_ok = False
        obstructions.append({
            "beta": list(beta),
            "coefficient": ext.format(probe),
            "full_coefficient": ext.format(full),
        })
    h_part_zero = all(
        bracket(e, base.power_sum_dmu(k)).is_zero for _, _, e in h_family)
    passed = (
        support_disjoint
        and coefficients_ok
        and h_part_zero
        and forcing_rank == len(shifts)
    )
    data: Dict[str, object] = {
        "shifts": len(shifts),
        "support_disjoint": support_disjoint,
        "forcing_rank": forcing_rank,
        "h_part_zero": h_part_zero,
        "obstructions": obstructions,
        "forced_zero": names if forcing_rank == len(shifts) else [],
    }
    return VerificationReport("4.3", {"n": n, "m": m, "k": k, "box": box}, passed, data)


def verify_lemma_4_4(x: WittElement, n: int, m: int,
                     box: Optional[int] = None) -> VerificationReport:
    """The power-2n_x+1 centralizer maps the first-n slice out of bounds.

    x must live in the first-n slice of the rank-m algebra.  a ranges
    over shifts c_beta t^beta (t_1^k+...+t_n^k)d_mu with k = 2n_x + 1
    plus the t^beta h' family; the h' family kills x outright, and every
    shift term lands at a first-n exponent entry of magnitude above n_x,
    so the allowed span over t^{alpha+beta} d_alpha forces all c_beta to
    zero.  Shift tails beta default to the cube of radius k; a box below
    k holds no shift at all, so it would pass vacuously and is rejected.
    """
    if x.is_zero:
        raise WittkitError("x must be nonzero")
    if not n < m:
        raise BadArity(f"need n < m, got n={n}, m={m}")
    if x.m != m:
        raise ArityMismatch(f"element rank {x.m} != ambient {m}")
    for alpha, cartan in x.support.items():
        if any(alpha[n:]) or any(not c.is_zero for c in cartan.coeffs[n:]):
            raise BadArity("x must lie in the first-n slice")
    base = WittAlgebra(AlgebraVariant.winf(n, m))
    if x.scalar_arity() != base.field.arity:
        raise ArityMismatch("x must be written over the plain mu field")
    n_x = 1 + max(abs(e) for alpha in x.support for e in alpha[:n])
    k = 2 * n_x + 1
    a_box = k if box is None else box
    if a_box < k:
        raise BadArity(f"box must cover the power-{k} shift family, got box {a_box}")
    shifts, h_family = lemma_4_1_families(base, k, a_box)
    names = [f"c{i}" for i in range(1, len(shifts) + 1)]
    ext = base.field.extend(*names)
    ext_algebra = WittAlgebra(AlgebraVariant.winf(n, m), ext)
    a = ext_algebra.zero()
    for name, (beta, _) in zip(names, shifts):
        a = a + ext_algebra.power_sum_dmu(k).translate(beta).scale(ext.var(name))
    image = bracket(a, x.lift(ext.arity))
    violating = None
    for gamma in sorted(image.support):
        if max(abs(e) for e in gamma[:n]) <= n_x:
            violating = gamma
            break
    coefficients = [coeff for _, _, coeff in _support_rows(image)]
    forcing_rank = _forcing_rank(coefficients, n, len(shifts))
    h_part_zero = all(bracket(e, x).is_zero for _, _, e in h_family)
    passed = violating is None and h_part_zero and forcing_rank == len(shifts)
    data: Dict[str, object] = {
        "n_x": n_x,
        "k": k,
        "shifts": len(shifts),
        "exponent_bound_holds": violating is None,
        "forcing_rank": forcing_rank,
        "h_part_zero": h_part_zero,
        "forced_zero": names if forcing_rank == len(shifts) else [],
    }
    if violating is not None:
        data["violating_exponent"] = list(violating)
    return VerificationReport(
        "4.4", {"n": n, "m": m, "x": base.format(x), "n_x": n_x, "k": k, "box": a_box},
        passed, data)
