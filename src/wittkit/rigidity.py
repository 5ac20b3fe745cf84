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
argument rests on.  The support-forcing lemmas let a = sum c_i s_i range
over a family and show that [a, x] pins every free coefficient c_i to
zero.  The bracket is bilinear, so [a, x] = sum c_i [s_i, x]: its
support is the union of the supports of the [s_i, x], and "every c_i is
forced to zero" is the statement that these columns have full rank over
Q(mu).  No unknown enters the scalar field except to print a reported
coefficient as a multiple of its c_i.

Lemmas 3.3 and 3.4 are lemmas 4.3 and 4.4 at m = n, at box 1 and box k:
in a rank-n algebra the only shift is beta = 0 and the h' family is
empty.  Each pair runs one core on an algebra of rank m >= n, and the
W_n verifier reports the core's c1 as c.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .centralizer import (
    ConstraintRow,
    TruncatedSpace,
    VerificationReport,
    _ad_rows,
    _dot,
    _keyed_rows,
    _keyed_system,
    lemma_4_1_families,
    span_rank,
)
from .errors import (
    ArityMismatch,
    BadArity,
    BadK,
    MissingProbe,
    PairOutsideBox,
    SelfCheckFailed,
    WittkitError,
)
from .linalg import solve as matrix_solve
from .scalars import Scalar, ScalarField
from .witt import (
    MU_DIRECTION,
    AlgebraVariant,
    Exponent,
    WittAlgebra,
    WittElement,
    bracket,
    format_t_part,
)

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

    def value_at(self, x: WittElement) -> Optional[WittElement]:
        return self.table.get(x)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Tuple[WittElement, WittElement]]:
        return iter(self.pairs)


def _weighted_sum(terms) -> Optional[Scalar]:
    """Sum of u * v over the (u, v) pairs with v nonzero; None when it is zero."""
    total = None
    for u, v in terms:
        if not v.is_zero:
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
        total = _weighted_sum((u, images[q].coefficient(gamma, j))
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
    if _weighted_sum((u, constraints[q][1].coefficient(gamma, j))
                     for (q, gamma, j), u in weights.items()) is None:
        return "certificate does not separate the right-hand side"
    return None


class InnerSolveResult(NamedTuple):
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
        rows, key = _ad_rows(constraints[0][0], space, [c])
        if rows:  # else c has eigenvalue zero, and the self-check fails
            first = min(rows)
            weights[(0, *key(first))] = -s / rows[first][c]
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
        rows, key = _ad_rows(x, space, zero_cols)
        for code, row in rows.items():
            for c, entry in row.items():
                columns[position[c]][(q, *key(code))] = entry
    try:
        coords = space.coordinates_of(constraints[0][1])
    except PairOutsideBox:
        coords = None
    anchored = coords is not None and set(coords).isdisjoint(zero_cols)
    rhs: Dict[ConstraintRow, Scalar] = {}
    if anchored:
        dmu = algebra.dmu_cartan().coeffs
        vector = {c: value / -_dot(dmu, space.basis[c][0]) for c, value in coords.items()}
        fixed = space.element_from_vector(vector)
        for q, (x, y) in enumerate(constraints[1:], 1):
            rhs.update(_keyed_rows(y - bracket(fixed, x), q))
    matrix, rhs_rows, keys = _keyed_system(arity, columns, rhs)
    outcome = matrix_solve(matrix, rhs_rows)
    rank = len(space) - len(zero_cols) + outcome.rank
    if not anchored:
        certificate = _anchor_certificate(space, constraints[0][1])
        result = InnerSolveResult(space, None, [], certificate, rank)
    elif outcome.consistent:
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


class ResidualRecord(NamedTuple):
    """One probe's leftover after subtracting ad(recovered_a)."""

    probe: WittElement
    value: WittElement
    residual: WittElement
    realizer: Optional[WittElement]

    @property
    def passed(self) -> bool:
        return self.realizer is not None


class RigidityReport(NamedTuple):
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
        residuals were realized.  Non-anchor residuals are the pipeline's as
        they stand: the check does not derive Delta(x) - [a, x] again.
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
                    "monomial": f"{format_t_part(key[1])}d{key[2] + 1}",
                    "weight": self.algebra.field.format(u),
                }
                for key, u in self.certificate
            ]
        return out


def rigidity_pipeline(delta: PointwiseMap, box: int) -> RigidityReport:
    """Decide whether a probe table is consistent with one inner map.

    Stage one solves [a, z] = Delta(z) over the two anchors z = d_mu and
    (t_1+...+t_n)d_mu (`solve_inner`).  Stage two forms the residual
    Delta(x) - [a, x] for every table entry, zero wherever [a, x] equals
    Delta(x), and asks whether it is realizable as [b, x] with b in the
    anchors' common centralizer.  The report checks itself against the
    table before it is returned.
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
            ax = bracket(a, x)
            r = algebra.zero() if ax == dx else dx - ax  # Scalars are canonical
            residuals.append(ResidualRecord(x, dx, r, realize_in_span(algebra, ambiguity, x, r)))
        verdict = "inner" if all(rec.passed for rec in residuals) else "obstructed"
        report = RigidityReport(verdict, algebra, box, a, ambiguity, residuals, None)
    report.check(delta)
    return report


# ----------------------------------------------------------------------
# Forcing of free coefficients through bilinearity (see the module docstring).


def _forcing(family: Sequence[WittElement],
             x: WittElement) -> Tuple[List[WittElement], set, int]:
    """The images [s_i, x], the union of their supports and their rank over Q(mu)."""
    images = [bracket(s, x) for s in family]
    return images, set().union(*(w.support for w in images)), span_rank(images)


def _times_unknown(field: ScalarField, value: Scalar, name: str) -> str:
    """value * name, formatted in the field extended by that one unknown."""
    ext = field.extend(name)
    return ext.format(ext.lift(value) * ext.var(name))


def _dmu_coefficient(algebra: WittAlgebra, w: WittElement, gamma: Exponent) -> Scalar:
    """The scalar lam with w's part at t^gamma equal to lam * t^gamma d_mu."""
    cartan = w.support.get(gamma)
    if cartan is None:
        return algebra.field.zero()
    lam = algebra.dmu_multiple(cartan)
    if lam is None:
        raise WittkitError(f"part at {gamma} is not a multiple of d_mu")
    return lam


def _power_obstruction(algebra: WittAlgebra, beta: Exponent, k: int,
                       image: WittElement) -> Tuple[Exponent, Scalar, Scalar, bool]:
    """The degree-(k+1) obstruction of the shift t^beta (t_1+...+t_n) d_mu.

    image is the shift's bracket with (t_1^k+...+t_n^k) d_mu.  Returns
    gamma = beta + (k+1)e_1, the d_mu coefficients at gamma of the single
    product [t^(beta+e_1) d_mu, t_1^k d_mu] and of the image, and whether
    both are (k-1)mu_1, the image's being (k-1)(mu_1+...+mu_n) instead
    at the collision k = -1, where every direction's diagonal product
    lands on gamma.  No other shift of a family reaches gamma, since the
    shifts differ in their last m - n slots.
    """
    gamma = (beta[0] + k + 1,) + beta[1:]
    dmu, zeros = algebra.dmu(), (0,) * (algebra.m - 1)
    pair = bracket(dmu.translate(beta).translate((1,) + zeros), dmu.translate((k,) + zeros))
    probe = _dmu_coefficient(algebra, pair, gamma)
    full = _dmu_coefficient(algebra, image, gamma)
    mu = [algebra.field.mu(i) for i in range(1, algebra.n + 1)]
    expected = mu[0] * (k - 1)
    full_expected = sum(mu[1:], mu[0]) * (k - 1) if k == -1 else expected
    return gamma, probe, full, probe == expected and full == full_expected


# ----------------------------------------------------------------------
# Lemma verifiers.


def _algebra_for(x: WittElement, variant: AlgebraVariant) -> WittAlgebra:
    """The algebra of the variant, for a nonzero x written over its plain mu field."""
    if x.is_zero:
        raise WittkitError("x must be nonzero")
    algebra = WittAlgebra(variant)
    if x.scalar_arity() != algebra.field.arity:
        raise ArityMismatch("x must be written over the plain mu field")
    return algebra


def verify_lemma_3_2(x: WittElement, box: int = 2) -> VerificationReport:
    """Cartan ambiguity maps x into its own support span.

    The solution space of [a, d_mu] = 0 inside the box must be exactly
    the Cartan subalgebra; then [h, x] for h = h1 d1 + ... + hn dn must
    stay inside sum over alpha in S(x) of C t^alpha d_alpha, with
    eigenvalue (h, alpha) on each support exponent.  The bracket is
    bilinear, so [h, x] = sum h_i [d_i, x], and it is enough that
    [d_i, x] = sum alpha_i t^alpha x_alpha for each i; the unknowns h_i
    only print the eigenvalues.
    """
    n = x.m
    algebra = _algebra_for(x, AlgebraVariant.wn(n))
    field = algebra.field
    inner = solve_inner(algebra, [(algebra.dmu(), algebra.zero())], box)
    cartan_basis = [algebra.d(i) for i in range(1, n + 1)]
    solution_is_cartan = (
        inner.consistent
        and inner.solution.is_zero
        and inner.homogeneous == cartan_basis
    )
    inside = all(bracket(d, x) == WittElement(n, {alpha: cartan.scale(field.from_fraction(alpha[i]))
                                                  for alpha, cartan in x.support.items()})
                 for i, d in enumerate(cartan_basis))
    ext = field.extend(*[f"h{i}" for i in range(1, n + 1)])
    eigenvalues: Dict[str, str] = {}
    for alpha in x.support:
        if inside and any(alpha):
            value = sum((ext.var(f"h{i}") * e for i, e in enumerate(alpha, 1) if e), ext.zero())
            eigenvalues[format_t_part(alpha)[:-1]] = ext.format(value)
    passed = solution_is_cartan and inside
    data: Dict[str, object] = {
        "solution_dimension": inner.solution_dimension,
        "solution_is_cartan": solution_is_cartan,
        "image_in_support_span": inside,
        "eigenvalues": eigenvalues,
    }
    return VerificationReport(
        "3.2", {"n": n, "x": algebra.format(x), "box": box}, passed, data)


def _shift_forcing(algebra: WittAlgebra, k: int, box: int) -> Tuple[
        bool, Dict[str, object], List[Tuple[Exponent, Scalar, Scalar, bool]]]:
    """Lemma 4.3 at rank m >= n: (pass, report data, `_power_obstruction` of each shift)."""
    n, field = algebra.n, algebra.field
    shifts, h_family = lemma_4_1_families(algebra, 1, box)
    z = algebra.power_sum_dmu(k)
    images, support, forcing_rank = _forcing([s for _, s in shifts], z)
    span = {tuple(k if j == i else 0 for j in range(n)) for i in range(n)}
    support_disjoint = not any(gamma[:n] in span for gamma in support)
    obstructions = [_power_obstruction(algebra, beta, k, image)
                    for (beta, _), image in zip(shifts, images)]
    names = [f"c{i}" for i in range(1, len(shifts) + 1)]
    h_part_zero = all(bracket(e, z).is_zero for _, _, e in h_family)
    forced = forcing_rank == len(shifts)
    data: Dict[str, object] = {
        "shifts": len(shifts),
        "support_disjoint": support_disjoint,
        "forcing_rank": forcing_rank,
        "h_part_zero": h_part_zero,
        "obstructions": [{"beta": list(beta), "coefficient": _times_unknown(field, probe, name),
                          "full_coefficient": _times_unknown(field, full, name)}
                         for name, (beta, _), (_, probe, full, _)
                         in zip(names, shifts, obstructions)],
        "forced_zero": names if forced else [],
    }
    coefficients_ok = all(ok for *_, ok in obstructions)
    return support_disjoint and coefficients_ok and h_part_zero and forced, data, obstructions


def _bounded_shift_forcing(algebra: WittAlgebra, x: WittElement, box: Optional[int]
                           ) -> Tuple[bool, Dict[str, object], set]:
    """Lemma 4.4 at rank m >= n: (pass, report data, support of [sum c_i s_i, x]).

    The shifts fill the box, k by default.  The least exponent of the
    support whose first n entries all have magnitude at most n_x, as every
    exponent of x has, violates the bound.
    """
    n = algebra.n
    n_x = 1 + max(abs(e) for alpha in x.support for e in alpha[:n])
    k = 2 * n_x + 1
    box = k if box is None else box
    if box < k:
        raise BadArity(f"box must cover the power-{k} shift family, got box {box}")
    shifts, h_family = lemma_4_1_families(algebra, k, box)
    _, support, forcing_rank = _forcing([s for _, s in shifts], x)
    violating = next((gamma for gamma in sorted(support)
                      if max(abs(e) for e in gamma[:n]) <= n_x), None)
    h_part_zero = all(bracket(e, x).is_zero for _, _, e in h_family)
    forced = forcing_rank == len(shifts)
    data: Dict[str, object] = {
        "n_x": n_x,
        "k": k,
        "shifts": len(shifts),
        "exponent_bound_holds": violating is None,
        "forcing_rank": forcing_rank,
        "h_part_zero": h_part_zero,
        "forced_zero": [f"c{i}" for i in range(1, len(shifts) + 1)] if forced else [],
    }
    if violating is not None:
        data["violating_exponent"] = list(violating)
    return violating is None and h_part_zero and forced, data, support


def verify_lemma_3_3(n: int, k: int) -> VerificationReport:
    """The degree-(k+1) obstruction forces the shift coefficient to zero (4.3 at m = n)."""
    if k in (0, 1):
        raise BadK("k must avoid 0 and 1")
    algebra = WittAlgebra(AlgebraVariant.wn(n))
    passed, found, [(gamma, probe, full, _)] = _shift_forcing(algebra, k, 1)
    field = algebra.field
    data: Dict[str, object] = {
        "coefficient": _times_unknown(field, probe, "c"),
        "expected": _times_unknown(field, field.mu(1) * (k - 1), "c"),
        "full_coefficient": _times_unknown(field, full, "c"),
        "obstruction_exponent": list(gamma),
        "support_disjoint": found["support_disjoint"],
        "forcing_rank": found["forcing_rank"],
        "forced_zero": ["c"] if found["forced_zero"] else [],
    }
    return VerificationReport("3.3", {"n": n, "k": k}, passed, data)


def verify_lemma_3_4(x: WittElement) -> VerificationReport:
    """High power-sum probes push x's image out of every bounded box (4.4 at m = n).

    The rank n is x's own, x.m, and x must be nonzero.
    """
    n = x.m
    algebra = _algebra_for(x, AlgebraVariant.wn(n))
    passed, data, support = _bounded_shift_forcing(algebra, x, None)
    del data["shifts"], data["h_part_zero"]
    data["forced_zero"] = ["c"] if data["forced_zero"] else []
    witness = max(support, key=lambda g: (max(abs(e) for e in g), g), default=None)
    if witness is not None:
        data["witness_exponent"] = list(witness)
    return VerificationReport(
        "3.4", {"n": n, "x": algebra.format(x), "n_x": data["n_x"], "k": data["k"]},
        passed, data)


def verify_lemma_4_3(n: int, m: int, k: int, box: int = 2) -> VerificationReport:
    """Shift coefficients of the degree-one centralizer die against power k.

    a ranges over the box part of the (t_1+...+t_n)d_mu centralizer:
    shifts c_beta t^beta (t_1+...+t_n)d_mu plus the t^beta h' family.
    The h' family brackets to zero against (t_1^k+...+t_n^k)d_mu; each
    shift contributes the obstruction c_beta(k-1)mu_1 at (k+1)e_1+beta,
    nonzero for k outside {0, 1} and outside the allowed span over
    t^{k e_i + beta} d_mu, so every c_beta is forced to zero.  At k = -1
    the full bracket collects the collided value c_beta(k-1)(mu_1+...+mu_n)
    while the defining product still shows c_beta(k-1)mu_1.
    `AlgebraVariant.winf` raises BadArity unless n < m.
    """
    if k in (0, 1):
        raise BadK("k must avoid 0 and 1")
    algebra = WittAlgebra(AlgebraVariant.winf(n, m))
    if box < 1:
        raise BadArity("box must cover the degree-one shift family")
    passed, data, _ = _shift_forcing(algebra, k, box)
    return VerificationReport("4.3", {"n": n, "m": m, "k": k, "box": box}, passed, data)


def verify_lemma_4_4(x: WittElement, n: int, box: Optional[int] = None) -> VerificationReport:
    """The power-2n_x+1 centralizer maps the first-n slice out of bounds.

    The rank m is x's own, x.m, and n < m.  x must be nonzero and live in
    the first-n slice, and n_x is 1 plus its largest first-n exponent
    magnitude.  a ranges over shifts c_beta t^beta (t_1^k+...+t_n^k)d_mu
    with k = 2n_x + 1 plus the t^beta h' family; the h' family kills x
    outright, and every shift term lands at a first-n exponent entry of
    magnitude above n_x, so the allowed span over t^{alpha+beta} d_alpha
    forces all c_beta to zero.  Shift tails beta default to the cube of
    radius k; a box below k holds no shift at all, so it would pass
    vacuously and is rejected.
    """
    base = _algebra_for(x, AlgebraVariant.winf(n, x.m))
    for alpha, cartan in x.support.items():
        if any(alpha[n:]) or any(not c.is_zero for c in cartan.coeffs[n:]):
            raise BadArity("x must lie in the first-n slice")
    passed, data, _ = _bounded_shift_forcing(base, x, box)
    parameters = {"n": n, "m": x.m, "x": base.format(x), "n_x": data["n_x"], "k": data["k"],
                  "box": data["k"] if box is None else box}
    return VerificationReport("4.4", parameters, passed, data)
