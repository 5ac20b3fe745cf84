"""Exact sparse linear algebra over the scalar field.

Everything here is exact: kernels, ranks and solutions are computed with
rational-function arithmetic, never floating point.  One row-by-row
echelon, `_echelon`, serves `rank_mod_p` over F_p and `rank` over Q(mu);
`_canonical_rref`, which `kernel` and `solve` run on the whole matrix,
adds back substitution from the rightmost pivot.  A row meets
only the pivot rows of its own columns, so independent blocks stay
independent without being split apart, and a row reduced to its lead
alone settles that column for later rows.  `_canonical_rref` gives the
unique RREF of the row space whatever the order of the rows.  Kernel
bases read off from the RREF are canonical: one vector per free column,
carrying a unit there, ordered by free column index.

`solve` carries b as an extra, last column.  With leftmost pivots that
column becomes a pivot only when some row reduces to its b entry alone,
that is, exactly when the system is inconsistent; otherwise the same
pass gives the canonical solution (free variables zero).  Inconsistent
systems come back with a certificate: a left combination u of the
original rows with u A = 0 but u . b != 0, namely the first vector of
the canonical kernel basis of A^T that does not annihilate b.

Specializing the mu parameters at a point and reducing mod a prime can
only lower the rank, so the rank over F_p is a certified lower bound for
the generic rank.  The `specialization_points` are integer, so a scalar
evaluates there in int arithmetic, and `scalar_mod_p` reduces its value
in ints too, with no Fraction built.  `rank_mod_p` is that rank on rows
already reduced to residues: `centralizer` reads them off the bracket's
structure constants at each point, and `modular_rank` evaluates a
ScalarMatrix entry by entry.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DenominatorVanishes, LengthMismatch
from .scalars import Scalar

KernelVector = Dict[int, Scalar]

# The word-size prime of the specialized-rank certificates.
MODULUS = (1 << 31) - 1


class ScalarMatrix:
    """Sparse matrix with Scalar entries, stored row-major."""

    __slots__ = ("nrows", "ncols", "arity", "rows")

    def __init__(self, nrows: int, ncols: int, arity: int):
        self.nrows = nrows
        self.ncols = ncols
        self.arity = arity
        self.rows: List[Dict[int, Scalar]] = [{} for _ in range(nrows)]

    def add(self, r: int, c: int, value: Scalar) -> None:
        if not 0 <= r < self.nrows or not 0 <= c < self.ncols:
            raise LengthMismatch(f"entry ({r}, {c}) outside {self.nrows} x {self.ncols}")
        if value.is_zero:
            return
        row = self.rows[r]
        if c in row:
            acc = row[c] + value
            if acc.is_zero:
                del row[c]
            else:
                row[c] = acc
        else:
            row[c] = value

    def entry(self, r: int, c: int) -> Scalar:
        return self.rows[r].get(c, Scalar.zero(self.arity))

    def entry_count(self) -> int:
        return sum(len(row) for row in self.rows)

    def __repr__(self) -> str:
        return f"ScalarMatrix({self.nrows}x{self.ncols}, {self.entry_count()} entries)"


def specialization_points(arity: int, bound: int) -> List[Tuple[int, ...]]:
    """Three deterministic integer points mu_i = M^i, i = 1..arity, with M > 2 * bound.

    No integer affine form c_0 + c_1 mu_1 + ... with coefficients in
    [-bound, bound], not all zero, vanishes at such a point: it is a
    number written in base M with digits c_i, c_0 the units digit, and
    its top nonzero digit dominates the rest.  So entry-level
    degeneracies of matrices built from box-bounded exponents are ruled
    out.  Successive tries bump the base.
    """
    return [
        tuple((2 * bound + 2 + t) ** i for i in range(1, arity + 1))
        for t in range(3)
    ]


def scalar_mod_p(value: Scalar, values: Sequence[int], prime: int) -> int:
    """Residue mod `prime` of a scalar evaluated at an integer or rational point.

    num and den evaluate to n and d (ints at an integer point), and the
    value is N/D with N = n.numerator d.denominator and D = n.denominator
    d.numerator, reduced by their gcd in ints before D is tested mod p.
    Raises DenominatorVanishes at a pole and ValueError when the value's
    reduced denominator is divisible by the modulus.
    """
    n, d = value.num.evaluate(values), value.den.evaluate(values)
    if not d:
        raise DenominatorVanishes("denominator vanishes at the given point")
    num, den = n.numerator * d.denominator, n.denominator * d.numerator
    g = math.gcd(num, den)
    den = den // g % prime
    if den == 0:
        raise ValueError("denominator divisible by the modulus")
    return num // g * pow(den, -1, prime) % prime


def _echelon(rows: Sequence[Dict[int, object]], inverse: Callable,
             subtract: Callable) -> Dict[int, Dict[int, object]]:
    """Pivot rows of the row-by-row echelon, less their unit, by pivot column.

    The rows, taken in order of their last column, are copied and
    reduced by the stored pivot row at their leading column until they
    vanish or lead at a column with no pivot row, where they are scaled
    to a unit and stored less it: a pivot row holds only later columns.
    A row that reduces to its lead alone settles that column, and later
    rows drop its entries in the copy instead of in one step each.  The
    rows are not modified.  The pivot columns do not depend on the
    order; taking the rows by last column, shorter rows first among
    equals, keeps the fill-in small.  Rows of one entry settle their
    columns first, before the other rows are sorted, each with its own
    empty tail, as `_canonical_rref` edits tails in place.
    """
    tails: Dict[int, Dict[int, object]] = {}
    longer = []
    for row in rows:
        if len(row) == 1:
            lead, = row
            tails[lead] = {}
        elif row:
            longer.append(row)
    settled = set(tails)
    # two stable sorts on built-in keys take less time than one tuple key
    for row in sorted(sorted(longer, key=len), key=max):
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


def rank_mod_p(rows: Sequence[Dict[int, int]], prime: int = MODULUS) -> int:
    """Rank over F_prime of sparse rows of nonzero residues; the rows are not modified.

    `_echelon`'s pivot rows hold products of two residues, reduced where used.
    """
    def subtract(row: Dict[int, int], factor: int, tail: Dict[int, int]) -> None:
        for c, v in tail.items():
            acc = (row.get(c, 0) - factor * v) % prime
            if acc:
                row[c] = acc
            elif c in row:
                del row[c]

    return len(_echelon(rows, lambda factor: pow(factor, -1, prime), subtract))


def modular_rank(matrix: ScalarMatrix, values: Sequence[int], prime: int = MODULUS) -> int:
    """Rank mod `prime` of the specialization at an integer or rational point.

    Specializing mu and reducing mod p are both rank-nonincreasing, so
    the result is a certified lower bound for the rank over Q(mu).
    Raises DenominatorVanishes at a bad point and ValueError when a
    denominator is divisible by the modulus.
    """
    return rank_mod_p([{c: v for c, s in row.items() if (v := scalar_mod_p(s, values, prime))}
                       for row in matrix.rows], prime)


# ----------------------------------------------------------------------
# Canonical form and read-off.


def _subtract(row: Dict[int, Scalar], factor: Scalar, tail: Dict[int, Scalar]) -> None:
    """row -= factor * tail, dropping the entries that cancel."""
    for c, v in tail.items():
        acc = row.get(c)
        acc = -(factor * v) if acc is None else acc - factor * v
        if acc.is_zero:
            del row[c]
        else:
            row[c] = acc


def _canonical_rref(rows: Sequence[Dict[int, Scalar]]) -> List[Tuple[int, Dict[int, Scalar]]]:
    """Unique RREF of the span of `rows`: leftmost pivots, pivot entries 1.

    The rows are not modified, and they may be dependent.  First
    `_echelon` over Q(mu), the echelon of `rank_mod_p`.  Then back
    substitution from the rightmost pivot clears the later pivot columns
    from each stored row with rows already cleared, so every row ends on
    free columns.  A right-hand side carried as the last column becomes
    a pivot only when some row reduces to it alone, that is, when the
    system is inconsistent.
    """
    tails = _echelon(rows, Scalar.inverse, _subtract)
    if not tails:
        return []
    for pc in sorted(tails, reverse=True):
        tail = tails[pc]
        for c in [c for c in tail if c in tails]:
            _subtract(tail, tail.pop(c), tails[c])
    one = Scalar.one(next(v for row in rows for v in row.values()).arity)
    return [(pc, {pc: one, **tails[pc]}) for pc in sorted(tails)]


def _kernel_from_rref(rref: List[Tuple[int, Dict[int, Scalar]]], ncols: int,
                      arity: int) -> List[KernelVector]:
    """One vector per free column below ncols, unit there, by free column."""
    pivot_cols = {pc for pc, _ in rref}
    one = Scalar.one(arity)
    vectors = {f: {f: one} for f in range(ncols) if f not in pivot_cols}
    for pc, row in rref:
        for c, v in row.items():
            if c in vectors:
                vectors[c][pc] = -v
    return list(vectors.values())


def kernel(matrix: ScalarMatrix) -> List[KernelVector]:
    """Canonical kernel basis: one vector per free column, unit there."""
    return _kernel_from_rref(_canonical_rref(matrix.rows), matrix.ncols, matrix.arity)


def rank(matrix: ScalarMatrix) -> int:
    return len(_echelon(matrix.rows, Scalar.inverse, _subtract))


class SolveResult(NamedTuple):
    """Outcome of an exact linear solve A x = b.

    Exactly one of `solution` and `certificate` is set.  The certificate
    is a left row combination u with u A = 0 and u . b != 0, indexed by
    original row number.  `homogeneous` is the canonical kernel basis of
    A, so the full solution set is solution + span(homogeneous).
    """

    solution: Optional[Dict[int, Scalar]]
    certificate: Optional[Dict[int, Scalar]]
    homogeneous: List[KernelVector]
    rank: int

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve(matrix: ScalarMatrix, rhs: Dict[int, Scalar]) -> SolveResult:
    """Solve A x = b exactly, with a certificate when inconsistent.

    A is reduced to its unique RREF with b riding along as column ncols.
    The returned solution is canonical: free variables are set to zero.
    The system is inconsistent when column ncols becomes a pivot: with
    leftmost pivots, that happens exactly when some row reduces to its b
    entry alone, a zero row of A with a nonzero b entry among them.
    """
    b = matrix.ncols
    rhs = {r: v for r, v in rhs.items() if not v.is_zero}
    rref = _canonical_rref([{**row, b: rhs[r]} if r in rhs else row
                            for r, row in enumerate(matrix.rows)])
    if rref and rref[-1][0] == b:
        return _inconsistent(matrix, rhs)
    solution = {pc: row[b] for pc, row in rref if b in row}
    homogeneous = _kernel_from_rref(rref, matrix.ncols, matrix.arity)
    return SolveResult(solution, None, homogeneous, len(rref))


def _inconsistent(matrix: ScalarMatrix, rhs: Dict[int, Scalar]) -> SolveResult:
    """Result of an inconsistent system, with its canonical certificate.

    The certificate is the first vector u of the canonical kernel basis
    of A^T with u . b != 0; one exists because b is outside the column
    space of A.  The same basis gives rank(A) = rows - dim ker A^T.
    """
    transpose = ScalarMatrix(matrix.ncols, matrix.nrows, matrix.arity)
    for r, row in enumerate(matrix.rows):
        for c, value in row.items():
            transpose.add(c, r, value)
    left = kernel(transpose)
    zero = Scalar.zero(matrix.arity)
    certificate = next(u for u in left
                       if not sum((u[r] * v for r, v in rhs.items() if r in u), zero).is_zero)
    return SolveResult(None, certificate, [], matrix.nrows - len(left))
