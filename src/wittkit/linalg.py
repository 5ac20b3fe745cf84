"""Exact sparse linear algebra over the scalar field.

Everything here is exact: kernels, ranks and solutions are computed with
rational-function arithmetic, never floating point.  `kernel`, `rank`
and `solve` split the matrix into connected components and reduce each
one with the same Gauss-Jordan pass over Q(mu), `_canonical_rref`: the
pivot is always the leftmost column left in any row, so its output is
the unique RREF of the row space whatever the order of the rows, and
dependent rows drop out as they reduce to zero.  Kernel bases read off
from the RREF are canonical: one vector per free column, carrying a
unit there, ordered by free column index.

`solve` carries b as an extra, last column.  With leftmost pivots that
column becomes a pivot only when some row reduces to its b entry alone,
that is, exactly when the system is inconsistent; otherwise the same
pass gives the canonical solution (free variables zero).  Inconsistent
systems come back with a certificate: a left combination u of the
original rows with u A = 0 but u . b != 0, namely the first vector of
the canonical kernel basis of A^T that does not annihilate b.

Specializing the mu parameters at a rational point and reducing mod a
prime can only lower the rank, so the rank over F_p is a certified lower
bound for the generic rank.  `specialized_residues` is the one loop over
the specialization points that skips a point where some entry does not
evaluate, and carries that argument.  `kernel` and `rank` use the bound
first on every component: a component whose F_p rank is already
min(rows, cols) has that rank over Q(mu), and with full column rank no
kernel, so it skips symbolic elimination; any other component is
eliminated symbolically.  `centralize` and the centralizer verifiers
combine the bound with explicitly verified kernel members to pin kernels
exactly without symbolic elimination, ranking residues read off the
bracket's structure constants.  `rank_mod_p` is that rank on rows already
reduced to residues, one row-by-row echelon over the whole matrix, and
the one F_p elimination here: `modular_rank` feeds it a ScalarMatrix
evaluated entry by entry, and the full-rank check of `kernel` and
`rank` a component's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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

    def apply(self, vector: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """A @ v for a sparse vector, returning the nonzero rows."""
        out: Dict[int, Scalar] = {}
        for r, row in enumerate(self.rows):
            total = None
            for c, a in row.items():
                v = vector.get(c)
                if v is None or v.is_zero:
                    continue
                piece = a * v
                total = piece if total is None else total + piece
            if total is not None and not total.is_zero:
                out[r] = total
        return out

    def left_apply(self, vector: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """u @ A for a sparse row vector keyed by row index."""
        out: Dict[int, Scalar] = {}
        for r, u in vector.items():
            if u.is_zero:
                continue
            for c, a in self.rows[r].items():
                acc = out.get(c, Scalar.zero(self.arity)) + u * a
                if acc.is_zero:
                    out.pop(c, None)
                else:
                    out[c] = acc
        return out

    def __repr__(self) -> str:
        return f"ScalarMatrix({self.nrows}x{self.ncols}, {self.entry_count()} entries)"


def specialization_points(arity: int, bound: int) -> List[Tuple[Fraction, ...]]:
    """Three deterministic geometric points mu_i = M^i, i = 1..arity, with M > 2 * bound.

    No integer affine form c_0 + c_1 mu_1 + ... with coefficients in
    [-bound, bound], not all zero, vanishes at such a point: it is a
    number written in base M with digits c_i, c_0 the units digit, and
    its top nonzero digit dominates the rest.  So entry-level
    degeneracies of matrices built from box-bounded exponents are ruled
    out.  Successive tries bump the base.
    """
    return [
        tuple(Fraction((2 * bound + 2 + t) ** i) for i in range(1, arity + 1))
        for t in range(3)
    ]


# Why the rank over F_p bounds the rank over Q(mu) from below.  Let A be
# a matrix over Q(mu) of rank r whose entries are integer polynomials in
# some scalars (an entry itself, or the coefficients of an element).
# Evaluating those scalars at a point where none has a pole is a ring
# map, so each minor of A at the point is the value of that minor of A:
# a minor that is zero over Q(mu) stays zero, and the rank can only drop.
# Reducing mod p is again a ring map on the values, whose denominators
# are prime to p, and can again only drop the rank.  So the rank r0 of
# A's residues satisfies r0 <= r.  A point with a pole, or a value whose
# denominator p divides, proves nothing and is skipped.
def specialized_residues(arity: int, bound: int,
                         residues: Callable[[Tuple[Fraction, ...]], object]) -> Iterator:
    """residues(point) at each specialization point where it evaluates.

    `residues` reduces a matrix's entries at the point mod MODULUS and
    raises DenominatorVanishes or ValueError, as scalar_mod_p does, where
    they do not evaluate; such points are skipped.
    """
    for point in specialization_points(arity, bound):
        try:
            rows = residues(point)
        except (DenominatorVanishes, ValueError):
            continue
        yield rows


def scalar_mod_p(value: Scalar, values: Sequence[Fraction], prime: int) -> int:
    """Residue mod `prime` of a scalar evaluated at a rational point.

    Raises DenominatorVanishes at a pole and ValueError when the value's
    denominator is divisible by the modulus.
    """
    v = Fraction(value.evaluate(values))
    den = v.denominator % prime
    if den == 0:
        raise ValueError("denominator divisible by the modulus")
    return v.numerator * pow(den, -1, prime) % prime


def rank_mod_p(rows: Sequence[Dict[int, int]], prime: int = MODULUS) -> int:
    """Rank over F_prime of sparse rows of nonzero residues; the rows are not modified.

    One row-by-row echelon: the rows, taken in order of their last
    column, are copied and reduced by the stored pivot row at their
    leading column until they vanish or lead at a column with no pivot
    row.  There they are scaled to a unit and stored, less that unit, as
    the column's pivot row: it holds only later columns, so the leading
    column grows at every step.  The rank does not depend on the order;
    taking the rows by last column keeps the fill-in small.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in sorted(filter(None, rows), key=max):
        row = dict(row)
        while row:
            lead = min(row)
            factor = row.pop(lead)
            tail = pivots.get(lead)
            if tail is None:
                inv = pow(factor, -1, prime)
                pivots[lead] = {c: v * inv % prime for c, v in row.items()}
                break
            for c, v in tail.items():
                acc = (row.get(c, 0) - factor * v) % prime
                if acc:
                    row[c] = acc
                elif c in row:
                    del row[c]
    return len(pivots)


def modular_rank(matrix: ScalarMatrix, values: Sequence[Fraction],
                 prime: int = MODULUS) -> int:
    """Rank of the specialization reduced mod `prime`.

    Specializing mu and reducing mod p are both rank-nonincreasing, so
    the result is a certified lower bound for the rank over Q(mu).
    Raises DenominatorVanishes at a bad point and ValueError when a
    denominator is divisible by the modulus.
    """
    return rank_mod_p(_rows_mod_p(matrix.rows, values, prime), prime)


def _rows_mod_p(rows: Sequence[Dict[int, Scalar]], values: Sequence[Fraction],
                prime: int) -> List[Dict[int, int]]:
    """The rows' nonzero residues at a rational point (errors as scalar_mod_p)."""
    reduced: List[Dict[int, int]] = []
    for row in rows:
        out: Dict[int, int] = {}
        for c, s in row.items():
            v = scalar_mod_p(s, values, prime)
            if v:
                out[c] = v
        reduced.append(out)
    return reduced


# ----------------------------------------------------------------------
# Connected components.  Rows tie their columns together; splitting the
# matrix into independent blocks keeps elimination local.


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _split_components(rows: Sequence[Dict], ncols: int
                      ) -> Tuple[List[Tuple[List[int], List[int]]], List[int]]:
    """(components, zero_columns); a component is (row_indices, col_indices)."""
    uf = _UnionFind(ncols)
    seen_cols = set()
    for row in rows:
        cols = list(row)
        seen_cols.update(cols)
        for c in cols[1:]:
            uf.union(cols[0], c)
    groups: Dict[int, List[int]] = {}
    for c in sorted(seen_cols):
        groups.setdefault(uf.find(c), []).append(c)
    comp_of_col = {}
    for root, cols in groups.items():
        for c in cols:
            comp_of_col[c] = root
    rows_by_comp: Dict[int, List[int]] = {root: [] for root in groups}
    for r, row in enumerate(rows):
        if row:
            rows_by_comp[comp_of_col[next(iter(row))]].append(r)
    components = [(rows_by_comp[root], groups[root]) for root in sorted(groups)]
    zero_cols = [c for c in range(ncols) if c not in seen_cols]
    return components, zero_cols


# ----------------------------------------------------------------------
# Canonical form and read-off.


def _canonical_rref(rows: Sequence[Dict[int, Scalar]]) -> List[Tuple[int, Dict[int, Scalar]]]:
    """Unique RREF of the span of `rows`: leftmost pivots, pivot entries 1.

    The rows may be dependent: a row that reduces to zero drops out.  The
    pivot column is the smallest column left in any row, so pivots come
    out in increasing order and each new pivot row clears its column from
    the pending rows and from those already emitted alike.  A right-hand
    side carried as the last column becomes a pivot only when some row
    reduces to it alone, that is, when the system is inconsistent.
    """
    work = [dict(row) for row in rows if row]
    result: List[Tuple[int, Dict[int, Scalar]]] = []
    while work:
        pc = min(c for row in work for c in row)
        # Any row holding pc yields the same RREF; the shortest fills in least.
        pr = min((i for i, row in enumerate(work) if pc in row), key=lambda i: len(work[i]))
        pivot_row = work.pop(pr)
        inv = pivot_row[pc].inverse()
        pivot_row = {c: inv * v for c, v in pivot_row.items()}
        for row in work + [row for _, row in result]:
            lead = row.pop(pc, None)
            if lead is None:
                continue
            for c, v in pivot_row.items():
                if c == pc:
                    continue
                acc = row.get(c)
                acc = -(lead * v) if acc is None else acc - lead * v
                if acc.is_zero:
                    row.pop(c, None)
                else:
                    row[c] = acc
        work = [row for row in work if row]
        result.append((pc, pivot_row))
    return result


def _kernel_from_rref(rref: List[Tuple[int, Dict[int, Scalar]]], cols: Sequence[int],
                      arity: int) -> List[Tuple[int, KernelVector]]:
    """(free column, vector) pairs; each vector has a unit at its free column."""
    pivot_cols = {pc for pc, _ in rref}
    one = Scalar.one(arity)
    vectors = []
    for f in cols:
        if f in pivot_cols:
            continue
        v: KernelVector = {f: one}
        for pc, row in rref:
            coeff = row.get(f)
            if coeff is not None and not coeff.is_zero:
                v[pc] = -coeff
        vectors.append((f, v))
    return vectors


# Why a full rank mod p is the generic rank of a component: at any
# point where its entries evaluate, `specialized_residues` gives an F_p
# rank r0 <= r, and r0 = min(rows, cols) forces r = r0; with r0 = cols
# the kernel is zero.  The first point that evaluates decides, and a rank
# short of full leaves the component to symbolic elimination, so the
# answer never depends on this check.  The F_p rank is `rank_mod_p`'s
# row-by-row echelon, the same as for `modular_rank` and the centralizer
# certificates.  Geometric points for bound 8 keep integer linear forms
# in mu with coefficients in [-8, 8] nonzero.
_CHECK_BOUND = 8


def _full_rank_mod_p(matrix: ScalarMatrix, row_idx: List[int], cols: List[int]) -> bool:
    """True when the component provably has rank min(rows, cols) over Q(mu)."""
    component = [matrix.rows[r] for r in row_idx]
    for rows in specialized_residues(matrix.arity, _CHECK_BOUND,
                                     lambda point: _rows_mod_p(component, point, MODULUS)):
        return rank_mod_p(rows) == min(len(row_idx), len(cols))
    return False


def kernel(matrix: ScalarMatrix) -> List[KernelVector]:
    """Canonical kernel basis: one vector per free column, unit there."""
    components, zero_cols = _split_components(matrix.rows, matrix.ncols)
    one = Scalar.one(matrix.arity)
    tagged: List[Tuple[int, KernelVector]] = [(c, {c: one}) for c in zero_cols]
    for row_idx, cols in components:
        # Fewer rows than columns always leave a kernel.
        if len(row_idx) >= len(cols) and _full_rank_mod_p(matrix, row_idx, cols):
            continue
        rref = _canonical_rref([matrix.rows[r] for r in row_idx])
        tagged.extend(_kernel_from_rref(rref, cols, matrix.arity))
    tagged.sort(key=lambda item: item[0])
    return [v for _, v in tagged]


def rank(matrix: ScalarMatrix) -> int:
    components, _ = _split_components(matrix.rows, matrix.ncols)
    total = 0
    for row_idx, cols in components:
        if _full_rank_mod_p(matrix, row_idx, cols):
            total += min(len(row_idx), len(cols))
        else:
            total += len(_canonical_rref([matrix.rows[r] for r in row_idx]))
    return total


@dataclass
class SolveResult:
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

    Each connected component of A is reduced to its unique RREF with its
    part of b riding along as column ncols.  The returned solution is
    canonical: free variables are set to zero.  The system is
    inconsistent when a row with an empty A-part has a nonzero b entry,
    or when column ncols becomes a pivot: with leftmost pivots, that
    happens exactly when some row reduces to its b entry alone.
    """
    b = matrix.ncols
    rhs = {r: v for r, v in rhs.items() if not v.is_zero}
    if any(not matrix.rows[r] for r in rhs):
        return _inconsistent(matrix, rhs)
    components, _ = _split_components(matrix.rows, matrix.ncols)
    rref: List[Tuple[int, Dict[int, Scalar]]] = []
    for row_idx, _ in components:
        rows = [{**matrix.rows[r], b: rhs[r]} if r in rhs else matrix.rows[r] for r in row_idx]
        reduced = _canonical_rref(rows)
        if reduced[-1][0] == b:
            return _inconsistent(matrix, rhs)
        rref.extend(reduced)
    rref.sort(key=lambda item: item[0])
    solution = {pc: row[b] for pc, row in rref if b in row}
    homogeneous = [v for _, v in _kernel_from_rref(rref, range(matrix.ncols), matrix.arity)]
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
