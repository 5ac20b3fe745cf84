"""Degree-box truncation and exact centralizer computation.

A degree box |alpha_j| <= N cuts a finite window out of an algebra
variant; the centralizer of z inside the window is the kernel of the
linearized map x -> [x, z].  The codomain of that map is indexed by
whatever monomials actually appear in the brackets, never clipped to the
box, so kernel membership means "commutes with z in the full algebra",
not merely "commutes up to truncation".

Each ring has one rank routine.  Over Q(mu), `span_rank` ranks a family
of elements as columns over the monomials they meet, on the keyed
builder that the rigidity solves share.  Over F_p, `_specialized_ranks`
ranks ad(z) at each specialization point: that rank bounds the rank
over Q(mu) from below, so exact kernel members whose rank meets ncols
minus it span the kernel.  `centralize` and the two verifiers pin
kernels so.  `centralize` takes as members z and
the columns ad(z) sends to zero; the verifiers take the power-sum
element (t_1^k + ... + t_n^k) d_mu, whose centralizer is one line in
W_n, or the predicted shift and h' families when the ambient algebra
has variables beyond the first n.  When no point certifies its members,
a verifier takes the kernel from `centralizer_basis`, which tries its
own members before it builds the symbolic matrix and eliminates it, and
checks every basis it returns to commute with z.

One builder, `_ad_rows`, reads x -> [x, z] off the bracket's structure
constants as rows keyed by integer row codes, which sort as their keys
(gamma, j) do: over Q(mu) for `ad_matrix` and `solve_inner`, reduced mod
p at a point for the F_p rank.  Codes become keys only where rows leave
it, as matrix row keys and certificate rows.  Member checks and
`centralize`'s self-check call `bracket`, so they check the builder
rather than rerun it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from itertools import product, repeat
from operator import add, mul
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    ArityMismatch,
    BadArity,
    BadK,
    DenominatorVanishes,
    PairOutsideBox,
    SelfCheckFailed,
)
from .linalg import (
    MODULUS,
    ScalarMatrix,
    _canonical_rref,
    kernel as matrix_kernel,
    rank as matrix_rank,
    rank_mod_p,
    scalar_mod_p,
)
from .scalars import Scalar
from .witt import (
    MAX_COLUMNS,
    MU_DIRECTION,
    AlgebraVariant,
    CartanElement,
    Exponent,
    VariantKind,
    WittAlgebra,
    WittElement,
    _trusted,
    bracket,
    proportional,
)

RowKey = Tuple[Exponent, int]
ConstraintRow = Tuple[int, Exponent, int]


class TruncatedSpace:
    """Ordered basis of a variant's degree-box window."""

    def __init__(self, algebra: WittAlgebra, box: int):
        self.algebra = algebra
        self.box = box
        self.basis: List[Tuple[Exponent, int]] = algebra._basis_pair_list(box)

    @functools.cached_property
    def index(self) -> Dict[Tuple[Exponent, int], int]:
        """Position of each basis pair, built on first read: the certified lemma path reads none."""
        return {pair: i for i, pair in enumerate(self.basis)}

    def __len__(self) -> int:
        return len(self.basis)

    def element(self, i: int) -> WittElement:
        return self.algebra.pair_element(*self.basis[i])

    def element_from_vector(self, vector: Dict[int, Scalar]) -> WittElement:
        """Sum of coeff * basis[i]: each coefficient goes into its Cartan slot."""
        algebra = self.algebra
        zero = algebra.field.zero()
        slots: Dict[Exponent, Sequence[Scalar]] = {}
        for i, coeff in vector.items():
            if coeff.is_zero:
                continue
            alpha, direction = self.basis[i]
            if direction == MU_DIRECTION:  # wnmu has one pair per exponent
                slots[alpha] = algebra.dmu_cartan().scale(coeff).coeffs
            else:
                slots.setdefault(alpha, [zero] * algebra.m)[direction] = coeff
        return _trusted(algebra.m, {alpha: CartanElement(c) for alpha, c in slots.items()},
                        algebra.field.arity)

    def coordinates_of(self, x: WittElement) -> Dict[int, Scalar]:
        """Coordinates in this basis; PairOutsideBox if x does not fit."""
        if x.m != self.algebra.m:
            raise ArityMismatch(f"element rank {x.m} != ambient {self.algebra.m}")
        coords: Dict[int, Scalar] = {}
        on_dmu_line = self.algebra.variant.kind is VariantKind.WN_MU
        for alpha, cartan in x.support.items():
            if on_dmu_line:
                lam = self.algebra.dmu_multiple(cartan)
                if lam is None:
                    raise PairOutsideBox(f"Cartan part at {alpha} is not a multiple of d_mu")
                i = self.index.get((alpha, MU_DIRECTION))
                if i is None:
                    raise PairOutsideBox(f"exponent {alpha} outside the box")
                coords[i] = lam
                continue
            for j, coeff in enumerate(cartan.coeffs):
                if coeff.is_zero:
                    continue
                i = self.index.get((alpha, j))
                if i is None:
                    raise PairOutsideBox(f"monomial t^{alpha} d{j + 1} outside the box")
                coords[i] = coeff
        return coords


def _dot(u, v):
    """Sum of u_i v_i over the pairs with both factors nonzero; 0 when there is none."""
    total = 0
    for x, y in zip(u, v):
        if x and y:
            total = total + x * y if total else x * y
    return total


def _ad_rows(z: WittElement, space: TruncatedSpace, columns: Iterable[int],
             point: Optional[Tuple[int, ...]] = None
             ) -> Tuple[Dict[int, Dict[int, object]], Callable[[int], RowKey]]:
    """({row code: {column: nonzero entry}}, code -> (gamma, j)) of x -> [x, z] on the columns.

    For the column t^alpha d_a and a term t^beta b of z, the entry at row
    (gamma = alpha + beta, j) is (a, beta) b_j - (b, alpha) a_j, where a
    is the unit e_d, or d_mu for wnmu.  Row (gamma, j) has the code
    code(gamma) m + j, code(gamma) = sum_i (gamma_i + reach) R^(m-1-i)
    with R = 2 reach + 1 and reach = box + max |beta_i| >= |gamma_i|, so
    codes sort as keys do and code(alpha + beta) - code(alpha) depends on
    beta alone.  The columns are grouped once per direction as (exponent
    index, column), with one code per distinct exponent.  Per term of z,
    the shifted codes and (b, alpha) are listed once over the exponents,
    and each (direction, j) is one pass over that direction's columns:
    the constant (a, beta) b_j where a_j = 0, else that minus (b, alpha)
    a_j, zeros left out.  j runs downwards: the order rows are first
    written in breaks ties in `rank_mod_p`'s sorts, and on the lemma-grid
    rows j upwards ranked about 6% slower.  Given an integer point, the
    Cartan coefficients of z and d_mu are their residues there (errors as
    scalar_mod_p) and entries are reduced mod MODULUS.  Distinct terms of
    z take one column to distinct gamma, so each entry is set once.
    """
    algebra = space.algebra
    if z.m != algebra.m:
        raise ArityMismatch(f"element rank {z.m} != ambient {algebra.m}")
    m = algebra.m
    reach = space.box + max((abs(e) for beta in z.support for e in beta), default=0)
    radix = 2 * reach + 1
    weights = [m * radix ** (m - 1 - i) for i in range(m)]  # code(gamma) m, slot by slot
    modulus = 0 if point is None else MODULUS
    value = (lambda c: scalar_mod_p(c, point, modulus)) if modulus else (lambda c: c)
    units = ({MU_DIRECTION: [value(c) for c in algebra.dmu_cartan().coeffs]}
             if algebra.variant.kind is VariantKind.WN_MU
             else {d: [int(i == d) for i in range(m)] for d in range(m)})
    index: Dict[Exponent, int] = {}
    groups: Dict[int, List[Tuple[int, int]]] = {d: [] for d in units}
    for col in columns:
        alpha, d = space.basis[col]
        groups[d].append((index.setdefault(alpha, len(index)), col))
    slots = list(zip(*index))

    def pairings(u: Sequence[int]) -> List[int]:  # (u, alpha) over the exponents, slot by slot
        acc = [0] * len(index)
        for x, slot in zip(u, slots):
            if x:
                acc = list(map(add, acc, map(mul, repeat(x), slot)))
        return acc

    codes = pairings(weights)
    rows: Dict[int, Dict[int, object]] = defaultdict(dict)
    for beta, cartan in z.support.items():
        b = [value(c) for c in cartan.coeffs]
        shift = sum(map(mul, beta, weights)) + reach * sum(weights)
        shifted = [code + shift for code in codes]
        b_alpha = pairings(b) if modulus else [_dot(b, alpha) for alpha in index]
        for d, a in units.items():
            group = groups[d]
            a_beta = _dot(a, beta)
            for j in reversed(range(m)):
                x, a_j = b[j], a[j]
                x = a_beta * x if a_beta and x else 0
                if modulus:  # before the zero test: p may divide a nonzero (a, beta) b_j
                    x %= modulus
                if not a_j:
                    if x:
                        for i, col in group:
                            rows[shifted[i] + j][col] = x
                    continue
                own = ([(x - v * a_j) % modulus for v in b_alpha] if modulus
                       else [x - v * a_j if x else -(v * a_j) for v in b_alpha])
                for i, col in group:
                    if own[i]:
                        rows[shifted[i] + j][col] = own[i]

    def key(code: int) -> RowKey:
        return tuple(code // w % radix - reach for w in weights), code % m

    return rows, key


def ad_matrix(z: WittElement, space: TruncatedSpace) -> Tuple[ScalarMatrix, List[RowKey]]:
    """Matrix of x -> [x, z] on the space; rows cover the untruncated image."""
    rows, key = _ad_rows(z, space, range(len(space)))
    codes = sorted(rows)
    matrix = ScalarMatrix(len(codes), len(space), space.algebra.field.arity)
    matrix.rows = [rows[code] for code in codes]
    return matrix, [key(code) for code in codes]


class CentralizerResult(NamedTuple):
    """Kernel of ad(z) on a truncated space, as elements."""

    space: TruncatedSpace
    basis: List[WittElement]
    vectors: List[Dict[int, Scalar]]

    @property
    def dimension(self) -> int:
        return len(self.basis)


# Why a match certifies a kernel.  Let r be the rank of ad(z) over Q(mu).
# Its entries are integer polynomials in the Cartan coefficients of z and
# d_mu.  Evaluating those at a point where none has a pole is a ring map,
# so each minor at the point is the value of that minor over Q(mu): a
# minor that is zero stays zero, and the rank can only drop.  Reducing
# mod p is again a ring map on values whose denominators are prime to p.
# So the F_p rank r0 at a point is at most r, dim ker = ncols - r <=
# ncols - r0, and exactly verified kernel members of rank ncols - r0 span
# the kernel.  A point with a pole, or a value whose denominator p
# divides, proves nothing and is skipped; so does a point whose r0 leaves
# ncols - r0 above the members' rank.
def _specialized_ranks(z: WittElement, space: TruncatedSpace
                       ) -> Iterator[Tuple[int, List[Dict[int, int]]]]:
    """(F_p rank, residue rows) of ad(z) at each specialization point where it evaluates.

    The points avoid every affine form in mu with integer coefficients up
    to the box plus z's largest exponent, the reach of `_ad_rows`.
    """
    reach = space.box + max((abs(e) for beta in z.support for e in beta), default=0)
    for point in linalg.specialization_points(space.algebra.field.arity, reach):
        try:
            rows = list(_ad_rows(z, space, range(len(space)), point)[0].values())
        except (DenominatorVanishes, ValueError):
            continue
        yield rank_mod_p(rows), rows


def centralizer_basis(algebra: WittAlgebra, z: WittElement, box: int) -> CentralizerResult:
    """Canonical kernel basis of ad(z) on the box, certified over F_p where a point allows.

    The members: z, when it fits the box, as [z, z] = 0, and the unit
    vector of every column with no nonzero residue whose image is
    checked to be exactly zero.  A zero image has no nonzero
    residue at any point, so the first point finds them all; a column
    whose residues vanish only at the point is no member.  `kernel`'s
    vector for free column f is 1 at f, 0 at the other free columns and
    otherwise supported on pivot columns left of f, so on reversed
    columns that basis is the unique RREF of the kernel: the members'
    RREF on reversed columns, read back, is that basis.  When no point
    certifies, the kernel is eliminated symbolically.
    """
    space = TruncatedSpace(algebra, box)
    ncols = len(space)
    try:
        z_coords = space.coordinates_of(z)
    except (PairOutsideBox, ArityMismatch):
        z_coords = {}
    z_member = bool(z_coords)
    members = [z_coords] if z_member else []
    rref = None
    for r0, rows in _specialized_ranks(z, space):
        if rref is None:
            dead = sorted(set(range(ncols)).difference(*rows))
            members += [{c: algebra.field.one()} for c in dead
                        if bracket(space.element(c), z).is_zero]
            rref = _canonical_rref([{ncols - 1 - c: s for c, s in v.items()} for v in members])
        if ncols - r0 == len(rref):
            vectors = [{ncols - 1 - c: s for c, s in row.items()} for _, row in reversed(rref)]
            break
    else:
        vectors = matrix_kernel(ad_matrix(z, space)[0])
    elements = [space.element_from_vector(v) for v in vectors]
    for v, e in zip(vectors, elements):
        if v in members or z_member and proportional(e, z) is not None:
            continue  # [lam m, z] = lam [m, z] = 0 for a member m
        if not bracket(e, z).is_zero:
            raise SelfCheckFailed(f"centralizer: {algebra.format(e)} does not commute with z")
    return CentralizerResult(space, elements, vectors)


def _keyed_rows(w: WittElement, q: int) -> Dict[ConstraintRow, Scalar]:
    """w's nonzero coefficients keyed as rows (q, exponent, 0-based direction)."""
    return {(q, gamma, j): coeff for gamma, cartan in w.support.items()
            for j, coeff in enumerate(cartan.coeffs) if not coeff.is_zero}


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


def span_rank(elements: Sequence[WittElement]) -> int:
    """Rank over Q(mu) of the elements, as columns over the monomials (gamma, j) they meet."""
    arity = elements[0].scalar_arity() if elements else 0
    return matrix_rank(_keyed_system(arity, [_keyed_rows(e, 0) for e in elements], {})[0])


def lemma_4_1_families(algebra: WittAlgebra, k: int, box: int) -> Tuple[
        List[Tuple[Exponent, WittElement]], List[Tuple[Exponent, int, WittElement]]]:
    """The two predicted centralizer families of the power-sum element.

    Shift family: (beta, t^beta (t_1^k+...+t_n^k) d_mu) for beta with zero
    first-n slots, kept when the shifted support fits the box.  h' family:
    (beta, j, t^beta d_j) for j > n (1-based).  With m == n both K_n and
    h'_n collapse and only the power-sum line remains.  Above MAX_COLUMNS
    elements, counted before any is listed, raises BadArity; k = 0 raises
    BadK from `power_sum_dmu`.
    """
    n, m = algebra.n, algebra.m
    size = (2 * box + 1) ** (m - n) * (1 + m - n)
    if size > MAX_COLUMNS:
        raise BadArity(f"the box {box} shift and h' families have {size} elements, "
                       f"more than the {MAX_COLUMNS} allowed")
    betas = [(0,) * n + tail for tail in product(range(-box, box + 1), repeat=m - n)]
    power_sum = algebra.power_sum_dmu(k)
    shifts = [(beta, power_sum.translate(beta)) for beta in betas] if abs(k) <= box else []
    return shifts, [(beta, j, algebra.monomial(beta, j)) for beta in betas
                    for j in range(n + 1, m + 1)]


class VerificationReport(NamedTuple):
    """Uniform pass/fail payload for the lemma verifiers."""

    lemma: str
    parameters: Dict[str, object]
    passed: bool
    data: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"lemma": self.lemma, "parameters": dict(self.parameters),
                                  "pass": self.passed}
        out.update(self.data)
        return out


def _lemma_4_1(algebra: WittAlgebra, k: int, box: int
               ) -> Tuple[bool, Dict[str, object], List[WittElement]]:
    """Lemma 4.1 at rank m >= n: (pass, report data, kernel basis).

    The predicted family is the basis when it centralizes z, is
    independent and meets ncols minus an F_p rank of ad(z); otherwise
    `centralizer_basis`'s is, compared with it by the stacked rank.
    """
    z = algebra.power_sum_dmu(k)
    space = TruncatedSpace(algebra, box)
    shifts, h_family = lemma_4_1_families(algebra, k, box)
    predicted = [e for _, e in shifts] + [e for _, _, e in h_family]
    members = all(bracket(e, z).is_zero for e in predicted)
    rank_predicted = span_rank(predicted)
    independent = members and rank_predicted == len(predicted)
    ranks = _specialized_ranks(z, space) if independent else ()
    certified = next((r0 for r0, _ in ranks if r0 == len(space) - len(predicted)), None)
    data: Dict[str, object] = {
        "predicted_dimension": len(predicted),
        "rank_predicted": rank_predicted,
        "predicted_centralizes": members,
        "predicted": [algebra.format(e) for e in predicted],
        "columns": len(space),
    }
    if certified is not None:
        data.update(dimension=len(predicted), spans_equal=True, method="specialized-rank",
                    specialized_rank=certified)
        return True, data, predicted
    elements = centralizer_basis(algebra, z, box).basis
    rank_stacked = span_rank(predicted + elements)
    spans_equal = rank_stacked == rank_predicted == len(elements)
    data.update(dimension=len(elements), rank_stacked=rank_stacked, spans_equal=spans_equal,
                method="symbolic-kernel", basis=[algebra.format(e) for e in elements])
    return members and spans_equal and len(elements) == len(predicted), data, elements


def verify_lemma_2_2(n: int, k: int, box: Optional[int] = None) -> VerificationReport:
    """Centralizer of the power-sum element in W_n is one line, the element itself.

    This is lemma 4.1 at m = n, where a box of at least |k| predicts z alone.
    """
    if k == 0:
        raise BadK("k must be nonzero")
    if box is None:
        box = abs(k) + 2
    if box < abs(k):
        raise BadK(f"lemma 2.2 needs box >= |k|: the power sum with k = {k} "
                   f"lies outside the box {box}")
    algebra = WittAlgebra(AlgebraVariant.wn(n))
    passed, found, basis = _lemma_4_1(algebra, k, box)
    if "specialized_rank" in found:  # the basis is the predicted z itself
        witness = algebra.field.one()
    else:
        witness = proportional(basis[0], algebra.power_sum_dmu(k)) if len(basis) == 1 else None
    data: Dict[str, object] = {"dimension": len(basis),
                               "basis": found.get("basis", found["predicted"])}
    if witness is not None:
        data["witness"] = algebra.field.format(witness)
    data.update((key, found[key]) for key in ("method", "specialized_rank", "columns")
                if key in found)
    return VerificationReport("2.2", {"n": n, "k": k, "box": box}, passed, data)


def verify_lemma_4_1(n: int, m: int, k: int, box: Optional[int] = None) -> VerificationReport:
    """Computed centralizer equals the predicted shift + h' span (both directions).

    A box below |k| holds no shift t^beta (t_1^k+...+t_n^k) d_mu, nor any
    combination of them, since distinct beta give disjoint supports; the
    box part of the centralizer is then exactly the h' family, and the
    check is still a real comparison with the kernel of ad(z) on the box.
    `AlgebraVariant.winf` raises BadArity unless n < m.
    """
    if k == 0:
        raise BadK("k must be nonzero")
    if box is None:
        box = abs(k) + 2
    passed, data, _ = _lemma_4_1(WittAlgebra(AlgebraVariant.winf(n, m)), k, box)
    return VerificationReport("4.1", {"n": n, "m": m, "k": k, "box": box}, passed, data)
