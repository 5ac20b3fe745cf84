"""Witt algebras with Cartan-valued sparse elements.

W_m is spanned by t^alpha d_i for alpha in Z^m and 1 <= i <= m, with

    [t^alpha d_a, t^beta d_b] = t^(alpha+beta) ((d_a, beta) d_b - (d_b, alpha) d_a)

where d_a = sum_i a_i d_i ranges over the Cartan subalgebra h_m and
(d_a, beta) = sum_i a_i beta_i.  An element here is a sparse map from
exponents alpha to Cartan coefficients d_a, so a single stored term is
t^alpha d_a rather than a pile of t^alpha d_i monomials.  `bracket`
works on integers: it writes each operand's coefficients once over a
common integer denominator L (times a primitive polynomial P where a
denominator is not constant), adds the products beta_i a_i b_j and
-alpha_j a_i b_j into integer term dicts, and makes each output
coefficient a canonical Scalar once.  An element keeps its integer form,
so an operand shared by many brackets is written over L once.

Supported variants.  One table (`_LOWEST`) says which pairs t^alpha d_i
(t^alpha d_mu in wnmu) each one keeps, for membership, for the basis of a
degree box and for its size alike:

  * wn          : all of W_n (m == n), every pair,
  * winf        : W_m with a distinguished first block of n < m
                  coordinates (a finite slice of W_infinity), every pair,
  * wnplus      : derivations of the polynomial ring C[t_1..t_n]:
                  alpha + eps_i >= 0, since t^alpha d_i = t^(alpha+eps_i) d/dt_i
                  (so alpha may have a single -1 entry, in slot i),
  * wnplusplus  : alpha >= 0, the sum over alpha >= 0 of t^alpha h_n,
  * wnmu        : A_n d_mu, the rank-one module of multiples of
                  d_mu = mu_1 d_1 + ... + mu_n d_n: every alpha, with each
                  Cartan part on the d_mu line (`WittAlgebra.member`).
"""

from __future__ import annotations

import enum
import itertools
import math
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ArityMismatch, BadArity, BadK, LengthMismatch
from .scalars import MuPolynomial, Scalar, ScalarField, _make, _one_poly, format_scalar, poly_gcd

Exponent = Tuple[int, ...]

# Sentinel direction for basis pairs of the wnmu variant: the Cartan part
# is the d_mu line rather than a coordinate direction.
MU_DIRECTION = -1


class VariantKind(enum.Enum):
    WN = "wn"
    W_INF_TRUNC = "winf"
    WN_PLUS = "wnplus"
    WN_PLUS_PLUS = "wnplusplus"
    WN_MU = "wnmu"


class AlgebraVariant:
    """Which algebra we are working in: kind plus ranks n <= m; immutable and hashable."""

    __slots__ = ("kind", "n", "m")

    def __init__(self, kind: VariantKind, n: int, m: int):
        if n < 1:
            raise BadArity(f"need n >= 1, got {n}")
        if kind is VariantKind.W_INF_TRUNC:
            if not n < m:
                raise BadArity(f"winf needs n < m, got n={n}, m={m}")
        elif n != m:
            raise BadArity(f"{kind.value} needs n == m, got n={n}, m={m}")
        for name, value in (("kind", kind), ("n", n), ("m", m)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.n, self.m) == (other.kind, other.n, other.m)

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.m))

    def __repr__(self) -> str:
        return f"AlgebraVariant(kind={self.kind!r}, n={self.n!r}, m={self.m!r})"

    @classmethod
    def wn(cls, n: int) -> "AlgebraVariant":
        return cls(VariantKind.WN, n, n)

    @classmethod
    def winf(cls, n: int, m: int) -> "AlgebraVariant":
        return cls(VariantKind.W_INF_TRUNC, n, m)

    @classmethod
    def wnplus(cls, n: int) -> "AlgebraVariant":
        return cls(VariantKind.WN_PLUS, n, n)

    @classmethod
    def wnplusplus(cls, n: int) -> "AlgebraVariant":
        return cls(VariantKind.WN_PLUS_PLUS, n, n)

    @classmethod
    def wnmu(cls, n: int) -> "AlgebraVariant":
        return cls(VariantKind.WN_MU, n, n)


class CartanElement:
    """Element of the Cartan subalgebra h_m: a coefficient per d_i."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Sequence[Scalar]):
        self.coeffs = tuple(coeffs)
        self._hash: Optional[int] = None

    @classmethod
    def zero(cls, m: int, arity: int) -> "CartanElement":
        z = Scalar.zero(arity)
        return cls((z,) * m)

    @classmethod
    def unit(cls, m: int, i: int, arity: int) -> "CartanElement":
        """d_i with 0-based index i."""
        z = Scalar.zero(arity)
        o = Scalar.one(arity)
        return cls(tuple(o if j == i else z for j in range(m)))

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _check(self, other: "CartanElement") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise LengthMismatch(f"Cartan lengths {len(self.coeffs)} != {len(other.coeffs)}")
        self._check_arity(other.coeffs[0])

    def _check_arity(self, scalar: Scalar) -> None:
        # Once per operation, not per coefficient: + and - pass a zero's partner
        # through and scale keeps a zero, so no Scalar operation compares them.
        if self.coeffs[0].num.arity != scalar.num.arity:
            raise ArityMismatch(f"scalar arities {self.coeffs[0].arity} != {scalar.arity}")

    def __add__(self, other: "CartanElement") -> "CartanElement":
        self._check(other)
        return CartanElement(tuple(b if a.is_zero else a if b.is_zero else a + b
                                   for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CartanElement") -> "CartanElement":
        self._check(other)
        return CartanElement(tuple(-b if a.is_zero else a if b.is_zero else a - b
                                   for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CartanElement":
        return CartanElement(tuple(-a for a in self.coeffs))

    def scale(self, scalar: Scalar) -> "CartanElement":
        if scalar.is_zero:
            return CartanElement.zero(len(self.coeffs), scalar.arity)
        self._check_arity(scalar)
        return CartanElement(tuple(a if a.is_zero else scalar * a for a in self.coeffs))

    def lift(self, arity: int) -> "CartanElement":
        return CartanElement(tuple(c.lift(arity) for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CartanElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self) -> str:
        return f"CartanElement({list(self.coeffs)!r})"


class WittElement:
    """Sparse element: exponent alpha -> Cartan coefficient, zero terms pruned.

    The constructor checks every exponent's length; operations whose parts
    are already of length m build their results through `_trusted`.
    """

    __slots__ = ("m", "support", "_hash", "_arity", "_terms")

    def __init__(self, m: int, support: Dict[Exponent, CartanElement], arity: int = 0):
        for alpha in support:
            if len(alpha) != m:
                raise LengthMismatch(f"exponent length {len(alpha)} != {m}")
        self._set(m, support, arity, True)

    def _set(self, m: int, support: Dict[Exponent, CartanElement], arity: int,
             prune: bool) -> "WittElement":
        self.m = m
        self.support = {a: c for a, c in support.items() if not c.is_zero} if prune else support
        self._hash: Optional[int] = None
        self._terms: Optional[Tuple[int, List]] = None  # `_cleared`'s, on first use
        # the scalar arity: the given coefficients', else `arity`; a zero element keeps it
        self._arity = next(iter(support.values())).coeffs[0].arity if support else arity
        return self

    @classmethod
    def zero(cls, m: int, arity: int = 0) -> "WittElement":
        return _trusted(m, {}, arity)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def _check(self, other: "WittElement") -> None:
        if self.m != other.m:
            raise LengthMismatch(f"element ranks {self.m} != {other.m}")

    def __add__(self, other: "WittElement") -> "WittElement":
        self._check(other)
        support = dict(self.support)
        for alpha, cartan in other.support.items():
            support[alpha] = support[alpha] + cartan if alpha in support else cartan
        return _trusted(self.m, support, max(self._arity, other._arity), prune=True)

    def __sub__(self, other: "WittElement") -> "WittElement":
        # self + -other's support order: row order picks `_inconsistent`'s certificate
        self._check(other)
        support = dict(self.support)
        for alpha, cartan in other.support.items():
            support[alpha] = support[alpha] - cartan if alpha in support else -cartan
        return _trusted(self.m, support, max(self._arity, other._arity), prune=True)

    def __neg__(self) -> "WittElement":
        return _trusted(self.m, {a: -c for a, c in self.support.items()}, self._arity)

    def scale(self, scalar: Scalar) -> "WittElement":
        support = {} if scalar.is_zero else {a: c.scale(scalar) for a, c in self.support.items()}
        return _trusted(self.m, support, self._arity)

    def translate(self, gamma: Exponent) -> "WittElement":
        """Multiply by the monomial t^gamma; t^0 gives the element itself."""
        if len(gamma) != self.m:
            raise LengthMismatch(f"exponent length {len(gamma)} != {self.m}")
        if not any(gamma):
            return self
        support = {tuple(a + g for a, g in zip(alpha, gamma)): c
                   for alpha, c in self.support.items()}
        return _trusted(self.m, support, self._arity)

    def lift(self, arity: int) -> "WittElement":
        return WittElement(self.m, {a: c.lift(arity) for a, c in self.support.items()}, arity)

    def coefficient(self, alpha: Exponent, i: int) -> Scalar:
        """Coefficient of t^alpha d_i (0-based i)."""
        cartan = self.support.get(tuple(alpha))
        if cartan is None:
            return Scalar.zero(self.scalar_arity())
        return cartan.coeffs[i]

    def scalar_arity(self) -> int:
        return self._arity

    def __eq__(self, other) -> bool:
        if not isinstance(other, WittElement):
            return NotImplemented
        return self.m == other.m and self.support == other.support

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, frozenset(self.support.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"WittElement({self.m}, {self.support!r})"


def _trusted(m: int, support: Dict[Exponent, CartanElement], arity: int = 0,
             prune: bool = False) -> WittElement:
    """The element of parts of length m, taken as they are: pruned of zero
    Cartan parts already, or here with `prune`.  The dict is taken over."""
    return object.__new__(WittElement)._set(m, support, arity, prune)


def _cleared(x: WittElement) -> Tuple[int, List]:
    """(L, terms): x's nonzero coefficients as integer term lists over L * P.

    L is the lcm of the denominators' integer contents, P a denominator's
    primitive part, kept once per x, or None for a constant one.  Each
    term is (alpha, [(i, terms over L * P, P, the coefficient's own num)]).
    Elements do not change, so x keeps the result for its next bracket.
    """
    if x._terms is not None:
        return x._terms
    dens: Dict[MuPolynomial, MuPolynomial] = {}
    terms = [(alpha, [(i, c, math.gcd(*c.den.terms.values()))
                      for i, c in enumerate(cartan.coeffs) if c.num.terms])
             for alpha, cartan in x.support.items()]
    lcm = math.lcm(*[content for _, coeffs in terms for _, _, content in coeffs])
    for _, coeffs in terms:
        for k, (i, c, content) in enumerate(coeffs):
            p = None if c.den.is_constant() else c.den._quo(content)
            coeffs[k] = (i, [(mono, a * (lcm // content)) for mono, a in c.num.terms.items()],
                         p and dens.setdefault(p, p), c.num)
    x._terms = lcm, terms
    return x._terms


def _cancel_factor(num: MuPolynomial, p: MuPolynomial,
                   part: MuPolynomial) -> Tuple[MuPolynomial, MuPolynomial]:
    """(num / g, p / g) for g = gcd(num, p) = gcd(part, p), p primitive."""
    g = poly_gcd(part, p)
    return (num, p) if g.is_constant() else (num.exact_div(g), p.exact_div(g))


def bracket(x: WittElement, y: WittElement) -> WittElement:
    """[x, y] on integer term dicts, each coefficient reduced once.

    Coefficients x_i = n/(L P) at t^alpha and y_j = n'/(L' P') at t^beta
    add beta_i n n' at (alpha + beta, j) and -alpha_j n n' at
    (alpha + beta, i) to the group (P, P') over L L' P P'; with constant
    denominators there is one group.  A group's sum is cancelled against
    P and P' and the integer L L', and groups add as Scalars.  A group
    holding the one product n n' cancels across, as a Scalar product
    does.  A gamma comes in at the first pair of terms that reaches it,
    as in the Cartan product rule.  A zero operand, or y = x ([x, x] = 0),
    gives the zero of the larger arity at once; others must share an arity.
    """
    x._check(y)
    arity = max(x._arity, y._arity)
    if x is y or not x.support or not y.support:
        return _trusted(x.m, {}, arity)
    if x._arity != y._arity:
        raise ArityMismatch(f"scalar arities {x._arity} != {y._arity}")
    lx, xs = _cleared(x)
    ly, ys = _cleared(y)
    acc: Dict[Exponent, Dict[Tuple, Dict[Exponent, int]]] = {}
    sole: Dict[Tuple, Optional[Tuple[MuPolynomial, MuPolynomial]]] = {}
    for alpha, a in xs:
        for beta, b in ys:
            gamma = tuple(map(add, alpha, beta))
            out = acc.get(gamma)
            if out is None:
                out = acc[gamma] = {}
            for i, na, pa, xi in a:
                bi = beta[i]
                for j, nb, pb, yj in b:
                    aj = alpha[j]
                    if bi:
                        tj = out.setdefault((j, pa, pb), {})
                    if aj:
                        ti = out.setdefault((i, pa, pb), {})
                    elif not bi:
                        continue
                    if pa or pb:
                        # whether the group holds the one product x_i y_j, for the reduction
                        pair = (xi, yj)
                        for k in {j, i} if bi and aj else {j if bi else i}:
                            key = (gamma, k, pa, pb)
                            sole[key] = pair if sole.setdefault(key, pair) is pair else None
                    for ma, ca in na:
                        for mb, cb in nb:
                            mono, c = tuple(map(add, ma, mb)), ca * cb
                            if bi:
                                tj[mono] = tj.get(mono, 0) + bi * c
                            if aj:
                                ti[mono] = ti.get(mono, 0) - aj * c
    lxy, one, zero = lx * ly, _one_poly(arity), Scalar.zero(arity)
    support: Dict[Exponent, CartanElement] = {}
    for gamma, out in acc.items():
        coeffs = [zero] * x.m
        for (j, px, py), terms in out.items():
            num, den = MuPolynomial(arity, terms), one
            if not num.terms:
                continue
            # Against P, then P': num / g is coprime to P / g, so the second gcd
            # keeps it so.  The one product n n' has gcd(n', P) with P, and then
            # gcd(n, P') with P', as n is coprime to P and n' to P'.
            pair = sole.get((gamma, j, px, py))
            for p, part in ((px, pair and pair[1]), (py, pair and pair[0])):
                if p is not None:
                    num, p = _cancel_factor(num, p, part or num)
                    den = den * p
            c = math.gcd(lxy, *num.terms.values())
            value = _make(num._quo(c), den.scale(lxy // c))
            coeffs[j] = value if coeffs[j] is zero else coeffs[j] + value
        if any(c.num.terms for c in coeffs):
            support[gamma] = CartanElement(coeffs)
    return _trusted(x.m, support, arity)


def bracket_monomial_rule(x: WittElement, y: WittElement) -> WittElement:
    """Independent oracle for `bracket`, expanding into t^alpha d_i monomials.

    [t^alpha d_i, t^beta d_j] = beta_i t^(alpha+beta) d_j - alpha_j t^(alpha+beta) d_i;
    a gamma comes in at the first pair of terms that reaches it, as in `bracket`.
    """
    x._check(y)
    m = x.m
    zero = Scalar.zero(max(x.scalar_arity(), y.scalar_arity(), 1))
    acc: Dict[Exponent, List[Scalar]] = {}
    for alpha, da in x.support.items():
        for beta, db in y.support.items():
            row = acc.setdefault(tuple(a + b for a, b in zip(alpha, beta)), [zero] * m)
            for i, ca in enumerate(da.coeffs):
                for j, cb in enumerate(db.coeffs):
                    if ca.is_zero or cb.is_zero:
                        continue
                    coeff = ca * cb
                    if beta[i]:
                        row[j] = row[j] + coeff * beta[i]
                    if alpha[j]:
                        row[i] = row[i] - coeff * alpha[j]
    return WittElement(m, {g: CartanElement(tuple(row)) for g, row in acc.items()})


def proportional(x: WittElement, y: WittElement) -> Optional[Scalar]:
    """Scalar lam with x == lam * y, if one exists (zero x gives lam = 0).

    lam is x_p / y_p at y's pivot p, its first term's first nonzero
    coefficient.  A nonzero x is lam y exactly when both have the same
    exponents and every minor x_c y_p - x_p y_c vanishes, compared over
    cleared denominators as in `WittAlgebra.member`; lam is divided out
    only then.
    """
    x._check(y)
    if x.is_zero:
        return Scalar.zero(max(y.scalar_arity(), 1))
    if y.is_zero or x.support.keys() != y.support.keys():
        return None
    alpha, cartan = next(iter(y.support.items()))
    i, yp = next((i, c) for i, c in enumerate(cartan.coeffs) if c.num.terms)
    xp = x.support[alpha].coeffs[i]
    left, right = yp.num * xp.den, xp.num * yp.den
    if all(xc.num * yc.den * left == yc.num * xc.den * right
           for beta, yb in y.support.items() for xc, yc in zip(x.support[beta].coeffs, yb.coeffs)):
        return xp / yp
    return None


# ----------------------------------------------------------------------
# Variant geometry: one rule says which basis pairs (alpha, direction)
# belong to a variant; the degree box |alpha_j| <= N cuts a window out.


# The variants that leave out pairs of the window, by the lowest exponent
# they allow in slot i of t^alpha d_direction; every other variant holds
# every pair.  t^alpha d_i = t^(alpha+eps_i) d/dt_i is a polynomial
# derivation when alpha + eps_i >= 0.
_LOWEST = {
    VariantKind.WN_PLUS_PLUS: lambda i, direction: 0,
    VariantKind.WN_PLUS: lambda i, direction: -(i == direction),
}

# The most columns a degree box may have; W_3's box 6 has 6,591.
MAX_COLUMNS = 200_000


def _in_variant(variant: AlgebraVariant, alpha: Exponent, direction: int) -> bool:
    """Whether t^alpha d_direction (t^alpha d_mu for MU_DIRECTION) lies in the variant."""
    low = _LOWEST.get(variant.kind)
    return low is None or all(a >= low(i, direction) for i, a in enumerate(alpha))


def _window_size(variant: AlgebraVariant, box: int) -> int:
    """Pairs of the box window: per direction, a product over slots of the exponents kept."""
    low = _LOWEST.get(variant.kind, lambda i, direction: -box)
    directions = (MU_DIRECTION,) if variant.kind is VariantKind.WN_MU else range(variant.m)
    return sum(math.prod(box - max(low(i, d), -box) + 1 for i in range(variant.m))
               for d in directions)


def iter_basis_pairs(variant: AlgebraVariant, box: int) -> Iterator[Tuple[Exponent, int]]:
    """Basis of the truncated variant: (exponent, direction) pairs, in sorted order.

    Direction is a 0-based coordinate index, or MU_DIRECTION for the
    wnmu variant whose Cartan parts all lie on the d_mu line.
    """
    if box < 0:
        raise BadArity(f"negative box size {box}")
    directions = (MU_DIRECTION,) if variant.kind is VariantKind.WN_MU else range(variant.m)
    window = itertools.product(range(-box, box + 1), repeat=variant.m)
    pairs = itertools.product(window, directions)
    yield from (pairs if variant.kind not in _LOWEST
                else (pair for pair in pairs if _in_variant(variant, *pair)))


class WittAlgebra:
    """A variant together with its coefficient field."""

    def __init__(self, variant: AlgebraVariant, field: Optional[ScalarField] = None):
        self.variant = variant
        self.m = variant.m
        self.n = variant.n
        self.field = field if field is not None else ScalarField(variant.n)
        if self.field.n_mu < variant.n:
            raise ArityMismatch(
                f"field has {self.field.n_mu} mu parameters, variant needs {variant.n}"
            )
        self._dmu = CartanElement([self.field.mu(i + 1) if i < self.n else self.field.zero()
                                   for i in range(self.m)])
        self._power_sums: Dict[int, WittElement] = {}

    # -- constructors ---------------------------------------------------

    def zero(self) -> WittElement:
        return WittElement.zero(self.m, self.field.arity)

    def d(self, i: int) -> WittElement:
        """d_i, 1-based."""
        if not 1 <= i <= self.m:
            raise BadArity(f"direction {i} outside 1..{self.m}")
        zero = (0,) * self.m
        return WittElement(self.m, {zero: CartanElement.unit(self.m, i - 1, self.field.arity)})

    def monomial(self, alpha: Sequence[int], i: int, coeff: Optional[Scalar] = None) -> WittElement:
        """coeff * t^alpha d_i, 1-based i."""
        if not 1 <= i <= self.m:
            raise BadArity(f"direction {i} outside 1..{self.m}")
        cartan = CartanElement.unit(self.m, i - 1, self.field.arity)
        if coeff is not None:
            cartan = cartan.scale(coeff)
        return WittElement(self.m, {tuple(alpha): cartan})

    def dmu_cartan(self) -> CartanElement:
        return self._dmu

    def dmu(self) -> WittElement:
        """d_mu = mu_1 d_1 + ... + mu_n d_n."""
        return _trusted(self.m, {(0,) * self.m: self.dmu_cartan()})

    def power_sum_dmu(self, k: int) -> WittElement:
        """(t_1^k + ... + t_n^k) d_mu: one element per algebra and k, cleared once."""
        if k not in self._power_sums:
            if k == 0:
                raise BadK("power sum needs k != 0")
            axes = [tuple(k if j == i else 0 for j in range(self.m)) for i in range(self.n)]
            self._power_sums[k] = _trusted(self.m, dict.fromkeys(axes, self._dmu))
        return self._power_sums[k]

    def pair_element(self, alpha: Exponent, direction: int) -> WittElement:
        if direction == MU_DIRECTION:
            return WittElement(self.m, {tuple(alpha): self.dmu_cartan()})
        return self.monomial(alpha, direction + 1)

    # -- membership -------------------------------------------------------

    def dmu_multiple(self, cartan: CartanElement) -> Optional[Scalar]:
        """The scalar lam with cartan == lam * d_mu, or None when there is none."""
        (mu1, *mu), (c1, *c) = self.dmu_cartan().coeffs, cartan.coeffs
        lam = c1 / mu1
        return lam if all(x == lam * y for x, y in zip(c, mu)) else None

    def member(self, x: WittElement) -> bool:
        """Whether x lies in the variant, decided by the variant's rule alone.

        wn and winf hold every rank-m element.  A wnmu Cartan part c is on the
        d_mu line when each minor c_i mu_1 - c_1 mu_i vanishes, compared over
        cleared denominators, n_i d_1 mu_1 = n_1 d_i mu_i, with no division.
        wnplus and wnplusplus keep the pairs `_LOWEST` allows.
        """
        if x.m != self.m:
            return False
        kind = self.variant.kind
        if kind is VariantKind.WN_MU:
            mu1, *mu = [c.num for c in self._dmu.coeffs]
            return all(c.num * c1.den * mu1 == c1.num * c.den * mu_i
                       for c1, *cs in (cartan.coeffs for cartan in x.support.values())
                       for c, mu_i in zip(cs, mu))
        return kind not in _LOWEST or all(
            c.is_zero or _in_variant(self.variant, alpha, j)
            for alpha, cartan in x.support.items() for j, c in enumerate(cartan.coeffs))

    # -- random sampling ----------------------------------------------

    def random_element(self, rng, box: int) -> WittElement:
        """Sum of one to three random pairs of the box, each times a `_random_coefficient`."""
        pairs = self._basis_pair_list(box)
        count = rng.randint(1, 3)
        chosen = rng.sample(pairs, min(count, len(pairs)))
        total = self.zero()
        for alpha, direction in chosen:
            total = total + self.pair_element(alpha, direction).scale(self._random_coefficient(rng))
        return total

    def _random_coefficient(self, rng) -> Scalar:
        """p/q for a nonzero p in -9..9 and q in 1..4, drawn in that order."""
        p = rng.choice([s for s in range(-9, 10) if s])
        return Scalar.monomial(p, rng.randint(1, 4), (0,) * self.field.arity)

    def _basis_pair_list(self, box: int) -> List[Tuple[Exponent, int]]:
        cache = getattr(self, "_pair_cache", None)
        if cache is None:
            cache = {}
            self._pair_cache = cache
        pairs = cache.get(box)
        if pairs is None:
            size = _window_size(self.variant, box)
            if size > MAX_COLUMNS:
                raise BadArity(f"the box {box} window has {size} columns, "
                               f"more than the {MAX_COLUMNS} allowed")
            pairs = list(iter_basis_pairs(self.variant, box))
            cache[box] = pairs
        return pairs

    # -- formatting -----------------------------------------------------

    def format(self, x: WittElement) -> str:
        return format_element(x, self.field)

    def __repr__(self) -> str:
        return f"WittAlgebra({self.variant!r})"


# ----------------------------------------------------------------------
# Lie algebra laws, used by the fuzz command and the randomized tests.
# Each check returns None on success or a short description of the failure.


def check_antisymmetry(x: WittElement, y: WittElement) -> Optional[str]:
    if not (bracket(x, y) + bracket(y, x)).is_zero:
        return "[x,y] + [y,x] != 0"
    return None


def check_jacobi(x: WittElement, y: WittElement, z: WittElement) -> Optional[str]:
    total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    if not total.is_zero:
        return "Jacobi identity fails"
    return None


def check_bilinearity(a: Scalar, b: Scalar, x: WittElement, y: WittElement,
                      z: WittElement) -> Optional[str]:
    lhs = bracket(x.scale(a) + y.scale(b), z)
    rhs = bracket(x, z).scale(a) + bracket(y, z).scale(b)
    if not (lhs - rhs).is_zero:
        return "[a*x + b*y, z] != a*[x,z] + b*[y,z]"
    return None


def check_closure(algebra: WittAlgebra, x: WittElement, y: WittElement) -> Optional[str]:
    if not algebra.member(bracket(x, y)):
        return "[x,y] leaves the variant"
    return None


def check_monomial_rule_agreement(x: WittElement, y: WittElement) -> Optional[str]:
    if bracket(x, y) != bracket_monomial_rule(x, y):
        return "Cartan-valued bracket disagrees with the monomial expansion"
    return None


# ----------------------------------------------------------------------
# Canonical text form.  Terms are sorted by (exponent, direction); each
# term is  [scalar*] t1^e1*...*d_i  with zero exponents dropped, its sign
# read off the scalar's text and a scalar that is a sum or a quotient of
# polynomials bracketed.  The output parses back to an equal element.


def format_t_part(alpha: Exponent) -> str:
    """The factors t1^e1*...* of t^alpha, zero exponents dropped; empty at alpha = 0."""
    return "".join([f"t{j}*" if e == 1 else f"t{j}^{e}*" for j, e in enumerate(alpha, 1) if e])


def format_element(x: WittElement, field: ScalarField) -> str:
    if x.is_zero:
        return "0"
    pieces = []
    for alpha in sorted(x.support):
        t_part = format_t_part(alpha)
        for i, coeff in enumerate(x.support[alpha].coeffs, 1):
            if coeff.is_zero:
                continue
            text = format_scalar(coeff, field.names)
            if len(coeff.num.terms) > 1 or text[0] == "(":  # a sum, or "(num)/(den)"
                text = f"({text})"
            negative = text[0] == "-"
            prefix = text[1:] if negative else text
            body = f"{t_part}d{i}" if prefix == "1" else f"{prefix}*{t_part}d{i}"
            if pieces:
                pieces.append(("- " if negative else "+ ") + body)
            else:
                pieces.append(("-" if negative else "") + body)
    return " ".join(pieces)
