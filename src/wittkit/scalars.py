"""Exact scalars: rational functions in generic parameters mu1..mun.

Every algebra in this package is defined over the field Q(mu1, ..., mun)
of rational functions in the components of a generic vector mu, possibly
extended by further named unknowns (undetermined coefficients introduced
while verifying a lemma).  A scalar is a quotient num/den of multivariate
polynomials with Fraction coefficients, held in a canonical form so that
equality is structural:

  * num == 0 implies den == 1,
  * gcd(num, den) == 1,
  * den is primitive (integer content 1) with positive leading
    coefficient in graded lexicographic order.

Genericity of mu means mu . alpha != 0 for every nonzero integer vector
alpha.  Treating the mu_i as independent indeterminates gives exactly
that: a nonzero integer linear form is a nonzero polynomial, hence
invertible here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import ArityMismatch, DenominatorVanishes, DivisionByZero, ExactDivisionError

Monomial = Tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _grlex_key(mono: Monomial) -> Tuple[int, Monomial]:
    return (sum(mono), mono)


def _frac_gcd(values: Iterable[Fraction]) -> Fraction:
    """Positive gcd of a nonempty set of nonzero Fractions.

    gcd(a/b, c/d) = gcd(a, c) / lcm(b, d); this is the unique positive
    rational q such that every value is an integer multiple of q and the
    multiples are coprime.
    """
    num_gcd = 0
    den_lcm = 1
    for v in values:
        num_gcd = math.gcd(num_gcd, abs(v.numerator))
        den_lcm = den_lcm * v.denominator // math.gcd(den_lcm, v.denominator)
    return Fraction(num_gcd, den_lcm)


class MuPolynomial:
    """Sparse polynomial in `arity` commuting variables over Q.

    Terms map exponent tuples (length == arity, entries >= 0) to nonzero
    Fractions.  Instances are immutable by convention: nothing mutates
    `terms` after construction.
    """

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity: int, terms: Dict[Monomial, Fraction]):
        self.arity = arity
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash: Optional[int] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MuPolynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value: Fraction) -> "MuPolynomial":
        value = Fraction(value)
        if not value:
            return cls(arity, {})
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity: int) -> "MuPolynomial":
        return cls.constant(arity, _ONE)

    @classmethod
    def variable(cls, arity: int, index: int) -> "MuPolynomial":
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} outside arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {mono: _ONE})

    # -- predicates and views -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        if len(self.terms) > 1:
            return False
        (mono,) = self.terms
        return not any(mono)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        (mono, coeff), = self.terms.items()
        if any(mono):
            raise ExactDivisionError("polynomial is not constant")
        return coeff

    def leading(self) -> Tuple[Monomial, Fraction]:
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(m[var] for m in self.terms)

    def max_variable(self) -> int:
        """Largest variable index actually occurring, or -1."""
        best = -1
        for mono in self.terms:
            for i in range(self.arity - 1, best, -1):
                if mono[i]:
                    best = i
                    break
        return best

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MuPolynomial") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"polynomial arities {self.arity} != {other.arity}")

    def __add__(self, other: "MuPolynomial") -> "MuPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, _ZERO) + coeff
            if acc:
                terms[mono] = acc
            elif mono in terms:
                del terms[mono]
        return MuPolynomial(self.arity, terms)

    def __sub__(self, other: "MuPolynomial") -> "MuPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, _ZERO) - coeff
            if acc:
                terms[mono] = acc
            elif mono in terms:
                del terms[mono]
        return MuPolynomial(self.arity, terms)

    def __neg__(self) -> "MuPolynomial":
        return MuPolynomial(self.arity, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "MuPolynomial") -> "MuPolynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return MuPolynomial(self.arity, {})
        terms: Dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(a + b for a, b in zip(ma, mb))
                acc = terms.get(mono, _ZERO) + ca * cb
                if acc:
                    terms[mono] = acc
                elif mono in terms:
                    del terms[mono]
        return MuPolynomial(self.arity, terms)

    def scale(self, value: Fraction) -> "MuPolynomial":
        if not value:
            return MuPolynomial(self.arity, {})
        return MuPolynomial(self.arity, {m: c * value for m, c in self.terms.items()})

    def shift(self, mono: Monomial) -> "MuPolynomial":
        """Multiply by the monomial `mono`."""
        return MuPolynomial(
            self.arity,
            {tuple(a + b for a, b in zip(m, mono)): c for m, c in self.terms.items()},
        )

    # -- content, gcd, division ---------------------------------------

    def content(self) -> Fraction:
        """Positive rational content; 0 for the zero polynomial."""
        if not self.terms:
            return _ZERO
        return _frac_gcd(self.terms.values())

    def primitive(self) -> "MuPolynomial":
        """Divide out the content and force a positive leading coefficient."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading()[1] < 0:
            c = -c
        if c == 1:
            return self
        return self.scale(1 / c)

    def exact_div(self, divisor: "MuPolynomial") -> "MuPolynomial":
        """Quotient self / divisor, which must be exact."""
        self._check(divisor)
        if divisor.is_zero:
            raise ExactDivisionError("division by the zero polynomial")
        if divisor.is_constant():
            return self.scale(1 / divisor.constant_value())
        quotient: Dict[Monomial, Fraction] = {}
        rem = self
        dm, dc = divisor.leading()
        while rem.terms:
            rm, rc = rem.leading()
            mono = tuple(a - b for a, b in zip(rm, dm))
            if any(e < 0 for e in mono):
                raise ExactDivisionError("inexact polynomial division")
            coeff = rc / dc
            quotient[mono] = coeff
            rem = rem - divisor.shift(mono).scale(coeff)
        return MuPolynomial(self.arity, quotient)

    def _univariate_in(self, var: int) -> Dict[int, "MuPolynomial"]:
        """View as a polynomial in variable `var` with polynomial coefficients."""
        coeffs: Dict[int, Dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            d = mono[var]
            rest = mono[:var] + (0,) + mono[var + 1 :]
            coeffs.setdefault(d, {})[rest] = coeff
        return {d: MuPolynomial(self.arity, t) for d, t in coeffs.items()}

    def _poly_content_in(self, var: int) -> "MuPolynomial":
        parts = list(self._univariate_in(var).values())
        acc = parts[0]
        for p in parts[1:]:
            acc = poly_gcd(acc, p)
            if acc.is_constant():
                break
        return acc

    def evaluate(self, values: Sequence):
        """Evaluate at a point of rationals (or of any ring the coefficients act on)."""
        if len(values) != self.arity:
            raise ArityMismatch(f"expected {self.arity} values, got {len(values)}")
        total = _ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, mono):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def lift(self, arity: int) -> "MuPolynomial":
        """Reinterpret in a larger variable list; new variables come last."""
        if arity < self.arity:
            raise ArityMismatch(f"cannot lift arity {self.arity} down to {arity}")
        if arity == self.arity:
            return self
        pad = (0,) * (arity - self.arity)
        return MuPolynomial(arity, {m + pad: c for m, c in self.terms.items()})

    def restrict(self, arity: int) -> "MuPolynomial":
        """Drop trailing variables, which must not occur."""
        if arity > self.arity:
            raise ArityMismatch(f"cannot restrict arity {self.arity} up to {arity}")
        terms = {}
        for mono, coeff in self.terms.items():
            if any(mono[arity:]):
                raise ArityMismatch("polynomial involves a dropped variable")
            terms[mono[:arity]] = coeff
        return MuPolynomial(arity, terms)

    # -- object protocol ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MuPolynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"MuPolynomial({self.arity}, {self.terms!r})"


def _pseudo_rem(a: MuPolynomial, b: MuPolynomial, var: int) -> MuPolynomial:
    """Pseudo-remainder of a by b in variable `var`: lc(b)^(da-db+1) * a mod b."""
    da = a.degree_in(var)
    db = b.degree_in(var)
    b_uni = b._univariate_in(var)
    lc_b = b_uni[db]
    e = da - db + 1
    rem = a
    while not rem.is_zero:
        dr = rem.degree_in(var)
        if dr < db:
            break
        r_uni = rem._univariate_in(var)
        lc_r = r_uni[dr]
        shift = tuple(dr - db if i == var else 0 for i in range(a.arity))
        rem = rem * lc_b - b * lc_r.shift(shift)
        e -= 1
    for _ in range(e):
        rem = rem * lc_b
    return rem


def poly_gcd(a: MuPolynomial, b: MuPolynomial) -> MuPolynomial:
    """Gcd over Q[mu...], primitive with positive leading coefficient."""
    if a.arity != b.arity:
        raise ArityMismatch(f"polynomial arities {a.arity} != {b.arity}")
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    if a.is_constant() or b.is_constant():
        return MuPolynomial.one(a.arity)
    var = max(a.max_variable(), b.max_variable())
    if a.degree_in(var) == 0 or b.degree_in(var) == 0:
        # One side does not involve the top variable: the gcd cannot either,
        # so it divides that side's coefficients and the other's content.
        flat, tall = (a, b) if a.degree_in(var) == 0 else (b, a)
        return poly_gcd(flat, tall._poly_content_in(var))
    cont = poly_gcd(a._poly_content_in(var), b._poly_content_in(var))
    r0 = a.exact_div(a._poly_content_in(var))
    r1 = b.exact_div(b._poly_content_in(var))
    if r0.degree_in(var) < r1.degree_in(var):
        r0, r1 = r1, r0
    while not r1.is_zero:
        rem = _pseudo_rem(r0, r1, var)
        if not rem.is_zero:
            rem = rem.exact_div(rem._poly_content_in(var))
        r0, r1 = r1, rem
    if r0.degree_in(var) == 0:
        return cont.primitive()
    return (cont * r0).primitive()


_ONE_POLY_CACHE: Dict[int, MuPolynomial] = {}


def _one_poly(arity: int) -> MuPolynomial:
    p = _ONE_POLY_CACHE.get(arity)
    if p is None:
        p = MuPolynomial.one(arity)
        _ONE_POLY_CACHE[arity] = p
    return p


class Scalar:
    """Canonical quotient of two MuPolynomials of the same arity."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MuPolynomial, den: Optional[MuPolynomial] = None):
        if den is None:
            den = _one_poly(num.arity)
        if num.arity != den.arity:
            raise ArityMismatch(f"num/den arities {num.arity} != {den.arity}")
        if den.is_zero:
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero:
            den = _one_poly(num.arity)
        elif den.is_constant():
            c = den.constant_value()
            if c != 1:
                num = num.scale(1 / c)
            den = _one_poly(num.arity)
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
            c = den.content()
            if den.leading()[1] < 0:
                c = -c
            if c != 1:
                num = num.scale(1 / c)
                den = den.scale(1 / c)
        self.num = num
        self.den = den
        self._hash: Optional[int] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, arity: int, value) -> "Scalar":
        return cls(MuPolynomial.constant(arity, Fraction(value)))

    @classmethod
    def zero(cls, arity: int) -> "Scalar":
        return cls(MuPolynomial.zero(arity))

    @classmethod
    def one(cls, arity: int) -> "Scalar":
        return cls(_one_poly(arity))

    # -- predicates -----------------------------------------------------

    @property
    def arity(self) -> int:
        return self.num.arity

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_one(self) -> bool:
        return self.den.is_constant() and self.num.is_constant() and self.num.constant_value() == 1

    def is_rational(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_fraction(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- field operations ----------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.arity != self.arity:
                raise ArityMismatch(f"scalar arities {self.arity} != {other.arity}")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_fraction(self.arity, other)
        return NotImplemented

    def __add__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(self.num - other.num, self.den)
        return Scalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        result = Scalar.__new__(Scalar)
        result.num = -self.num
        result.den = self.den
        result._hash = None
        return result

    def __mul__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("scalar division by zero")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero("inverting the zero scalar")
        return Scalar(self.den, self.num)

    def evaluate(self, values: Sequence):
        den_value = self.den.evaluate(values)
        if not den_value:
            raise DenominatorVanishes("denominator vanishes at the given point")
        return self.num.evaluate(values) / den_value

    def lift(self, arity: int) -> "Scalar":
        if arity == self.arity:
            return self
        result = Scalar.__new__(Scalar)
        result.num = self.num.lift(arity)
        result.den = self.den.lift(arity)
        result._hash = None
        return result

    def restrict(self, arity: int) -> "Scalar":
        if arity == self.arity:
            return self
        result = Scalar.__new__(Scalar)
        result.num = self.num.restrict(arity)
        result.den = self.den.restrict(arity)
        result._hash = None
        return result

    # -- object protocol ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(self.arity, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Scalar({self.num!r}, {self.den!r})"


def _format_monomial(mono: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(poly: MuPolynomial, names: Sequence[str]) -> str:
    if poly.is_zero:
        return "0"
    pieces = []
    for mono in sorted(poly.terms, key=_grlex_key, reverse=True):
        coeff = poly.terms[mono]
        mono_str = _format_monomial(mono, names)
        mag = abs(coeff)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def format_scalar(scalar: Scalar, names: Sequence[str]) -> str:
    num_str = format_polynomial(scalar.num, names)
    if scalar.den.is_constant():
        return num_str
    den_str = format_polynomial(scalar.den, names)
    return f"({num_str})/({den_str})"


class ScalarField:
    """Q(mu1..mun), optionally extended by named auxiliary unknowns.

    The polynomial arity is n_mu + len(extra_names); the mu variables
    occupy the first n_mu slots and auxiliaries come after, so scalars of
    a base field lift into an extension by zero-padding exponents.
    """

    __slots__ = ("n_mu", "extra_names", "arity", "names")

    def __init__(self, n_mu: int, extra_names: Sequence[str] = ()):
        if n_mu < 0:
            raise ArityMismatch("negative number of mu parameters")
        self.n_mu = n_mu
        self.extra_names = tuple(extra_names)
        if len(set(self.extra_names)) != len(self.extra_names):
            raise ArityMismatch("duplicate auxiliary names")
        self.arity = n_mu + len(self.extra_names)
        self.names = tuple(f"mu{i}" for i in range(1, n_mu + 1)) + self.extra_names

    def extend(self, *extra_names: str) -> "ScalarField":
        return ScalarField(self.n_mu, self.extra_names + tuple(extra_names))

    def zero(self) -> Scalar:
        return Scalar.zero(self.arity)

    def one(self) -> Scalar:
        return Scalar.one(self.arity)

    def from_int(self, value: int) -> Scalar:
        return Scalar.from_fraction(self.arity, value)

    def from_fraction(self, value) -> Scalar:
        return Scalar.from_fraction(self.arity, Fraction(value))

    def mu(self, i: int) -> Scalar:
        """The generator mu_i, 1-based."""
        if not 1 <= i <= self.n_mu:
            raise ArityMismatch(f"mu index {i} outside 1..{self.n_mu}")
        return Scalar(MuPolynomial.variable(self.arity, i - 1))

    def var(self, name: str) -> Scalar:
        try:
            index = self.names.index(name)
        except ValueError:
            raise ArityMismatch(f"unknown variable {name!r}") from None
        return Scalar(MuPolynomial.variable(self.arity, index))

    def lift(self, scalar: Scalar) -> Scalar:
        return scalar.lift(self.arity)

    def format(self, scalar: Scalar) -> str:
        if scalar.arity != self.arity:
            raise ArityMismatch(f"scalar arity {scalar.arity} != field arity {self.arity}")
        return format_scalar(scalar, self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.n_mu == other.n_mu and self.extra_names == other.extra_names

    def __hash__(self) -> int:
        return hash((self.n_mu, self.extra_names))

    def __repr__(self) -> str:
        return f"ScalarField({self.n_mu}, {self.extra_names!r})"

