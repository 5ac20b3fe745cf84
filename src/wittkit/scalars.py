"""Exact scalars: rational functions in generic parameters mu1..mun.

Every algebra in this package is defined over the field Q(mu1, ..., mun)
of rational functions in the components of a generic vector mu, possibly
extended by further named unknowns (undetermined coefficients introduced
while verifying a lemma).  A scalar is a quotient num/den of multivariate
polynomials with integer coefficients, held in a canonical form so that
equality is structural:

  * num == 0 implies den == 1,
  * num and den are coprime over Z[mu], integer factors included,
  * den has positive leading coefficient in graded lexicographic order.

A rational a/b is thus the two ints a and b, at the boundary too: any
number with a numerator and a denominator (an int or a Fraction) is
read off those two ints, by `Scalar(num, den)`, which clears coefficient
denominators, by `from_fraction` and by the field operations.  Only
`as_fraction` and `evaluate` return a Fraction, and only they import the
`fractions` module.  The text prints num over den's integer content, as
it did when num had Fraction coefficients over a primitive den.

Genericity of mu means mu . alpha != 0 for every nonzero integer vector
alpha.  Treating the mu_i as independent indeterminates gives exactly
that: a nonzero integer linear form is a nonzero polynomial, hence
invertible here.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, Optional, Sequence, Tuple

from .errors import ArityMismatch, DenominatorVanishes, DivisionByZero, ExactDivisionError

Monomial = Tuple[int, ...]


def _grlex_key(mono: Monomial) -> Tuple[int, Monomial]:
    return (sum(mono), mono)


class MuPolynomial:
    """Sparse polynomial in `arity` commuting variables over Z.

    Terms map exponent tuples (length == arity, entries >= 0) to nonzero
    ints.  The ring operations also work on coefficients with a numerator
    and a denominator (which `Scalar(num, den)` clears); primitive parts,
    gcds and exact division need integral ones.  Instances are immutable
    by convention: the constructor takes `terms` over, dropping zeros,
    and nothing mutates it after construction.
    """

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity: int, terms: Dict[Monomial, int]):
        self.arity = arity
        self.terms = terms if all(terms.values()) else {m: c for m, c in terms.items() if c}
        self._hash: Optional[int] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MuPolynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value: int) -> "MuPolynomial":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity: int) -> "MuPolynomial":
        return cls.constant(arity, 1)

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

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        (mono, coeff), = self.terms.items()
        if any(mono):
            raise ExactDivisionError("polynomial is not constant")
        return coeff

    def leading(self) -> Tuple[Monomial, int]:
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

    def _combine(self, other: "MuPolynomial", op) -> "MuPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = op(terms.get(mono, 0), coeff)
            if acc:
                terms[mono] = acc
            elif mono in terms:
                del terms[mono]
        return MuPolynomial(self.arity, terms)

    def __add__(self, other: "MuPolynomial") -> "MuPolynomial":
        return self._combine(other, operator.add)

    def __sub__(self, other: "MuPolynomial") -> "MuPolynomial":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "MuPolynomial":
        return _poly(self.arity, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "MuPolynomial") -> "MuPolynomial":
        self._check(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        if len(self.terms) == 1:
            (ma, ca), = self.terms.items()
            if not any(ma):
                return other.scale(ca)
        terms: Dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(map(operator.add, ma, mb))
                acc = terms.get(mono, 0) + ca * cb
                if acc:
                    terms[mono] = acc
                elif mono in terms:
                    del terms[mono]
        return MuPolynomial(self.arity, terms)

    def scale(self, value) -> "MuPolynomial":
        if value == 1:
            return self
        terms = {m: c * value for m, c in self.terms.items()}
        return _poly(self.arity, terms) if value else MuPolynomial(self.arity, terms)

    def shift(self, mono: Monomial) -> "MuPolynomial":
        """Multiply by the monomial `mono`."""
        return _poly(
            self.arity,
            {tuple(a + b for a, b in zip(m, mono)): c for m, c in self.terms.items()},
        )

    # -- content, gcd, division ---------------------------------------

    def _quo(self, d: int) -> "MuPolynomial":
        """Quotient by an integer that divides every coefficient."""
        if d == 1:
            return self
        return _poly(self.arity, {m: c // d for m, c in self.terms.items()})

    def primitive(self) -> "MuPolynomial":
        """Divide out the integer content and force a positive leading coefficient."""
        if not self.terms:
            return self
        c = math.gcd(*[c.numerator for c in self.terms.values()])
        return self._quo(-c if self.leading()[1] < 0 else c)

    def exact_div(self, divisor: "MuPolynomial") -> "MuPolynomial":
        """Quotient self / divisor, which must be exact over Z."""
        self._check(divisor)
        if divisor.is_zero:
            raise ExactDivisionError("division by the zero polynomial")
        if len(divisor.terms) == 1:
            # a monomial divides term by term
            (dm, dc), = divisor.terms.items()
            if any(c % dc or any(map(operator.lt, m, dm)) for m, c in self.terms.items()):
                raise ExactDivisionError("inexact polynomial division")
            if not any(dm):
                return self._quo(dc)
            return MuPolynomial(self.arity, {tuple(map(operator.sub, m, dm)): c // dc
                                             for m, c in self.terms.items()})
        dm, dc = divisor.leading()
        quotient: Dict[Monomial, int] = {}
        rem = self
        while rem.terms:
            rm, rc = rem.leading()
            mono = tuple(a - b for a, b in zip(rm, dm))
            coeff, r = divmod(rc, dc)
            if r or any(e < 0 for e in mono):
                raise ExactDivisionError("inexact polynomial division")
            quotient[mono] = coeff
            rem = rem - divisor.shift(mono).scale(coeff)
        return MuPolynomial(self.arity, quotient)

    def _univariate_in(self, var: int) -> Dict[int, "MuPolynomial"]:
        """View as a polynomial in variable `var` with polynomial coefficients."""
        coeffs: Dict[int, Dict[Monomial, int]] = {}
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
        total = 0
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
        return _poly(arity, {m + pad: c for m, c in self.terms.items()})

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
    """Gcd of integral polynomials up to an integer: content 1, positive leading coefficient.

    Their gcd over Z[mu] is this times the gcd of their contents.  Brown's
    primitive pseudo-remainder sequence in the top variable, whose
    coefficients, polynomials in the lower variables, recurse.
    """
    if a.arity != b.arity:
        raise ArityMismatch(f"polynomial arities {a.arity} != {b.arity}")
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    if a.is_constant() or b.is_constant():
        return MuPolynomial.one(a.arity)
    if len(a.terms) == 1 or len(b.terms) == 1:
        # a monomial's divisors are monomials: the least power of each mu in a and b
        return MuPolynomial(a.arity, {tuple(map(min, zip(*a.terms, *b.terms))): 1})
    for lin, other in ((a, b), (b, a)):
        if max(map(sum, lin.terms)) == 1:
            # a linear form's primitive part is irreducible: one trial division decides
            lin = lin.primitive()
            try:
                other.exact_div(lin)
            except ExactDivisionError:
                return MuPolynomial.one(a.arity)
            return lin
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
            rem = rem.exact_div(rem._poly_content_in(var)).primitive()
        r0, r1 = r1, rem
    if r0.degree_in(var) == 0:
        return cont.primitive()
    return (cont * r0).primitive()


_one_poly = functools.lru_cache(maxsize=None)(MuPolynomial.one)


def _cancel(p: MuPolynomial, q: MuPolynomial) -> Tuple[MuPolynomial, MuPolynomial]:
    """(p/g, q/g) for g = gcd(p, q) over Z[mu] with positive leading coefficient.

    For p == 0 that is (0, 1) up to q's sign.
    """
    if not q.is_constant():
        g = poly_gcd(p, q)
        if not g.is_constant():
            p, q = p.exact_div(g), q.exact_div(g)
    c = math.gcd(*q.terms.values())
    if c != 1:
        c = math.gcd(c, *p.terms.values())
        p, q = p._quo(c), q._quo(c)
    return p, q


class Scalar:
    """Canonical quotient num/den over Z[mu] (see the module docstring).

    Products cancel across, gcd(a.num, b.den) and gcd(b.num, a.den), before
    they multiply, so they come out canonical (Henrici; Knuth, TAOCP 4.5.1).
    Sums take one reduction, an integer gcd when den is constant.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MuPolynomial, den: Optional[MuPolynomial] = None):
        """num/den for polynomials with rational coefficients, cleared and reduced."""
        if den is None:
            den = _one_poly(num.arity)
        if num.arity != den.arity:
            raise ArityMismatch(f"num/den arities {num.arity} != {den.arity}")
        if den.is_zero:
            raise DivisionByZero("scalar with zero denominator")
        lcm = math.lcm(*[c.denominator for p in (num, den) for c in p.terms.values()])
        num, den = (MuPolynomial(p.arity, {m: c.numerator * (lcm // c.denominator)
                                           for m, c in p.terms.items()}) for p in (num, den))
        num, den = _cancel(num, den)
        if den.leading()[1] < 0:
            num, den = -num, -den
        self.num, self.den, self._hash = num, den, None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, arity: int, value) -> "Scalar":
        """The constant value, an int or a Fraction."""
        num, den = MuPolynomial(arity, {(0,) * arity: value.numerator}), value.denominator
        return _make(num, _one_poly(arity) if den == 1 else MuPolynomial.constant(arity, den))

    @classmethod
    def monomial(cls, num: int, den: int, exponents: Sequence[int]) -> "Scalar":
        """num/den * mu^exponents for ints num, den != 0 and a Laurent exponent vector.

        Built with no polynomial gcd: for g = gcd(num, den) with den's sign,
        (num/g) mu^pos over (den/g) mu^neg is canonical, since the integers
        are coprime, mu^pos and mu^neg have disjoint supports, and den/g > 0.
        """
        arity = len(exponents)
        if not num:
            return cls.zero(arity)
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        if den == g and min(exponents, default=0) >= 0:
            return _make(_poly(arity, {tuple(exponents): num // g}), _one_poly(arity))
        pos = tuple([e if e > 0 else 0 for e in exponents])
        neg = tuple([-e if e < 0 else 0 for e in exponents])
        return _make(_poly(arity, {pos: num // g}), _poly(arity, {neg: den // g}))

    # one shared 0 and 1 per arity, as `_one_poly` is: Scalars are immutable
    @classmethod
    @functools.lru_cache(maxsize=None)
    def zero(cls, arity: int) -> "Scalar":
        return _make(MuPolynomial.zero(arity), _one_poly(arity))

    @classmethod
    @functools.lru_cache(maxsize=None)
    def one(cls, arity: int) -> "Scalar":
        return _make(_one_poly(arity), _one_poly(arity))

    # -- predicates -----------------------------------------------------

    @property
    def arity(self) -> int:
        return self.num.arity

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_one(self) -> bool:
        # coprime num == den can only be 1/1
        return self.num == self.den

    def as_fraction(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.num.constant_value(), self.den.constant_value())

    # -- field operations ----------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.num.arity != self.num.arity:
                raise ArityMismatch(f"scalar arities {self.arity} != {other.arity}")
            return other
        if hasattr(other, "denominator"):  # an int or a Fraction
            return Scalar.from_fraction(self.arity, other)
        return NotImplemented

    def _combine(self, other, op) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            num, den = op(self.num, other.num), self.den
        else:
            num, den = op(self.num * other.den, other.num * self.den), self.den * other.den
        # one reduction: an integer gcd when den is constant
        return _make(*_cancel(num, den))

    def __add__(self, other) -> "Scalar":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        return _make(-self.num, self.den)

    def __mul__(self, other) -> "Scalar":
        if type(other) is int:
            # num and den are coprime, so only other and den's content can cancel
            if other == 1:
                return self
            if not other:
                return Scalar.zero(self.arity)
            g = math.gcd(other, *self.den.terms.values())
            return _make(self.num.scale(other // g), self.den._quo(g))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cancelling across first leaves a product already in lowest terms
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return _make(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero("inverting the zero scalar")
        if self.num.leading()[1] < 0:
            return _make(-self.den, -self.num)
        return _make(self.den, self.num)

    def evaluate(self, values: Sequence) -> Fraction:
        from fractions import Fraction
        den_value = self.den.evaluate(values)
        if not den_value:
            raise DenominatorVanishes("denominator vanishes at the given point")
        return Fraction(self.num.evaluate(values), den_value)

    def lift(self, arity: int) -> "Scalar":
        if arity == self.arity:
            return self
        return _make(self.num.lift(arity), self.den.lift(arity))

    # -- object protocol ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            if not hasattr(other, "denominator"):  # not an int or a Fraction
                return NotImplemented
            other = Scalar.from_fraction(self.arity, other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Scalar({self.num!r}, {self.den!r})"


def _poly(arity: int, terms: Dict[Monomial, int]) -> MuPolynomial:
    """The polynomial of terms whose coefficients are all nonzero, taken over as they are."""
    poly = object.__new__(MuPolynomial)
    poly.arity, poly.terms, poly._hash = arity, terms, None
    return poly


def _make(num: MuPolynomial, den: MuPolynomial) -> Scalar:
    """The Scalar num/den, which must already be in canonical form."""
    scalar = object.__new__(Scalar)
    scalar.num, scalar.den, scalar._hash = num, den, None
    return scalar


@functools.lru_cache(maxsize=None)
def _generator(arity: int, index: int) -> Scalar:
    """The variable at 0-based `index`, one shared Scalar per arity, as `Scalar.one` is."""
    return Scalar.monomial(1, 1, [int(i == index) for i in range(arity)])


def format_polynomial(poly: MuPolynomial, names: Sequence[str]) -> str:
    return _format_over(poly, 1, names)


def _format_over(poly: MuPolynomial, over: int, names: Sequence[str]) -> str:
    """poly / over for an int over > 0, each coefficient "p/q" in lowest terms or "p",
    read off the ints; at over == 1 a coefficient prints with str()."""
    if poly.is_zero:
        return "0"
    terms = poly.terms
    pieces = []
    for mono in sorted(terms, key=_grlex_key, reverse=True) if len(terms) > 1 else terms:
        coeff = terms[mono]
        mag = abs(coeff)
        if over == 1:
            mag_text = str(mag)
        else:
            g = math.gcd(mag, over)
            mag_text = str(mag // g) if g == over else f"{mag // g}/{over // g}"
        mono_str = "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e])
        if not mono_str:
            body = mag_text
        elif mag_text == "1":
            body = mono_str
        else:
            body = f"{mag_text}*{mono_str}"
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def format_scalar(scalar: Scalar, names: Sequence[str]) -> str:
    """num over den's integer content, then "(num)/(den)" unless den is constant."""
    num, den = scalar.num, scalar.den
    c = math.gcd(*den.terms.values())
    if den.is_constant():
        return _format_over(num, c, names)
    return f"({_format_over(num, c, names)})/({_format_over(den, c, names)})"


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

    def from_fraction(self, value) -> Scalar:
        """The constant value, an int or a Fraction."""
        return Scalar.from_fraction(self.arity, value)

    def mu(self, i: int) -> Scalar:
        """The generator mu_i, 1-based."""
        if not 1 <= i <= self.n_mu:
            raise ArityMismatch(f"mu index {i} outside 1..{self.n_mu}")
        return _generator(self.arity, i - 1)

    def var(self, name: str) -> Scalar:
        try:
            index = self.names.index(name)
        except ValueError:
            raise ArityMismatch(f"unknown variable {name!r}") from None
        return _generator(self.arity, index)

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

