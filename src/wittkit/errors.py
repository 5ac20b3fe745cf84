"""Exception types shared across the package."""


class WittkitError(Exception):
    """Base class for all package-specific errors."""


class ArityMismatch(WittkitError):
    """Scalars (or elements built from them) from different coefficient fields."""


class LengthMismatch(WittkitError):
    """Exponent / Cartan vectors of different ambient lengths."""


class DivisionByZero(WittkitError, ZeroDivisionError):
    """Division by the zero scalar."""


class DenominatorVanishes(WittkitError):
    """Numeric evaluation hit a pole of a scalar."""


class BadArity(WittkitError):
    """Constructor called with an impossible (n, m) combination."""


class BadK(WittkitError):
    """Lemma verifier called with an excluded integer parameter."""


class MissingProbe(WittkitError):
    """A probe table lacks a value required by the rigidity pipeline."""


class PairOutsideBox(WittkitError):
    """An element does not lie in a truncated space.

    It has a monomial outside the degree box or, in W_n^mu, a Cartan part
    that is not a multiple of d_mu.  Callers treat this as "not in the
    space", never as a failure.
    """


class ParseError(WittkitError):
    """Element/scalar text does not conform to the grammar."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} (at position {position})"
        if self.expected:
            detail += " expected one of: " + ", ".join(self.expected)
        super().__init__(detail)


class SelfCheckFailed(WittkitError):
    """A result failed its own exact re-check before it was returned.

    This is a defect of the program, never a property of the input, so
    it is raised rather than reported as a verdict.
    """


class ExactDivisionError(WittkitError):
    """Internal: a polynomial division that must be exact was not."""
