"""Exact computations in Witt algebras over the symbolic mu field.

Elements are finite sums of t^alpha d over ambient rank m, with scalars
in Q(mu1..mun) extended by auxiliary unknowns when a verifier needs
symbolic free coefficients.  Everything is exact: no floats, no
tolerances.  The centralizer and rigidity modules turn the structure
statements about power-sum probes and 2-local derivations into finite
rank computations on degree-truncated windows.
"""

from .errors import (
    ArityMismatch,
    BadArity,
    BadK,
    DenominatorVanishes,
    DivisionByZero,
    ExactDivisionError,
    LengthMismatch,
    MissingProbe,
    PairOutsideBox,
    ParseError,
    SelfCheckFailed,
    WittkitError,
)
from .scalars import (
    MuPolynomial,
    Scalar,
    ScalarField,
    format_polynomial,
    poly_gcd,
)
from .witt import (
    MU_DIRECTION,
    AlgebraVariant,
    CartanElement,
    WittAlgebra,
    WittElement,
    bracket,
    bracket_monomial_rule,
    check_antisymmetry,
    check_bilinearity,
    check_closure,
    check_jacobi,
    proportional,
)
from .linalg import (
    ScalarMatrix,
    kernel,
    rank,
    modular_rank,
    solve,
    specialization_points,
)
from .centralizer import (
    TruncatedSpace,
    ad_matrix,
    centralizer_basis,
    lemma_4_1_families,
    span_rank,
    verify_lemma_2_2,
    verify_lemma_4_1,
)
from .rigidity import (
    InnerSolveResult,
    PointwiseMap,
    RigidityReport,
    realize_in_span,
    rigidity_pipeline,
    solve_inner,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_3_4,
    verify_lemma_4_3,
    verify_lemma_4_4,
)
from .parsing import parse_element, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "MU_DIRECTION",
    "AlgebraVariant",
    "ArityMismatch",
    "BadArity",
    "BadK",
    "CartanElement",
    "DenominatorVanishes",
    "DivisionByZero",
    "ExactDivisionError",
    "InnerSolveResult",
    "LengthMismatch",
    "MissingProbe",
    "MuPolynomial",
    "PairOutsideBox",
    "ParseError",
    "PointwiseMap",
    "RigidityReport",
    "Scalar",
    "ScalarField",
    "ScalarMatrix",
    "SelfCheckFailed",
    "TruncatedSpace",
    "WittAlgebra",
    "WittElement",
    "WittkitError",
    "ad_matrix",
    "bracket",
    "bracket_monomial_rule",
    "centralizer_basis",
    "check_antisymmetry",
    "check_bilinearity",
    "check_closure",
    "check_jacobi",
    "format_polynomial",
    "kernel",
    "modular_rank",
    "lemma_4_1_families",
    "parse_element",
    "parse_scalar",
    "poly_gcd",
    "proportional",
    "rank",
    "realize_in_span",
    "rigidity_pipeline",
    "solve",
    "solve_inner",
    "span_rank",
    "specialization_points",
    "verify_lemma_2_2",
    "verify_lemma_3_2",
    "verify_lemma_3_3",
    "verify_lemma_3_4",
    "verify_lemma_4_1",
    "verify_lemma_4_3",
    "verify_lemma_4_4",
]
