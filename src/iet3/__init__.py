"""Exact three-interval exchange words and their audits.

The package builds symbolic codings of three-interval exchange maps over
real quadratic fields, analyses the resulting infinite words (complexity,
balance, return words), relates them to circle rotations by induction,
and audits substitution invariance against the arithmetic conditions it
forces on the parameters.  All dynamical decisions are exact: floats
appear in reports, for human convenience, and as filters in the array
kernels, which act on a float only where a rigorous error bound makes its
answer certain and leave every other element to exact integer arithmetic.
"""

from __future__ import annotations

from .qfield import (
    ExpressionSyntaxError,
    FieldMismatchError,
    QuadraticNumber,
    as_quadratic,
    parse_quadratic,
    sqrt_int,
)
from .dynamics import (
    IetParameters,
    InducedMap,
    Interval,
    Rotation,
    ThreeIet,
    first_return,
    idoc,
    in_z_epsilon,
    make_3iet,
)
from .words import (
    BalanceReport,
    ComplexityProfile,
    Word,
    balance,
    complexity,
    height_f,
    height_g,
)
from .morphisms import (
    SIGMA,
    SIGMA_PRIME,
    IncidenceMatrix,
    Morphism,
    SpectralClass,
    spectral_class,
)
from .audit import (
    AuditReport,
    CertificateReport,
    FactsReport,
    RecoveredParameters,
    RecoveryError,
    SearchReport,
    SturmVerdict,
    facts_check,
    is_sturm,
    recover_parameters,
    search_substitutions,
    substitution_audit,
    three_iet_certificate,
)
from .stepline import stepped_line_svg, stepped_vertices

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BalanceReport",
    "CertificateReport",
    "ComplexityProfile",
    "ExpressionSyntaxError",
    "FactsReport",
    "FieldMismatchError",
    "IetParameters",
    "IncidenceMatrix",
    "InducedMap",
    "Interval",
    "Morphism",
    "QuadraticNumber",
    "RecoveredParameters",
    "RecoveryError",
    "Rotation",
    "SIGMA",
    "SIGMA_PRIME",
    "SearchReport",
    "SpectralClass",
    "SturmVerdict",
    "ThreeIet",
    "Word",
    "as_quadratic",
    "balance",
    "complexity",
    "facts_check",
    "first_return",
    "height_f",
    "height_g",
    "idoc",
    "in_z_epsilon",
    "is_sturm",
    "make_3iet",
    "parse_quadratic",
    "recover_parameters",
    "search_substitutions",
    "spectral_class",
    "sqrt_int",
    "stepped_line_svg",
    "stepped_vertices",
    "substitution_audit",
    "three_iet_certificate",
    "__version__",
]
