"""Exact classification of even quartic trinomials x^4 + b*x^2 + d.

The package decides, with integer arithmetic only: irreducibility over Q,
whether the Galois group is cyclic of order 4, the polynomial discriminant
and its factorization, monogenicity of the ring Z[x]/(f) in its number
field, and field signatures.  On top of the per-trinomial machinery sit
parallel box searches, a verification that exactly three monogenic cyclic
quartic trinomials exist in any box containing them, and a sampling harness
that cross-checks the fast index engine against an independent route.
"""

from .dedekind import dedekind_divides_index
from .fields import FieldPartition, distinct_fields
from .index_criterion import BranchIntermediates, PrimeVerdict, prime_index_test
from .intarith import (
    Factorization,
    FactorizationIncomplete,
    factor,
    is_prime,
    is_square,
    is_squarefree,
    isqrt,
    primes_upto,
    radical,
    valuation,
)
from .monogenic import (
    DegenerateTrinomialError,
    MonogenicityReport,
    StructuralConstraints,
    factor_discriminant,
    is_monogenic,
    structural_constraints,
)
from .scan import active_backend, scan_c4_candidates
from .search import (
    CSV_HEADER,
    Disagreement,
    OracleCheckResult,
    SearchError,
    TheoremVerification,
    iter_box,
    oracle_check,
    search_lines,
    verify_theorem,
)
from .trinomial import (
    Classification,
    Signature,
    Trinomial,
    classify,
    discriminant,
    is_c4,
    is_irreducible,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "BranchIntermediates",
    "CSV_HEADER",
    "Classification",
    "DegenerateTrinomialError",
    "Disagreement",
    "Factorization",
    "FactorizationIncomplete",
    "FieldPartition",
    "MonogenicityReport",
    "OracleCheckResult",
    "PrimeVerdict",
    "SearchError",
    "Signature",
    "StructuralConstraints",
    "TheoremVerification",
    "Trinomial",
    "active_backend",
    "classify",
    "dedekind_divides_index",
    "discriminant",
    "distinct_fields",
    "factor",
    "factor_discriminant",
    "is_c4",
    "is_irreducible",
    "is_monogenic",
    "is_prime",
    "is_square",
    "is_squarefree",
    "isqrt",
    "iter_box",
    "oracle_check",
    "prime_index_test",
    "primes_upto",
    "radical",
    "scan_c4_candidates",
    "search_lines",
    "signature",
    "structural_constraints",
    "valuation",
    "verify_theorem",
]
