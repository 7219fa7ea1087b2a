"""Attribute reduction of covering decision systems via related families.

Build a system from named coverings and a decision partition, compute every
attribute reduct through the related-family route (admissible blocks ->
related sets -> monotone CNF -> minimal DNF), and maintain the reduct set
incrementally as coverings are added or deleted -- for consistent and
inconsistent systems alike.
"""

from .approximation import (
    Consistency,
    MinimalDescriptionMap,
    RegionReport,
    classify_consistency,
    minimal_descriptions,
    positive_region,
    regions,
    third_lower,
    third_upper,
    union_reducible_blocks,
)
from .boolformula import (
    MonotoneFormula,
    absorb,
    mask_to_names,
    minimal_dnf,
)
from .engine import (
    ReductSet,
    ReductionCache,
    add_covering,
    batch_reducts,
    delete_covering,
    oracle_reducts,
)
from .errors import (
    CovreductError,
    EngineError,
    ParseError,
    StaleCache,
    TermBlowup,
    ValidationError,
)
from .io import (
    Categorical,
    CoverizationSpec,
    Tolerance,
    coverize,
    load_cache,
    load_system,
    serialize_cache,
    serialize_system,
)
from .model import (
    Covering,
    CoveringDecisionSystem,
    DecisionPartition,
    build_system,
    fingerprint,
    make_covering,
    union_of_coverings,
)
from .related import (
    RelatedFamily,
    admissible_blocks,
    related_function,
    related_sets,
)

__version__ = "0.1.0"

__all__ = [
    "Categorical",
    "Consistency",
    "Covering",
    "CoveringDecisionSystem",
    "CoverizationSpec",
    "CovreductError",
    "DecisionPartition",
    "EngineError",
    "MinimalDescriptionMap",
    "MonotoneFormula",
    "ParseError",
    "ReductSet",
    "ReductionCache",
    "RegionReport",
    "RelatedFamily",
    "StaleCache",
    "TermBlowup",
    "Tolerance",
    "ValidationError",
    "absorb",
    "add_covering",
    "admissible_blocks",
    "batch_reducts",
    "build_system",
    "classify_consistency",
    "coverize",
    "delete_covering",
    "fingerprint",
    "load_cache",
    "load_system",
    "make_covering",
    "mask_to_names",
    "minimal_descriptions",
    "minimal_dnf",
    "oracle_reducts",
    "positive_region",
    "regions",
    "related_function",
    "related_sets",
    "serialize_cache",
    "serialize_system",
    "third_lower",
    "third_upper",
    "union_of_coverings",
    "union_reducible_blocks",
]
