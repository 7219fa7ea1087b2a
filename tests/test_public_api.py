import covreduct as cr

# The public surface, listed on purpose: a name added to or removed from
# ``covreduct.__all__`` must be added to or removed from this list too.
PUBLIC = [
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


def test_public_surface_is_pinned():
    assert sorted(cr.__all__) == PUBLIC
    missing = [name for name in cr.__all__ if not hasattr(cr, name)]
    assert missing == []
