"""Reduct computation: batch pipeline, incremental updates, brute oracle.

Batch: positive region -> related sets -> related function -> minimal DNF;
the DNF terms are exactly the attribute reducts.

Incremental updates reuse a ReductionCache built for the pre-update system:

* add, either way: ``add_delta`` validates the new covering once, through
  ``with_covering``, and reads its admissible union off the grown system.
  ``boolformula._widen`` pads the related rows to the new width (a word
  wider past 64, 128, ... coverings) and sets the new covering's bit on
  the objects inside that union.
* add, positive region unchanged (always the case on a consistent base):
  with c the new covering, R the related sets of the objects in POS
  outside its admissible union and S those of the objects inside it, the
  old clauses are R and S, and the new ones R and S with c added to each.
  So the new reducts are the old ones and the terms c + q, q in MHS(R)
  (the minimal hitting sets of R), absorbed together.  An old reduct p
  lacks c, so it never contains c + q, and p strictly inside c + q puts p
  inside q; p meets every clause of R and q is a minimal hitting set of
  R, so p = q.  And q, a minimal hitting set of R, meets every set of S
  exactly when it is an old reduct.  Since c lies in no set of S, the
  answer is the old reducts plus the terms c + q that miss some set of
  S.  Those terms are the expansion of  new AND (AND over x in POS
  outside the new covering's admissible union of OR r(x))  that miss some
  set of S.  The new covering's bit is a one-bit clause, so the product
  starts from the one term {c} + core, the core being the coverings of
  the one-covering sets in R (see ``minimal_dnf``).  After each product
  step the expansion is the minimal hitting sets of the clauses
  multiplied in so far, and a term that misses a set of S extends a term
  of the step before that misses it too, so dropping, from some step on,
  every term that meets all of S (S is ``minimal_dnf``'s ``avoid``)
  leaves exactly the terms that miss one; a term that absorbs a kept term
  is inside it, so it is kept as well.  The expansion starts dropping
  only once its terms outnumber S, so ``filter_non_extensions`` applies
  the same test to the terms that come out.
* add, positive region grew: the same expansion IS the new reduct set (the
  handful of objects only the new covering resolves force it into every
  reduct, so no old reduct survives and no filtering applies).
* delete, either way: the positive region of the shrunk system is the OR
  of its coverings' admissible unions, which the stamp check has just
  computed from this system's blocks; a cache whose updated related sets
  disagree with it (the objects with a non-empty related set must be
  exactly that region) raises StaleCache.  ``boolformula.drop_variable``
  strips the deleted covering's bit from the related rows and reducts (a
  word narrower at 64, 128, ... coverings left), and ``boolformula._holds``
  tells which rows held it.
* delete, positive region unchanged: keep the reducts that avoid the
  deleted covering.
* delete, positive region shrank: some object's only related covering was
  the deleted one, d, so {d} was a clause and every old reduct is d plus a
  minimal hitting set of the clauses without d.  Dropping d from the old
  reducts therefore leaves exactly those minimal hitting sets, and the
  expansion continues from them through the residual clauses
  {r(x) - d : d in r(x), r(x) != {d}} alone (Berge).  When every survivor
  already meets every residual clause, the survivors are the answer.

Every returned ReductSet is an antichain of sub-families that preserve the
positive region and contain no superfluous covering.  Related sets, CNF
clauses and reducts stay ``(k, W)`` word arrays, whose layout only
``boolformula`` knows: a CNF selects related rows, batch keeps the rows
``minimal_dnf`` returns, a delete selects or strips the cached rows, an
add widens them and appends its new terms, and the add filter and the
shrinking delete's ``absorb`` take and return rows too.
``ReductSet.reducts`` materializes the int masks for callers that ask.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitset import bits, flags, full_mask
from .boolformula import (
    DEFAULT_TERM_LIMIT,
    MonotoneFormula,
    _frozen_rows,
    _holds,
    _name_sets,
    _pack,
    _row_ints,
    _sorted_rows,
    _widen,
    absorb,
    drop_variable,
    hits_all,
    mask_to_names,
    minimal_dnf,
    filter_non_extensions,
)
from .errors import StaleCache, TooManyCoverings
from .model import Covering, CoveringDecisionSystem, fingerprint
from .related import RelatedFamily, related_function, related_sets
from .approximation import positive_region, third_lower

# The most coverings ``oracle_reducts`` enumerates the sub-families of.
ORACLE_LIMIT = 16


@dataclass(frozen=True, eq=False)
class ReductSet:
    """An antichain of reducts as a read-only ``(k, W)`` uint64 word array.

    Each row is one reduct in ``boolformula``'s term layout: bit i stands
    for ``covering_names[i]``, W = max(1, ceil(m / 64)) words, least
    significant first.  The rows come in no set order (the engine emits
    them in expansion order, ``load_cache`` ascending) and equality
    ignores it.
    """

    covering_names: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = _frozen_rows(self.rows, len(self.covering_names), "reduct")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReductSet):
            return NotImplemented
        return self.covering_names == other.covering_names and np.array_equal(
            _sorted_rows(self.rows), _sorted_rows(other.rows)
        )

    @cached_property
    def reducts(self) -> frozenset[int]:
        """The reducts as bit masks over the covering index space, built on first use."""
        return frozenset(_row_ints(self.rows))

    def as_name_sets(self) -> frozenset[frozenset[str]]:
        return _name_sets(self.covering_names, self.rows)

    def sorted_name_lists(self) -> list[tuple[str, ...]]:
        """Canonical display order: names by covering index, lines sorted."""
        return sorted(mask_to_names(self.covering_names, r) for r in _row_ints(self.rows))


@dataclass(frozen=True)
class ReductionCache:
    """State the incremental algorithms reuse, stamped with the system hash."""

    fingerprint: str
    related: RelatedFamily
    reducts: ReductSet

    def __post_init__(self) -> None:
        # Both index coverings by position, so they must list the same ones.
        if self.related.covering_names != self.reducts.covering_names:
            raise ValueError(
                f"cache related sets list coverings {self.related.covering_names}, "
                f"its reducts {self.reducts.covering_names}"
            )

    @cached_property
    def positive(self) -> int:
        """The positive region: the objects with a non-empty related set."""
        return self.related.nonempty_objects

    @property
    def consistent(self) -> bool:
        return self.positive == full_mask(self.related.universe_size)


@dataclass(frozen=True)
class AddCovering:
    """An add delta: the grown system and the new covering's admissible union."""

    system: CoveringDecisionSystem
    union: int


def add_delta(system: CoveringDecisionSystem, covering: Covering) -> AddCovering:
    """Append ``covering``, validated once by ``with_covering``, and derive the delta."""
    system_plus = system.with_covering(covering)
    return AddCovering(system_plus, system_plus.admissible_union(covering.name))


def _check_cache(system: CoveringDecisionSystem, cache: ReductionCache) -> None:
    fp = fingerprint(system)
    if fp != cache.fingerprint:
        raise StaleCache(
            f"cache was built for system {cache.fingerprint}, got {fp}"
        )
    # The fingerprint ignores covering order, but the cached masks index
    # coverings by position: a reordered system must not reuse them.
    if cache.related.covering_names != system.names():
        raise StaleCache(
            f"cache lists coverings {cache.related.covering_names}, "
            f"the system {system.names()}"
        )
    if cache.related.universe_size != system.universe_size:
        raise StaleCache(
            f"cache holds related sets for {cache.related.universe_size} objects, "
            f"the system has {system.universe_size}"
        )


def batch_reducts(
    system: CoveringDecisionSystem, max_terms: int = DEFAULT_TERM_LIMIT
) -> tuple[ReductSet, ReductionCache]:
    """Compute all reducts from scratch and a fresh cache for later updates."""
    related = related_sets(system)
    dnf = minimal_dnf(related_function(related), max_terms)
    reducts = ReductSet(system.names(), dnf.rows)
    cache = ReductionCache(fingerprint(system), related, reducts)
    return reducts, cache


def add_covering(
    system: CoveringDecisionSystem,
    cache: ReductionCache,
    new_covering: Covering,
    max_terms: int = DEFAULT_TERM_LIMIT,
) -> tuple[ReductSet, ReductionCache]:
    """Incrementally recompute the reduct set after appending a covering."""
    _check_cache(system, cache)
    delta = add_delta(system, new_covering)
    names_plus = cache.related.covering_names + (new_covering.name,)
    m_plus = len(names_plus)
    # Only objects inside the new covering's union gain it; no old block is
    # re-tested.
    inside = flags(delta.union, system.universe_size).view(bool)
    related_plus = RelatedFamily(names_plus, _widen(cache.related.rows, m_plus, inside))
    old = _widen(cache.reducts.rows, m_plus)

    if not inside.any():
        # No admissible blocks: related sets and reducts are untouched.
        reducts_plus = old
    else:
        held = cache.related.rows.any(axis=1)
        # Outside the new covering's union the grown rows are the old ones.
        new_bit = _pack([1 << (m_plus - 1)], m_plus)
        clauses = np.concatenate((related_plus.rows[held & ~inside], new_bit))
        cnf = MonotoneFormula.from_rows("cnf", clauses, names_plus)
        if held[inside].all():
            # The positive region is unchanged.  An expansion term that
            # meets the old related set of every object inside the union is
            # an old reduct plus the new bit; the expansion drops such terms
            # once they outnumber those sets, and the filter drops the rest
            # (see the module docstring).
            avoid = _widen(cache.related.rows[inside], m_plus)
            expansion = minimal_dnf(cnf, max_terms, avoid=avoid)
            added = filter_non_extensions(expansion.rows, avoid)
            reducts_plus = np.concatenate((old, added))
        else:
            # The positive region grew, so some object is resolved only by
            # the new covering: every reduct must contain it and the old
            # reducts all lapse.  The expansion alone is the exact answer.
            reducts_plus = minimal_dnf(cnf, max_terms).rows

    reduct_set = ReductSet(names_plus, reducts_plus)
    new_cache = ReductionCache(fingerprint(delta.system), related_plus, reduct_set)
    return reduct_set, new_cache


def delete_covering(
    system: CoveringDecisionSystem,
    cache: ReductionCache,
    name: str,
    max_terms: int = DEFAULT_TERM_LIMIT,
) -> tuple[ReductSet, ReductionCache]:
    """Incrementally recompute the reduct set after deleting a covering."""
    _check_cache(system, cache)
    idx = system.covering_index(name)
    m = len(system.coverings)
    # Raises LastCovering when it would empty the family.
    system_minus = system.without_covering(name)
    # The OR of the unions that the stamp check computed from the blocks.
    _, pos_minus = positive_region(system_minus)
    names_minus = system_minus.names()
    rows_minus = drop_variable(cache.related.rows, idx, m)
    related_minus = RelatedFamily(names_minus, rows_minus)
    # Both the filter and the continuation trust the related sets, so they
    # must account for exactly the recomputed region.
    if related_minus.nonempty_objects != pos_minus:
        raise StaleCache(
            f"cached related sets disagree with the positive region of the "
            f"system without {name!r}; rebuild the cache"
        )
    old = cache.reducts.rows

    if pos_minus == cache.positive:
        reducts_minus = drop_variable(old[~_holds(old, idx)], idx, m)
    else:
        # The stripped reducts, the minimal hitting sets of the clauses
        # without d, are already an antichain (see the module docstring).
        # ``absorb`` changes nothing here; it stays because perfbench's
        # spans.py tells delete-verified from delete-fallback by this call.
        reducts_minus = absorb(drop_variable(old, idx, m))
        had_d = _holds(cache.related.rows, idx)
        residual = rows_minus[had_d & rows_minus.any(axis=1)]
        if not hits_all(reducts_minus, residual):
            cnf = MonotoneFormula.from_rows("cnf", residual, names_minus)
            reducts_minus = minimal_dnf(cnf, max_terms, start=reducts_minus).rows

    reduct_set = ReductSet(names_minus, reducts_minus)
    new_cache = ReductionCache(fingerprint(system_minus), related_minus, reduct_set)
    return reduct_set, new_cache


def check_oracle_limit(system: CoveringDecisionSystem) -> None:
    """Raise TooManyCoverings when ``oracle_reducts`` would refuse ``system``:
    it has more than ``ORACLE_LIMIT`` coverings."""
    m = len(system.coverings)
    if m > ORACLE_LIMIT:
        raise TooManyCoverings(f"{m} coverings exceeds the oracle limit of {ORACLE_LIMIT}")


def oracle_reducts(system: CoveringDecisionSystem) -> ReductSet:
    """Definition-level brute force, independent of the related-family route.

    Enumerates every sub-family of the coverings (the empty one included:
    when the positive region is empty it is the unique minimal preserving
    sub-family), recomputes the positive region of each from its blocks as
    the union of the decision classes' third lower approximations, and
    keeps the inclusion-minimal preserving sub-families.
    """
    check_oracle_limit(system)
    m = len(system.coverings)
    classes = system.decision.classes

    def pos_of(subset: int) -> int:
        blocks = [b for i in bits(subset) for b in system.coverings[i].blocks]
        acc = 0
        for cls in classes:
            acc |= third_lower(blocks, cls)
        return acc

    target = pos_of(full_mask(m))
    survivors = [p for p in range(1 << m) if pos_of(p) == target]
    minimal = [
        p
        for p in survivors
        if not any(q != p and q & ~p == 0 for q in survivors)
    ]
    return ReductSet(system.names(), _pack(minimal, m))
