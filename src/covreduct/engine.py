"""Reduct computation: batch pipeline, incremental updates, brute oracle.

Batch: positive region -> related sets -> related function -> minimal DNF;
the DNF terms are exactly the attribute reducts.

Incremental updates reuse a ReductionCache built for the pre-update system:

* add, either way: ``add_delta`` validates the new covering once, through
  ``with_covering``, and reads its admissible union off the grown system.
* add, positive region unchanged (always the case on a consistent base):
  expand  new AND (AND over x in POS outside the new covering's admissible
  union of OR r(x)),  then keep the expansion terms no existing reduct is a
  strict subset of, and union them with the old reducts.  That filter is
  one equality test: with c the new covering and R those restricted
  related sets, the expansion is {c + q : q a minimal hitting set of R}.
  An old reduct p lacks c, so p strictly inside c + q puts p inside q; p
  meets every clause of R (R is a subset of the old clauses) and q is a
  minimal hitting set of R, so p = q.  Conversely an old reduct q sits
  strictly inside c + q.  So a term c + q is dropped exactly when q is an
  old reduct.
* add, positive region grew: the same expansion IS the new reduct set (the
  handful of objects only the new covering resolves force it into every
  reduct, so no old reduct survives and no filtering applies).
* delete, either way: the positive region of the shrunk system is
  recomputed from its blocks; a cache whose updated related sets disagree
  with it (the objects with a non-empty related set must be exactly that
  region) raises StaleCache.
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
clauses and reducts stay ``(k, W)`` word arrays: a CNF selects related rows,
batch keeps the rows ``minimal_dnf`` returns, a delete selects or strips
the cached rows, an add widens them and appends its new terms, and the add
filter and the shrinking delete's ``absorb`` take and return rows too.
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
    _name_sets,
    _pack,
    _row_ints,
    _sorted_rows,
    absorb,
    drop_variable,
    hits_all,
    mask_to_names,
    minimal_dnf,
    filter_non_extensions,
    word_count,
)
from .errors import StaleCache, TooManyCoverings
from .model import Covering, CoveringDecisionSystem, fingerprint
from .related import RelatedFamily, related_function, related_sets
from .approximation import positive_region, third_lower


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


def _widen(rows: np.ndarray, n_vars: int) -> np.ndarray:
    """A copy of ``rows`` padded with zero words to the width of ``n_vars`` variables."""
    wide = np.zeros((len(rows), word_count(n_vars)), dtype=np.uint64)
    wide[:, : rows.shape[1]] = rows
    return wide


def _related_add(related: RelatedFamily, name: str, union: int) -> RelatedFamily:
    """Extend the related sets with a covering whose admissible union is ``union``.

    Only objects inside that union gain it, as one flag column ORed into the
    rows (a word wider when the new covering is the 65th, 129th, ...);
    nothing else changes, and no old block is re-tested.
    """
    n, m = related.universe_size, len(related.covering_names)
    word, shift = divmod(m, 64)
    rows = _widen(related.rows, m + 1)
    rows[:, word] |= flags(union, n).astype(np.uint64) << np.uint64(shift)
    return RelatedFamily(related.covering_names + (name,), rows)


def add_covering(
    system: CoveringDecisionSystem,
    cache: ReductionCache,
    new_covering: Covering,
    max_terms: int = DEFAULT_TERM_LIMIT,
) -> tuple[ReductSet, ReductionCache]:
    """Incrementally recompute the reduct set after appending a covering."""
    _check_cache(system, cache)
    delta = add_delta(system, new_covering)
    related_plus = _related_add(cache.related, new_covering.name, delta.union)
    names_plus = related_plus.covering_names
    pos_plus = cache.positive | delta.union
    m_plus = len(names_plus)

    if delta.union == 0:
        # No admissible blocks: related sets and reducts are untouched.
        reducts_plus = _widen(cache.reducts.rows, m_plus)
    else:
        # Outside the new covering's union the grown rows are the old ones.
        restricted = flags(cache.positive & ~delta.union, system.universe_size).view(bool)
        new_bit = _pack([1 << (m_plus - 1)], m_plus)
        clauses = np.concatenate((related_plus.rows[restricted], new_bit))
        expansion = minimal_dnf(MonotoneFormula.from_rows("cnf", clauses, names_plus), max_terms)
        if pos_plus == cache.positive:
            # An old reduct absorbs a term only when it is that term with
            # the new bit cleared (see the module docstring).
            old = _widen(cache.reducts.rows, m_plus)
            added = filter_non_extensions(expansion.rows, old, new_bit)
            reducts_plus = np.concatenate((old, added))
        else:
            # The positive region grew, so some object is resolved only by
            # the new covering: every reduct must contain it and the old
            # reducts all lapse.  The expansion alone is the exact answer.
            reducts_plus = expansion.rows

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
    # Raises LastCovering when it would empty the family.
    system_minus = system.without_covering(name)
    _, pos_minus = positive_region(system_minus)  # no shortcut: recomputed
    names_minus = system_minus.names()
    width = word_count(len(names_minus))
    rows_minus = drop_variable(cache.related.rows, idx)[:, :width]
    related_minus = RelatedFamily(names_minus, rows_minus)
    # Both the filter and the continuation trust the related sets, so they
    # must account for exactly the recomputed region.
    if related_minus.nonempty_objects != pos_minus:
        raise StaleCache(
            f"cached related sets disagree with the positive region of the "
            f"system without {name!r}; rebuild the cache"
        )
    word, shift = divmod(idx, 64)
    bit = np.uint64(1 << shift)
    old = cache.reducts.rows

    if pos_minus == cache.positive:
        reducts_minus = drop_variable(old[old[:, word] & bit == 0], idx)[:, :width]
    else:
        # The stripped reducts, the minimal hitting sets of the clauses
        # without d, are already an antichain (see the module docstring).
        # ``absorb`` changes nothing here; it stays because perfbench's
        # spans.py tells delete-verified from delete-fallback by this call.
        reducts_minus = absorb(drop_variable(old, idx)[:, :width])
        had_d = cache.related.rows[:, word] & bit != 0
        residual = rows_minus[had_d & rows_minus.any(axis=1)]
        if not hits_all(reducts_minus, residual):
            cnf = MonotoneFormula.from_rows("cnf", residual, names_minus)
            reducts_minus = minimal_dnf(cnf, max_terms, start=reducts_minus).rows

    reduct_set = ReductSet(names_minus, reducts_minus)
    new_cache = ReductionCache(fingerprint(system_minus), related_minus, reduct_set)
    return reduct_set, new_cache


def oracle_reducts(system: CoveringDecisionSystem, limit: int = 16) -> ReductSet:
    """Definition-level brute force, independent of the related-family route.

    Enumerates every sub-family of the coverings (the empty one included:
    when the positive region is empty it is the unique minimal preserving
    sub-family), recomputes the positive region of each from its blocks as
    the union of the decision classes' third lower approximations, and
    keeps the inclusion-minimal preserving sub-families.
    """
    m = len(system.coverings)
    if m > limit:
        raise TooManyCoverings(f"{m} coverings exceeds the oracle limit of {limit}")
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
