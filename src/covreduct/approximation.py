"""Minimal descriptions, third lower/upper approximations, and regions.

The third pair of covering approximation operators:

* lower(X)  = union of all blocks contained in X
* upper(X)  = union of the minimal-description blocks of the members of X

The positive region of a decision partition is the union of the per-class
lower approximations over the pooled blocks of all coverings; the system is
consistent exactly when the positive region is the whole universe.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .bitset import full_mask, to_indices
from .errors import UncoveredObject
from .model import CoveringDecisionSystem


@dataclass(frozen=True)
class MinimalDescriptionMap:
    """Per-object inclusion-minimal blocks, over a fixed block collection."""

    blocks: tuple[int, ...]
    md: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RegionReport:
    """Positive/boundary/negative split plus per-class approximations.

    ``positive`` is the union of per-class lowers, ``boundary`` the part of
    the pooled uppers outside it, ``negative`` everything no class's upper
    reaches.  The three are pairwise disjoint and union to the universe.

    ``negative`` is always empty: every object lies in its own minimal
    blocks, so the upper of its decision class holds it and the pooled
    uppers cover the universe.  ``boundary`` is therefore the complement
    of ``positive``.
    """

    positive: int
    boundary: int
    negative: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]


class Consistency(Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


def minimal_descriptions(blocks: Sequence[int], n: int) -> MinimalDescriptionMap:
    """Compute, for every object, the minimal blocks containing it.

    A block is minimal for x when no other block of the collection contains
    x and is a strict subset of it.  Duplicate blocks in the input denote
    the same set and are collapsed.
    """
    distinct = tuple(dict.fromkeys(blocks))
    per_object: list[tuple[int, ...]] = []
    for x in range(n):
        hit = 1 << x
        containing = [b for b in distinct if b & hit]
        if not containing:
            raise UncoveredObject(f"object {x} lies in no block")
        minimal = [
            b
            for b in containing
            if not any(s != b and s & ~b == 0 for s in containing)
        ]
        per_object.append(tuple(minimal))
    return MinimalDescriptionMap(distinct, tuple(per_object))


def third_lower(blocks: Sequence[int], target: int) -> int:
    """Union of all blocks contained in ``target``."""
    acc = 0
    for b in blocks:
        if b & ~target == 0:
            acc |= b
    return acc


def third_upper(md: MinimalDescriptionMap, target: int) -> int:
    """Union of the minimal-description blocks of the members of ``target``."""
    acc = 0
    for x in to_indices(target):
        for b in md.md[x]:
            acc |= b
    return acc


def union_reducible_blocks(blocks: Sequence[int], n: int) -> list[int]:
    """Blocks that belong to no object's minimal description.

    Removing any of them (or all of them) leaves every minimal description
    unchanged.  Returned in input order, duplicates collapsed.
    """
    md = minimal_descriptions(blocks, n)
    needed = {b for per_object in md.md for b in per_object}
    return [b for b in md.blocks if b not in needed]


def positive_region(system: CoveringDecisionSystem) -> tuple[tuple[int, ...], int]:
    """Per-class lower approximations over the pooled blocks, and their union.

    The union is that of the coverings' admissible unions.  Each admissible
    block lies inside one class, so a class's lower approximation is the
    part of the union inside it.
    """
    pos = 0
    for union in system.admissible_unions():
        pos |= union
    return tuple(pos & cls for cls in system.decision.classes), pos


def regions(system: CoveringDecisionSystem) -> RegionReport:
    """Full region report; consistency holds iff positive == universe."""
    lower, pos = positive_region(system)
    blocks = [b for cov in system.coverings for b in cov.blocks]
    md = minimal_descriptions(blocks, system.universe_size)
    upper = tuple(third_upper(md, cls) for cls in system.decision.classes)
    return RegionReport(
        positive=pos,
        boundary=full_mask(system.universe_size) & ~pos,
        negative=0,
        lower=lower,
        upper=upper,
    )


def classify_consistency(system: CoveringDecisionSystem) -> Consistency:
    """Consistent iff the positive region is the whole universe."""
    _, pos = positive_region(system)
    if pos == full_mask(system.universe_size):
        return Consistency.CONSISTENT
    return Consistency.INCONSISTENT
