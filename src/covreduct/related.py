"""Related families: admissible blocks, related sets, related function.

A block is admissible when it fits inside a single decision class.  The
related set r(x) collects the coverings that own an admissible block
containing x; pooled over all objects (empty sets dropped, duplicates
collapsed) the related sets form a monotone CNF over covering names whose
minimal DNF is exactly the reduct set.  The union of the admissible blocks
is the positive region, which ``approximation.positive_region`` computes.
"""

from dataclasses import dataclass

import numpy as np

from .bitset import bits
from .boolformula import MonotoneFormula, _frozen_rows, _pack, _row_ints, _unpack
from .model import CoveringDecisionSystem, union_of_coverings


@dataclass(frozen=True, eq=False)
class RelatedFamily:
    """Per-object related sets as a read-only ``(n, W)`` uint64 word array.

    Row x is r(x) in ``boolformula``'s term layout: bit i stands for
    ``covering_names[i]``, W = max(1, ceil(m / 64)) words, least
    significant first.
    """

    covering_names: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = _frozen_rows(self.rows, len(self.covering_names), "related")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelatedFamily):
            return NotImplemented
        return self.covering_names == other.covering_names and np.array_equal(
            self.rows, other.rows
        )

    @property
    def r(self) -> tuple[int, ...]:
        """The related sets as bit masks over the covering index space, in object order."""
        return tuple(_row_ints(self.rows))

    @property
    def universe_size(self) -> int:
        return len(self.rows)

    @property
    def nonempty_objects(self) -> int:
        """Mask of the objects whose related set is non-empty."""
        flags = np.packbits(self.rows.any(axis=1), bitorder="little")
        return int.from_bytes(flags.tobytes(), "little")

    def related_names(self, x: int) -> frozenset[str]:
        (mask,) = _row_ints(self.rows[x : x + 1])
        return frozenset(self.covering_names[i] for i in bits(mask))


def admissible_blocks(system: CoveringDecisionSystem) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """The ``(block, contributors)`` entries of ``union_of_coverings`` whose
    block fits inside some decision class."""
    pooled = union_of_coverings(system)
    fits = set(system.admissible(block for block, _ in pooled))
    return tuple(e for e in pooled if e[0] in fits)


def related_sets(system: CoveringDecisionSystem) -> RelatedFamily:
    """r(x) = coverings owning an admissible block that contains x."""
    r = [0] * system.universe_size
    for i, covered in enumerate(system.admissible_unions()):
        bit = 1 << i
        for x in bits(covered):
            r[x] |= bit
    return RelatedFamily(system.names(), _pack(r, len(system.coverings)))


def related_function(rf: RelatedFamily) -> MonotoneFormula:
    """The conjunction of the distinct non-empty related sets, as a CNF."""
    clauses = _unpack(rf.rows[rf.rows.any(axis=1)])
    return MonotoneFormula("cnf", clauses, rf.covering_names)
