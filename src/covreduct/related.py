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
from .boolformula import MonotoneFormula
from .model import CoveringDecisionSystem, union_of_coverings


@dataclass(frozen=True)
class RelatedFamily:
    """Per-object related sets, as bit masks over the covering index space."""

    covering_names: tuple[str, ...]
    r: tuple[int, ...]

    @property
    def universe_size(self) -> int:
        return len(self.r)

    @property
    def nonempty_objects(self) -> int:
        """Mask of the objects whose related set is non-empty."""
        flags = np.frombuffer(bytes(map(bool, self.r)), np.uint8)
        return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")

    def related_names(self, x: int) -> frozenset[str]:
        return frozenset(self.covering_names[i] for i in bits(self.r[x]))


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
    return RelatedFamily(system.names(), tuple(r))


def related_function(rf: RelatedFamily) -> MonotoneFormula:
    """The conjunction of the distinct non-empty related sets, as a CNF."""
    clauses = frozenset(mask for mask in rf.r if mask)
    return MonotoneFormula("cnf", clauses, rf.covering_names)
