"""Core model: universe, blocks, coverings, decision partition, system.

Objects are referenced by 0-based index; blocks are int bit masks (see
``bitset``).  All types are immutable after construction and validated on
the way in, so downstream code can assume the structural invariants:

* every block is a non-empty subset of [0, universe_size)
* each covering's blocks are pairwise distinct and union to the universe
* decision classes are non-empty, pairwise disjoint, and union to the universe
* covering names are unique and there is at least one covering

A covering's blocks are sorted, to find repeats, only when they overlap:
blocks sum to their union exactly when they are pairwise disjoint, and
disjoint non-empty blocks cannot repeat.  The invariant also makes n
blocks that sum to the universe the discrete covering of n singletons,
whose admissible union is the universe without testing a block
(``_is_discrete``); ``with_covering`` stamps it from the validation's own
sum.  Every other covering's union is one pass over its blocks that tests
a block against the objects outside its highest object's class and ORs it
in when it meets none of them.

A covering or decision that misses objects names the first ten and counts
the rest, as in ``does not cover objects [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
and 999989 more``, read from the union's lowest popcount + 10 bits.
"""

import bisect
import functools
import hashlib
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bitset import flags, full_mask, mask_of, to_indices
from .errors import (
    CoverageGap,
    DecisionNotPartition,
    DuplicateBlock,
    DuplicateCoveringName,
    EmptyBlock,
    IndexOutOfRange,
    LastCovering,
    UnknownCovering,
    ValidationError,
)

BlockInput = Iterable[int]


@dataclass(frozen=True)
class Covering:
    """A named family of blocks whose union is the universe."""

    name: str
    blocks: tuple[int, ...]


@dataclass(frozen=True)
class DecisionPartition:
    classes: tuple[int, ...]


@dataclass(frozen=True)
class CoveringDecisionSystem:
    """The universe size, the coverings in declaration order, the decision.

    Facts derived from the blocks are memoized on the instance when first
    asked for: per covering name, the admissible union; per object, the
    objects outside its decision class; the digest of the decision
    classes; and the fingerprint, which hashes the unions.  ``with_covering``
    and ``without_covering`` hand the unions of the coverings they keep to
    the system they derive, so an updated system tests blocks only for the
    covering that changed.
    """

    universe_size: int
    coverings: tuple[Covering, ...]
    decision: DecisionPartition

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.coverings)

    def covering_index(self, name: str) -> int:
        for i, c in enumerate(self.coverings):
            if c.name == name:
                return i
        raise UnknownCovering(f"no covering named {name!r}")

    def with_covering(self, covering: Covering) -> "CoveringDecisionSystem":
        """Return a copy with ``covering`` appended (validated).

        The validation tells whether the blocks are pairwise disjoint, so
        the discrete covering's admissible union, the universe, is stamped
        on the copy here and never summed again."""
        if covering.name in self.names():
            raise DuplicateCoveringName(f"covering name {covering.name!r} already present")
        n = self.universe_size
        disjoint = _check_covering(covering.name, covering.blocks, n)
        child = self._derive(self.coverings + (covering,))
        if _is_discrete(covering.blocks, n, disjoint):
            child._unions[covering.name] = full_mask(n)
        return child

    def without_covering(self, name: str) -> "CoveringDecisionSystem":
        idx = self.covering_index(name)
        if len(self.coverings) == 1:
            raise LastCovering("cannot delete the only covering of a system")
        return self._derive(self.coverings[:idx] + self.coverings[idx + 1 :])

    def admissible(self, blocks: Iterable[int]) -> list[int]:
        """The blocks that fit inside one decision class, in input order.

        A non-empty block fits inside at most one class of a partition, the
        class of any of its objects, so each block is tested against the
        class of its highest object: the block fits when it meets nothing
        outside that class, ``_outside[b.bit_length()]``.  That costs one
        big-int ``&`` per block.  ``_admissible_union`` runs the same test
        inline.
        """
        outside = self._outside
        return [b for b in blocks if not b & outside[b.bit_length()]]

    def admissible_union(self, name: str) -> int:
        """Union of the admissible blocks of the covering ``name``."""
        return self._admissible_union(self.coverings[self.covering_index(name)])

    def admissible_unions(self) -> tuple[int, ...]:
        """``admissible_union`` of every covering, in declaration order."""
        return tuple(self._admissible_union(c) for c in self.coverings)

    def _admissible_union(self, covering: Covering) -> int:
        """The union of ``covering``'s admissible blocks, memoized by name.

        One pass over the blocks tests each as ``admissible`` does and ORs
        in those that fit.  Every singleton fits its class, so the discrete
        covering's union is the universe, stamped without testing a block
        (see ``_is_discrete``)."""
        union = self._unions.get(covering.name)
        if union is None:
            n = self.universe_size
            blocks = covering.blocks
            if _is_discrete(blocks, n):
                union = full_mask(n)
            else:
                outside = self._outside
                union = 0
                for b in blocks:
                    if not b & outside[b.bit_length()]:
                        union |= b
            self._unions[covering.name] = union
        return union

    @functools.cached_property
    def _outside(self) -> list[int]:
        """outside[k] = the objects outside the decision class holding
        object k - 1, so a block's entry is ``outside[b.bit_length()]``, its
        highest object's.  Entry 0 is a placeholder, 0, that no non-empty
        block reads; it spares every lookup a ``- 1``."""
        n = self.universe_size
        owner = np.zeros(n + 1, dtype=np.intp)
        for j, cls in enumerate(self.decision.classes, start=1):
            owner[1:][flags(cls, n).view(bool)] = j
        complements = [0] + [full_mask(n) ^ cls for cls in self.decision.classes]
        return [complements[j] for j in owner.tolist()]

    @functools.cached_property
    def _unions(self) -> dict[str, int]:
        return {}

    @functools.cached_property
    def _decision_digest(self) -> bytes:
        width = (self.universe_size + 7) // 8
        encoded = sorted(cls.to_bytes(width, "little") for cls in self.decision.classes)
        return hashlib.sha256(b"".join(encoded)).digest()

    @functools.cached_property
    def _fingerprint(self) -> str:
        width = (self.universe_size + 7) // 8
        h = hashlib.sha256(self.universe_size.to_bytes(8, "little"))
        for cov in sorted(self.coverings, key=lambda c: c.name):
            h.update(_encode_name(cov.name))
            h.update(self._admissible_union(cov).to_bytes(width, "little"))
        h.update(self._decision_digest)
        return h.hexdigest()[:16]

    def _derive(self, coverings: tuple[Covering, ...]) -> "CoveringDecisionSystem":
        """A system over ``coverings`` and this decision, inheriting memos."""
        child = CoveringDecisionSystem(self.universe_size, coverings, self.decision)
        for key in ("_outside", "_decision_digest"):
            if key in self.__dict__:
                child.__dict__[key] = self.__dict__[key]
        if unions := self.__dict__.get("_unions"):
            kept = {c.name: unions[c.name] for c in coverings if c.name in unions}
            child.__dict__["_unions"] = kept
        return child


def _checked_indices(block: BlockInput, n: int, where: str) -> list[int]:
    indices = list(block)
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
            raise IndexOutOfRange(f"{where}: object index {i!r} outside [0, {n})")
    return indices


def _masks(
    inputs: Iterable[BlockInput], n: int, where: str
) -> tuple[tuple[int, ...], list[int] | None]:
    """The masks of the index lists ``inputs`` (list k named ``{where} k``);
    or, when they hold fewer than ``n`` entries and so cannot cover [0, n),
    their masks over the ranks of their distinct entries, and those entries
    ascending.  Ranks keep empty, equal and overlapping lists so, and no
    mask is wider than the entry count; the caller's coverage check then
    always fails, so rank masks never reach a system."""
    lists = [_checked_indices(xs, n, f"{where} {k}") for k, xs in enumerate(inputs)]
    if sum(map(len, lists)) >= n:
        return tuple(map(mask_of, lists)), None
    objects = sorted(set().union(*lists))
    rank = {x: r for r, x in enumerate(objects)}
    return tuple(mask_of([rank[x] for x in xs]) for xs in lists), objects


def _check_covering(
    name: str, blocks: Sequence[int], n: int, objects: list[int] | None = None
) -> bool:
    """Reject a covering with an empty, out-of-range or repeated block, or
    one whose blocks miss an object; blocks over the ranks of ``objects``
    (see ``_masks``) miss every object of [0, n) outside it.  Return
    whether the blocks, which have passed, are pairwise disjoint.

    One OR-reduce over the blocks finds a block past object ``n - 1`` or a
    negative one (the union then reaches past bit ``n - 1``) and checks
    coverage.  Non-negative blocks sum to their union exactly when they
    are pairwise disjoint (a + b is a | b plus a & b), and disjoint
    non-empty blocks cannot repeat, so only an overlapping family is
    sorted, to bring equal blocks side by side for one C-level pass over
    adjacent pairs.  The per-block loop runs only when a block is at
    fault, to name the first faulty block in input order.
    """
    if not blocks:
        raise CoverageGap(f"covering {name!r} has no blocks")
    union = functools.reduce(operator.or_, blocks)
    if union >> n or not all(blocks):
        _name_block_fault(name, blocks, n)
    disjoint = sum(blocks) == union
    if not disjoint:
        ordered = sorted(blocks)
        if any(map(operator.eq, ordered, ordered[1:])):
            _name_block_fault(name, blocks, n)
    if gap := _uncovered(union, n, objects):
        raise CoverageGap(f"covering {name!r} does not cover {gap}")
    return disjoint


def _is_discrete(blocks: Sequence[int], n: int, disjoint: bool | None = None) -> bool:
    """Whether the blocks of a valid covering of [0, n) are the discrete
    covering, the n singletons: n pairwise disjoint non-empty blocks.

    Valid blocks union to [0, n), so they are disjoint exactly when they
    sum to it; ``disjoint``, when ``_check_covering`` has just said, spares
    that sum."""
    if len(blocks) != n:
        return False
    return sum(blocks) == full_mask(n) if disjoint is None else disjoint


def _uncovered(union: int, n: int, objects: list[int] | None = None) -> str:
    """The objects of [0, n) missing from ``union``, a mask below 2**n or,
    given ``objects``, over their ranks: the first ten, read below
    popcount(union) + 10 (the j-th lies below popcount(union) + j), and how
    many more; "" if none."""
    count = n - union.bit_count()
    if not count:
        return ""
    width = min(n, n - count + 10)
    if objects is not None:
        union = mask_of(objects[: bisect.bisect_left(objects, width)])
    window = full_mask(width)
    more = f" and {count - 10} more" if count > 10 else ""
    return f"objects {to_indices(union & window ^ window)[:10]}{more}"


def _name_block_fault(name: str, blocks: Sequence[int], n: int) -> None:
    """Raise for the first block, in input order, that is empty, reaches
    past object ``n - 1`` or repeats an earlier block."""
    seen: set[int] = set()
    for k, b in enumerate(blocks):
        if b == 0:
            raise EmptyBlock(f"covering {name!r}: block {k} is empty")
        if b >> n:
            raise IndexOutOfRange(f"covering {name!r}: block {k} exceeds universe size {n}")
        if b in seen:
            raise DuplicateBlock(f"covering {name!r}: block {k} duplicates an earlier block")
        seen.add(b)


def make_covering(name: str, blocks: Iterable[BlockInput], universe_size: int) -> Covering:
    """Build and validate a single covering from index lists."""
    masks, objects = _masks(blocks, universe_size, f"covering {name!r}, block")
    _check_covering(name, masks, universe_size, objects)
    return Covering(name, masks)


def make_decision(classes: Iterable[BlockInput], universe_size: int) -> DecisionPartition:
    """Build and validate a decision partition from index lists."""
    masks, objects = _masks(classes, universe_size, "decision class")
    union = 0
    for j, cls in enumerate(masks):
        if cls == 0:
            raise DecisionNotPartition(f"decision class {j} is empty")
        if cls & union:
            raise DecisionNotPartition(f"decision class {j} overlaps an earlier class")
        union |= cls
    if gap := _uncovered(union, universe_size, objects):
        raise DecisionNotPartition(f"decision classes do not cover {gap}")
    return DecisionPartition(masks)


def build_system(
    universe_size: int,
    coverings: Iterable[tuple[str, Iterable[BlockInput]]],
    decision: Iterable[BlockInput],
) -> CoveringDecisionSystem:
    """Validate and assemble a covering decision system.

    ``coverings`` is an ordered sequence of (name, blocks) pairs, each block
    an iterable of 0-based object indices; ``decision`` is the list of
    decision classes in the same index convention.
    """
    if universe_size <= 0:
        raise ValidationError(f"universe_size must be positive, got {universe_size}")
    covs = tuple(make_covering(name, blocks, universe_size) for name, blocks in coverings)
    if not covs:
        raise ValidationError("a system needs at least one covering")
    dupes = {n for n, k in Counter(c.name for c in covs).items() if k > 1}
    if dupes:
        raise DuplicateCoveringName(f"duplicate covering names: {sorted(dupes)}")
    part = make_decision(decision, universe_size)
    return CoveringDecisionSystem(universe_size, covs, part)


def union_of_coverings(system: CoveringDecisionSystem) -> list[tuple[int, tuple[str, ...]]]:
    """Deduplicated blocks of all coverings, with contributing covering names.

    Blocks appear in first-encounter order (coverings in declaration order,
    blocks in covering order); equal blocks from several coverings are merged
    into one entry whose contributor tuple follows declaration order.
    """
    contributors: dict[int, list[str]] = {}
    for cov in system.coverings:
        for b in cov.blocks:
            contributors.setdefault(b, []).append(cov.name)
    return [(b, tuple(names)) for b, names in contributors.items()]


def _encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return len(raw).to_bytes(4, "little") + raw


def fingerprint(system: CoveringDecisionSystem) -> str:
    """Stable hash of what a system's reducts depend on, used to stamp caches.

    SHA-256 over the universe size, the (name, admissible union) pairs in
    name order and a digest of the decision classes.  Each union and each
    class is encoded in ``(n + 7) // 8`` little-endian bytes, and the
    classes' digest is SHA-256 over their sorted encodings.  Two systems
    get equal stamps exactly when they agree on the universe size, the
    covering names, every covering's admissible union and the decision
    classes; their related sets, positive regions and reducts are then
    equal.  Blocks that fit no class do not count, and neither does the
    order of blocks, coverings (names are unique) or classes.

    The unions and the classes' digest are memoized on the instance and
    the unions inherited through ``with_covering``/``without_covering``, so
    the stamp of an updated system tests only the changed covering's
    blocks, and a cold system tests each block once, for admissibility,
    except the discrete covering's singletons, which always fit their
    class and are not tested.
    """
    return system._fingerprint
