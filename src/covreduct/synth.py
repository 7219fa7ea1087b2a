"""Seeded synthetic covering decision systems for tests and benchmarks.

Blocks are drawn either as random intervals (benchmark style: cheap, cover
the universe with locally coherent granules) or as random subsets (test
style: more adversarial structure).  Every covering gets a final patch
block over whatever the drawn blocks missed, so the covering axiom always
holds.  The decision partition is either a random coloring or a partition
into contiguous ranges.  Everything is driven by the caller's Random
instance, so a fixed seed reproduces the same systems bit for bit.
"""

import random

from .bitset import full_mask, mask_of
from .model import Covering, CoveringDecisionSystem, DecisionPartition


def random_covering(
    rng: random.Random,
    n: int,
    name: str,
    blocks: int,
    style: str = "interval",
) -> Covering:
    """Draw a covering with roughly ``blocks`` blocks over [0, n)."""
    drawn: list[int] = []
    seen: set[int] = set()
    union = 0
    max_len = max(1, (2 * n) // max(1, blocks))
    for _ in range(max(0, blocks - 1)):
        if style == "interval":
            length = rng.randint(1, max_len)
            start = rng.randrange(n)
            stop = min(n, start + length)
            mask = (full_mask(stop) >> start) << start
        elif style == "subset":
            size = rng.randint(1, max(1, n // 2))
            mask = mask_of(rng.sample(range(n), size))
        else:
            raise ValueError(f"unknown block style {style!r}")
        if mask and mask not in seen:
            seen.add(mask)
            drawn.append(mask)
            union |= mask
    leftover = full_mask(n) & ~union
    if leftover:
        # Disjoint from the union, hence never a duplicate of a drawn block.
        drawn.append(leftover)
    return Covering(name, tuple(drawn))


def random_decision(
    rng: random.Random, n: int, classes: int, contiguous: bool = False
) -> DecisionPartition:
    """Draw a decision partition with exactly ``classes`` non-empty classes.

    Raises ValueError when there are more classes than the ``n`` objects.
    """
    if classes > n:
        raise ValueError(f"{classes} decision classes need at least {classes} objects, got {n}")
    if contiguous:
        cuts = sorted(rng.sample(range(1, n), classes - 1)) if classes > 1 else []
        bounds = [0] + cuts + [n]
        masks = [
            (full_mask(hi) >> lo) << lo for lo, hi in zip(bounds, bounds[1:])
        ]
        return DecisionPartition(tuple(masks))
    color = [rng.randrange(classes) for _ in range(n)]
    # Pin one object per class so no class comes out empty.
    for cls, x in enumerate(rng.sample(range(n), classes)):
        color[x] = cls
    members: list[list[int]] = [[] for _ in range(classes)]
    for x, cls in enumerate(color):
        members[cls].append(x)
    return DecisionPartition(tuple(map(mask_of, members)))


def random_system(
    rng: random.Random,
    n: int,
    m: int,
    blocks_per_covering: int,
    classes: int,
    block_style: str = "interval",
    contiguous_decision: bool = False,
) -> CoveringDecisionSystem:
    """Draw a full system with m coverings named C1..Cm."""
    coverings = tuple(
        random_covering(rng, n, f"C{i + 1}", blocks_per_covering, block_style)
        for i in range(m)
    )
    decision = random_decision(rng, n, classes, contiguous_decision)
    return CoveringDecisionSystem(n, coverings, decision)
