import functools
import operator
import random

import pytest

import covreduct as cr
from covreduct.bitset import to_indices
from covreduct.synth import random_covering, random_decision, random_system

from conftest import block_fingerprint


def revalidate(system: cr.CoveringDecisionSystem) -> cr.CoveringDecisionSystem:
    return cr.build_system(
        system.universe_size,
        [(c.name, [to_indices(b) for b in c.blocks]) for c in system.coverings],
        [to_indices(c) for c in system.decision.classes],
    )


@pytest.mark.parametrize("style", ["interval", "subset"])
@pytest.mark.parametrize("contiguous", [False, True])
def test_generated_systems_are_valid(style, contiguous):
    rng = random.Random(f"{style}:{contiguous}")
    for _ in range(20):
        n = rng.randint(2, 40)
        system = random_system(
            rng,
            n,
            rng.randint(1, 5),
            rng.randint(1, 8),
            min(rng.randint(2, 4), n),
            block_style=style,
            contiguous_decision=contiguous,
        )
        assert block_fingerprint(system) == block_fingerprint(revalidate(system))


def test_generation_is_deterministic():
    a = random_system(random.Random(99), 50, 6, 8, 3)
    b = random_system(random.Random(99), 50, 6, 8, 3)
    assert block_fingerprint(a) == block_fingerprint(b)
    c = random_system(random.Random(100), 50, 6, 8, 3)
    assert block_fingerprint(a) != block_fingerprint(c)


def test_random_covering_patches_leftovers():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 30)
        cov = random_covering(rng, n, "C", rng.randint(1, 6))
        assert functools.reduce(operator.or_, cov.blocks) == (1 << n) - 1
        assert len(set(cov.blocks)) == len(cov.blocks)
        assert all(b for b in cov.blocks)


def test_random_decision_classes_nonempty():
    rng = random.Random(4)
    for contiguous in (False, True):
        for _ in range(30):
            n = rng.randint(2, 25)
            k = rng.randint(2, min(5, n))
            part = random_decision(rng, n, k, contiguous)
            assert len(part.classes) == k
            assert all(c for c in part.classes)
            union = 0
            for c in part.classes:
                assert union & c == 0
                union |= c
            assert union == (1 << n) - 1


def test_random_decision_rejects_more_classes_than_objects():
    # It used to draw min(classes, n) classes, so a bench config asking for
    # more classes than objects measured fewer without a word.
    for contiguous in (False, True):
        assert len(random_decision(random.Random(0), 3, 3, contiguous).classes) == 3
        with pytest.raises(ValueError, match="4 decision classes need at least 4 objects, got 3"):
            random_decision(random.Random(0), 3, 4, contiguous)


def test_unknown_block_style_rejected():
    with pytest.raises(ValueError):
        random_covering(random.Random(0), 5, "C", 3, style="hexagonal")


# Block stamps (the format 5 fingerprint, which hashes every block) of
# subset-style systems as drawn before block and class masks were packed
# by ``bitset.mask_of``: the same rng calls must keep drawing the same
# systems.
SUBSET_FINGERPRINTS = [
    "8fd8f0cbdf300cb4",
    "9c5791ed5eb18895",
    "6d8f3daefd2b6caa",
    "6892929ccb37ac98",
    "c877edc46182c650",
]


def test_subset_systems_are_pinned_by_seed():
    drawn = [
        block_fingerprint(random_system(random.Random(s), 60, 5, 8, 4, block_style="subset"))
        for s in range(5)
    ]
    assert drawn == SUBSET_FINGERPRINTS
