import random

import pytest

import covreduct as cr
from covreduct.bitset import mask_of, to_indices
from covreduct.errors import (
    CoverageGap,
    DecisionNotPartition,
    DuplicateBlock,
    DuplicateCoveringName,
    EmptyBlock,
    IndexOutOfRange,
    LastCovering,
    UnknownCovering,
)
from covreduct.synth import random_decision, random_system

from conftest import CONSISTENT8_COVERINGS, DECISION_8, obj


def test_build_valid_system(consistent8):
    assert consistent8.universe_size == 8
    assert consistent8.names() == ("C1", "C2", "C3", "C4", "C5")
    assert consistent8.full == 0xFF
    assert len(consistent8.decision.classes) == 3


def test_build_single_all_covering_block():
    system = cr.build_system(3, [("C1", [[0, 1, 2]])], [[0], [1, 2]])
    assert system.coverings[0].blocks == (0b111,)


def test_coverage_gap():
    with pytest.raises(CoverageGap):
        cr.build_system(3, [("C1", [[0, 1]])], [[0], [1, 2]])


def test_empty_block_rejected():
    with pytest.raises(EmptyBlock):
        cr.build_system(2, [("C1", [[0, 1], []])], [[0], [1]])


def test_duplicate_block_rejected():
    with pytest.raises(DuplicateBlock):
        cr.build_system(2, [("C1", [[0, 1], [1, 0]])], [[0], [1]])


def test_duplicate_covering_name_rejected():
    with pytest.raises(DuplicateCoveringName):
        cr.build_system(2, [("C1", [[0, 1]]), ("C1", [[0], [1]])], [[0], [1]])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        cr.build_system(2, [("C1", [[0, 2]])], [[0], [1]])
    with pytest.raises(IndexOutOfRange):
        cr.build_system(2, [("C1", [[0, -1]])], [[0], [1]])


@pytest.mark.parametrize(
    "decision",
    [
        [[0], [0, 1]],  # overlap
        [[0]],  # gap
        [[0, 1], []],  # empty class
    ],
)
def test_decision_not_partition(decision):
    with pytest.raises(DecisionNotPartition):
        cr.build_system(2, [("C1", [[0, 1]])], decision)


def test_no_coverings_rejected():
    with pytest.raises(cr.ValidationError):
        cr.build_system(2, [], [[0], [1]])


def test_nonpositive_universe_rejected():
    with pytest.raises(cr.ValidationError):
        cr.build_system(0, [("C1", [[0]])], [[0]])


def test_union_of_coverings_merges_shared_block(consistent8):
    pooled = dict(cr.union_of_coverings(consistent8))
    shared = mask_of(obj(2, 3))
    assert pooled[shared] == ("C2", "C3", "C4")
    # Every pooled block appears exactly once.
    masks = [b for b, _ in cr.union_of_coverings(consistent8)]
    assert len(masks) == len(set(masks))


def test_union_of_coverings_single_covering():
    system = cr.build_system(3, [("C1", [[0], [1, 2]])], [[0], [1, 2]])
    assert cr.union_of_coverings(system) == [
        (0b001, ("C1",)),
        (0b110, ("C1",)),
    ]


def test_union_of_coverings_identical_coverings():
    system = cr.build_system(
        2, [("A", [[0], [1]]), ("B", [[0], [1]])], [[0], [1]]
    )
    assert cr.union_of_coverings(system) == [
        (0b01, ("A", "B")),
        (0b10, ("A", "B")),
    ]


def test_union_preserves_every_incidence(consistent8):
    pooled = dict(cr.union_of_coverings(consistent8))
    for cov in consistent8.coverings:
        for block in cov.blocks:
            assert cov.name in pooled[block]


def test_random_mutations_rejected():
    rng = random.Random(91)
    for _ in range(25):
        n = rng.randint(3, 9)
        system = random_system(rng, n, rng.randint(1, 4), 4, 2, block_style="subset")
        as_lists = [
            (c.name, [to_indices(b) for b in c.blocks]) for c in system.coverings
        ]
        decision = [to_indices(c) for c in system.decision.classes]

        # Drop one object from every block of one covering: coverage breaks
        # (or a block empties), either way validation must reject it.
        victim = rng.randrange(n)
        mangled = [
            (name, [[x for x in b if x != victim] for b in blocks])
            if i == 0
            else (name, blocks)
            for i, (name, blocks) in enumerate(as_lists)
        ]
        with pytest.raises(cr.ValidationError):
            cr.build_system(n, mangled, decision)

        # Duplicate an object across decision classes.
        if len(decision) > 1:
            bad = [list(c) for c in decision]
            bad[1].append(bad[0][0])
            with pytest.raises(DecisionNotPartition):
                cr.build_system(n, as_lists, bad)


def test_fingerprint_ignores_block_and_covering_order():
    base = cr.build_system(3, [("A", [[0], [1, 2]]), ("B", [[0, 1, 2]])], [[0], [1, 2]])
    shuffled = cr.build_system(
        3, [("B", [[0, 1, 2]]), ("A", [[1, 2], [0]])], [[1, 2], [0]]
    )
    assert cr.fingerprint(base) == cr.fingerprint(shuffled)
    changed = cr.build_system(3, [("A", [[0, 1], [1, 2]]), ("B", [[0, 1, 2]])], [[0], [1, 2]])
    assert cr.fingerprint(base) != cr.fingerprint(changed)


def test_same_system_semantics(consistent8):
    twin = cr.build_system(8, CONSISTENT8_COVERINGS, DECISION_8)
    assert cr.same_system(consistent8, twin)
    assert not cr.same_system(consistent8, consistent8.without_covering("C5"))


def test_with_and_without_covering(consistent8, covering6):
    grown = consistent8.with_covering(covering6)
    assert grown.names()[-1] == "C6"
    back = grown.without_covering("C6")
    assert cr.same_system(back, consistent8)
    with pytest.raises(DuplicateCoveringName):
        grown.with_covering(covering6)
    with pytest.raises(UnknownCovering):
        consistent8.without_covering("C9")


def test_last_covering_protected():
    system = cr.build_system(2, [("C1", [[0, 1]])], [[0], [1]])
    with pytest.raises(LastCovering):
        system.without_covering("C1")


def test_derived_systems_keep_their_own_memos(consistent8):
    # Two systems derived from one parent add different coverings under
    # one name; each must answer for its own blocks, and so must a system
    # that deletes the name and adds it back with other blocks.
    first = cr.make_covering("X", [[0, 1, 2], [3, 4, 5], [6, 7]], 8)
    second = cr.make_covering("X", [[0, 1, 2, 3, 4, 5, 6, 7]], 8)
    cr.fingerprint(consistent8)
    cr.positive_region(consistent8)
    a = consistent8.with_covering(first)
    b = consistent8.with_covering(second)
    cr.fingerprint(a), cr.positive_region(a)
    c = a.without_covering("X").with_covering(second)
    for derived in (a, b, c, consistent8):
        rebuilt = cr.CoveringDecisionSystem(8, derived.coverings, derived.decision)
        assert cr.fingerprint(derived) == cr.fingerprint(rebuilt)
        assert cr.positive_region(derived) == cr.positive_region(rebuilt)
        assert cr.related_sets(derived) == cr.related_sets(rebuilt)
    assert cr.fingerprint(b) == cr.fingerprint(c) != cr.fingerprint(a)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 2000])
def test_admissible_matches_the_definition(n):
    # Blocks drawn inside one class, the same blocks with an object of
    # another class added (often the lowest or the highest object, so the
    # block's two ends fall in different classes), and arbitrary blocks.
    rng = random.Random(n)
    decision = random_decision(rng, n, 4)
    full = (1 << n) - 1
    system = cr.CoveringDecisionSystem(n, (cr.Covering("C", (full,)),), decision)
    classes = decision.classes
    members = [to_indices(cls) for cls in classes]

    def class_of(x):
        return next(j for j, cls in enumerate(classes) if cls >> x & 1)

    blocks, split_ends = [], 0
    for _ in range(200):
        j = rng.randrange(len(classes))
        block = mask_of(rng.sample(members[j], rng.randint(1, len(members[j]))))
        blocks += [block, rng.randint(1, full)]
        others = to_indices(full & ~classes[j])
        if others:
            for x in (others[0], others[-1], rng.choice(others)):
                mixed = block | 1 << x
                blocks.append(mixed)
                lowest, highest = (mixed & -mixed).bit_length() - 1, mixed.bit_length() - 1
                split_ends += class_of(lowest) != class_of(highest)
    expected = [b for b in blocks if any(b & ~cls == 0 for cls in classes)]
    assert system.admissible(blocks) == expected
    assert n == 1 or split_ends > 100
