import functools
import operator
import random

import pytest

import covreduct as cr
from covreduct.bitset import full_mask, mask_of, to_indices
from covreduct.errors import UncoveredObject
from covreduct.synth import random_system

from conftest import obj

C1_BLOCKS = [mask_of(b) for b in (obj(1, 2), obj(2, 3, 4), obj(3), obj(4), obj(5, 6), obj(6, 7, 8))]


def pooled_blocks(system):
    return [b for b, _ in cr.union_of_coverings(system)]


def test_minimal_description_unique_singleton():
    md = cr.minimal_descriptions(C1_BLOCKS, 8)
    assert set(md.md[obj(3)[0]]) == {mask_of(obj(3))}


def test_minimal_description_two_incomparable():
    md = cr.minimal_descriptions(C1_BLOCKS, 8)
    assert set(md.md[obj(2)[0]]) == {mask_of(obj(1, 2)), mask_of(obj(2, 3, 4))}


def test_minimal_description_single_block_collection():
    md = cr.minimal_descriptions([0b111], 3)
    for x in range(3):
        assert md.md[x] == (0b111,)


def test_minimal_description_uncovered_object():
    with pytest.raises(UncoveredObject):
        cr.minimal_descriptions([0b011], 3)


def test_third_lower_empty_target():
    assert cr.third_lower(C1_BLOCKS, 0) == 0


def test_third_lower_decision_class(consistent8):
    target = mask_of(obj(1, 2, 3))
    assert cr.third_lower(pooled_blocks(consistent8), target) == target


def test_third_lower_full_universe(consistent8):
    assert cr.third_lower(pooled_blocks(consistent8), full_mask(8)) == full_mask(8)


def test_third_upper_empty_and_full():
    md = cr.minimal_descriptions(C1_BLOCKS, 8)
    assert cr.third_upper(md, 0) == 0
    assert cr.third_upper(md, full_mask(8)) == full_mask(8)


def test_third_upper_singleton():
    md = cr.minimal_descriptions(C1_BLOCKS, 8)
    assert cr.third_upper(md, mask_of(obj(3))) == mask_of(obj(3))


def test_regions_consistent_system(consistent8):
    report = cr.regions(consistent8)
    assert report.positive == full_mask(8)
    assert report.boundary == 0
    assert report.negative == 0


def test_regions_inconsistent_system(inconsistent8):
    report = cr.regions(inconsistent8)
    assert to_indices(report.positive) == obj(1, 4, 5, 6, 7, 8)
    assert report.positive & report.boundary == 0
    assert report.positive | report.boundary | report.negative == full_mask(8)


def test_regions_single_decision_class():
    system = cr.build_system(3, [("C1", [[0, 1], [2]])], [[0, 1, 2]])
    assert cr.regions(system).positive == full_mask(3)


def test_classify_consistency(consistent8, inconsistent8):
    assert cr.classify_consistency(consistent8) is cr.Consistency.CONSISTENT
    assert cr.classify_consistency(inconsistent8) is cr.Consistency.INCONSISTENT


def test_classify_singleton_partition_consistent():
    system = cr.build_system(3, [("C1", [[0], [1], [2]])], [[0], [1], [2]])
    assert cr.classify_consistency(system) is cr.Consistency.CONSISTENT


def test_union_reducible_superset_of_singletons():
    assert cr.union_reducible_blocks([0b01, 0b10, 0b11], 2) == [0b11]


def test_union_reducible_partition_has_none():
    assert cr.union_reducible_blocks([0b001, 0b110], 3) == []


def test_union_reducible_in_pooled_blocks(consistent8):
    reducible = cr.union_reducible_blocks(pooled_blocks(consistent8), 8)
    assert mask_of(obj(3, 4, 5, 6)) in reducible


def test_removing_reducible_blocks_keeps_descriptions(consistent8):
    blocks = pooled_blocks(consistent8)
    reducible = set(cr.union_reducible_blocks(blocks, 8))
    kept = [b for b in blocks if b not in reducible]
    before = cr.minimal_descriptions(blocks, 8)
    after = cr.minimal_descriptions(kept, 8)
    for x in range(8):
        assert set(before.md[x]) == set(after.md[x])


def test_positive_region_matches_admissible_union(consistent8, inconsistent8):
    rng = random.Random(10)
    randoms = [
        random_system(rng, n, rng.randint(1, 4), 4, min(rng.randint(2, 4), n), block_style="subset")
        for n in range(2, 12)
    ]
    for system in [consistent8, inconsistent8] + randoms:
        lower, pos = cr.positive_region(system)
        admissible = (block for block, _ in cr.admissible_blocks(system))
        assert pos == functools.reduce(operator.or_, admissible, 0)
        blocks = pooled_blocks(system)
        assert lower == tuple(cr.third_lower(blocks, cls) for cls in system.decision.classes)


def test_lower_and_upper_bracket_target():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 9)
        system = random_system(rng, n, rng.randint(1, 3), 4, 2, block_style="subset")
        blocks = pooled_blocks(system)
        md = cr.minimal_descriptions(blocks, n)
        target = rng.getrandbits(n)
        lower = cr.third_lower(blocks, target)
        upper = cr.third_upper(md, target)
        assert lower & ~target == 0
        assert target & ~upper == 0


def test_lower_and_upper_monotone():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 9)
        system = random_system(rng, n, 2, 4, 2, block_style="subset")
        blocks = pooled_blocks(system)
        md = cr.minimal_descriptions(blocks, n)
        small = rng.getrandbits(n)
        big = small | rng.getrandbits(n)
        assert cr.third_lower(blocks, small) & ~cr.third_lower(blocks, big) == 0
        assert cr.third_upper(md, small) & ~cr.third_upper(md, big) == 0


def _boundary_negative_by_upper_fold(system):
    """Reference: boundary and negative region read off the union of the
    decision classes' third uppers, as ``regions`` computed them before it
    took the boundary as the complement of the positive region."""
    md = cr.minimal_descriptions(pooled_blocks(system), system.universe_size)
    upper_union = 0
    for cls in system.decision.classes:
        upper_union |= cr.third_upper(md, cls)
    pos = cr.positive_region(system)[1]
    return upper_union & ~pos, full_mask(system.universe_size) & ~upper_union


def test_regions_match_the_upper_union_fold():
    rng = random.Random(24)
    verdicts = set()
    for _ in range(80):
        n = rng.randint(1, 12)
        style = rng.choice(["interval", "subset"])
        system = random_system(
            rng, n, rng.randint(1, 4), rng.randint(1, 5), min(rng.randint(1, 4), n), style
        )
        report = cr.regions(system)
        assert (report.boundary, report.negative) == _boundary_negative_by_upper_fold(system)
        verdicts.add(cr.classify_consistency(system))
    assert verdicts == set(cr.Consistency)


def test_regions_partition_properties_random():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 9)
        system = random_system(
            rng, n, rng.randint(1, 3), 3, min(rng.randint(2, 3), n), block_style="subset"
        )
        report = cr.regions(system)
        assert report.positive & report.boundary == 0
        assert report.positive & report.negative == 0
        assert report.boundary & report.negative == 0
        assert report.positive | report.boundary | report.negative == full_mask(n)
        consistent = cr.classify_consistency(system) is cr.Consistency.CONSISTENT
        assert consistent == (report.positive == full_mask(n))
