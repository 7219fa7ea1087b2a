import random

import numpy as np
import pytest

import covreduct as cr
from covreduct import boolformula
from covreduct.bitset import full_mask, mask_of
from covreduct.boolformula import _pack
from covreduct.synth import random_system

from conftest import obj

CONSISTENT8_RELATED = {
    1: {"C1", "C3", "C5"},
    2: {"C1", "C2", "C3", "C4", "C5"},
    3: {"C1", "C2", "C3", "C4", "C5"},
    4: {"C1", "C2", "C4", "C5"},
    5: {"C1", "C2", "C4", "C5"},
    6: {"C1", "C2", "C4", "C5"},
    7: {"C2", "C4"},
    8: {"C2", "C4"},
}

INCONSISTENT8_RELATED = {
    1: {"C2", "C3"},
    2: set(),
    3: set(),
    4: {"C1", "C2"},
    5: {"C1", "C2"},
    6: {"C1", "C2"},
    7: {"C1"},
    8: {"C1"},
}


def test_admissible_blocks_of_inconsistent_system(inconsistent8):
    adm = cr.admissible_blocks(inconsistent8)
    from_c1 = {block for block, names in adm if "C1" in names}
    assert from_c1 == {mask_of(obj(4, 5)), mask_of(obj(6)), mask_of(obj(7, 8))}
    excluded = {mask_of(obj(1, 2, 3, 4)), mask_of(obj(3, 6, 7))}
    assert excluded.isdisjoint(b for b, _ in adm)
    union = 0
    for block, _ in adm:
        union |= block
    assert union == cr.positive_region(inconsistent8)[1]


def test_single_class_makes_every_block_admissible():
    system = cr.build_system(3, [("C1", [[0, 1], [2], [0, 1, 2]])], [[0, 1, 2]])
    adm = cr.admissible_blocks(system)
    assert len(adm) == 3
    assert cr.positive_region(system)[1] == full_mask(3)


def test_straddling_covering_contributes_nothing():
    system = cr.build_system(
        4, [("C1", [[0], [1], [2], [3]]), ("S", [[0, 1], [1, 2], [2, 3]])], [[0, 2], [1, 3]]
    )
    adm = cr.admissible_blocks(system)
    assert all("S" not in names for _, names in adm)
    rf = cr.related_sets(system)
    assert all("S" not in rf.related_names(x) for x in range(4))


@pytest.mark.parametrize(
    "fixture,expected",
    [("consistent8", CONSISTENT8_RELATED), ("inconsistent8", INCONSISTENT8_RELATED)],
)
def test_related_sets_golden(fixture, expected, request):
    system = request.getfixturevalue(fixture)
    rf = cr.related_sets(system)
    for label, names in expected.items():
        assert rf.related_names(label - 1) == frozenset(names)


def test_related_sets_of_decision_covering():
    system = cr.build_system(
        4, [("D", [[0, 1], [2, 3]]), ("S", [[0, 2], [1, 3], [0, 1, 2, 3]])], [[0, 1], [2, 3]]
    )
    rf = cr.related_sets(system)
    for x in range(4):
        assert rf.related_names(x) == frozenset({"D"})


def test_related_function_golden(consistent8):
    cnf = cr.related_function(cr.related_sets(consistent8))
    assert cnf.mode == "cnf"
    assert boolformula._name_sets(cnf.names, cnf.rows) == frozenset(
        frozenset(s)
        for s in [
            {"C1", "C3", "C5"},
            {"C1", "C2", "C3", "C4", "C5"},
            {"C1", "C2", "C4", "C5"},
            {"C2", "C4"},
        ]
    )


def test_related_function_inconsistent_golden(inconsistent8):
    cnf = cr.related_function(cr.related_sets(inconsistent8))
    assert boolformula._name_sets(cnf.names, cnf.rows) == frozenset(
        frozenset(s) for s in [{"C2", "C3"}, {"C1", "C2"}, {"C1"}]
    )


def test_related_function_empty_when_all_related_sets_empty():
    system = cr.build_system(2, [("C1", [[0, 1]])], [[0], [1]])
    rf = cr.related_sets(system)
    assert rf.nonempty_objects == 0
    assert cr.related_function(rf).terms == frozenset()


def test_nonempty_objects_equals_positive_region():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 10)
        system = random_system(
            rng, n, rng.randint(1, 4), rng.randint(2, 5), min(rng.randint(2, 3), n), "subset"
        )
        rf = cr.related_sets(system)
        _, pos = cr.positive_region(system)
        assert rf.nonempty_objects == pos
    # Universes on both sides of the byte and word boundaries, against a
    # plain per-object loop.
    for n in (1, 7, 8, 9, 64, 65, 2000):
        for _ in range(4):
            r = tuple(rng.choice((0, rng.getrandbits(3))) for _ in range(n))
            rf = cr.RelatedFamily(("A", "B", "C"), _pack(r, 3))
            assert rf.nonempty_objects == sum(1 << x for x, mask in enumerate(r) if mask)


def test_consistent_system_has_no_empty_related_set(consistent8):
    rf = cr.related_sets(consistent8)
    assert rf.nonempty_objects == full_mask(8)


def test_adding_coverings_never_shrinks_related_sets():
    rng = random.Random(18)
    for _ in range(25):
        n = rng.randint(2, 9)
        system = random_system(rng, n, rng.randint(1, 3), 3, 2, block_style="subset")
        from covreduct.synth import random_covering

        extra = random_covering(rng, n, "X", 3, style="subset")
        grown = system.with_covering(extra)
        before = cr.related_sets(system)
        after = cr.related_sets(grown)
        for x in range(n):
            assert before.related_names(x) <= after.related_names(x)


def test_related_family_rejects_rows_of_another_width():
    names = tuple(f"C{i}" for i in range(65))
    with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
        cr.RelatedFamily(names, np.zeros((3, 1), dtype=np.uint64))
    with pytest.raises(ValueError, match=r"expected \(n, 1\)"):
        cr.RelatedFamily(names[:3], np.zeros(3, dtype=np.uint64))
