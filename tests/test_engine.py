import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import covreduct as cr
from covreduct import boolformula, engine, io
from covreduct.bitset import full_mask, to_indices
from covreduct.boolformula import (
    _pack,
    _row_ints,
    filter_non_extensions,
    minimal_hitting,
)
from covreduct.errors import (
    CoverageGap,
    DuplicateCoveringName,
    LastCovering,
    StaleCache,
    TermBlowup,
    TooManyCoverings,
    UnknownCovering,
)
from covreduct.synth import random_covering, random_system

from conftest import (
    CONSISTENT8_MINUS_REDUCTS,
    CONSISTENT8_PLUS_REDUCTS,
    CONSISTENT8_REDUCTS,
    INCONSISTENT8_REDUCTS,
    core_cnfs,
    nameset,
    obj,
    partition_blocks,
)


def test_batch_consistent_golden(consistent8):
    reducts, cache = cr.batch_reducts(consistent8)
    assert reducts.as_name_sets() == CONSISTENT8_REDUCTS
    assert cache.consistent
    assert cache.positive == full_mask(8)
    assert cache.fingerprint == cr.fingerprint(consistent8)


def test_batch_inconsistent_golden(inconsistent8):
    reducts, cache = cr.batch_reducts(inconsistent8)
    assert reducts.as_name_sets() == INCONSISTENT8_REDUCTS
    assert not cache.consistent
    assert to_indices(cache.positive) == obj(1, 4, 5, 6, 7, 8)


def test_batch_single_covering():
    system = cr.build_system(3, [("C1", [[0], [1, 2]])], [[0], [1, 2]])
    reducts, _ = cr.batch_reducts(system)
    assert reducts.as_name_sets() == nameset(("C1",))


def test_oracle_matches_batch_on_goldens(consistent8, inconsistent8):
    for system in (consistent8, inconsistent8):
        batch, _ = cr.batch_reducts(system)
        assert cr.oracle_reducts(system).as_name_sets() == batch.as_name_sets()


def test_oracle_single_covering():
    system = cr.build_system(3, [("C1", [[0], [1, 2]])], [[0], [1, 2]])
    assert cr.oracle_reducts(system).as_name_sets() == nameset(("C1",))


def test_oracle_covering_limit():
    system = cr.build_system(2, [(f"C{i}", [[0], [1]]) for i in range(17)], [[0], [1]])
    with pytest.raises(TooManyCoverings, match="17 coverings exceeds the oracle limit of 16"):
        cr.oracle_reducts(system)


def test_empty_positive_region_reduct_is_empty_family():
    # The only block straddles both classes, so nothing is admissible and
    # the empty sub-family is the unique minimal preserver of POS = {}.
    system = cr.build_system(2, [("C1", [[0, 1]])], [[0], [1]])
    batch, _ = cr.batch_reducts(system)
    assert batch.reducts == frozenset({0})
    assert cr.oracle_reducts(system).reducts == frozenset({0})


def test_add_covering_consistent_golden(consistent8, covering6):
    _, cache = cr.batch_reducts(consistent8)
    reducts, new_cache = cr.add_covering(consistent8, cache, covering6)
    assert reducts.as_name_sets() == CONSISTENT8_PLUS_REDUCTS
    added = reducts.as_name_sets() - CONSISTENT8_REDUCTS
    assert added == nameset(("C1", "C6"), ("C5", "C6"))
    assert new_cache.consistent
    assert new_cache.fingerprint == cr.fingerprint(consistent8.with_covering(covering6))


def test_update_related_add_golden(consistent8, covering6):
    _, cache = cr.batch_reducts(consistent8)
    assert to_indices(engine.add_delta(consistent8, covering6).union) == obj(2, 7, 8)
    rf_plus = cr.add_covering(consistent8, cache, covering6)[1].related
    rf = cache.related
    for label in (2, 7, 8):
        assert rf_plus.related_names(label - 1) == rf.related_names(label - 1) | {"C6"}
    for label in (1, 3, 4, 5, 6):
        assert rf_plus.related_names(label - 1) == rf.related_names(label - 1)


def test_add_covering_without_admissible_blocks(consistent8):
    _, cache = cr.batch_reducts(consistent8)
    # Both blocks straddle decision classes, so nothing changes.
    inert = cr.make_covering("C7", [obj(1, 2, 3, 4), obj(4, 5, 6, 7, 8)], 8)
    reducts, new_cache = cr.add_covering(consistent8, cache, inert)
    assert reducts.as_name_sets() == CONSISTENT8_REDUCTS
    assert new_cache.positive == cache.positive
    rf_plus = new_cache.related
    for x in range(8):
        assert "C7" not in rf_plus.related_names(x)


def test_add_covering_inconsistent_pos_unchanged(inconsistent8, covering5):
    reducts0, cache = cr.batch_reducts(inconsistent8)
    reducts, new_cache = cr.add_covering(inconsistent8, cache, covering5)
    assert reducts.as_name_sets() == INCONSISTENT8_REDUCTS
    assert new_cache.positive == cache.positive
    rf_plus = new_cache.related
    assert rf_plus.related_names(obj(4)[0]) == {"C1", "C2", "C5"}
    assert rf_plus.related_names(obj(2)[0]) == set()
    batch_plus, _ = cr.batch_reducts(inconsistent8.with_covering(covering5))
    assert reducts.as_name_sets() == batch_plus.as_name_sets()


POS_GROWING_BASE = {
    # Decision classes are singletons; pre-add related sets are
    # r(x0)={A,B}, r(x1)={A}, r(x2)=r(x3)={} and the only reduct is {A}.
    "coverings": [
        ("A", [[0], [1], [2, 3]]),
        ("B", [[0], [1, 2], [2, 3], [0, 1, 2, 3]]),
    ],
    "decision": [[0], [1], [2], [3]],
}


def test_add_covering_growing_positive_region():
    system = cr.build_system(4, POS_GROWING_BASE["coverings"], POS_GROWING_BASE["decision"])
    base, cache = cr.batch_reducts(system)
    assert base.as_name_sets() == nameset(("A",))
    new = cr.make_covering("N", [[1], [2], [0, 3], [0, 1, 2, 3]], 4)
    reducts, new_cache = cr.add_covering(system, cache, new)
    batch_plus, _ = cr.batch_reducts(system.with_covering(new))
    assert reducts.as_name_sets() == batch_plus.as_name_sets()
    # Extending every old reduct with the new covering would have missed
    # {B, N}; the expansion route finds it.
    assert reducts.as_name_sets() == nameset(("A", "N"), ("B", "N"))
    # The grown region has an object only the new covering resolves.
    witness = [
        x
        for x in to_indices(new_cache.positive & ~cache.positive)
        if new_cache.related.related_names(x) == {"N"}
    ]
    assert witness
    assert cr.oracle_reducts(system.with_covering(new)).as_name_sets() == reducts.as_name_sets()


def test_add_covering_pos_monotone():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 9)
        system = random_system(rng, n, rng.randint(1, 3), 3, 2, block_style="subset")
        _, cache = cr.batch_reducts(system)
        extra = random_covering(rng, n, "X", 3, style="subset")
        _, new_cache = cr.add_covering(system, cache, extra)
        assert cache.positive & ~new_cache.positive == 0


def test_add_covering_errors(consistent8, covering6):
    _, cache = cr.batch_reducts(consistent8)
    short = cr.Covering("C9", (0b0111,))  # covers only a 3-object universe
    with pytest.raises(CoverageGap):
        cr.add_covering(consistent8, cache, short)
    dupe = cr.make_covering("C5", [obj(1, 2, 3, 4, 5, 6, 7, 8)], 8)
    with pytest.raises(DuplicateCoveringName):
        cr.add_covering(consistent8, cache, dupe)


def _masks(names, name_sets):
    return frozenset(sum(1 << names.index(name) for name in r) for r in name_sets)


def test_reducts_view_equals_the_golden_masks(consistent8, inconsistent8, covering6):
    """``ReductSet.reducts`` materializes the masks the rows hold."""
    batch, cache = cr.batch_reducts(consistent8)
    names = consistent8.names()
    assert batch.reducts == _masks(names, CONSISTENT8_REDUCTS)
    plus, _ = cr.add_covering(consistent8, cache, covering6)
    assert plus.reducts == _masks(names + ("C6",), CONSISTENT8_PLUS_REDUCTS)
    minus, _ = cr.delete_covering(consistent8, cache, "C5")
    assert minus.reducts == _masks(names[:4], CONSISTENT8_MINUS_REDUCTS)
    loaded = cr.load_cache(cr.serialize_cache(cache)).reducts
    assert loaded == batch and loaded.reducts == batch.reducts
    inconsistent, _ = cr.batch_reducts(inconsistent8)
    assert inconsistent.reducts == _masks(inconsistent8.names(), INCONSISTENT8_REDUCTS)


@pytest.mark.parametrize("m", [8, 70])
def test_reduct_set_rows_are_read_only_and_compare_in_any_order(m):
    names = tuple(f"C{i}" for i in range(m))
    masks = [1 | 1 << (m - 1), 1 << 3, 1 << (m - 2) | 1 << 2]
    reducts = cr.ReductSet(names, _pack(masks, m))
    assert reducts == cr.ReductSet(names, _pack(masks[::-1], m))
    assert reducts != cr.ReductSet(names, _pack(masks[:2], m))
    assert reducts != cr.ReductSet(names[::-1], _pack(masks, m))
    assert reducts.reducts == frozenset(masks)
    assert reducts.sorted_name_lists() == sorted(cr.mask_to_names(names, r) for r in masks)
    with pytest.raises(ValueError):
        reducts.rows[0, 0] = 0
    with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
        cr.ReductSet(tuple(f"C{i}" for i in range(65)), np.zeros((3, 1), dtype=np.uint64))


def test_delete_covering_consistent_golden(consistent8):
    _, cache = cr.batch_reducts(consistent8)
    reducts, new_cache = cr.delete_covering(consistent8, cache, "C5")
    assert reducts.as_name_sets() == CONSISTENT8_MINUS_REDUCTS
    assert new_cache.consistent
    assert new_cache.fingerprint == cr.fingerprint(consistent8.without_covering("C5"))


def test_update_related_delete_golden(consistent8):
    _, cache = cr.batch_reducts(consistent8)
    rf_minus = cr.delete_covering(consistent8, cache, "C5")[1].related
    assert rf_minus.related_names(obj(1)[0]) == {"C1", "C3"}
    assert rf_minus.related_names(obj(7)[0]) == {"C2", "C4"}
    assert "C5" not in rf_minus.covering_names


def test_delete_covering_inconsistent_golden(inconsistent8):
    _, cache = cr.batch_reducts(inconsistent8)
    reducts, new_cache = cr.delete_covering(inconsistent8, cache, "C4")
    assert reducts.as_name_sets() == INCONSISTENT8_REDUCTS
    assert new_cache.positive == cache.positive
    assert new_cache.related.related_names(obj(4)[0]) == {"C1", "C2"}


def test_delete_covering_with_no_admissible_blocks_keeps_related(inconsistent8):
    _, cache = cr.batch_reducts(inconsistent8)
    assert inconsistent8.admissible_union("C4") == 0
    rf_minus = cr.delete_covering(inconsistent8, cache, "C4")[1].related
    for x in range(8):
        assert rf_minus.related_names(x) == cache.related.related_names(x)


def test_delete_covering_shrinking_positive_region(inconsistent8):
    _, cache = cr.batch_reducts(inconsistent8)
    reducts, new_cache = cr.delete_covering(inconsistent8, cache, "C1")
    reduced = inconsistent8.without_covering("C1")
    batch_minus, _ = cr.batch_reducts(reduced)
    assert reducts.as_name_sets() == batch_minus.as_name_sets() == nameset(("C2",))
    assert new_cache.positive != cache.positive
    assert cr.oracle_reducts(reduced).as_name_sets() == reducts.as_name_sets()


def test_delete_covering_can_break_consistency():
    # C1 sits in every reduct; deleting it shrinks the positive region and
    # the stripped reduct, the empty family, misses both residual clauses,
    # so the expansion continues from it.
    system = cr.build_system(
        3,
        [("C1", [[0], [1], [2]]), ("C2", [[0, 1], [2]]), ("C3", [[0], [1, 2]])],
        [[0], [1], [2]],
    )
    base, cache = cr.batch_reducts(system)
    assert base.as_name_sets() == nameset(("C1",))
    reducts, new_cache = cr.delete_covering(system, cache, "C1")
    reduced = system.without_covering("C1")
    batch_minus, _ = cr.batch_reducts(reduced)
    assert reducts.as_name_sets() == batch_minus.as_name_sets() == nameset(("C2", "C3"))
    assert not new_cache.consistent
    assert cr.oracle_reducts(reduced).as_name_sets() == reducts.as_name_sets()


def test_add_then_delete_roundtrip(consistent8, covering6):
    reducts0, cache0 = cr.batch_reducts(consistent8)
    _, cache1 = cr.add_covering(consistent8, cache0, covering6)
    grown = consistent8.with_covering(covering6)
    reducts2, cache2 = cr.delete_covering(grown, cache1, "C6")
    assert reducts2.as_name_sets() == reducts0.as_name_sets()
    assert cache2.fingerprint == cache0.fingerprint


def test_stale_cache_rejected(consistent8, covering6):
    _, cache = cr.batch_reducts(consistent8)
    grown = consistent8.with_covering(covering6)
    with pytest.raises(StaleCache):
        cr.add_covering(grown, cache, cr.make_covering("C9", [obj(1, 2, 3, 4, 5, 6, 7, 8)], 8))
    with pytest.raises(StaleCache):
        cr.delete_covering(grown, cache, "C1")


def test_reordered_cache_rejected(consistent8, covering6):
    # Reordering keeps the fingerprint but moves every covering's bit in
    # the cached masks, so the cache must not be reused.
    _, cache = cr.batch_reducts(consistent8)
    reordered = cr.CoveringDecisionSystem(
        consistent8.universe_size, consistent8.coverings[::-1], consistent8.decision
    )
    assert cr.fingerprint(reordered) == cache.fingerprint
    with pytest.raises(StaleCache):
        cr.delete_covering(reordered, cache, "C5")
    with pytest.raises(StaleCache):
        cr.add_covering(reordered, cache, covering6)


def test_cache_whose_reducts_name_other_coverings_is_rejected():
    # The fingerprint and related sets fit the system, but the reducts index
    # three other coverings: updates from such a cache answer wrongly.
    system = cr.build_system(
        4,
        [("C1", [[0, 1], [2], [3], [2, 3]]), ("C2", [[0], [1, 2], [3], [0, 3]])],
        [[0, 1], [2, 3]],
    )
    _, cache = cr.batch_reducts(system)
    other = cr.ReductSet(("X", "Y", "Z"), np.zeros((1, 1), dtype=np.uint64))
    with pytest.raises(ValueError, match=r"coverings \('C1', 'C2'\), its reducts \('X', 'Y', 'Z'\)"):
        cr.ReductionCache(cache.fingerprint, cache.related, other)
    with pytest.raises(ValueError, match="its reducts"):
        dataclasses.replace(cache, reducts=other)


def test_short_related_cache_rejected(inconsistent8, covering5):
    # Index 1 has an empty related set, so a cache cut to the first two
    # objects still agrees with its own positive region.
    _, cache = cr.batch_reducts(inconsistent8)
    related = cache.related
    short = dataclasses.replace(
        cache, related=cr.RelatedFamily(related.covering_names, related.rows[:2])
    )
    with pytest.raises(StaleCache, match="2 objects"):
        cr.add_covering(inconsistent8, short, covering5)
    with pytest.raises(StaleCache, match="2 objects"):
        cr.delete_covering(inconsistent8, short, "C4")


@pytest.mark.parametrize(
    "fixture, x, tampered",
    [
        # The region survives deleting C1: the filter path.
        ("consistent8", 0, 0b1),
        # The region shrinks: the strip-and-continue path.
        ("inconsistent8", 3, 0b1),
    ],
)
def test_delete_rejects_related_sets_that_disagree_with_the_region(
    fixture, x, tampered, request
):
    # The tampered related set is still non-empty, so a cache written with
    # it (digest and all, as a forger would) loads; only the delete, which
    # empties it, can see that it misdescribes the system.
    system = request.getfixturevalue(fixture)
    _, cache = cr.batch_reducts(system)
    r = list(cache.related.r)
    r[x] = tampered
    names = cache.related.covering_names
    related = cr.RelatedFamily(names, _pack(r, len(names)))
    loaded = cr.load_cache(cr.serialize_cache(dataclasses.replace(cache, related=related)))
    with pytest.raises(StaleCache, match="positive region"):
        cr.delete_covering(system, loaded, "C1")


def test_delete_errors(consistent8):
    _, cache = cr.batch_reducts(consistent8)
    with pytest.raises(UnknownCovering):
        cr.delete_covering(consistent8, cache, "C9")
    tiny = cr.build_system(2, [("C1", [[0], [1]])], [[0], [1]])
    _, tiny_cache = cr.batch_reducts(tiny)
    with pytest.raises(LastCovering):
        cr.delete_covering(tiny, tiny_cache, "C1")


def test_reduct_set_invariants_hold_on_random_systems():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 10)
        system = random_system(
            rng, n, rng.randint(1, 5), rng.randint(2, 6), min(rng.randint(2, 3), n), "subset"
        )
        reducts, cache = cr.batch_reducts(system)
        rf = cache.related
        for p in reducts.reducts:
            # Antichain.
            assert not any(q != p and q & ~p == 0 for q in reducts.reducts)
            # Positive-region preservation and indispensability.
            covered = [rm & p for rm in rf.r]
            assert all(bool(rm) == bool(c) for rm, c in zip(rf.r, covered))
            for i in to_indices(p):
                q = p & ~(1 << i)
                preserved = all(bool(rm) == bool(rm & q) for rm in rf.r)
                assert not preserved


def test_incremental_matches_batch_on_random_updates():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(2, 10)
        m = rng.randint(1, 4)
        system = random_system(
            rng, n, m, rng.randint(2, 6), min(rng.randint(2, 3), n), block_style="subset"
        )
        _, cache = cr.batch_reducts(system)
        extra = random_covering(rng, n, "X", rng.randint(1, 5), style="subset")
        inc, _ = cr.add_covering(system, cache, extra)
        batch, _ = cr.batch_reducts(system.with_covering(extra))
        assert inc.as_name_sets() == batch.as_name_sets()
        if m > 1:
            victim = system.coverings[rng.randrange(m)].name
            inc_d, _ = cr.delete_covering(system, cache, victim)
            batch_d, _ = cr.batch_reducts(system.without_covering(victim))
            assert inc_d.as_name_sets() == batch_d.as_name_sets()


def test_sorted_name_lists_display_order(consistent8):
    reducts, _ = cr.batch_reducts(consistent8)
    lines = reducts.sorted_name_lists()
    assert lines == sorted(lines)
    assert lines[0] == ("C1", "C2")


def _sparse_blocks(rng: random.Random, n: int) -> list[list[int]]:
    """One block over everything and, one time in five, a block of one or
    two objects inside one of four decision classes: the only admissible
    block, which often makes the covering an object's only resolver."""
    blocks = [list(range(n))]
    if rng.random() < 0.2:
        lo = rng.randrange(4) * (n // 4)
        blocks.append(rng.sample(range(lo, lo + n // 4), rng.randint(1, 2)))
    return blocks


@pytest.fixture
def expansions(monkeypatch):
    """The arguments of every ``engine.minimal_dnf`` call, as they happen."""
    calls = []
    expand = engine.minimal_dnf

    def recording(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(engine, "minimal_dnf", recording)
    return calls


def test_update_chain_across_the_word_boundary(expansions):
    """Adds and deletes that take the covering count 62 -> 67 -> 62 twice.

    Every step feeds the previous step's cache and must equal batch on the
    updated system.  Deletes pick coverings with an admissible block, so
    many shrink the positive region; of those, some keep the stripped
    reducts as they stand and some continue the expansion, with one- and
    two-word related sets.
    """
    shrinking = set()
    rng = random.Random(7)
    n = 16
    decision = [list(range(k, k + n // 4)) for k in range(0, n, n // 4)]
    system = cr.build_system(
        n, [(f"C{i}", _sparse_blocks(rng, n)) for i in range(62)], decision
    )
    _, cache = cr.batch_reducts(system)
    added = 0
    for op in ["add"] * 5 + ["delete"] * 5 + ["add"] * 5 + ["delete"] * 5:
        if op == "add":
            covering = cr.make_covering(f"X{added}", _sparse_blocks(rng, n), n)
            added += 1
            reducts, cache = cr.add_covering(system, cache, covering)
            system = system.with_covering(covering)
        else:
            live = [c.name for c in system.coverings if len(c.blocks) > 1]
            name = rng.choice(live or list(system.names()))
            expansions.clear()
            reducts, new_cache = cr.delete_covering(system, cache, name)
            if new_cache.positive != cache.positive:
                wide = len(new_cache.related.covering_names) > 64
                shrinking.add((wide, bool(expansions)))
            cache = new_cache
            system = system.without_covering(name)
        batch, _ = cr.batch_reducts(system)
        assert reducts.as_name_sets() == batch.as_name_sets()
    assert shrinking == {(False, True), (False, False), (True, True), (True, False)}


@pytest.mark.parametrize("start", [63, 64, 127, 128])
def test_cached_related_rows_follow_the_covering_count_across_word_edges(start):
    """start -> start + 1 -> start coverings, twice.  Each add puts the new
    covering at bit ``start`` (bit 63 of word 0, bit 0 of word 1, bit 63 of
    word 1 or bit 0 of word 2), and each delete strips the bit on one side
    of that edge: first the last old covering's, then the new one's.  After
    every update the cached related and reduct rows have word_count(m)
    words, equal batch's and cannot be written."""
    rng = random.Random(3)
    n = 16
    decision = [list(range(k, k + n // 4)) for k in range(0, n, n // 4)]
    system = cr.build_system(
        n, [(f"C{i}", _sparse_blocks(rng, n)) for i in range(start)], decision
    )
    _, cache = cr.batch_reducts(system)
    steps = [("add", "X0"), ("delete", f"C{start - 1}"), ("add", "X1"), ("delete", "X1")]
    for op, name in steps:
        if op == "add":
            covering = cr.make_covering(name, [list(range(n // 4))] + _sparse_blocks(rng, n), n)
            _, cache = cr.add_covering(system, cache, covering)
            system = system.with_covering(covering)
            assert system.covering_index(name) == start
        else:
            _, cache = cr.delete_covering(system, cache, name)
            system = system.without_covering(name)
        m = len(system.coverings)
        rows = cache.related.rows
        assert rows.shape == (n, boolformula.word_count(m))
        _, batch = cr.batch_reducts(system)
        assert np.array_equal(rows, batch.related.rows)
        assert cache.reducts.rows.shape[1] == rows.shape[1]
        assert cache.reducts == batch.reducts
        assert cache == batch
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        with pytest.raises(ValueError):
            cache.reducts.rows[0, 0] = 1


def test_deletes_match_batch_and_oracle(expansions):
    """Over two thousand seeded deletes, each against batch, and against the
    oracle up to twelve coverings.

    Small systems lose each covering in turn; systems of 65-70 sparse
    coverings lose ten with an admissible block, so shrinking deletes both
    keep the stripped reducts and continue the expansion at two words.
    """
    paths = Counter()

    def delete_each(system, names):
        _, cache = cr.batch_reducts(system)
        for name in names:
            expansions.clear()
            reducts, new_cache = cr.delete_covering(system, cache, name)
            continued = bool(expansions)
            reduced = system.without_covering(name)
            batch, _ = cr.batch_reducts(reduced)
            assert reducts.as_name_sets() == batch.as_name_sets()
            if len(reduced.coverings) <= 12:
                assert reducts.as_name_sets() == cr.oracle_reducts(reduced).as_name_sets()
            shrank = new_cache.positive != cache.positive
            path = "continue" if continued else "keep" if shrank else "filter"
            paths[len(reduced.coverings) > 64, path] += 1

    rng = random.Random(41)
    for _ in range(400):
        n, m = rng.randint(3, 12), rng.randint(2, 7)
        system = random_system(rng, n, m, rng.randint(2, 6), min(rng.randint(2, 4), n), "subset")
        delete_each(system, system.names())
    n = 16
    decision = [list(range(k, k + n // 4)) for k in range(0, n, n // 4)]
    for _ in range(30):
        m = rng.randint(65, 70)
        system = cr.build_system(n, [(f"C{i}", _sparse_blocks(rng, n)) for i in range(m)], decision)
        live = [c.name for c in system.coverings if len(c.blocks) > 1]
        delete_each(system, rng.sample(live, min(10, len(live))))
    assert sum(paths.values()) >= 2000
    assert all(paths[wide, path] for wide in (False, True) for path in ("filter", "keep", "continue"))


@pytest.mark.parametrize("padding", [0, 64], ids=["one word", "two words"])
def test_continued_delete_counts_the_start_toward_the_term_limit(padding):
    # Every object is its own decision class, so the admissible blocks are
    # the singletons, and each covering's related objects are listed below.
    # The clauses are {D}, {D, E}, {A1, B1}, {A2, B2} and {A3, E}: deleting
    # D shrinks the region and leaves the residual clause {E}, which four
    # of the eight stripped reducts miss.
    related = {"D": [0, 1], "E": [1, 4], "A1": [2], "B1": [2], "A2": [3], "B2": [3], "A3": [4]}
    n = 5
    coverings = [(f"P{i}", [list(range(n))]) for i in range(padding)]
    coverings += [(name, [list(range(n))] + [[x] for x in xs]) for name, xs in related.items()]
    system = cr.build_system(n, coverings, [[x] for x in range(n)])
    _, cache = cr.batch_reducts(system)
    assert len(cache.reducts.reducts) == 8
    # Four hit terms and four expanded ones: eight intermediate terms.
    with pytest.raises(TermBlowup):
        cr.delete_covering(system, cache, "D", max_terms=7)
    reducts, _ = cr.delete_covering(system, cache, "D", max_terms=8)
    batch, _ = cr.batch_reducts(system.without_covering("D"))
    assert reducts.as_name_sets() == batch.as_name_sets()
    assert len(reducts.reducts) == 4


def _minimal(terms):
    return {t for t in terms if not any(u != t and u & ~t == 0 for u in terms)}


def _product(start, clauses):
    """A plain-Python product from the antichain ``start`` over the minimal
    clauses, smallest first (ties by value), absorbed after every step.

    Returns the implicants before every step and after the last, and per
    step the term count the blowup guard sees: the hit implicants plus the
    missed ones times the clause size, or 0 when none misses the clause.
    """
    implicants, history, counts = set(start), [], []
    for clause in sorted(_minimal(set(clauses)), key=lambda c: (c.bit_count(), c)):
        history.append(implicants)
        hit = {t for t in implicants if t & clause}
        missed = implicants - hit
        counts.append(len(hit) + len(missed) * clause.bit_count() if missed else 0)
        if missed:
            implicants = _minimal(hit | {t | 1 << v for t in missed for v in to_indices(clause)})
    return history + [implicants], counts


def _peak_terms(start, clauses):
    """The largest intermediate term count the blowup guard sees (see ``_product``)."""
    return max(_product(start, clauses)[1], default=0)


@pytest.mark.parametrize("padding", [0, 64], ids=["one word", "two words"])
def test_term_limit_boundary_of_batch_and_continued_delete(padding):
    # Every object is its own decision class, so the admissible blocks are
    # the singletons and each object's related set is drawn directly.  The
    # padding coverings have no admissible block; they only move the
    # related sets to the second word.
    rng = random.Random(padding)
    continued = 0
    for _ in range(20):
        n, m = rng.randint(6, 14), rng.randint(6, 12)
        drawn = [rng.sample(range(m), rng.choice((1, 2, 2, 3, 3, 4))) for _ in range(n)]
        coverings = [(f"P{i}", [list(range(n))]) for i in range(padding)]
        coverings += [
            (f"V{i}", [list(range(n))] + [[x] for x in range(n) if i in drawn[x]])
            for i in range(m)
        ]
        system = cr.build_system(n, coverings, [[x] for x in range(n)])
        related = cr.related_sets(system)
        peak = _peak_terms({0}, [r for r in related.r if r])
        with pytest.raises(TermBlowup):
            cr.batch_reducts(system, max_terms=peak - 1)
        _, cache = cr.batch_reducts(system, max_terms=peak)
        for idx, name in enumerate(system.names()):
            d = 1 << idx
            if d not in related.r:
                continue  # the region keeps its size: the filter path

            def drop(t):
                return (t & d - 1) | (t >> (idx + 1) << idx)

            start = _minimal({drop(t) for t in cache.reducts.reducts})
            peak = _peak_terms(start, {drop(r) for r in related.r if r & d and r != d})
            if not peak:
                continue  # the stripped reducts stand: no product step
            with pytest.raises(TermBlowup):
                cr.delete_covering(system, cache, name, max_terms=peak - 1)
            reducts, _ = cr.delete_covering(system, cache, name, max_terms=peak)
            batch, _ = cr.batch_reducts(system.without_covering(name))
            assert reducts.as_name_sets() == batch.as_name_sets()
            continued += 1
    assert continued >= 10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimal_dnf_with_a_core_matches_the_plain_product(data):
    """A CNF with a core (one-bit clauses, repeated, with rows that meet
    them) from the empty term or a drawn antichain, at one and two words,
    gives the plain product's terms.  The term limit stops it exactly where
    the product's one-bit steps would, and the raised ``TermBlowup`` names
    the core.  With ``avoid`` rows it gives the terms that miss one of them
    once some step starts with more terms than there are rows (the core's
    step with the start's), else every term."""
    m = data.draw(st.sampled_from((6, 63, 64, 65, 128)))
    names = tuple(f"V{i}" for i in range(m))
    clauses = data.draw(core_cnfs(m))
    cnf = cr.MonotoneFormula("cnf", clauses, names)
    core = tuple(names[v] for v in range(m) if 1 << v in clauses)
    used = sorted({v for c in clauses for v in to_indices(c)})
    terms = st.sets(st.sampled_from(used), max_size=3).map(lambda vs: sum(1 << v for v in vs))
    # Distinct terms of one size form an antichain.
    size = min(len(used), data.draw(st.integers(1, 2)))
    sized = st.sets(st.sampled_from(used), min_size=size, max_size=size)
    two = min(2, math.comb(len(used), size))
    drawn = st.sets(sized.map(lambda vs: sum(1 << v for v in vs)), min_size=two, max_size=6)
    start = data.draw(st.just({0}) | drawn)
    rows = _pack(sorted(start), m)
    history, counts = _product(start, clauses)
    full, peak = history[-1], max(counts, default=0)
    if peak:
        with pytest.raises(TermBlowup) as raised:
            cr.minimal_dnf(cnf, max_terms=peak - 1, start=rows)
        assert raised.value.core == core
    assert cr.minimal_dnf(cnf, max_terms=peak, start=rows).terms == full
    avoid = data.draw(st.lists(st.sampled_from(clauses) | terms, max_size=4))
    got = cr.minimal_dnf(cnf, start=rows, avoid=_pack(avoid, m)).terms
    if any(len(before) > len(avoid) for before in history[:-1]):
        assert got == {t for t in full if any(not t & a for a in avoid)}
    else:
        assert got == full


@pytest.mark.parametrize("m", [6, 65], ids=["one word", "two words"])
def test_core_step_counts_the_start_and_its_tests_toward_the_limits(monkeypatch, m):
    """A CNF that is all core multiplies into a start in one step, charged as
    its one-bit steps: k start terms that miss the core count k terms, and
    the subset tests are the terms that miss it times those that meet it."""
    names = tuple(f"V{i}" for i in range(m))
    a, b = 1, 1 << (m - 1)
    cnf = cr.MonotoneFormula("cnf", [a, b, a, a | b, b | 0b110], names)
    missing = [0b10, 0b100, 0b1000, 0b10000]
    with pytest.raises(TermBlowup, match="exceeded 3 intermediate terms") as raised:
        cr.minimal_dnf(cnf, max_terms=3, start=_pack(missing, m))
    assert raised.value.core == ("V0", f"V{m - 1}")
    got = cr.minimal_dnf(cnf, max_terms=4, start=_pack(missing, m)).terms
    assert got == {a | b | t for t in missing}
    # Two of five start terms meet the core: 2 x 3 = 6 subset tests.
    mixed = [a | 0b10, b | 0b100, 0b1000, 0b10000, 0b110]
    monkeypatch.setattr(boolformula, "CELLS_PER_TERM", 1)
    with pytest.raises(TermBlowup, match="exceeded 5 subset tests"):
        cr.minimal_dnf(cnf, max_terms=5, start=_pack(mixed, m))
    assert cr.minimal_dnf(cnf, max_terms=6, start=_pack(mixed, m)).terms == {
        a | b | 0b10, a | b | 0b100, a | b | 0b1000, a | b | 0b10000
    }


def _check_step(system, reducts, rng):
    """Compare an updated system, derived with memos, to a memo-free rebuild."""
    rebuilt = cr.CoveringDecisionSystem(system.universe_size, system.coverings, system.decision)
    batch, _ = cr.batch_reducts(rebuilt)
    assert reducts.as_name_sets() == batch.as_name_sets()
    if len(system.coverings) <= 12:
        assert reducts.as_name_sets() == cr.oracle_reducts(rebuilt).as_name_sets()
    # Asking fills the memos, so only some steps hand a full memo onwards.
    if rng.random() < 0.5:
        assert cr.fingerprint(system) == cr.fingerprint(rebuilt)
        assert cr.positive_region(system) == cr.positive_region(rebuilt)
        assert cr.related_sets(system) == cr.related_sets(rebuilt)


def _run_chain(rng, system, new_blocks, steps, pick_op):
    """Random adds and deletes, each fed the previous step's reloaded cache.

    An add may reuse the name of a deleted covering for new blocks, so a
    memo the name kept from the old covering would show.
    """
    n = system.universe_size
    _, cache = cr.batch_reducts(system)
    deleted = []
    for k in range(steps):
        cache = cr.load_cache(cr.serialize_cache(cache))
        if pick_op(len(system.coverings)) == "add":
            name = deleted.pop() if deleted and rng.random() < 0.5 else f"X{k}"
            covering = cr.make_covering(name, new_blocks(rng, n), n)
            reducts, cache = cr.add_covering(system, cache, covering)
            system = system.with_covering(covering)
        else:
            name = rng.choice(system.names())
            deleted.append(name)
            reducts, cache = cr.delete_covering(system, cache, name)
            system = system.without_covering(name)
        _check_step(system, reducts, rng)
        assert cache.fingerprint == cr.fingerprint(
            cr.CoveringDecisionSystem(n, system.coverings, system.decision)
        )


def _subset_blocks(rng: random.Random, n: int) -> list[list[int]]:
    return [sorted(b) for b in map(to_indices, random_covering(rng, n, "_", 4, "subset").blocks)]


@pytest.mark.parametrize("seed", range(8))
def test_update_chain_fuzz(seed):
    """Chains of 10-20 adds and deletes at up to about 12 coverings."""
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    system = random_system(rng, n, rng.randint(2, 7), 4, rng.randint(2, 4), block_style="subset")

    def pick_op(m):
        return "add" if m == 1 or (m < 11 and rng.random() < 0.5) else "delete"

    _run_chain(rng, system, _subset_blocks, rng.randint(10, 20), pick_op)


def test_update_chain_fuzz_across_the_word_boundary(monkeypatch):
    """A random chain that starts at 60 coverings and crosses 64 both ways."""
    certified = []

    def recording(rows, clauses):
        certified.append(minimal_hitting(rows, clauses))
        return certified[-1]

    monkeypatch.setattr(io, "minimal_hitting", recording)
    rng = random.Random(11)
    n = 16
    decision = [list(range(k, k + n // 4)) for k in range(0, n, n // 4)]
    system = cr.build_system(
        n, [(f"C{i}", _sparse_blocks(rng, n)) for i in range(60)], decision
    )
    ops = iter(["add"] * 7 + ["delete", "add"] * 2 + ["delete"] * 7)
    counts = []

    def pick_op(m):
        counts.append(m)
        return next(ops)

    _run_chain(rng, system, _sparse_blocks, 18, pick_op)
    assert min(counts) <= 64 < max(counts)
    # Some reloaded caches hold more reducts than objects, and each of them
    # loads through the minimal-hitting-set certificate, not the fallback.
    assert certified and all(certified)


@pytest.mark.parametrize("padding", [0, 56])
@pytest.mark.parametrize("seed", [0, 1])
def test_written_caches_with_more_reducts_than_objects_pass_the_certificate(seed, padding):
    """Batch, add and delete write minimal hitting sets of the non-empty
    related sets, so ``load_cache`` never needs its ``absorb`` fallback on
    the caches they write with more reducts than objects."""
    # 16 reducts on 10 objects; never-admissible one-block coverings make
    # the rows two words wide and change nothing else.
    system = random_system(random.Random(seed), 10, 14, 4, 3, block_style="subset")
    own = system.coverings
    for i in range(padding):
        system = system.with_covering(cr.make_covering(f"P{i}", [list(range(10))], 10))
    written = Counter()

    def check(op, cache):
        if len(cache.reducts.rows) > system.universe_size:
            related = cache.related.rows
            assert minimal_hitting(cache.reducts.rows, cr.absorb(related[related.any(axis=1)]))
            written[op] += 1

    _, cache = cr.batch_reducts(system)
    check("batch", cache)
    for covering in own:
        _, smaller = cr.delete_covering(system, cache, covering.name)
        check("delete", smaller)
        check("add", cr.add_covering(system.without_covering(covering.name), smaller, covering)[1])
    assert written["batch"] == 1 and written["delete"] and written["add"]


@st.composite
def _covering_blocks(draw, n):
    """A partition of the universe plus up to two overlapping blocks."""
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = partition_blocks(labels)
    extra = st.sets(st.integers(0, n - 1), min_size=1).map(sorted)
    for block in draw(st.lists(extra, max_size=2)):
        if block not in blocks:
            blocks.append(block)
    return blocks


@st.composite
def _permuted_systems(draw):
    n = draw(st.integers(2, 7))
    decision = partition_blocks(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    m = draw(st.integers(2, 6))
    coverings = [(f"C{i}", draw(_covering_blocks(n))) for i in range(m)]
    order = draw(st.permutations(range(m)))
    system = cr.build_system(n, coverings, decision)
    permuted = cr.build_system(n, [coverings[i] for i in order], decision)
    extra = cr.make_covering("X", draw(_covering_blocks(n)), n)
    victim = draw(st.sampled_from(system.names()))
    return system, permuted, extra, victim


@settings(max_examples=150, deadline=None)
@given(_permuted_systems())
def test_reducts_do_not_depend_on_covering_order(case):
    system, permuted, extra, victim = case
    answers = []
    for s in (system, permuted):
        reducts, cache = cr.batch_reducts(s)
        added, _ = cr.add_covering(s, cache, extra)
        deleted, _ = cr.delete_covering(s, cache, victim)
        answers.append((reducts, added, deleted))
    for ours, theirs in zip(*answers):
        assert ours.as_name_sets() == theirs.as_name_sets()


@st.composite
def _small_systems(draw):
    n = draw(st.integers(3, 8))
    decision = partition_blocks(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    m = draw(st.integers(2, 12))
    return cr.build_system(n, [(f"C{i}", draw(_covering_blocks(n))) for i in range(m)], decision)


def test_term_blowup_names_the_coverings_in_every_reduct():
    """A batch that holds more than one term blows up at a limit of one, and
    the error's ``core`` is the intersection of the oracle's reducts, the
    coverings of its one-covering related sets.  Systems with and without
    a core are both drawn."""
    cases = Counter()

    @settings(max_examples=100, deadline=None)
    @given(_small_systems())
    def check(system):
        oracle = cr.oracle_reducts(system).as_name_sets()
        assume(len(oracle) >= 2)
        with pytest.raises(TermBlowup) as raised:
            cr.batch_reducts(system, max_terms=1)
        core = frozenset.intersection(*oracle)
        assert raised.value.core == tuple(name for name in system.names() if name in core)
        cases["core" if core else "no core"] += 1

    check()
    assert cases["core"] and cases["no core"], cases


@pytest.fixture
def filters(monkeypatch):
    """The candidates, the ``avoid`` rows and the result of every
    ``engine.filter_non_extensions`` call, as they happen, read from the
    rows as lists of int masks."""
    calls = []

    def recording(candidates, avoid):
        kept = filter_non_extensions(candidates, avoid)
        calls.append((_row_ints(candidates), _row_ints(avoid), _row_ints(kept)))
        return kept

    monkeypatch.setattr(engine, "filter_non_extensions", recording)
    return calls


def _key_covering(name, n):
    return cr.make_covering(name, [[x] for x in range(n)], n)


def test_add_filter_meets_only_the_stripped_old_reducts(filters, monkeypatch):
    """Seeded adds, most of them keeping the positive region, at one and
    two words.

    The filter must run on exactly the adds that keep the positive region
    and expand (the new covering has admissible blocks).  It must get the
    old related sets of the objects inside the new covering's union, and
    the terms it keeps must be both the candidates that miss some of them
    and those that strictly contain no old reduct: the module docstring's
    lemma, checked here as an equivalence.  The add must equal batch, and
    the oracle up to twelve coverings.  Adds whose stripped terms are the
    old reducts (nothing new), adds whose expansion is the new covering
    alone (a key covering on a consistent system) and ordinary adds all
    occur at both widths, and so do adds whose expansion drops terms that
    meet every ``avoid`` row (a spy on ``_misses_some`` inside
    ``minimal_dnf`` sees one dropped): those must also equal batch and the
    oracle, and the filter's two definitions must still agree.
    """
    kinds = Counter()
    pruning = []
    expanding = []
    misses_some = boolformula._misses_some
    minimal_dnf = engine.minimal_dnf

    def spy(terms, clauses):
        kept = misses_some(terms, clauses)
        if expanding:
            pruning.append(not kept.all())
        return kept

    def expand(*args, **kwargs):
        expanding.append(True)
        try:
            return minimal_dnf(*args, **kwargs)
        finally:
            expanding.pop()

    monkeypatch.setattr(boolformula, "_misses_some", spy)
    monkeypatch.setattr(engine, "minimal_dnf", expand)

    def add(system, cache, covering):
        filters.clear()
        pruning.clear()
        reducts, new_cache = cr.add_covering(system, cache, covering)
        pruned = any(pruning)  # some term was dropped
        grown = system.with_covering(covering)
        batch, _ = cr.batch_reducts(grown)
        assert reducts.as_name_sets() == batch.as_name_sets()
        if len(grown.coverings) <= 12:
            assert reducts.as_name_sets() == cr.oracle_reducts(grown).as_name_sets()
        union = grown.admissible_union(covering.name)
        assert bool(filters) == (union != 0 and cache.positive | union == cache.positive)
        if filters:
            (candidates, avoid, kept), = filters
            old = cache.reducts.reducts
            bit = 1 << len(system.coverings)
            inside = set(to_indices(union))
            rows = _row_ints(cache.related.rows)
            assert avoid == [r for x, r in enumerate(rows) if x in inside]
            assert kept == [t for t in candidates if not any(p != t and p & ~t == 0 for p in old)]
            assert kept == [t for t in candidates if any(not t & a for a in avoid)]
            stripped = {t & ~bit for t in candidates}
            if candidates == [bit]:
                kind = "expansion is c"
            elif stripped == old:
                kind = "nothing new"
            else:
                kind = "ordinary"
            kinds[len(grown.coverings) > 64, kind] += 1
            kinds[len(grown.coverings) > 64, "pruned"] += pruned
        assert filters or not pruning
        return grown, new_cache

    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(3, 10)
        system = random_system(
            rng, n, rng.randint(2, 6), rng.randint(2, 5), min(rng.randint(2, 4), n), "subset"
        )
        _, cache = cr.batch_reducts(system)
        for j in range(rng.randint(1, 3)):
            covering = cr.make_covering(f"X{j}", _subset_blocks(rng, n), n)
            system, cache = add(system, cache, covering)
        for j in range(2):
            system, cache = add(system, cache, _key_covering(f"K{j}", n))
    n = 16
    decision = [list(range(k, k + n // 4)) for k in range(0, n, n // 4)]
    for _ in range(10):
        m = rng.randint(58, 62)
        system = cr.build_system(n, [(f"C{i}", _sparse_blocks(rng, n)) for i in range(m)], decision)
        _, cache = cr.batch_reducts(system)
        for j in range(8):
            covering = cr.make_covering(f"X{j}", _sparse_blocks(rng, n), n)
            system, cache = add(system, cache, covering)
        for j in range(2):
            system, cache = add(system, cache, _key_covering(f"K{j}", n))
        for j in range(8, 12):
            covering = cr.make_covering(f"X{j}", _sparse_blocks(rng, n), n)
            system, cache = add(system, cache, covering)
    assert all(
        kinds[wide, kind]
        for wide in (False, True)
        for kind in ("expansion is c", "nothing new", "ordinary", "pruned")
    )


# --- the stamp contract --------------------------------------------------
#
# Two systems get equal stamps exactly when they agree on n, the covering
# names, each covering's admissible union and the decision classes.  The
# systems below have object 0 and object 1 in different classes, so a
# block holding both fits no class; padding with such one-block coverings
# makes the cached rows two words wide and changes no reduct.

PADDINGS = pytest.mark.parametrize("padding", [0, 64], ids=["one word", "two words"])


@st.composite
def _specs(draw, max_m):
    """(n, [(name, blocks)], decision) with object 0 and 1 in different classes."""
    n = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    labels[:2] = [0, 1]
    m = draw(st.integers(1, max_m))
    return n, [(f"C{i}", draw(_covering_blocks(n))) for i in range(m)], partition_blocks(labels)


def _padded(n, coverings, decision, padding):
    pads = [(f"P{i}", [range(n)]) for i in range(padding)]
    return cr.build_system(n, list(coverings) + pads, decision)


def _stamp_key(n, coverings, decision):
    """What a stamp describes, by definition: n, each name's union of the
    blocks that lie inside one class, and the classes as a set."""
    classes = [set(cls) for cls in decision]
    unions = {
        name: frozenset(x for b in blocks if any(set(b) <= cls for cls in classes) for x in b)
        for name, blocks in coverings
    }
    return n, unions, frozenset(map(frozenset, classes))


@st.composite
def _stamp_pairs(draw):
    """A system spec and a spec changed one way, which may or may not
    change what the stamp describes."""
    n, coverings, decision = draw(_specs(12))
    twin, twin_decision, twin_n = list(coverings), decision, n
    k = draw(st.integers(0, len(coverings) - 1))
    name, blocks = coverings[k]
    change = draw(
        st.sampled_from(
            ["reorder", "block", "unfit block", "drop", "rename", "swap", "decision", "grow"]
        )
    )
    if change == "reorder":
        twin = [(c, [bs[i] for i in draw(st.permutations(range(len(bs))))]) for c, bs in twin]
        twin = [twin[i] for i in draw(st.permutations(range(len(twin))))]
        twin_decision = [decision[i] for i in draw(st.permutations(range(len(decision))))]
    elif change in ("block", "unfit block"):
        block = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        if change == "unfit block":
            block = sorted({0, 1, *block})
        if block not in blocks:
            twin[k] = (name, blocks + [block])
    elif change == "drop":
        i = draw(st.integers(0, len(blocks) - 1))
        rest = blocks[:i] + blocks[i + 1 :]
        if set().union(*map(set, rest)) == set(range(n)):
            twin[k] = (name, rest)
    elif change == "rename":
        twin[k] = ("Z", blocks)
    elif change == "swap":
        j = draw(st.integers(0, len(coverings) - 1))
        twin[k], twin[j] = (name, coverings[j][1]), (coverings[j][0], blocks)
    elif change == "decision":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        labels[:2] = [0, 1]
        twin_decision = partition_blocks(labels)
    else:
        twin_n = n + 1
        twin = [(c, bs + [[n]]) for c, bs in twin]
        twin_decision = [decision[0] + [n]] + decision[1:]
    return (n, coverings, decision), (twin_n, twin, twin_decision), change


@PADDINGS
@settings(max_examples=150, deadline=None)
@given(case=_stamp_pairs())
def test_stamps_are_equal_exactly_when_unions_names_and_decision_are(padding, case):
    spec, twin, change = case
    a, b = _padded(*spec, padding), _padded(*twin, padding)
    same = _stamp_key(*spec) == _stamp_key(*twin)
    assert (cr.fingerprint(a) == cr.fingerprint(b)) == same
    assert same or change not in ("reorder", "unfit block")


@st.composite
def _unfit_twins(draw):
    """A system spec, the same with one more block that fits no class, a
    covering to add and the name of one to delete."""
    n, coverings, decision = draw(_specs(6))
    k = draw(st.integers(0, len(coverings) - 1))
    name, blocks = coverings[k]
    block = sorted({0, 1, *draw(st.sets(st.integers(0, n - 1)))})
    assume(block not in blocks)
    twin = list(coverings)
    twin[k] = (name, blocks + [block])
    added = draw(_covering_blocks(n))
    victim = draw(st.sampled_from([c for c, _ in coverings]))
    return n, coverings, twin, decision, added, victim


@PADDINGS
@settings(max_examples=60, deadline=None)
@given(case=_unfit_twins())
def test_a_cache_serves_a_system_that_differs_only_in_unfit_blocks(padding, case):
    n, coverings, twin, decision, added, victim = case
    a, b = _padded(n, coverings, decision, padding), _padded(n, twin, decision, padding)
    assert cr.fingerprint(a) == cr.fingerprint(b)
    _, cache = cr.batch_reducts(a)
    extra = cr.make_covering("X", added, n)
    grown, _ = cr.add_covering(b, cache, extra)
    assert grown == cr.batch_reducts(b.with_covering(extra))[0]
    # The padding coverings lie in no reduct, so the oracle runs without them.
    oracle = cr.oracle_reducts(cr.build_system(n, twin + [("X", added)], decision))
    assert grown.as_name_sets() == oracle.as_name_sets()
    if len(b.coverings) > 1:
        shrunk, _ = cr.delete_covering(b, cache, victim)
        assert shrunk == cr.batch_reducts(b.without_covering(victim))[0]
        rest = [c for c in twin if c[0] != victim]
        if rest:
            oracle = cr.oracle_reducts(cr.build_system(n, rest, decision))
            assert shrunk.as_name_sets() == oracle.as_name_sets()


@st.composite
def _stale_twins(draw):
    """A system spec and the same with one covering's admissible union
    changed, the decision changed or one covering renamed."""
    n, coverings, decision = draw(_specs(6))
    k = draw(st.integers(0, len(coverings) - 1))
    name, blocks = coverings[k]
    twin, twin_decision = list(coverings), decision
    change = draw(st.sampled_from(["union", "decision", "name"]))
    if change == "union":
        outside = sorted(set(range(n)) - _stamp_key(n, coverings, decision)[1][name])
        # A singleton fits its class; a whole-universe block fits none.
        twin[k] = (name, blocks + [outside[:1]]) if outside else (name, [list(range(n))])
    elif change == "decision":
        # Merge the classes of objects 0 and 1.
        twin_decision = [decision[0] + decision[1]] + decision[2:]
    else:
        twin[k] = ("Z", blocks)
    return n, coverings, twin, decision, twin_decision, draw(_covering_blocks(n))


@PADDINGS
@settings(max_examples=60, deadline=None)
@given(case=_stale_twins())
def test_a_cache_is_stale_for_another_union_decision_or_name(padding, case):
    n, coverings, twin, decision, twin_decision, added = case
    a = _padded(n, coverings, decision, padding)
    b = _padded(n, twin, twin_decision, padding)
    assert cr.fingerprint(a) != cr.fingerprint(b)
    _, cache = cr.batch_reducts(a)
    with pytest.raises(StaleCache):
        cr.add_covering(b, cache, cr.make_covering("X", added, n))
    with pytest.raises(StaleCache):
        cr.delete_covering(b, cache, b.names()[0])
