import functools
import json
import operator
import random
import time
from collections import Counter

import pytest

import covreduct as cr
from covreduct import model
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

from conftest import obj


def test_build_valid_system(consistent8):
    assert consistent8.universe_size == 8
    assert consistent8.names() == ("C1", "C2", "C3", "C4", "C5")
    assert len(consistent8.decision.classes) == 3


def test_build_single_all_covering_block():
    system = cr.build_system(3, [("C1", [[0, 1, 2]])], [[0], [1, 2]])
    assert system.coverings[0].blocks == (0b111,)


# Malformed systems, one row each: build_system's arguments, and the class
# and whole message that it and load_system, given the system as a JSON
# document, raise.  A new malformed system is one more row.
REJECTED_SYSTEMS = [
    ("coverage-gap", 3, [("C1", [[0, 1]])], [[0], [1, 2]], CoverageGap, "covering 'C1' does not cover objects [2]"),
    ("empty-block", 2, [("C1", [[0, 1], []])], [[0], [1]], EmptyBlock, "covering 'C1': block 1 is empty"),
    ("duplicate-block", 2, [("C1", [[0, 1], [1, 0]])], [[0], [1]], DuplicateBlock,
     "covering 'C1': block 1 duplicates an earlier block"),
    ("duplicate-covering-name", 2, [("C1", [[0, 1]]), ("C1", [[0], [1]])], [[0], [1]], DuplicateCoveringName,
     "duplicate covering names: ['C1']"),
    ("index-past-universe", 2, [("C1", [[0, 2]])], [[0], [1]], IndexOutOfRange,
     "covering 'C1', block 0: object index 2 outside [0, 2)"),
    ("index-negative", 2, [("C1", [[0, -1]])], [[0], [1]], IndexOutOfRange,
     "covering 'C1', block 0: object index -1 outside [0, 2)"),
    ("decision-overlap", 2, [("C1", [[0, 1]])], [[0], [0, 1]], DecisionNotPartition,
     "decision class 1 overlaps an earlier class"),
    ("decision-gap", 2, [("C1", [[0, 1]])], [[0]], DecisionNotPartition, "decision classes do not cover objects [1]"),
    ("decision-empty-class", 2, [("C1", [[0, 1]])], [[0, 1], []], DecisionNotPartition, "decision class 1 is empty"),
    ("no-coverings", 2, [], [[0], [1]], cr.ValidationError, "a system needs at least one covering"),
    ("nonpositive-universe", 0, [("C1", [[0]])], [[0]], cr.ValidationError, "universe_size must be positive, got 0"),
]


@pytest.mark.parametrize("n, coverings, decision, error, message", [r[1:] for r in REJECTED_SYSTEMS],
                         ids=[r[0] for r in REJECTED_SYSTEMS])
def test_rejected_systems(n, coverings, decision, error, message):
    doc = {"universe_size": n, "coverings": [dict(name=c, blocks=b) for c, b in coverings], "decision": decision}
    for load in (lambda: cr.build_system(n, coverings, decision), lambda: cr.load_system(json.dumps(doc))):
        with pytest.raises(error) as err:
            load()
        assert (type(err.value), str(err.value)) == (error, message)


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


@pytest.mark.parametrize(
    "n, stamp",
    [
        (1, "2695c829b437d265"),
        (8, "b4af7f84adbd21d7"),
        (9, "b54f67db2a48980b"),
        (64, "4c5264cd4bc9dd9f"),
        (65, "a9b6e899460c1a57"),
    ],
)
def test_fingerprint_golden(n, stamp):
    # Format 6 caches on disk carry these stamps, which hash admissible
    # unions (format 5 hashed every block, so its stamps differ): n sits on
    # either side of the byte and word widths of the mask encoding.  Windows
    # of three objects, two apart, cover the universe; the decision groups
    # objects by x mod 3, so only a one-object last window fits a class (at
    # n = 1, 9 and 65 its union is the top object, past a byte or a word).
    blocks = [range(i, min(i + 3, n)) for i in range(0, n, 2)]
    decision = [range(k, n, 3) for k in range(min(n, 3))]
    assert cr.fingerprint(cr.build_system(n, [("W", blocks)], decision)) == stamp


def test_fingerprint_golden_after_updates(consistent8, covering6):
    # The derived system stamps from the memos its parent hands on.  Both
    # are format 6 stamps, over the admissible unions.
    assert cr.fingerprint(consistent8) == "1916946624b3be26"
    derived = consistent8.with_covering(covering6).without_covering("C1")
    assert cr.fingerprint(derived) == "e1461ac191a42f80"


def test_with_and_without_covering(consistent8, covering6):
    grown = consistent8.with_covering(covering6)
    assert grown.names()[-1] == "C6"
    back = grown.without_covering("C6")
    assert cr.fingerprint(back) == cr.fingerprint(consistent8)
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
    decision = random_decision(rng, n, min(4, n))
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


class _RecordingList(list):
    """A list that records the index of every read, to stand in for a
    system's ``_outside`` memo, which every block test reads once."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)


def _record_outside(system):
    """Replace ``system``'s ``_outside`` memo by a recording copy and return it."""
    recording = _RecordingList(system._outside)
    system.__dict__["_outside"] = recording
    return recording


def _lookups(blocks):
    """The ``_outside`` reads that testing each of ``blocks`` once makes."""
    return Counter(b.bit_length() for b in blocks)


def _union_cases(rng, n, trial):
    """A random decision over [0, n) and valid coverings of it: the shuffled
    discrete covering "D", the n-block chain "N" {0}, {0,1}, {1,2}, ...,
    random partitions "P1" and "P2" and an overlapping covering "O"."""
    full = (1 << n) - 1
    decision = random_decision(rng, n, rng.randint(1, min(4, n)), contiguous=trial % 2 == 1)
    members = [to_indices(cls) for cls in decision.classes]
    discrete = [1 << x for x in range(n)]
    rng.shuffle(discrete)
    chain = [1] + [3 << x for x in range(n - 1)]
    rng.shuffle(chain)
    overlapping = {mask_of(rng.sample(xs, rng.randint(1, len(xs)))) for xs in members}
    overlapping |= {rng.randint(1, full) for _ in range(4)}
    if rest := full & ~functools.reduce(operator.or_, overlapping):
        overlapping.add(rest)
    coverings = {
        "D": discrete,
        "N": chain,
        "P1": _partition_blocks(rng, n),
        "P2": _partition_blocks(rng, n),
        "O": list(overlapping),
    }
    for name, blocks in coverings.items():
        model._check_covering(name, blocks, n)
    return decision, coverings


def _fitting_or(blocks, decision):
    fits = [b for b in blocks if any(b & ~cls == 0 for cls in decision.classes)]
    return functools.reduce(operator.or_, fits, 0)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2000])
def test_admissible_union_matches_the_per_block_or(n):
    """The discrete covering's union is stamped without testing a block;
    every other covering's, including n-block ones that are not the
    discrete covering, is the OR of its blocks that fit a class, each block
    tested once."""
    rng = random.Random(f"admissible-union:{n}")
    for trial in range(6):
        decision, coverings = _union_cases(rng, n, trial)
        system = cr.CoveringDecisionSystem(
            n, tuple(cr.Covering(k, tuple(bs)) for k, bs in coverings.items()), decision
        )
        recording = _record_outside(system)
        looked_up = {}
        for name, blocks in coverings.items():
            recording.reads.clear()
            assert system.admissible_union(name) == _fitting_or(blocks, decision), name
            looked_up[name] = Counter(recording.reads)
        assert not looked_up["D"]
        # At n = 1 the chain is {0}, the discrete covering.
        assert looked_up["N"] == (Counter() if n == 1 else _lookups(coverings["N"]))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2000])
def test_cold_fingerprint_tests_each_block_once(n):
    rng = random.Random(f"cold-fingerprint:{n}")
    for trial in range(4):
        decision, coverings = _union_cases(rng, n, trial)
        system = cr.CoveringDecisionSystem(
            n, tuple(cr.Covering(k, tuple(bs)) for k, bs in coverings.items()), decision
        )
        recording = _record_outside(system)
        cr.fingerprint(system)
        singletons = {1 << x for x in range(n)}
        tested = [b for blocks in coverings.values() if set(blocks) != singletons for b in blocks]
        assert Counter(recording.reads) == _lookups(tested)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
def test_with_covering_stamps_the_discrete_covering_from_its_validation(n):
    """``with_covering`` memoizes the discrete covering's union, the
    universe, before any stamp is taken, and no other covering's."""
    rng = random.Random(f"with-covering:{n}")
    full = (1 << n) - 1
    for trial in range(4):
        decision, coverings = _union_cases(rng, n, trial)
        base = cr.CoveringDecisionSystem(n, (cr.Covering("B", (full,)),), decision)
        grown = base.with_covering(cr.Covering("D", tuple(coverings["D"])))
        assert grown.__dict__["_unions"] == {"D": full}
        recording = _record_outside(grown)
        assert grown.admissible_union("D") == full
        assert recording.reads == []
        coarser = [bs for bs in (_partition_blocks(rng, n) for _ in range(8)) if len(bs) < n]
        assert coarser or n == 1
        for k, blocks in enumerate([coverings["N"], *coarser]):
            name = f"X{k}"
            grown = base.with_covering(cr.Covering(name, tuple(blocks)))
            # At n = 1 the chain is {0}, the discrete covering.
            assert (name in grown.__dict__.get("_unions", {})) == (len(blocks) == n == 1)
            assert grown.admissible_union(name) == _fitting_or(blocks, decision)


def _reference_check_covering(name, blocks, n):
    """The per-block validation loop that the sorted passes replaced, kept
    as the reference for which fault is named and how."""
    if not blocks:
        raise CoverageGap(f"covering {name!r} has no blocks")
    seen = set()
    union = 0
    for k, b in enumerate(blocks):
        if b == 0:
            raise EmptyBlock(f"covering {name!r}: block {k} is empty")
        if b >> n:
            raise IndexOutOfRange(f"covering {name!r}: block {k} exceeds universe size {n}")
        if b in seen:
            raise DuplicateBlock(f"covering {name!r}: block {k} duplicates an earlier block")
        seen.add(b)
        union |= b
    if union != (1 << n) - 1:
        missing = to_indices((1 << n) - 1 & ~union)
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise CoverageGap(f"covering {name!r} does not cover objects {missing[:10]}{more}")


def _outcome(check, blocks, n):
    try:
        check("C", blocks, n)
    except cr.ValidationError as exc:
        return type(exc), str(exc)
    return None


def _valid_blocks(rng, n):
    """Distinct random blocks plus one block for the objects they miss."""
    full = (1 << n) - 1
    blocks = {rng.randint(1, full) for _ in range(rng.randint(1, 6))}
    rest = full & ~functools.reduce(operator.or_, blocks)
    if rest:
        blocks.add(rest)
    blocks = list(blocks)
    rng.shuffle(blocks)
    return blocks


def _partition_blocks(rng, n):
    """The blocks of a random object-to-block assignment, shuffled; now
    and then all singletons or a single block."""
    pick = rng.random()
    k = n if pick < 0.2 else 1 if pick < 0.3 else rng.randint(1, n)
    owner = list(range(n)) if k == n else [rng.randrange(k) for _ in range(n)]
    members = [[] for _ in range(k)]
    for x, j in enumerate(owner):
        members[j].append(x)
    blocks = [mask_of(xs) for xs in members if xs]
    rng.shuffle(blocks)
    return blocks


def _insert_at(rng, blocks, block, near=None):
    """Insert ``block`` at a random position, or right after index ``near``."""
    k = rng.randint(0, len(blocks)) if near is None else near + 1
    blocks.insert(k, block)


def _add_fault(rng, blocks, n, fault):
    full = (1 << n) - 1
    if fault == "empty":
        _insert_at(rng, blocks, 0)
    elif fault == "negative":
        _insert_at(rng, blocks, -rng.choice([1, rng.randint(1, full), rng.choice(blocks) or 1]))
    elif fault == "range":
        # Past-n bits that still fit the last byte of an n-bit encoding
        # are the ones a byte-level check would miss.
        same_byte = range(n, -(-n // 8) * 8)
        if same_byte and rng.random() < 0.5:
            bit = rng.choice(same_byte)
        else:
            bit = n + rng.choice([0, 1, rng.randrange(200)])
        if rng.random() < 0.5:
            k = rng.randrange(len(blocks))
            blocks[k] |= 1 << bit
        else:
            _insert_at(rng, blocks, 1 << bit | rng.randint(0, full))
    elif fault == "duplicate":
        pick = rng.choice(["smallest", "largest", "any"])
        block = min(blocks) if pick == "smallest" else max(blocks) if pick == "largest" else rng.choice(blocks)
        near = blocks.index(block) if rng.random() < 0.5 else None
        _insert_at(rng, blocks, block, near)
    else:  # uncovered: strip an object from every block, or drop its blocks
        x = 1 << rng.randrange(n)
        if rng.random() < 0.5:
            blocks[:] = [b & ~x for b in blocks]
        else:
            blocks[:] = [b for b in blocks if not b & x]


FAULTS = ("empty", "negative", "range", "duplicate", "uncovered")


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 2000])
def test_check_covering_matches_the_per_block_loop(n, monkeypatch):
    """Every fault, alone and together at random positions, in overlapping
    families and in partitions: the check raises what the loop raises,
    with the same message, and passes exactly when it passes.  Every
    outcome is reached without sorting the blocks, and some with it."""
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(model, "sorted", counting_sorted, raising=False)
    rng = random.Random(f"check-covering:{n}")
    seen = Counter()
    for trial in range(400):
        blocks = _partition_blocks(rng, n) if trial % 2 else _valid_blocks(rng, n)
        faults = [] if trial % 8 < 2 else rng.sample(FAULTS, rng.randint(1, len(FAULTS)))
        # Uncovering last, since it may drop every block.
        for fault in sorted(faults, key=FAULTS.index):
            _add_fault(rng, blocks, n, fault)
        expected = _outcome(_reference_check_covering, tuple(blocks), n)
        before = len(sorts)
        assert _outcome(model._check_covering, tuple(blocks), n) == expected
        seen[expected[0] if expected else None, len(sorts) > before] += 1
    outcomes = {None, EmptyBlock, IndexOutOfRange, DuplicateBlock, CoverageGap}
    assert {kind for kind, _ in seen} == outcomes
    assert {kind for kind, sorted_ in seen if not sorted_} == outcomes
    assert any(sorted_ for _, sorted_ in seen)


def test_check_covering_accepts_two_thousand_singletons():
    n = 2000
    blocks = [1 << x for x in range(n)]
    random.Random(5).shuffle(blocks)
    model._check_covering("KEY", tuple(blocks), n)
    assert cr.make_covering("KEY", [[x] for x in range(n)], n).blocks == tuple(1 << x for x in range(n))


def test_a_repeated_name_among_twenty_thousand_coverings_is_found_quickly():
    n = 4
    coverings = [(f"C{j}", [range(n)]) for j in range(20_000)]
    start = time.perf_counter()
    with pytest.raises(DuplicateCoveringName, match=r"\['C7'\]$"):
        cr.build_system(n, coverings + [("C7", [range(n)])], [range(n)])
    assert time.perf_counter() - start < 3


def test_decision_gap_in_a_huge_universe_is_rejected_without_building_it():
    start = time.perf_counter()
    with pytest.raises(DecisionNotPartition, match=r"do not cover objects \[1, 2, ") as err:
        model.make_decision([[0]], 10**18)
    assert time.perf_counter() - start < 1
    assert len(str(err.value)) < 200


def test_decision_naming_one_high_object_is_rejected_without_building_its_mask():
    start = time.perf_counter()
    with pytest.raises(DecisionNotPartition, match=r"\[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\] and 999999999990 more$"):
        model.make_decision([[10**12]], 10**12 + 1)
    assert time.perf_counter() - start < 1


def _reference_gap(union, n):
    missing = to_indices((1 << n) - 1 & ~union)
    more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
    return f"objects {missing[:10]}{more}" if missing else ""


@pytest.mark.parametrize("n", [1, 10, 11, 10**6])
def test_gap_report_matches_the_full_complement(n):
    rng = random.Random(f"gap:{n}")
    full = (1 << n) - 1
    unions = [0, full, full >> 1, full ^ 1, rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)]
    for _ in range(20):
        # Sparse unions high in the universe leave every low object missing.
        high = [rng.randrange(max(0, n - 64), n) for _ in range(rng.randint(1, 5))]
        unions.append(mask_of(high))
        unions.append(full & ~mask_of(rng.sample(range(n), min(n, rng.randint(1, 15)))))
    for union in unions:
        assert model._uncovered(union, n) == _reference_gap(union, n)


def _reference_make_covering(name, lists, n):
    """Index checks, then the full-width masks through the per-block loop."""
    for k, xs in enumerate(lists):
        for i in xs:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"covering {name!r}, block {k}: object index {i!r} outside [0, {n})")
    _reference_check_covering(name, tuple(mask_of(xs) for xs in lists), n)


def _reference_make_decision(lists, n):
    for j, xs in enumerate(lists):
        for i in xs:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"decision class {j}: object index {i!r} outside [0, {n})")
    union = 0
    for j, cls in enumerate(mask_of(xs) for xs in lists):
        if cls == 0:
            raise DecisionNotPartition(f"decision class {j} is empty")
        if cls & union:
            raise DecisionNotPartition(f"decision class {j} overlaps an earlier class")
        union |= cls
    if gap := _reference_gap(union, n):
        raise DecisionNotPartition(f"decision classes do not cover {gap}")


def _random_lists(rng, n):
    """Index lists with as many entries as objects or fewer, and at random an
    empty list, a repeated list or an index past the universe."""
    lists = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.3:
        lists.append(sorted(set(range(n)) - {x for xs in lists for x in xs}))
    for fault, add in (("empty", []), ("repeat", None), ("range", [n + rng.randrange(3)])):
        if rng.random() < 0.2 and (add is not None or lists):
            lists.insert(rng.randint(0, len(lists)), add if add is not None else list(rng.choice(lists)))
    return lists


@pytest.mark.parametrize("n", [1, 7, 8, 9, 40, 65])
def test_short_index_lists_fail_as_full_width_masks_would(n):
    """Lists with fewer entries than objects are checked over the ranks of
    their entries; the exception and message are those of full-width masks."""
    rng = random.Random(f"short:{n}")
    seen = Counter()
    for _ in range(300):
        lists = _random_lists(rng, n)
        expected = _outcome(_reference_make_covering, lists, n)
        assert _outcome(cr.make_covering, lists, n) == expected
        seen[sum(map(len, lists)) < n, expected and expected[0]] += 1
        expected = _outcome(lambda _, ls, size: _reference_make_decision(ls, size), lists, n)
        assert _outcome(lambda _, ls, size: model.make_decision(ls, size), lists, n) == expected
    faults = {EmptyBlock, IndexOutOfRange, DuplicateBlock, CoverageGap}
    assert n == 1 or {fault for short, fault in seen if short} == faults
