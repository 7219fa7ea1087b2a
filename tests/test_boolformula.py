import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covreduct as cr
from covreduct.bitset import bits, to_indices
from covreduct import boolformula
from covreduct.bench import BenchConfig, _generate
from covreduct.boolformula import (
    MonotoneFormula,
    _holds,
    _pack,
    _row_ints,
    _sorted_rows,
    _widen,
    drop_variable,
    filter_non_extensions,
    hits_all,
    minimal_hitting,
)
from covreduct.errors import TermBlowup

from bruteforce import minimal_hitting_sets, minimal_models, truth_table_equal
from conftest import core_cnfs

NAMES6 = ("C1", "C2", "C3", "C4", "C5", "C6")


def terms(*groups):
    return frozenset(sum(1 << NAMES6.index(name) for name in g) for g in groups)


def named(formula: MonotoneFormula) -> frozenset[frozenset[str]]:
    return boolformula._name_sets(formula.names, formula.rows)


def absorbed(masks, m=len(NAMES6)):
    """``absorb`` of int masks over m variables, read back as int masks."""
    return frozenset(_row_ints(cr.absorb(_pack(masks, m))))


def kept(candidates, avoid, m=len(NAMES6)):
    """``filter_non_extensions`` of int masks over m variables, read back as
    int masks in row order."""
    return _row_ints(filter_non_extensions(_pack(candidates, m), _pack(avoid, m)))


def missing_some(candidates, avoid):
    """Reference: the candidates, in order, that miss (share no variable
    with) some ``avoid`` term."""
    return [t for t in candidates if any(not t & a for a in avoid)]


def test_absorb_keeps_minimal_clauses():
    got = absorbed(
        terms(
            ("C1", "C3", "C5"),
            ("C1", "C2", "C3", "C4", "C5"),
            ("C1", "C2", "C4", "C5"),
            ("C2", "C4"),
        )
    )
    assert got == terms(("C1", "C3", "C5"), ("C2", "C4"))


def test_absorb_singleton_fixed_point():
    assert absorbed(terms(("C1",))) == terms(("C1",))


def test_absorb_drops_supersets():
    got = absorbed(terms(("C1", "C2"), ("C1",), ("C2",)))
    assert got == terms(("C1",), ("C2",))


def test_minimal_dnf_two_clause_product():
    cnf = MonotoneFormula("cnf", terms(("C1", "C3", "C5"), ("C2", "C4")), NAMES6)
    got = cr.minimal_dnf(cnf)
    assert got.mode == "dnf"
    assert named(got) == frozenset(
        frozenset(s)
        for s in [
            {"C1", "C2"},
            {"C1", "C4"},
            {"C2", "C3"},
            {"C3", "C4"},
            {"C2", "C5"},
            {"C4", "C5"},
        ]
    )


def test_minimal_dnf_empty_cnf_is_true():
    got = cr.minimal_dnf(MonotoneFormula("cnf", frozenset(), NAMES6))
    assert got.terms == frozenset({0})


def test_minimal_dnf_with_unit_clause():
    cnf = MonotoneFormula("cnf", terms(("C2", "C3"), ("C1",)), NAMES6)
    assert named(cr.minimal_dnf(cnf)) == frozenset(
        frozenset(s) for s in [{"C1", "C2"}, {"C1", "C3"}]
    )


def test_minimal_dnf_rejects_dnf_input():
    with pytest.raises(ValueError):
        cr.minimal_dnf(MonotoneFormula("dnf", terms(("C1",)), NAMES6))


def test_minimal_dnf_rejects_empty_clause():
    with pytest.raises(ValueError, match="empty clause"):
        cr.minimal_dnf(MonotoneFormula("cnf", frozenset({0}), NAMES6))
    # A row selection with a zero row among others, at one and two words.
    for m in (6, 65):
        names = tuple(f"V{i}" for i in range(m))
        rows = _pack([0b11, 0, 1 << (m - 1), 0b11], m)
        with pytest.raises(ValueError, match="empty clause"):
            cr.minimal_dnf(MonotoneFormula.from_rows("cnf", rows, names))


@pytest.mark.parametrize(
    "m, term",
    [(2, 0b100), (64, 1 << 64), (65, 1 << 65), (65, 1 << 128), (2, -1), (65, -1)],
    ids=["one word, bit past the names", "one word, past the word",
         "two words, bit past the names", "two words, past the words",
         "one word, negative", "two words, negative"],
)
def test_formula_rejects_a_term_past_its_names(m, term):
    names = tuple(f"V{i}" for i in range(m))
    with pytest.raises(ValueError, match=f"past its {m} variables"):
        MonotoneFormula("cnf", {0b1, term}, names)


def test_minimal_dnf_rejects_rows_past_their_names():
    # Bit 2 of a two-variable clause: the clause meets no variable.
    with pytest.raises(ValueError, match="past its 2 variables"):
        cr.minimal_dnf(MonotoneFormula.from_rows("cnf", _pack([0b100], 2), ("a", "b")))


@pytest.mark.parametrize("m", [0, 2, 63, 64, 65, 128, 130])
@pytest.mark.parametrize(
    "build",
    [
        lambda names, rows: MonotoneFormula.from_rows("cnf", rows, names),
        lambda names, rows: cr.RelatedFamily(names, rows),
        lambda names, rows: cr.ReductSet(names, rows),
    ],
    ids=["from_rows", "RelatedFamily", "ReductSet"],
)
def test_row_constructors_reject_a_bit_past_the_names(build, m):
    names = tuple(f"V{i}" for i in range(m))
    width = boolformula.word_count(m)
    used = m - 64 * (width - 1)
    rows = np.zeros((3, width), dtype=np.uint64)
    if m:
        rows[1, -1] = np.uint64(1 << (used - 1))  # the last variable: accepted
    build(names, rows)
    if used == 64:
        return  # the last word holds variables only
    for bit in {used, 63}:
        past = rows.copy()
        past[2, -1] = np.uint64(1 << bit)
        with pytest.raises(ValueError, match=f"past its {m} variables"):
            build(names, past)


@pytest.mark.parametrize("rows", [[[1.0]], [[1]], [[-1]]], ids=["float", "int64", "negative"])
@pytest.mark.parametrize(
    "build",
    [
        lambda names, rows: MonotoneFormula.from_rows("cnf", rows, names),
        lambda names, rows: cr.RelatedFamily(names, rows),
        lambda names, rows: cr.ReductSet(names, rows),
        lambda names, rows: cr.minimal_dnf(MonotoneFormula("cnf", [], names), start=rows),
    ],
    ids=["from_rows", "RelatedFamily", "ReductSet", "start"],
)
def test_row_constructors_reject_rows_that_are_not_uint64(build, rows):
    with pytest.raises(ValueError, match="expected uint64"):
        build(("A", "B"), np.array(rows))


@pytest.mark.parametrize(
    "build, terms",
    [(MonotoneFormula, [1]), (MonotoneFormula.from_rows, np.ones((1, 1), dtype=np.uint64))],
    ids=["ints", "from_rows"],
)
def test_formula_rejects_an_unknown_mode(build, terms):
    for mode in ("cnf", "dnf"):
        assert build(mode, terms, ("A",)).terms == {1}
    for mode in ("CNF", "dnf ", ""):
        with pytest.raises(ValueError, match="mode must be 'cnf' or 'dnf'"):
            build(mode, terms, ("A",))


def test_minimal_dnf_start_defaults_to_the_empty_implicant():
    names = tuple(f"V{i}" for i in range(70))
    cnf = MonotoneFormula("cnf", [0b11, 1 << 69], names)
    empty = np.zeros((1, 2), dtype=np.uint64)
    assert cr.minimal_dnf(cnf) == cr.minimal_dnf(cnf, start=empty)
    assert cr.minimal_dnf(MonotoneFormula("cnf", [], names)).terms == {0}
    with pytest.raises(ValueError, match=r"start rows of shape \(1, 1\)"):
        cr.minimal_dnf(cnf, start=np.zeros((1, 1), dtype=np.uint64))
    with pytest.raises(ValueError, match=r"avoid rows of shape \(1, 1\)"):
        cr.minimal_dnf(cnf, avoid=np.zeros((1, 1), dtype=np.uint64))


def test_filter_non_extensions_drops_strict_supersets():
    # A C6 add whose union holds one object, related set {C2, C5} (the
    # avoid row), with {C1, C3} and {C2, C3} the clauses outside it.  They
    # expand to {C3} and {C1, C2}, each plus C6.  {C1, C2} meets the avoid
    # row, so it is an old reduct and {C1, C2, C6} strictly contains it.
    candidates = sorted(terms(("C3", "C6"), ("C1", "C2", "C6")))
    assert kept(candidates, terms(("C2", "C5"))) == sorted(terms(("C3", "C6")))


def test_filter_non_extensions_empty_existing():
    # With no avoid rows there is no row to miss, so nothing is kept.
    candidates = sorted(terms(("C1",), ("C2", "C3"), ("C2", "C6")))
    assert kept(candidates, frozenset()) == []


def test_filter_non_extensions_keeps_equal_terms():
    # A candidate equal to an avoid row meets it, and is kept only for
    # missing another row; repeated candidates are kept as they come.
    candidates = sorted(terms(("C1", "C2"), ("C3", "C6"))) * 2
    assert kept(candidates, terms(("C1", "C2"), ("C3", "C6"))) == candidates
    assert kept(candidates, terms(("C1", "C3"), ("C2", "C6"))) == []


def test_term_blowup_guard():
    # Clauses {a_i, b_i} over disjoint pairs: the product has 2^k implicants.
    names = tuple(f"V{i}" for i in range(16))
    clauses = frozenset((1 << (2 * i)) | (1 << (2 * i + 1)) for i in range(8))
    cnf = MonotoneFormula("cnf", clauses, names)
    with pytest.raises(TermBlowup):
        cr.minimal_dnf(cnf, max_terms=100)
    assert len(cr.minimal_dnf(cnf).terms) == 256


def clause_strategy(n_vars: int):
    return st.integers(min_value=1, max_value=(1 << n_vars) - 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_dnf_matches_brute_force(data):
    n_vars = data.draw(st.integers(min_value=1, max_value=6))
    names = tuple(f"V{i}" for i in range(n_vars))
    clause_masks = data.draw(
        st.lists(clause_strategy(n_vars), min_size=0, max_size=6)
    )
    cnf = MonotoneFormula("cnf", frozenset(clause_masks), names)
    dnf = cr.minimal_dnf(cnf)

    clause_sets = [frozenset(to_indices(c)) for c in clause_masks]
    term_sets = [frozenset(to_indices(t)) for t in dnf.terms]
    assert set(term_sets) == minimal_hitting_sets(clause_sets, list(range(n_vars)))
    assert truth_table_equal(clause_sets, term_sets, list(range(n_vars)))
    # Antichain.
    for a in dnf.terms:
        for b in dnf.terms:
            assert a == b or a & ~b != 0


def test_minimal_dnf_invariant_under_presentation():
    rng = random.Random(5)
    names = tuple(f"V{i}" for i in range(8))
    for _ in range(40):
        clause_list = [rng.randint(1, 255) for _ in range(rng.randint(1, 6))]
        base = cr.minimal_dnf(MonotoneFormula("cnf", frozenset(clause_list), names))
        shuffled = list(clause_list)
        rng.shuffle(shuffled)
        duplicated = shuffled + shuffled
        assert (
            cr.minimal_dnf(MonotoneFormula("cnf", frozenset(duplicated), names)).terms
            == base.terms
        )
        pre_absorbed = absorbed(clause_list, len(names))
        assert (
            cr.minimal_dnf(MonotoneFormula("cnf", pre_absorbed, names)).terms
            == base.terms
        )


# Widths 1, 2 and 3 words, on both sides of the bit-63/64 boundary.
KERNEL_WIDTHS = (6, 63, 64, 65, 130)


def _positions(m: int) -> list[int]:
    """A few bit positions spread over [0, m), crowded around the word edges."""
    return sorted({p for p in (0, 1, 2, 62, 63, 64, 65, m - 2, m - 1) if 0 <= p < m})


@st.composite
def large_families(draw, m: int):
    """40-150 terms over m >= 10 variables, each a union of some of 5-8
    base terms, over at least 10 popcount levels, so ``absorb`` takes
    several heads, and rows nest within a head and across heads."""
    # A seeded Random: drawing every choice through Hypothesis would make
    # a family cost thousands of draws.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        bases = [sum(1 << p for p in rng.sample(range(m), rng.randint(1, 6)))
                 for _ in range(rng.randint(5, 8))]
        family = []
        for _ in range(rng.randint(40, 150)):
            union = 0
            for base in rng.sample(bases, rng.randint(1, len(bases))):
                union |= base
            family.append(union)
        if len({t.bit_count() for t in family}) >= 10:
            return family


@st.composite
def term_lists(draw, m: int, large: bool = True):
    """Terms over a few positions of m variables, often repeated or nested;
    at one and two words, unless ``large`` is False, sometimes one of
    ``large_families`` instead.  The brute-force oracles, which enumerate
    every subset of the variables in use, draw with ``large=False``."""
    if large and 10 <= m <= 128 and draw(st.integers(0, 3)) == 0:
        return draw(large_families(m))
    pool = _positions(m)
    masks = st.sets(st.sampled_from(pool), max_size=4).map(
        lambda ps: sum(1 << p for p in ps)
    )
    terms = draw(st.lists(masks, max_size=8))
    return terms + draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else terms


def _inside(small: int, big: int) -> bool:
    return small & ~big == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_absorb_matches_subset_loop(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    terms = data.draw(term_lists(m))
    distinct = set(terms)
    assert absorbed(terms, m) == {
        t for t in distinct if not any(s != t and _inside(s, t) for s in distinct)
    }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_clause_rows_absorb_in_size_then_value_order(data):
    # minimal_dnf multiplies its clauses in this order, so it fixes the
    # product steps and where TermBlowup and the cell budget stop.
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    terms = data.draw(term_lists(m))
    distinct = set(terms)
    minimal = {t for t in distinct if not any(s != t and _inside(s, t) for s in distinct)}
    assert _row_ints(cr.absorb(_pack(terms, m))) == sorted(
        minimal, key=lambda c: (c.bit_count(), c)
    )


def test_absorb_drops_rows_within_a_head_and_across_heads():
    """Over ``term_lists``, ``absorb`` drops both rows that contain a row
    of their own head and rows that contain a kept row of an earlier head.
    A spy on ``_contains_subset`` counts the second kind; the distinct
    rows neither kept nor dropped by it are the first kind."""
    cases = Counter()
    contains_subset = boolformula._contains_subset

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.sampled_from([w for w in KERNEL_WIDTHS if w <= 128]))
        terms = data.draw(term_lists(m))
        across = []

        def spy(rows, head):
            found = contains_subset(rows, head)
            across.append(int(found.sum()))
            return found

        with mock.patch.object(boolformula, "_contains_subset", spy):
            kept = cr.absorb(_pack(terms, m))
        within = len(set(terms)) - len(kept) - sum(across)
        assert within >= 0
        cases["within a head"] += within > 0
        cases["across heads"] += sum(across) > 0

    check()
    assert cases["within a head"] and cases["across heads"], cases


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_filter_non_extensions_matches_its_definition(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    # Candidates repeat, and so do avoid rows, some of them candidates.
    candidates = data.draw(term_lists(m))
    data.draw(st.randoms()).shuffle(candidates)
    avoid = data.draw(term_lists(m))
    avoid += data.draw(st.lists(st.sampled_from(candidates or [0]), max_size=3))
    assert kept(candidates, avoid, m) == missing_some(candidates, avoid)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_dnf_matches_brute_force_at_every_width(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    names = tuple(f"V{i}" for i in range(m))
    clauses = [c for c in data.draw(term_lists(m, large=False) | core_cnfs(m)) if c]
    dnf = cr.minimal_dnf(MonotoneFormula("cnf", frozenset(clauses), names))
    # The same CNF as a row selection, its repeated rows kept, expands to
    # the same rows in the same order.
    from_rows = cr.minimal_dnf(MonotoneFormula.from_rows("cnf", _pack(clauses, m), names))
    assert np.array_equal(from_rows.rows, dnf.rows)
    # Minimal hitting sets only use variables that occur in some clause.
    used = sorted({v for c in clauses for v in to_indices(c)})
    clause_sets = [frozenset(to_indices(c)) for c in clauses]
    assert {frozenset(to_indices(t)) for t in dnf.terms} == minimal_hitting_sets(clause_sets, used)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_dnf_from_start_matches_brute_force(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    names = tuple(f"V{i}" for i in range(m))
    clauses = [c for c in data.draw(term_lists(m, large=False) | core_cnfs(m)) if c]
    k = data.draw(st.integers(0, len(clauses)))
    prefix, rest = clauses[:k], clauses[k:]
    used = sorted({v for c in clauses for v in to_indices(c)})
    sets = [frozenset(to_indices(c)) for c in clauses]
    prefix_hitting = {sum(1 << v for v in h) for h in minimal_hitting_sets(sets[:k], used)}
    start = data.draw(st.sampled_from([frozenset({0}), frozenset(prefix_hitting)]))
    cnf = MonotoneFormula("cnf", frozenset(rest), names)
    dnf = cr.minimal_dnf(cnf, start=_pack(start, m))

    def holds(true_vars):
        mask = sum(1 << v for v in true_vars)
        return any(_inside(t, mask) for t in start) and all(c & mask for c in rest)

    got = {frozenset(to_indices(t)) for t in dnf.terms}
    assert got == minimal_models(holds, used)
    if start == prefix_hitting:
        # Berge: continuing from a prefix's hitting sets finishes the CNF.
        assert got == minimal_hitting_sets(sets, used)
    # The survivor check of a shrinking delete, against a plain loop.
    candidates = list(start) + data.draw(term_lists(m))
    assert hits_all(_pack(candidates, m), _pack(rest, m)) == all(
        t & c for t in candidates for c in rest
    )


def test_minimal_dnf_avoid_matches_its_definition():
    """Every term returned with ``avoid`` is a term of the minimal DNF
    without it, and every such term that misses some ``avoid`` row is
    returned.  Once pruning has started (the spy sees ``_misses_some``
    run) the result is exactly those terms; before, it is the whole DNF.
    ``avoid`` sets both smaller and larger than the families, and empty
    ones, are drawn, at one and two words."""
    cases = Counter()
    misses_some = boolformula._misses_some

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.sampled_from([w for w in KERNEL_WIDTHS if w <= 128]))
        names = tuple(f"V{i}" for i in range(m))
        # Clauses of two or three variables, so the families grow.  The
        # avoid rows are often clauses, of the CNF or, as in an add, left
        # out of it, so some families meet every one of them.
        wide = st.sets(st.sampled_from(_positions(m)), min_size=2, max_size=3)
        clauses = data.draw(st.lists(wide.map(lambda ps: sum(1 << p for p in ps)), max_size=8))
        k = data.draw(st.integers(0, len(clauses)))
        cnf = MonotoneFormula("cnf", clauses[:k], names)
        start = _pack(absorbed(data.draw(term_lists(m)) or [0], m), m)
        few = data.draw(st.booleans())  # fewer rows than the families soon hold
        avoid = data.draw(
            st.lists(st.sampled_from(clauses or [1]), min_size=few, max_size=2 if few else 4)
        )
        if not few:
            avoid += data.draw(term_lists(m))
            avoid += data.draw(st.lists(st.sampled_from(avoid or [0]), max_size=40))
        full = cr.minimal_dnf(cnf, start=start).terms
        with mock.patch.object(boolformula, "_misses_some", wraps=misses_some) as spy:
            got = cr.minimal_dnf(cnf, start=start, avoid=_pack(avoid, m)).terms
        missing = {t for t in full if any(not t & a for a in avoid)}
        assert missing <= got <= full
        assert got == (missing if spy.called else full)
        cases["empty avoid"] += not avoid
        if avoid and len(cnf.rows) > 1:
            cases["pruned"] += got != full
            cases["whole"] += not spy.called

    check()
    assert cases["pruned"] and cases["whole"] and cases["empty avoid"], cases


def _is_minimal_hitting(row: int, clauses: list[int]) -> bool:
    """Reference: the row meets every clause, and dropping any one of its
    bits leaves a set that misses some clause."""

    def hits(t):
        return all(t & c for c in clauses)

    return hits(row) and not any(hits(row & ~(1 << v)) for v in bits(row))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimal_hitting_matches_its_definition(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    clauses = [c for c in data.draw(term_lists(m, large=False)) if c]  # may be none, or repeat
    used = sorted({v for c in clauses for v in to_indices(c)})
    sets = [frozenset(to_indices(c)) for c in clauses]
    hitting = sorted(sum(1 << v for v in h) for h in minimal_hitting_sets(sets, used))
    rows = data.draw(st.lists(st.sampled_from(hitting), min_size=1, max_size=6)) if hitting else []
    if data.draw(st.booleans()):
        rows += data.draw(term_lists(m))
    data.draw(st.randoms()).shuffle(rows)
    # Steps of one row up to all of them, so chunk edges fall between rows.
    cells = data.draw(st.sampled_from((1, 7, boolformula.CHUNK_CELLS)))
    with mock.patch.object(boolformula, "CHUNK_CELLS", cells):
        got = minimal_hitting(_pack(rows, m), _pack(clauses, m))
    assert got == all(_is_minimal_hitting(r, clauses) for r in rows)


def test_minimal_hitting_counts_a_meet_past_255_bits():
    # A 257-bit meet is no single bit, though 257 wraps to 1 in a uint8.
    row = _pack([(1 << 257) - 1], 300)
    assert not minimal_hitting(row, row)
    assert minimal_hitting(_pack([1 << 299], 300), row | _pack([1 << 299], 300))


def test_minimal_hitting_counts_a_meet_across_both_words():
    # One bit of the meet in each word is two bits, not one per word.
    both = 1 | 1 << 64
    assert not minimal_hitting(_pack([both], 70), _pack([both], 70))
    assert minimal_hitting(_pack([both], 70), _pack([both, 1, 1 << 64], 70))


def test_minimal_hitting_sees_a_hit_in_the_second_word_alone():
    # The row meets the second clause only at bit 64, in word two.
    clauses = _pack([1, 2 | 1 << 64], 70)
    assert minimal_hitting(_pack([1 | 1 << 64], 70), clauses)
    assert not minimal_hitting(_pack([1], 70), clauses)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_matching_and_order_against_ints(data):
    for m in KERNEL_WIDTHS:
        # Rows repeat in both arrays, and some rows of a are rows of b.
        a = data.draw(term_lists(m))
        b = data.draw(term_lists(m)) + data.draw(st.lists(st.sampled_from(a or [0]), max_size=3))
        data.draw(st.randoms()).shuffle(a)
        assert _row_ints(_sorted_rows(_pack(a, m))) == sorted(a)


@pytest.mark.parametrize("m", KERNEL_WIDTHS)
def test_kernel_users_on_empty_inputs(m):
    some = frozenset({1 << (m - 1), 0b11})
    width = boolformula.word_count(m)
    assert cr.absorb(_pack([], m)).shape == (0, width)
    # One row, alone or repeated, comes back as that one row.
    for rows in (_pack([0b11], m), _pack([0b11, 0b11, 0b11], m), tuple(_pack([0b11], m))):
        for got in (cr.absorb(rows), boolformula._unique_rows(np.asarray(rows))):
            assert got.dtype == np.uint64 and got.shape == (1, width)
            assert _row_ints(got) == [0b11]
    assert kept([], some, m) == []
    assert kept(sorted(some), [], m) == []
    assert kept(sorted(some), [1 << (m - 1)], m) == [0b11]
    assert kept([0], [0b11], m) == [0]  # the empty term misses every non-empty row
    names = tuple(f"V{i}" for i in range(m))
    assert cr.minimal_dnf(MonotoneFormula("cnf", frozenset(), names)).terms == frozenset({0})
    # With no clauses only the empty row is a minimal hitting set.
    none = _pack([], m)
    assert minimal_hitting(_pack([0], m), none) and minimal_hitting(none, none)
    assert not minimal_hitting(_pack([0, 1 << (m - 1)], m), none)
    assert minimal_hitting(none, _pack(sorted(some), m))


@pytest.mark.parametrize("m", KERNEL_WIDTHS)
def test_row_operators_take_sequences_of_rows(m):
    # A caller may hand the rows on one at a time, as a tuple of 1-D rows;
    # an empty candidates tuple then has no width of its own.
    rows = _pack([1 << (m - 1), 0b11, 0b111], m)
    avoid = _pack([0b100, 0b1], m)
    assert np.array_equal(cr.absorb(tuple(rows)), cr.absorb(rows))
    assert np.array_equal(filter_non_extensions((), tuple(avoid)), rows[:0])
    assert np.array_equal(
        filter_non_extensions(tuple(rows), tuple(avoid)), filter_non_extensions(rows, avoid)
    )
    assert _row_ints(filter_non_extensions(rows, avoid)) == [1 << (m - 1), 0b11]
    # Int masks are not rows.
    with pytest.raises(ValueError, match="word rows"):
        cr.absorb([0b11, 0b111])
    with pytest.raises(ValueError, match="word rows"):
        filter_non_extensions(rows, [0b11])
    with pytest.raises(ValueError, match="word rows"):
        filter_non_extensions([0b11], avoid)
    # Both operands have one width.
    wider = np.zeros((1, rows.shape[1] + 1), dtype=np.uint64)
    for operands in ((rows, wider), (wider, avoid)):
        with pytest.raises(ValueError, match="word rows"):
            filter_non_extensions(*operands)


def test_term_blowup_guard_on_multiword_terms():
    # The 2^8 product of disjoint pairs, placed above bit 64 of 130 variables.
    names = tuple(f"V{i}" for i in range(130))
    clauses = frozenset((0b11 << (100 + 2 * i)) for i in range(8))
    cnf = MonotoneFormula("cnf", clauses, names)
    with pytest.raises(TermBlowup):
        cr.minimal_dnf(cnf, max_terms=100)
    assert len(cr.minimal_dnf(cnf).terms) == 256


def test_cell_budget_bounds_work_below_the_term_limit(monkeypatch):
    # Eight disjoint pairs give 256 implicants and no hit term; the last
    # clause then hits 224 of them and extends the other 32 three ways:
    # 96 x 224 = 21504 subset tests, while the term count peaks at 320.
    names = tuple(f"V{i}" for i in range(16))
    clauses = {(1 << (2 * i)) | (1 << (2 * i + 1)) for i in range(8)}
    cnf = MonotoneFormula("cnf", frozenset(clauses | {0b100101}), names)
    expected = cr.minimal_dnf(cnf).terms
    monkeypatch.setattr(boolformula, "CELLS_PER_TERM", 21)
    with pytest.raises(TermBlowup, match="exceeded 21000 subset tests"):
        cr.minimal_dnf(cnf, max_terms=1000)
    monkeypatch.setattr(boolformula, "CELLS_PER_TERM", 22)
    assert cr.minimal_dnf(cnf, max_terms=1000).terms == expected


def test_cell_budget_stops_the_m72_bench_system():
    # n=1000, m=72 from the bench generator (seed 2024): its intermediate
    # antichain passes 10^5 terms within 13 of 72 clauses, and each later
    # product step tests over 10^10 pairs.  The term guard alone lets it
    # run for hours; the cell budget raises before the first such step.
    system = _generate(BenchConfig(), 1000, 72)
    with pytest.raises(TermBlowup, match="subset tests"):
        cr.batch_reducts(system, max_terms=120_000)


DROP_WIDTHS = (1, 63, 64, 65, 130)


def _drop_index(masks, idx):
    """Reference: each mask without bit ``idx``, its higher bits shifted down by one."""
    low = (1 << idx) - 1
    return [(mask & low) | (mask >> (idx + 1) << idx) for mask in masks]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drop_variable_matches_drop_index(data):
    m = data.draw(st.sampled_from(DROP_WIDTHS))
    idx = data.draw(st.sampled_from(sorted({i for i in (0, 62, 63, 64, m - 1) if i < m})))
    masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=12))
    rows = _pack(masks, m)
    dropped = drop_variable(rows, idx, m)
    # The width narrows to what m - 1 variables need.
    assert dropped.shape == (len(masks), boolformula.word_count(m - 1))
    assert _row_ints(dropped) == _drop_index(masks, idx)
    holds = _holds(rows, idx)
    assert holds.tolist() == [bool(t >> idx & 1) for t in masks]
    # The delete filter's row selection: the terms without the variable.
    kept = rows[~holds]
    without = [t for t in masks if not t >> idx & 1]
    assert frozenset(_row_ints(drop_variable(kept, idx, m))) == frozenset(_drop_index(without, idx))
    # _widen with the holders of the last variable undoes its drop.
    top = _holds(rows, m - 1)
    assert np.array_equal(_widen(drop_variable(rows, m - 1, m), m, top), rows)


def test_row_types_compare_hash_and_print():
    names = ("a", "b")
    cnf = MonotoneFormula("cnf", [0b01, 0b11], names)
    values = (cnf, cr.ReductSet(names, _pack([0b01], 2)), cr.RelatedFamily(names, _pack([0b01, 0], 2)))
    for value in values:
        # A non-instance defers to the other operand instead of raising.
        for other in (None, 0b01, names, "cnf"):
            assert (value == other) is False
            assert (value != other) is True
    same = MonotoneFormula.from_rows("cnf", _pack([0b11, 0b01], 2), names)
    assert same == cnf and hash(same) == hash(cnf) and len({cnf, same}) == 1
    assert MonotoneFormula("dnf", [0b01, 0b11], names) not in {cnf}
    assert repr(cnf) == "MonotoneFormula('cnf', frozenset({1, 3}), ('a', 'b'))"


def test_names_mask_roundtrip():
    (mask,) = terms(("C5", "C2"))
    assert mask == 0b10010
    assert cr.mask_to_names(NAMES6, mask) == ("C2", "C5")
