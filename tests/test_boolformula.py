import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covreduct as cr
from covreduct.bitset import to_indices
from covreduct import boolformula
from covreduct.bench import BenchConfig, _generate
from covreduct.boolformula import (
    MonotoneFormula,
    _minimal_rows,
    _pack,
    _row_ints,
    _rows_in,
    _sorted_rows,
    _unpack,
    drop_variable,
    hits_all,
)
from covreduct.errors import TermBlowup

from bruteforce import minimal_hitting_sets, minimal_models, truth_table_equal

NAMES6 = ("C1", "C2", "C3", "C4", "C5", "C6")


def terms(*groups):
    return frozenset(cr.names_to_mask(NAMES6, g) for g in groups)


def named(formula: MonotoneFormula) -> frozenset[frozenset[str]]:
    return formula.term_name_sets()


def test_absorb_keeps_minimal_clauses():
    got = cr.absorb(
        terms(
            ("C1", "C3", "C5"),
            ("C1", "C2", "C3", "C4", "C5"),
            ("C1", "C2", "C4", "C5"),
            ("C2", "C4"),
        )
    )
    assert got == terms(("C1", "C3", "C5"), ("C2", "C4"))


def test_absorb_singleton_fixed_point():
    assert cr.absorb(terms(("C1",))) == terms(("C1",))


def test_absorb_drops_supersets():
    got = cr.absorb(terms(("C1", "C2"), ("C1",), ("C2",)))
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
    [(2, 0b100), (64, 1 << 64), (65, 1 << 65), (65, 1 << 128)],
    ids=["one word, bit past the names", "one word, past the word",
         "two words, bit past the names", "two words, past the words"],
)
def test_formula_rejects_a_term_past_its_names(m, term):
    names = tuple(f"V{i}" for i in range(m))
    with pytest.raises(ValueError, match=f"past its {m} variables"):
        MonotoneFormula("cnf", {0b1, term}, names)


def test_filter_non_extensions_drops_strict_supersets():
    candidates = terms(("C1", "C6"), ("C5", "C6"), ("C1", "C2", "C6"))
    existing = terms(("C1", "C2"))
    got = cr.filter_non_extensions(candidates, existing)
    assert got == terms(("C1", "C6"), ("C5", "C6"))


def test_filter_non_extensions_empty_existing():
    candidates = terms(("C1",), ("C2", "C3"))
    assert cr.filter_non_extensions(candidates, frozenset()) == candidates


def test_filter_non_extensions_keeps_equal_terms():
    candidates = terms(("C1", "C2"))
    existing = terms(("C1", "C2"))
    assert cr.filter_non_extensions(candidates, existing) == candidates


def test_evaluate_modes():
    cnf = MonotoneFormula("cnf", terms(("C1", "C2"), ("C3",)), NAMES6)
    dnf = MonotoneFormula("dnf", terms(("C1", "C3"), ("C2", "C3")), NAMES6)
    for assignment in range(1 << 3):
        a = assignment  # over C1..C3
        expected = bool(a & 0b011) and bool(a & 0b100)
        assert cr.evaluate(cnf, a) == expected
        assert cr.evaluate(dnf, a) == expected


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
        pre_absorbed = cr.absorb(clause_list)
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
def term_lists(draw, m: int):
    """Terms over a few positions of m variables, often repeated or nested."""
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
    assert cr.absorb(terms) == {
        t for t in distinct if not any(s != t and _inside(s, t) for s in distinct)
    }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_clause_rows_absorb_in_size_then_value_order(data):
    # minimal_dnf multiplies its clauses in this order, so it fixes the
    # product steps and where TermBlowup and the cell budget stop.
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    terms = data.draw(term_lists(m))
    assert _row_ints(_minimal_rows(_pack(terms, m))) == sorted(
        cr.absorb(terms), key=lambda c: (c.bit_count(), c)
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_filter_non_extensions_matches_subset_loop(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    candidates = data.draw(term_lists(m))
    # Some existing terms equal candidates, which must survive.
    existing = data.draw(term_lists(m))
    existing += data.draw(st.lists(st.sampled_from(candidates or [0]), max_size=2))
    assert cr.filter_non_extensions(candidates, existing) == {
        c for c in candidates if not any(e != c and _inside(e, c) for e in existing)
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_dnf_matches_brute_force_at_every_width(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    names = tuple(f"V{i}" for i in range(m))
    clauses = [c for c in data.draw(term_lists(m)) if c]
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
    clauses = [c for c in data.draw(term_lists(m)) if c]
    k = data.draw(st.integers(0, len(clauses)))
    prefix, rest = clauses[:k], clauses[k:]
    used = sorted({v for c in clauses for v in to_indices(c)})
    sets = [frozenset(to_indices(c)) for c in clauses]
    prefix_hitting = {sum(1 << v for v in h) for h in minimal_hitting_sets(sets[:k], used)}
    start = data.draw(st.sampled_from([frozenset({0}), frozenset(prefix_hitting)]))
    dnf = cr.minimal_dnf(MonotoneFormula("cnf", frozenset(rest), names), start=start)

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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_matching_and_order_against_ints(data):
    m = data.draw(st.sampled_from(KERNEL_WIDTHS))
    a = sorted(set(data.draw(term_lists(m))))
    b = sorted(set(data.draw(term_lists(m))))
    data.draw(st.randoms()).shuffle(a)
    assert _rows_in(_pack(a, m), _pack(b, m)).tolist() == [t in b for t in a]
    assert _row_ints(_sorted_rows(_pack(a, m))) == sorted(a)


@pytest.mark.parametrize("m", KERNEL_WIDTHS)
def test_kernel_users_on_empty_inputs(m):
    some = frozenset({1 << (m - 1), 0b11})
    assert cr.absorb([]) == frozenset()
    assert cr.filter_non_extensions([], some) == frozenset()
    assert cr.filter_non_extensions(some, []) == some
    names = tuple(f"V{i}" for i in range(m))
    assert cr.minimal_dnf(MonotoneFormula("cnf", frozenset(), names)).terms == frozenset({0})


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
    assert _row_ints(drop_variable(rows, idx)) == _drop_index(masks, idx)
    # The delete filter's row selection: the terms without the variable.
    word, bit = divmod(idx, 64)
    kept = rows[rows[:, word] & np.uint64(1 << bit) == 0]
    without = [t for t in masks if not t >> idx & 1]
    assert _unpack(drop_variable(kept, idx)) == frozenset(_drop_index(without, idx))


def test_names_mask_roundtrip():
    mask = cr.names_to_mask(NAMES6, ["C2", "C5"])
    assert mask == 0b10010
    assert cr.mask_to_names(NAMES6, mask) == ("C2", "C5")
