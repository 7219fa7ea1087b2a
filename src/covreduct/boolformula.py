"""Monotone Boolean algebra over covering-name sets.

Formulas are positive (no negations); a term is a bit mask over a variable
index space shared with a name tuple.  A CNF is a conjunction of clauses
(each a disjunction of variables), a DNF a disjunction of implicants (each
a conjunction).  Normal form for both is an antichain: no term contains
another.  The minimal DNF of a monotone CNF is the set of minimal hitting
sets of its clauses, computed by clause-by-clause distribution with
absorption after every product step.  A step keeps the implicants that hit
the clause and replaces each one that misses it by its extensions with one
clause variable.  Only a kept implicant can absorb an extension: if t' | v'
sits inside t | v, with t and t' missing the clause and v, v' in it, then
v' = v and t' sits inside t, so the antichain makes them equal.  After any
prefix of the clauses the implicants are the minimal hitting sets of that
prefix (Berge), so an expansion can also continue from a known antichain:
the minimal hitting sets of clauses already multiplied in, times the
clauses that remain.  An expansion can also be asked only for the
implicants that miss some row of an ``avoid`` set: an implicant that
misses a row extends one of the step before that misses it too, so from
the first step at which the implicants outnumber the ``avoid`` rows every
implicant and extended term that meets all of them is dropped, and the
rest of the product runs on the smaller sets.

The product step and the survivor check of shrinking deletes are
quadratic in the term count (sets in the thousands are routine for dense
systems), and so is absorption at worst.  Absorption takes the rows a
head at a time, up to ``HEAD_ROWS`` rows of the lowest whole popcount
levels left, tests the head against itself and then, in one kernel
call, the rows left against the kept head rows, so a family takes at
most as many passes as it keeps rows, however many popcount levels it
spans.  The filter of incremental adds is an equality test, and
``minimal_hitting``, which certifies a large loaded reduct set as an
antichain, is linear in the term count: it tests the terms against the
clauses, not against each other, in one pass that counts the bits of
each term-clause meet once for both of its tests.
They run on numpy, for any number of variables: a set of k terms over m
variables is a ``(k, W)`` uint64 array with W = ceil(m / 64) words per
term, least significant word first.  One kernel, ``_contains_subset``,
answers every "does some term of B sit inside this term of A" question
between two sets.  It broadcasts chunks of the shorter set against the
whole of the longer one, each chunk sized so that a step touches at most
``CHUNK_CELLS`` words, so temporaries stay small whatever the term
counts.  Only an ``absorb`` head, of at most ``HEAD_ROWS`` rows, is
tested against itself, in one broadcast of its own.  At W = 1 a
word column is the flat uint64 vector of the terms, so one-word formulas
run plain vector arithmetic.  A ``MonotoneFormula`` stores its terms in
this layout only (its int masks are a view built on demand), every
operator here takes and returns it, and the engine keeps related sets,
clauses and reducts in it.
"""

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .bitset import bits
from .errors import TermBlowup

DEFAULT_TERM_LIMIT = 1_000_000
# Kernel cells (expanded terms x hit terms, summed over the product steps)
# one expansion may test per unit of its term limit.
CELLS_PER_TERM = 10_000
# Words (rows of A x rows of B x W) one broadcast step of _contains_subset
# covers: 256 KiB of uint64 temporaries, which stay in a core's cache.
CHUNK_CELLS = 1 << 15
# Rows one pass of absorb takes from the lowest popcount levels left (a
# single longer level is taken whole): the head is broadcast against
# itself, so it stays a few thousand cells.
HEAD_ROWS = 64


class MonotoneFormula:
    """A monotone CNF or DNF over the variables ``names``, stored as ``rows``.

    ``rows`` is a read-only ``(k, W)`` word array (see ``_pack``), one row
    per term; a CNF's rows may repeat.  ``MonotoneFormula(mode, terms,
    names)`` packs int masks once, ``from_rows`` takes an array as it is,
    and ``terms``, the set of int masks, is built on first use.
    """

    def __init__(self, mode: str, terms: Iterable[int], names: tuple[str, ...]):
        terms = list(terms)
        if min(terms, default=0) < 0 or max(terms, default=0) >> len(names):
            raise ValueError(f"a term has a bit past its {len(names)} variables")
        self._set(mode, _pack(terms, len(names)), names)

    @classmethod
    def from_rows(cls, mode: str, rows: np.ndarray, names: tuple[str, ...]) -> "MonotoneFormula":
        """The formula whose terms are the rows of a word array."""
        formula = cls.__new__(cls)
        formula._set(mode, rows, names)
        return formula

    def _set(self, mode: str, rows: np.ndarray, names: tuple[str, ...]) -> None:
        if mode not in ("cnf", "dnf"):
            raise ValueError(f"formula mode must be 'cnf' or 'dnf', got {mode!r}")
        self.mode, self.names = mode, names
        self.rows = _frozen_rows(rows, len(names), "term")

    @cached_property
    def terms(self) -> frozenset[int]:
        return frozenset(_row_ints(self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonotoneFormula):
            return NotImplemented
        return (self.mode, self.names, self.terms) == (other.mode, other.names, other.terms)

    def __hash__(self) -> int:
        return hash((self.mode, self.names, self.terms))

    def __repr__(self) -> str:
        return f"MonotoneFormula({self.mode!r}, {self.terms!r}, {self.names!r})"


def mask_to_names(names: Sequence[str], mask: int) -> tuple[str, ...]:
    return tuple(names[i] for i in bits(mask))


def _name_sets(names: Sequence[str], rows: np.ndarray) -> frozenset[frozenset[str]]:
    """The rows of a word array over ``names`` as sets of names."""
    return frozenset(frozenset(mask_to_names(names, t)) for t in _row_ints(rows))


def word_count(n_vars: int) -> int:
    """W, the uint64 words per term over ``n_vars`` variables: at least one."""
    return max(1, -(-n_vars // 64))


def _pack(terms: Iterable[int], n_vars: int) -> np.ndarray:
    """Terms over ``n_vars`` variables as a ``(k, W)`` uint64 word array."""
    width = word_count(n_vars)
    terms = list(terms)
    if width == 1:
        return np.fromiter(terms, dtype=np.uint64, count=len(terms)).reshape(-1, 1)
    raw = b"".join(t.to_bytes(8 * width, "little") for t in terms)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, width)


def _frozen_rows(rows: np.ndarray, n_vars: int, what: str) -> np.ndarray:
    """A read-only view of ``rows``, checked to be ``(k, W)`` uint64 for
    ``n_vars`` variables and to set no bit at or past ``n_vars`` in the last
    word."""
    if rows.dtype != np.uint64:
        raise ValueError(f"{what} rows of dtype {rows.dtype}, expected uint64")
    width = word_count(n_vars)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(
            f"{what} rows of shape {rows.shape}, expected (n, {width}) for {n_vars} variables"
        )
    used = n_vars - 64 * (width - 1)  # bits of the last word that are variables
    if used < 64 and int(rows[:, -1].max(initial=0)) >> used:
        raise ValueError(f"a {what} row has a bit past its {n_vars} variables")
    rows = rows.view()
    rows.flags.writeable = False
    return rows


def _word_rows(rows: np.ndarray, width: int | None = None) -> np.ndarray:
    """``rows``, or a sequence of 1-D rows, as a 2-D uint64 array ``width`` words wide."""
    rows = np.asarray(rows, dtype=np.uint64)
    rows = rows.reshape(0, width) if width and not rows.size else rows
    if rows.ndim != 2 or width not in (None, rows.shape[1]):
        raise ValueError(f"expected (k, {width or 'W'}) word rows, got shape {rows.shape}")
    return rows


def _row_ints(rows: np.ndarray) -> list[int]:
    """The terms of a word array as ints, in row order."""
    # One tolist() per word column and one combining pass per extra word:
    # an int.from_bytes per row costs twice as much at W = 2.
    words = [rows[:, w].tolist() for w in range(rows.shape[1])]
    terms = words.pop()
    for low in reversed(words):
        terms = [high << 64 | word for high, word in zip(terms, low)]
    return terms


def _widen(rows: np.ndarray, n_vars: int, holders: np.ndarray | None = None) -> np.ndarray:
    """A copy of ``rows`` padded with zero words to the width of ``n_vars`` variables.

    ``holders``, a bool per row, also sets variable ``n_vars - 1``, which
    lives in the last word, on the marked rows.
    """
    wide = np.zeros((len(rows), word_count(n_vars)), dtype=np.uint64)
    wide[:, : rows.shape[1]] = rows
    if holders is not None:
        wide[:, -1] |= holders.astype(np.uint64) << np.uint64((n_vars - 1) % 64)
    return wide


def _holds(rows: np.ndarray, idx: int) -> np.ndarray:
    """For each row of a word array: does it hold variable ``idx``?"""
    word, bit = divmod(idx, 64)
    return rows[:, word] & np.uint64(1 << bit) != 0


def drop_variable(rows: np.ndarray, idx: int, n_vars: int) -> np.ndarray:
    """The ``(k, W)`` word array ``rows`` over ``n_vars`` variables with
    variable ``idx`` removed.

    Bits below ``idx`` stay; every bit above moves down by one, bit 0 of
    word w + 1 into bit 63 of word w.  The result is as wide as ``n_vars -
    1`` variables need: a word narrower when ``n_vars`` is 65, 129, ...
    """
    word, bit = divmod(idx, 64)
    out = rows >> np.uint64(1)
    out[:, :-1] |= rows[:, 1:] << np.uint64(63)
    out[:, :word] = rows[:, :word]
    low = np.uint64((1 << bit) - 1)
    out[:, word] = (rows[:, word] & low) | (out[:, word] & ~low)
    return out[:, : word_count(n_vars - 1)]


def _contains_subset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of ``a``: does some row of ``b`` sit inside it?

    Both are ``(k, W)`` word arrays of one width.  The shorter of the two is
    taken in chunks of rows, sized so that a broadcast step covers at most
    CHUNK_CELLS words, against all of the longer one.
    """
    found = np.zeros(len(a), dtype=bool)
    if not len(a) or not len(b):
        return found
    width = a.shape[1]
    outside = ~a
    # Reduce along the longer side: numpy's reductions run fast along a
    # long contiguous axis and slowly along a short one.
    a_long = len(a) > len(b)
    long_rows, short_rows = (outside, b) if a_long else (b, outside)
    long_words = [np.ascontiguousarray(long_rows[:, w]) for w in range(width)]
    step = max(1, CHUNK_CELLS // (len(long_rows) * width))
    for lo in range(0, len(short_rows), step):
        part = short_rows[lo : lo + step]
        # The bits of each row of b that fall outside each row of a.
        spill = part[:, 0, None] & long_words[0][None, :]
        for w in range(1, width):
            spill |= part[:, w, None] & long_words[w][None, :]
        if a_long:
            found |= spill.min(axis=0) == 0
        else:
            found[lo : lo + len(part)] = spill.min(axis=1) == 0
    return found


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows in ascending order as integers (most significant word first)."""
    if rows.shape[1] == 1:
        return np.sort(rows, axis=0)
    return rows[np.lexsort(rows.T)]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """For each row of a sorted word array: does it differ from the row before?"""
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return fresh


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    if len(rows) < 2:
        return rows
    # Sorting beats np.unique, which hashes integer input.
    ordered = _sorted_rows(rows)
    return ordered[_run_starts(ordered)]


def _rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of ``a``: does it equal a row of ``b``?

    Rows may repeat in either array.  One word is a sort of ``b`` and a
    binary search; wider rows sort both arrays together into runs of equal
    rows, and a row of ``a`` is found when its run holds a row of ``b``.
    """
    if a.shape[1] == 1:
        keys = np.sort(b[:, 0])
        at = np.searchsorted(keys, a[:, 0])
        found = at < len(keys)
        found[found] = keys[at[found]] == a[found, 0]
        return found
    both = np.concatenate((b, a))
    order = np.lexsort(both.T)
    fresh = _run_starts(both[order])
    has_b = np.logical_or.reduceat(order < len(b), np.flatnonzero(fresh))  # per run
    found = np.empty(len(both), dtype=bool)
    found[order] = has_b[np.cumsum(fresh) - 1]
    return found[len(b) :]


def absorb(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a ``(k, W)`` word array that contain no other row
    (absorption to an antichain), in ascending popcount, then value, order.

    Each pass takes a head of the rows left: their lowest whole popcount
    levels, up to HEAD_ROWS rows and always at least one level.  A row
    sits inside another only at a lower popcount, so one broadcast of the
    head against itself finds the head rows that contain another head row
    (a head of one level has none), and the rest of the head is kept:
    every row left outside the head has no lower popcount than any of
    them.  One ``_contains_subset`` call then drops every later row that
    contains a kept row.  The passes follow the rows that survive, not the
    popcount levels.  Fewer than two distinct rows are returned as they
    are.
    """
    rows = _unique_rows(_word_rows(rows))
    if len(rows) < 2:
        return rows
    counts = np.bitwise_count(rows).sum(axis=1, dtype=np.intp)
    order = np.argsort(counts, kind="stable")
    rows, counts = rows[order], counts[order]
    kept = []
    while len(rows):
        end = len(rows)
        if end > HEAD_ROWS:
            # Whole levels only: cut below the level of the first row past
            # HEAD_ROWS, or after the first level if that one is longer.
            end = np.searchsorted(counts, counts[HEAD_ROWS]) or np.searchsorted(
                counts, counts[0], side="right"
            )
        head, head_counts = rows[:end], counts[:end]
        if head_counts[-1] > head_counts[0]:
            # inside[i, j]: head row j sits inside head row i at a lower
            # popcount (distinct rows of one popcount never nest).
            outside = ~head
            spill = head[None, :, 0] & outside[:, None, 0]
            for w in range(1, head.shape[1]):
                spill |= head[None, :, w] & outside[:, None, w]
            inside = (spill == 0) & (head_counts[None, :] < head_counts[:, None])
            head = head[~inside.any(axis=1)]
        kept.append(head)
        rows, counts = rows[end:], counts[end:]
        left = ~_contains_subset(rows, head)
        rows, counts = rows[left], counts[left]
    return np.concatenate(kept)


def minimal_dnf(
    cnf: MonotoneFormula,
    max_terms: int = DEFAULT_TERM_LIMIT,
    start: np.ndarray | None = None,
    avoid: np.ndarray | None = None,
) -> MonotoneFormula:
    """The minimal DNF (all prime implicants) of ``(OR start) AND cnf``.

    ``start`` is the implicant set the product begins from, a ``(k, W)``
    uint64 word array over ``cnf.names`` whose rows must be an antichain;
    the default, None, is the single empty implicant (true) and expands the
    CNF alone.  Clauses are absorbed first and multiplied in ascending size
    order; after each product step the implicant set is absorbed again,
    which keeps the intermediate sets antichains and bounds the blowup on
    typical inputs.  A growth past ``max_terms``, the start terms included,
    raises TermBlowup instead of exhausting memory, and so does a product
    whose subset tests (expanded terms times hit terms, summed over the
    steps) pass ``CELLS_PER_TERM * max_terms`` instead of running for hours.
    The empty CNF yields ``start``.  Clauses are absorbed and multiplied as
    rows, and the result holds its terms as rows, one per implicant.

    ``avoid``, a ``(k, W)`` word array over ``cnf.names``, asks only for
    the implicants that miss some of its rows.  From the first product step
    at which the implicants outnumber the ``avoid`` rows, the rows are
    absorbed and, on that step and every later one, each implicant and
    each expanded term that meets every one of them is dropped.  The result
    is then exactly the implicants of the full minimal DNF that miss some
    ``avoid`` row (with no ``avoid`` rows, none of them); a product that
    never outgrows the rows is not pruned and yields the full minimal DNF.
    Either way it holds every implicant that misses some ``avoid`` row.
    The default, None, prunes nothing.
    """
    if cnf.mode != "cnf":
        raise ValueError("minimal_dnf expects a CNF input")
    n_vars = len(cnf.names)
    if start is None:
        start = np.zeros((1, word_count(n_vars)), dtype=np.uint64)
    start = _frozen_rows(start, n_vars, "start")
    clauses = absorb(cnf.rows)
    if len(clauses) and not clauses[0].any():
        raise ValueError("monotone CNF must not contain an empty clause")
    if avoid is not None:
        avoid = _frozen_rows(avoid, n_vars, "avoid")
    rows = _expand(start, clauses, n_vars, max_terms, avoid)
    return MonotoneFormula.from_rows("dnf", rows, cnf.names)


def _expand(
    implicants: np.ndarray,
    clauses: np.ndarray,
    n_vars: int,
    max_terms: int,
    avoid: np.ndarray | None,
) -> np.ndarray:
    """Product-with-absorption over word arrays, from the antichain ``implicants``,
    pruned by the ``avoid`` rows once the implicants outnumber them (see
    ``minimal_dnf``)."""
    unit = _pack([1 << v for v in range(n_vars)], n_vars)  # row v: variable v alone
    cells_left = CELLS_PER_TERM * max_terms
    pruning = False
    for clause in clauses:
        if avoid is not None and not pruning and len(implicants) > len(avoid):
            # From here on every implicant misses some avoid row: the hit
            # ones carry over and each expanded term is pruned below.
            pruning = True
            avoid = absorb(avoid)
            implicants = implicants[_misses_some(implicants, avoid)]
        missing = ~(implicants & clause).any(axis=1)
        missed = implicants[missing]
        if not len(missed):
            continue
        var_bits = unit[(unit & clause).any(axis=1)]
        hit = implicants[~missing]
        if len(hit) + len(missed) * len(var_bits) > max_terms:
            raise TermBlowup(f"DNF expansion exceeded {max_terms} intermediate terms")
        cells_left -= len(missed) * len(var_bits) * len(hit)
        if cells_left < 0:
            raise TermBlowup(
                f"DNF expansion exceeded {CELLS_PER_TERM * max_terms} subset tests"
            )
        expanded = (missed[:, None, :] | var_bits[None, :, :]).reshape(-1, implicants.shape[1])
        if pruning:
            expanded = expanded[_misses_some(expanded, avoid)]
        # Hit terms are untouched: an expanded term extends an implicant
        # incomparable with every hit term, so it can never absorb one.
        # Expanded terms are distinct and never nest (t | v inside t' | v'
        # forces v = v' and t = t', see the module docstring), so only a
        # hit term can absorb one.
        implicants = np.concatenate((hit, expanded[~_contains_subset(expanded, hit)]))
    return implicants


def filter_non_extensions(
    candidates: np.ndarray, existing: np.ndarray, bit: np.ndarray
) -> np.ndarray:
    """The candidate rows, in their order, that are not an existing row plus ``bit``.

    ``bit`` is a one-row word array; the candidates and the existing rows
    are word arrays of its width.  A candidate is dropped only when it holds
    ``bit`` and, with ``bit`` cleared, equals an existing row.  Repeated
    candidates and candidates without ``bit`` are kept as they come.  In an
    add that keeps the positive region, with ``bit`` the new covering, the
    dropped candidates are exactly the expansion terms that strictly
    contain an old reduct (see the ``engine`` module docstring).  That
    expansion's ``avoid`` rows drop such terms only from the product step
    at which its terms outnumber them, so some may still arrive here, and
    this filter is the step that removes every one that does.
    """
    bit = _word_rows(bit)
    cand = _word_rows(candidates, bit.shape[1])
    exist = _word_rows(existing, bit.shape[1])
    extends = (cand & bit == bit).all(axis=1)
    extends[extends] = _rows_in(cand[extends] & ~bit, exist)
    return cand[~extends]


def hits_all(terms: np.ndarray, clauses: np.ndarray) -> bool:
    """Whether every term meets every clause (shares a variable with it).

    Both are word arrays of one width.
    """
    return not _misses_some(terms, clauses).any()


def _misses_some(terms: np.ndarray, clauses: np.ndarray) -> np.ndarray:
    """For each term: does it miss (share no variable with) some clause?"""
    # A term misses a clause iff the clause sits inside its complement.
    return _contains_subset(~terms, clauses)


def minimal_hitting(rows: np.ndarray, clauses: np.ndarray) -> bool:
    """Whether every row is a minimal hitting set of the clauses.

    Both are word arrays of one width.  A row is one when it meets every
    clause and each of its bits is, on its own, the whole meet of the row
    with some clause (that clause is private to the bit).  With no clauses
    only the empty row qualifies.  Distinct minimal hitting sets never nest
    (a bit of the larger one outside the smaller has a private clause that
    the smaller misses), so a true answer on distinct rows proves them an
    antichain in time linear in the row count.  Rows are taken in chunks
    sized so that a step covers at most CHUNK_CELLS words, and each chunk
    takes one pass: every clause-row meet is computed and its bits counted
    once, and the counts serve both tests (a count of 0 is a missed clause,
    a count of 1 a private one).
    """
    if not len(clauses):
        return not rows.any()
    width = rows.shape[1]
    step = max(1, CHUNK_CELLS // (len(clauses) * width))
    for lo in range(0, len(rows), step):
        part = rows[lo : lo + step]
        # One (clauses x rows) array per word, so the OR over the clauses
        # runs along the first axis, the fast one for a numpy reduction.
        meets = [clauses[:, w, None] & part[None, :, w] for w in range(width)]
        # Bits in each meet as uint8: only 0, 1 and more matter, so the
        # running count is capped at 2 before each word's (at most 64) is
        # added, and never wraps (a plain uint8 sum wraps past 255).
        counts = np.bitwise_count(meets[0])
        for meet in meets[1:]:
            np.minimum(counts, 2, out=counts)
            counts += np.bitwise_count(meet)
        if not counts.all():
            return False
        private = counts == 1
        for w in range(width):
            meets[w] *= private
            if not np.array_equal(np.bitwise_or.reduce(meets[w], axis=0), part[:, w]):
                return False
    return True
