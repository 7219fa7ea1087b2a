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
clauses that remain.

Absorption, the product step, the filter of incremental adds and the
survivor check of shrinking deletes are all quadratic in the term
count (sets in the thousands are routine for dense systems), so they run on
numpy, for any number of variables: a set of k terms over m variables is a
``(k, W)`` uint64 array with W = ceil(m / 64) words per term, least
significant word first.  One kernel, ``_contains_subset``, answers every
"does some term of B sit inside this term of A" question.  It broadcasts
chunks of the shorter set against the whole of the longer one, each chunk
sized so that a step touches at most ``CHUNK_CELLS`` words, so temporaries
stay small whatever the term counts.  At W = 1 a word column is the flat
uint64 vector of the terms, so one-word formulas run plain vector
arithmetic.  A ``MonotoneFormula`` stores its terms in this layout only
(its int masks are a view built on demand), and the engine keeps related
sets, clauses and reducts in it between calls.
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


class MonotoneFormula:
    """A monotone CNF or DNF over the variables ``names``, stored as ``rows``.

    ``rows`` is a read-only ``(k, W)`` word array (see ``_pack``), one row
    per term; a CNF's rows may repeat.  ``MonotoneFormula(mode, terms,
    names)`` packs int masks once, ``from_rows`` takes an array as it is,
    and ``terms``, the set of int masks, is built on first use.
    """

    def __init__(self, mode: str, terms: Iterable[int], names: tuple[str, ...]):
        terms = list(terms)
        if max(terms, default=0) >> len(names):
            raise ValueError(f"a term has a bit past its {len(names)} variables")
        self.mode, self.names = mode, names  # mode: "cnf" or "dnf"
        self.rows = _frozen_rows(_pack(terms, len(names)), len(names), "term")

    @classmethod
    def from_rows(cls, mode: str, rows: np.ndarray, names: tuple[str, ...]) -> "MonotoneFormula":
        """The formula whose terms are the rows of a word array."""
        formula = cls.__new__(cls)
        formula.mode, formula.names = mode, names
        formula.rows = _frozen_rows(rows, len(names), "term")
        return formula

    @cached_property
    def terms(self) -> frozenset[int]:
        return _unpack(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonotoneFormula):
            return NotImplemented
        return (self.mode, self.names, self.terms) == (other.mode, other.names, other.terms)

    def __hash__(self) -> int:
        return hash((self.mode, self.names, self.terms))

    def __repr__(self) -> str:
        return f"MonotoneFormula({self.mode!r}, {self.terms!r}, {self.names!r})"

    def term_name_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(
            frozenset(self.names[i] for i in bits(t)) for t in self.terms
        )


def names_to_mask(names: Sequence[str], members: Iterable[str]) -> int:
    index = {n: i for i, n in enumerate(names)}
    m = 0
    for name in members:
        m |= 1 << index[name]
    return m


def mask_to_names(names: Sequence[str], mask: int) -> tuple[str, ...]:
    return tuple(names[i] for i in bits(mask))


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
    """A read-only view of ``rows``, checked to be ``(k, W)`` for ``n_vars`` variables."""
    width = word_count(n_vars)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(
            f"{what} rows of shape {rows.shape}, expected (n, {width}) for {n_vars} variables"
        )
    rows = rows.view()
    rows.flags.writeable = False
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


def _unpack(rows: np.ndarray) -> frozenset[int]:
    return frozenset(_row_ints(rows))


def drop_variable(rows: np.ndarray, idx: int) -> np.ndarray:
    """The ``(k, W)`` word array ``rows`` with variable ``idx`` removed.

    Bits below ``idx`` stay; every bit above moves down by one, bit 0 of
    word w + 1 into bit 63 of word w.  The width stays W.
    """
    word, bit = divmod(idx, 64)
    out = rows >> np.uint64(1)
    out[:, :-1] |= rows[:, 1:] << np.uint64(63)
    out[:, :word] = rows[:, :word]
    low = np.uint64((1 << bit) - 1)
    out[:, word] = (rows[:, word] & low) | (out[:, word] & ~low)
    return out


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


def _popcounts(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_count(rows).sum(axis=1, dtype=np.intp)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows in ascending order as integers (most significant word first)."""
    if rows.shape[1] == 1:
        return np.sort(rows, axis=0)
    return rows[np.lexsort(rows.T)]


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    # Sorting beats np.unique, which hashes integer input.
    ordered = _sorted_rows(rows)
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[fresh]


def _rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of ``a``: does it equal a row of ``b``?

    The rows of each array must be distinct.  One word is a sort and a
    binary search; wider rows sort both arrays together and pair equal
    neighbours.
    """
    if a.shape[1] == 1:
        keys = np.sort(b[:, 0])
        at = np.searchsorted(keys, a[:, 0])
        found = at < len(keys)
        found[found] = keys[at[found]] == a[found, 0]
        return found
    both = np.concatenate((a, b))
    order = np.lexsort(both.T)
    ordered = both[order]
    pairs = (ordered[1:] == ordered[:-1]).all(axis=1)
    found = np.zeros(len(both), dtype=bool)
    found[order[1:][pairs]] = True
    found[order[:-1][pairs]] = True
    return found[: len(a)]


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct ``rows`` that contain no other row.

    The rows of the lowest popcount left contain no other row left, so they
    are kept and every row containing one of them is dropped, one level at
    a time.
    """
    rows = _unique_rows(rows)
    counts = _popcounts(rows)
    order = np.argsort(counts, kind="stable")
    rows, counts = rows[order], counts[order]
    kept = rows[:0]
    while len(rows):
        low = np.searchsorted(counts, counts[0], side="right")
        level, rows, counts = rows[:low], rows[low:], counts[low:]
        kept = np.concatenate((kept, level))
        left = ~_contains_subset(rows, level)
        rows, counts = rows[left], counts[left]
    return kept


def absorb(terms: Iterable[int]) -> frozenset[int]:
    """Reduce a term collection to an antichain by dropping every strict
    superset of another term (absorption of CNF clauses and DNF implicants).
    """
    terms = list(terms)
    return _unpack(_minimal_rows(_pack(terms, max(terms, default=0).bit_length())))


def minimal_dnf(
    cnf: MonotoneFormula,
    max_terms: int = DEFAULT_TERM_LIMIT,
    start: Iterable[int] = frozenset({0}),
) -> MonotoneFormula:
    """The minimal DNF (all prime implicants) of ``(OR start) AND cnf``.

    ``start`` is the implicant set the product begins from and must be an
    antichain; the default, the single empty implicant (true), expands the
    CNF alone.  Clauses are absorbed first and multiplied in ascending size
    order; after each product step the implicant set is absorbed again,
    which keeps the intermediate sets antichains and bounds the blowup on
    typical inputs.  A growth past ``max_terms``, the start terms included,
    raises TermBlowup instead of exhausting memory, and so does a product
    whose subset tests (expanded terms times hit terms, summed over the
    steps) pass ``CELLS_PER_TERM * max_terms`` instead of running for hours.
    The empty CNF yields ``start``.  Clauses are absorbed and multiplied as
    rows, and the result holds its terms as rows, one per implicant.
    """
    if cnf.mode != "cnf":
        raise ValueError("minimal_dnf expects a CNF input")
    clauses = _minimal_rows(cnf.rows)
    if len(clauses) and not clauses[0].any():
        raise ValueError("monotone CNF must not contain an empty clause")
    rows = _expand(start, clauses, len(cnf.names), max_terms)
    return MonotoneFormula.from_rows("dnf", rows, cnf.names)


def _expand(
    start: Iterable[int], clauses: np.ndarray, n_vars: int, max_terms: int
) -> np.ndarray:
    """Product-with-absorption over word arrays, from the antichain ``start``."""
    implicants = _pack(start, n_vars)
    unit = _pack([1 << v for v in range(n_vars)], n_vars)  # row v: variable v alone
    cells_left = CELLS_PER_TERM * max_terms
    for clause in clauses:
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
        # Hit terms are untouched: an expanded term extends an implicant
        # incomparable with every hit term, so it can never absorb one.
        # Expanded terms are distinct and never nest (t | v inside t' | v'
        # forces v = v' and t = t', see the module docstring), so only a
        # hit term can absorb one.
        implicants = np.concatenate((hit, expanded[~_contains_subset(expanded, hit)]))
    return implicants


def filter_non_extensions(candidates: Iterable[int], existing: Iterable[int]) -> frozenset[int]:
    """Drop candidates that strictly contain an existing term.

    Candidates equal to an existing term survive: only strict inclusion of
    an existing term disqualifies an extension.
    """
    candidates, existing = list(candidates), list(existing)
    n_vars = max(max(candidates, default=0), max(existing, default=0)).bit_length()
    cand = _unique_rows(_pack(candidates, n_vars))
    exist = _pack(existing, n_vars)
    # A term sits strictly inside a candidate iff it sits inside it and has
    # a lower popcount, so each candidate level meets only the lower terms.
    counts = _popcounts(exist)
    order = np.argsort(counts)
    exist, exist_counts = exist[order], counts[order]
    cand_counts = _popcounts(cand)
    keep = np.ones(len(cand), dtype=bool)
    for level in np.unique(cand_counts):
        at_level = cand_counts == level
        lower = exist[: np.searchsorted(exist_counts, level)]
        keep[at_level] = ~_contains_subset(cand[at_level], lower)
    return _unpack(cand[keep])


def hits_all(terms: np.ndarray, clauses: np.ndarray) -> bool:
    """Whether every term meets every clause (shares a variable with it).

    Both are word arrays of one width.
    """
    # A term misses a clause iff the clause sits inside its complement.
    return not _contains_subset(~terms, clauses).any()


def evaluate(formula: MonotoneFormula, true_vars: int) -> bool:
    """Evaluate under the assignment whose true variables are ``true_vars``."""
    if formula.mode == "cnf":
        return all(clause & true_vars for clause in formula.terms)
    return any(term & ~true_vars == 0 for term in formula.terms)
