"""Reading and writing systems, caches, and tabular coverization.

System document layout (JSON, extension ``.cds.json``)::

    {
      "universe_size": 8,
      "object_names": ["x1", ...],          # optional
      "coverings": [{"name": "C1", "blocks": [[0, 1], [2], ...]}, ...],
      "decision": [[0, 1, 2], [3, 4, 5], ...]
    }

Indices are 0-based on the wire.  Canonical serialization sorts indices
inside each block, blocks lexicographically within a covering, and keeps
coverings in declaration order, so equal systems produce byte-equal
documents.

Cache document layout (JSON, compact, format 6)::

    {"format": 6, "fingerprint": "...", "covering_names": ["C1", ...],
     "related": "0300...", "reducts": "0105...", "digest": "..."}

``related`` and ``reducts`` are each one lowercase hex string: a run of
fixed-width fields of B = max(1, ceil(m / 8)) bytes, m the number of
covering names, each field a mask in little-endian byte order whose bit i
is ``covering_names[i]``.  ``related`` holds one field per object in object
order, ``reducts`` one per reduct in ascending order.  A field is the low
B bytes of the mask's W = max(1, ceil(m / 64)) little-endian uint64 words,
so each string is a byte view of a ``(k, W)`` word array
(``RelatedFamily.rows``, ``ReductSet.rows``), written and read in one pass
by one path for every width, and checked by two conditions: the text is
exactly the hex of the bytes it decodes to (two digits per byte, none of
them upper case, so nothing is encoded again to compare), and its length
is a multiple of 2B digits.
``serialize_cache`` writes the compact text itself, field by field in
``CACHE_FIELDS`` order; only the fingerprint and the names pass through
``json.dumps``.  The hex strings and the digest hold only ``[0-9a-f]``, so
they need no escaping, and ``json.dumps`` would scan them one character
at a time.  The bytes are unchanged: those of
``json.dumps(doc, separators=(",", ":"))`` and a newline.
``fingerprint`` is ``model.fingerprint`` of the system the cache describes,
a hash of each covering's admissible union.  ``digest`` is SHA-256 over the
fingerprint and names (as JSON) and the two hex strings as written: it
catches corruption and hand edits, not a forger who recomputes it.
``load_cache`` accepts only format 6 and checks the invariants the engine
relies on and the digest before it returns.  Caches written before format
6 are rejected; rebuild them with ``covreduct reduce --cache``.

The ``k > n`` certificate: the antichain check on the k reducts of n
objects has two ways to pass.  The reducts the engine writes are the
minimal hitting sets of the non-empty related sets, and distinct minimal
hitting sets never nest, so ``boolformula.minimal_hitting`` against the c
absorbed related sets proves an antichain in O((n + k) * c + n * h)
steps, the absorption included.  ``absorb`` takes the n related sets in
heads of at most h = ``HEAD_ROWS`` rows from the lowest popcount levels
(a longer level alone is one head, tested against nothing inside), and
tests each head against itself and its kept rows against the sets left,
in at most c passes.  Absorbed sets suffice: a set private to a bit of a
reduct contains an absorbed set, which is then private to that bit too.
The certificate is tried when k > n, where it beats the O(k^2) ``absorb``
of the reducts; otherwise, or when it fails, that ``absorb`` decides, so
the rule for accepting a cache is the antichain rule either way.  Loading
proves that the reducts are an antichain, never that none is missing:
checking that they are all the minimal hitting sets is hypergraph
dualization (Fredman & Khachiyan 1996), which no load attempts.

Every JSON reader, the bench config's included, decodes through
``decode_json``, so a syntax error raises ParseError naming its line and
column; system and covering documents share one ``{"name", "blocks"}`` parser.

Coverization turns a table (columns of strings) into a system: categorical
columns become one block per distinct value, numeric columns a tolerance
covering (per object, the block of rows within epsilon times the column
range), and the decision column a partition by value.
"""

import bisect
import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Collection, Mapping, Sequence, Union

import numpy as np

from .bitset import to_indices
from .boolformula import _sorted_rows, _unique_rows, absorb, minimal_hitting, word_count
from .engine import ReductionCache, ReductSet
from .errors import ParseError, ValidationError
from .model import (
    Covering,
    CoveringDecisionSystem,
    build_system,
    make_covering,
)
from .related import RelatedFamily

log = logging.getLogger(__name__)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _only_fields(doc: dict, fields: Collection[str], what: str, where: str = "") -> None:
    """ParseError, ``{where}{key}: not a field of {what}``, for the first key
    of ``doc`` outside ``fields``."""
    for key in doc:
        _expect(key in fields, f"{where}{key}: not a field of {what}")


def _index_list(raw: Any, where: str) -> tuple[int, ...]:
    _expect(isinstance(raw, list), f"{where}: expected a list of indices")
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"{where}: bad index {v!r}")
    return tuple(raw)


def decode_json(text: str) -> Any:
    """``json.loads``, raising a syntax error as ParseError with its line and
    column, and nesting too deep for the decoder or an integer literal past
    Python's digit limit as ParseError too."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays and objects nest too deeply") from exc
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _object_names(names: Any, size: int) -> list[str]:
    """``names`` if it is a list of ``size`` strings, else ParseError."""
    strings = isinstance(names, list) and all(isinstance(s, str) for s in names)
    _expect(strings, "object_names: expected a list of strings")
    _expect(len(names) == size, f"object_names: {len(names)} names for {size} objects")
    return names


def _named_blocks(entry: dict, where: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Name and index lists of a ``{"name", "blocks"}`` object; messages prefix ``where``."""
    _expect(isinstance(entry.get("name"), str), f"{where}name: expected a string")
    raw_blocks = entry.get("blocks")
    _expect(isinstance(raw_blocks, list), f"{where}blocks: expected a list")
    blocks = tuple(_index_list(b, f"{where}blocks[{k}]") for k, b in enumerate(raw_blocks))
    return entry["name"], blocks


def load_system(text: str) -> CoveringDecisionSystem:
    """Parse and validate a system document, reporting the offending field on error.

    ``object_names``, when present, must be a list of ``universe_size``
    strings; the system does not keep it.
    """
    return _system_from_doc(decode_json(text))


def _system_from_doc(data: Any) -> CoveringDecisionSystem:
    """The system of a decoded system document; see ``load_system``."""
    _expect(isinstance(data, dict), "document root must be an object")
    size = data.get("universe_size")
    _expect(
        isinstance(size, int) and not isinstance(size, bool), "universe_size: expected an integer"
    )
    raw_covs = data.get("coverings")
    _expect(isinstance(raw_covs, list), "coverings: expected a list")
    coverings = []
    for i, entry in enumerate(raw_covs):
        _expect(isinstance(entry, dict), f"coverings[{i}]: expected an object")
        coverings.append(_named_blocks(entry, f"coverings[{i}]."))
    raw_decision = data.get("decision")
    _expect(isinstance(raw_decision, list), "decision: expected a list")
    decision = [_index_list(c, f"decision[{j}]") for j, c in enumerate(raw_decision)]
    if data.get("object_names") is not None:
        _object_names(data["object_names"], size)
    return build_system(size, coverings, decision)


def serialize_system(
    system: CoveringDecisionSystem, object_names: Sequence[str] | None = None
) -> str:
    """Canonical document for a system (stable bytes for equal systems).

    ``object_names``, when given, must be ``universe_size`` strings, as
    ``load_system`` requires; anything else raises ValidationError.
    """
    doc: dict[str, Any] = {"universe_size": system.universe_size}
    if object_names is not None:
        doc["object_names"] = _object_names(list(object_names), system.universe_size)
    doc["coverings"] = [
        {"name": c.name, "blocks": sorted(to_indices(b) for b in c.blocks)}
        for c in system.coverings
    ]
    doc["decision"] = sorted(to_indices(cls) for cls in system.decision.classes)
    return json.dumps(doc, indent=2) + "\n"


def parse_covering(text: str, universe_size: int) -> Covering:
    """Parse a single-covering document: {"name": ..., "blocks": [[...], ...]}."""
    data = decode_json(text)
    _expect(isinstance(data, dict), "covering document root must be an object")
    name, blocks = _named_blocks(data, "")
    return make_covering(name, blocks, universe_size)


# --- coverization ----------------------------------------------------------


class NonNumericForTolerance(ValidationError):
    pass


@dataclass(frozen=True)
class Categorical:
    pass


@dataclass(frozen=True)
class Tolerance:
    epsilon: float

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ValidationError(f"tolerance epsilon must be in (0, 1], got {self.epsilon}")


Rule = Union[Categorical, Tolerance]


@dataclass(frozen=True)
class CoverizationSpec:
    """Per-column coverization rules; unlisted columns default to categorical."""

    decision_column: str
    rules: Mapping[str, Rule] = field(default_factory=dict)


def _categorical_blocks(values: Sequence[str]) -> list[list[int]]:
    groups: dict[str, list[int]] = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return list(groups.values())


def _tolerance_blocks(column: str, values: Sequence[str], epsilon: float) -> list[list[int]]:
    try:
        nums = [float(v) for v in values]
    except ValueError as exc:
        raise NonNumericForTolerance(f"column {column!r}: {exc}") from exc
    if not all(n == n and abs(n) != float("inf") for n in nums):
        raise NonNumericForTolerance(f"column {column!r} contains non-finite values")
    span = max(nums) - min(nums)
    if span == 0:
        log.warning("column %r is constant; tolerance covering collapses to one block", column)
        return [list(range(len(nums)))]
    threshold = epsilon * span
    # Rounding keeps vx - vy monotone in vy, so in value order the objects
    # within the threshold of vx form one run around vx: below vx the test
    # fails and then holds, above it holds and then fails.  Equal runs hold
    # equal objects, so a block is built once per distinct run.
    order = sorted(range(len(nums)), key=nums.__getitem__)
    ordered = [nums[y] for y in order]
    rank = [0] * len(nums)
    for r, y in enumerate(order):
        rank[y] = r
    blocks: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    for x, vx in enumerate(nums):

        def near(vy: float) -> bool:
            return abs(vx - vy) <= threshold

        r = rank[x]
        lo = bisect.bisect_left(ordered, True, 0, r, key=near)
        hi = bisect.bisect_left(ordered, True, r, len(ordered), key=lambda vy: not near(vy))
        if (lo, hi) not in seen:
            seen.add((lo, hi))
            blocks.append(sorted(order[lo:hi]))
    return blocks


def coverize(
    columns: Mapping[str, Sequence[str]], spec: CoverizationSpec
) -> CoveringDecisionSystem:
    """Turn table columns into a covering decision system.

    One covering per non-decision column, named after it; the decision
    partition groups rows by decision-column value in first-appearance
    order.  Every rule must name a non-decision column of the table.
    Deterministic for a fixed (table, spec).
    """
    if spec.decision_column not in columns:
        raise ValidationError(f"decision column {spec.decision_column!r} not in table")
    n_rows = {len(v) for v in columns.values()}
    if len(n_rows) != 1:
        raise ValidationError("table columns have unequal lengths")
    n = n_rows.pop()
    if n == 0:
        raise ValidationError("table has no rows")
    for name in spec.rules:
        if name == spec.decision_column or name not in columns:
            raise ValidationError(f"rule for column {name!r}: not a condition column of the table")
    coverings = []
    for name, values in columns.items():
        if name == spec.decision_column:
            continue
        rule = spec.rules.get(name, Categorical())
        if isinstance(rule, Tolerance):
            blocks = _tolerance_blocks(name, values, rule.epsilon)
        else:
            blocks = _categorical_blocks(values)
        coverings.append((name, blocks))
    decision = _categorical_blocks(columns[spec.decision_column])
    return build_system(n, coverings, decision)


def parse_coverization_spec(text: str) -> CoverizationSpec:
    """Parse a spec document: {"decision": "col", "rules": {"col": "categorical" | {"tolerance": 0.5}}}.

    A field the layout does not name, at the top or inside a tolerance
    rule, is rejected rather than ignored.
    """
    data = decode_json(text)
    _expect(isinstance(data, dict), "spec root must be an object")
    _only_fields(data, ("decision", "rules"), "a coverization spec")
    _expect(isinstance(data.get("decision"), str), "decision: expected a column name")
    raw_rules = data.get("rules", {})
    _expect(isinstance(raw_rules, dict), "rules: expected an object")
    rules: dict[str, Rule] = {}
    for col, raw in raw_rules.items():
        if raw == "categorical":
            rules[col] = Categorical()
            continue
        bad = f"rules[{col!r}]: expected 'categorical' or {{'tolerance': eps}}"
        _expect(isinstance(raw, dict), bad)
        _only_fields(raw, ("tolerance",), "a tolerance rule", f"rules[{col!r}].")
        eps = raw.get("tolerance")
        _expect(isinstance(eps, (int, float)) and not isinstance(eps, bool), bad)
        rules[col] = Tolerance(float(eps))
    return CoverizationSpec(decision_column=data["decision"], rules=rules)


# --- reduction caches ------------------------------------------------------


CACHE_FORMAT = 6
CACHE_FIELDS = ("format", "fingerprint", "covering_names", "related", "reducts", "digest")


def _field_bytes(n_names: int) -> int:
    """Bytes per mask field: enough for one bit per covering, at least one."""
    return max(1, -(-n_names // 8))


def _encode_rows(rows: np.ndarray, width: int) -> str:
    """A ``(k, W)`` word array as one lowercase hex string of ``width``-byte
    little-endian fields, one per row."""
    data = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return data.reshape(len(rows), 8 * rows.shape[1])[:, :width].tobytes().hex()


def _decode_rows(raw: Any, width: int, n_names: int, where: str) -> np.ndarray:
    """The ``(k, W)`` word array, W words per ``n_names`` bits, of a hex
    string written by ``_encode_rows``.

    ``bytes.fromhex`` takes only ASCII hex digits and ASCII whitespace, but
    upper case among them, so the text must be exactly two digits per byte
    (no whitespace) and hold no ``A``-``F``: the same test as ``data.hex()
    == raw`` without encoding the bytes again.  A mask that sets a bit past
    the ``n_names`` listed coverings is reported by its index.
    """
    _expect(isinstance(raw, str), f"{where}: expected a hex string, got {type(raw).__name__}")
    try:
        data = bytes.fromhex(raw)
    except ValueError:
        data = None
    _expect(
        data is not None
        and len(raw) == 2 * len(data)
        and not any(upper in raw for upper in "ABCDEF"),
        f"{where}: expected lowercase hex digits only, with no prefix or whitespace",
    )
    _expect(
        len(data) % width == 0,
        f"{where}: {len(raw)} hex digits is not a multiple of the {2 * width}-digit mask field",
    )
    fields = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    # Bits of the last byte that no listed covering owns.
    spare = 0xFF << (n_names - 8 * (width - 1)) & 0xFF
    over = np.flatnonzero(fields[:, -1] & spare)
    if len(over):
        raise ParseError(
            f"{where}[{over[0]}]: mask sets a bit past the {n_names} listed coverings"
        )
    words = np.zeros((len(fields), 8 * word_count(n_names)), dtype=np.uint8)
    words[:, :width] = fields
    return words.view("<u8")


def _digest(fingerprint: str, names: list[str], related: str, reducts: str) -> str:
    """SHA-256 over the cached content, as its fields appear on the wire.

    The hex strings hold no newline, and JSON escapes a newline inside a
    name, so the joined content reads back one way only.
    """
    content = "\n".join((json.dumps([fingerprint, names]), related, reducts))
    return hashlib.sha256(content.encode()).hexdigest()


def serialize_cache(cache: ReductionCache) -> str:
    """The compact cache document: related sets and reducts as fixed-width hex.

    Written directly in ``CACHE_FIELDS`` order, the bytes of
    ``json.dumps(doc, separators=(",", ":"))`` and a newline: the hex
    strings and the digest hold nothing to escape.
    """
    names = list(cache.related.covering_names)
    width = _field_bytes(len(names))
    related = _encode_rows(cache.related.rows, width)
    reducts = _encode_rows(_sorted_rows(cache.reducts.rows), width)
    digest = _digest(cache.fingerprint, names, related, reducts)
    return (
        f'{{"format":{CACHE_FORMAT},"fingerprint":{json.dumps(cache.fingerprint)},'
        f'"covering_names":{json.dumps(names, separators=(",", ":"))},'
        f'"related":"{related}","reducts":"{reducts}","digest":"{digest}"}}\n'
    )


def load_cache(text: str) -> ReductionCache:
    """Parse a cache document and check it against the cache invariants.

    The document must hold exactly the format's fields, the masks must fit
    the covering list, the reducts must be a non-empty antichain and the
    digest must match the content; any breach raises ParseError.  The
    module docstring's ``k > n`` certificate says how the antichain test
    passes, and what it does not prove.
    """
    data = decode_json(text)
    _expect(isinstance(data, dict), "cache root must be an object")
    fmt = data.get("format")
    # 6.0 == 6, but only the JSON integer 6 names the format.
    _expect(
        type(fmt) is int and fmt == CACHE_FORMAT,
        f"cache format {fmt!r} is not {CACHE_FORMAT}; "
        "rebuild the cache with `covreduct reduce --cache`",
    )
    for key in CACHE_FIELDS:
        _expect(key in data, f"cache is missing field {key!r}")
    _only_fields(data, CACHE_FIELDS, f"a format {CACHE_FORMAT} cache")
    _expect(isinstance(data["fingerprint"], str), "fingerprint: expected a string")
    names = data["covering_names"]
    _expect(
        isinstance(names, list) and all(isinstance(s, str) for s in names),
        "covering_names: expected a list of strings",
    )
    _expect(len(set(names)) == len(names), "covering_names: names must be distinct")
    width = _field_bytes(len(names))
    related = _decode_rows(data["related"], width, len(names), "related")
    reducts = _decode_rows(data["reducts"], width, len(names), "reducts")
    _expect(len(reducts) > 0, "reducts: a cache holds at least one reduct")
    _expect(len(_unique_rows(reducts)) == len(reducts), "reducts: duplicate reduct")
    certified = len(reducts) > len(related) and minimal_hitting(
        reducts, absorb(related[related.any(axis=1)])
    )
    _expect(
        certified or len(absorb(reducts)) == len(reducts),
        "reducts: one reduct contains another",
    )
    _expect(
        data["digest"] == _digest(data["fingerprint"], names, data["related"], data["reducts"]),
        "digest: does not match the cache content; "
        "rebuild the cache with `covreduct reduce --cache`",
    )
    names = tuple(names)
    return ReductionCache(
        fingerprint=data["fingerprint"],
        related=RelatedFamily(names, related),
        reducts=ReductSet(names, reducts),
    )
