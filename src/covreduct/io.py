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

Cache document layout (JSON, compact, format 4)::

    {"format": 4, "fingerprint": "...", "covering_names": ["C1", ...],
     "related": ["3", ...], "reducts": ["3", "5", ...], "digest": "..."}

Every mask is a lowercase hex string whose bit i is ``covering_names[i]``.
``related`` holds one mask per object; ``reducts`` are sorted.
``fingerprint`` is ``model.fingerprint`` of the system the cache describes,
a hash built from per-covering digests.  ``digest`` is SHA-256 over the
fingerprint, the names, the related sets and the reducts: it catches
corruption and hand edits, not a forger who recomputes it.  ``load_cache``
accepts only format 4 and checks the invariants the engine relies on and
the digest before it returns.  Format 3 caches carry a ``positive`` field
and no digest, format 2 ones a fingerprint computed another way, and older
ones another layout; they must be rebuilt with ``covreduct reduce --cache``.

Every JSON reader, the bench config's included, decodes through
``decode_json``, so a syntax error raises ParseError naming its line and
column; system and covering documents share one ``{"name", "blocks"}`` parser.

Coverization turns a table (columns of strings) into a system: categorical
columns become one block per distinct value, numeric columns a tolerance
covering (per object, the block of rows within epsilon times the column
range), and the decision column a partition by value.
"""

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Union

from .bitset import to_indices
from .boolformula import absorb
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


@dataclass(frozen=True)
class SystemDocument:
    universe_size: int
    coverings: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    decision: tuple[tuple[int, ...], ...]
    object_names: tuple[str, ...] | None = None


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _index_list(raw: Any, where: str) -> tuple[int, ...]:
    _expect(isinstance(raw, list), f"{where}: expected a list of indices")
    for v in raw:
        _expect(isinstance(v, int) and not isinstance(v, bool), f"{where}: bad index {v!r}")
    return tuple(raw)


def decode_json(text: str) -> Any:
    """``json.loads``, raising a syntax error as ParseError with its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _named_blocks(entry: dict, where: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Name and index lists of a ``{"name", "blocks"}`` object; messages prefix ``where``."""
    _expect(isinstance(entry.get("name"), str), f"{where}name: expected a string")
    raw_blocks = entry.get("blocks")
    _expect(isinstance(raw_blocks, list), f"{where}blocks: expected a list")
    blocks = tuple(_index_list(b, f"{where}blocks[{k}]") for k, b in enumerate(raw_blocks))
    return entry["name"], blocks


def parse_document(text: str) -> SystemDocument:
    """Parse a system document, reporting the offending field on error."""
    data = decode_json(text)
    _expect(isinstance(data, dict), "document root must be an object")
    _expect(isinstance(data.get("universe_size"), int), "universe_size: expected an integer")
    raw_covs = data.get("coverings")
    _expect(isinstance(raw_covs, list), "coverings: expected a list")
    coverings = []
    for i, entry in enumerate(raw_covs):
        _expect(isinstance(entry, dict), f"coverings[{i}]: expected an object")
        coverings.append(_named_blocks(entry, f"coverings[{i}]."))
    raw_decision = data.get("decision")
    _expect(isinstance(raw_decision, list), "decision: expected a list")
    decision = tuple(
        _index_list(c, f"decision[{j}]") for j, c in enumerate(raw_decision)
    )
    names = data.get("object_names")
    if names is not None:
        _expect(
            isinstance(names, list) and all(isinstance(s, str) for s in names),
            "object_names: expected a list of strings",
        )
        _expect(
            len(names) == data["universe_size"],
            "object_names: length must equal universe_size",
        )
        names = tuple(names)
    return SystemDocument(data["universe_size"], tuple(coverings), decision, names)


def load_system(text: str) -> CoveringDecisionSystem:
    """Parse and validate a system document."""
    doc = parse_document(text)
    return build_system(doc.universe_size, doc.coverings, doc.decision)


def serialize_system(
    system: CoveringDecisionSystem, object_names: Sequence[str] | None = None
) -> str:
    """Canonical document for a system (stable bytes for equal systems)."""
    doc: dict[str, Any] = {"universe_size": system.universe_size}
    if object_names is not None:
        doc["object_names"] = list(object_names)
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
    blocks: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for x, vx in enumerate(nums):
        members = tuple(y for y, vy in enumerate(nums) if abs(vx - vy) <= threshold)
        if members not in seen:
            seen.add(members)
            blocks.append(list(members))
    return blocks


def coverize(
    columns: Mapping[str, Sequence[str]], spec: CoverizationSpec
) -> CoveringDecisionSystem:
    """Turn table columns into a covering decision system.

    One covering per non-decision column, named after it; the decision
    partition groups rows by decision-column value in first-appearance
    order.  Deterministic for a fixed (table, spec).
    """
    if spec.decision_column not in columns:
        raise ValidationError(f"decision column {spec.decision_column!r} not in table")
    n_rows = {len(v) for v in columns.values()}
    if len(n_rows) != 1:
        raise ValidationError("table columns have unequal lengths")
    n = n_rows.pop()
    if n == 0:
        raise ValidationError("table has no rows")
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
    """Parse a spec document: {"decision": "col", "rules": {"col": "categorical" | {"tolerance": 0.5}}}."""
    data = decode_json(text)
    _expect(isinstance(data, dict), "spec root must be an object")
    _expect(isinstance(data.get("decision"), str), "decision: expected a column name")
    rules: dict[str, Rule] = {}
    for col, raw in data.get("rules", {}).items():
        if raw == "categorical":
            rules[col] = Categorical()
        elif isinstance(raw, dict) and isinstance(raw.get("tolerance"), (int, float)):
            rules[col] = Tolerance(float(raw["tolerance"]))
        else:
            raise ParseError(f"rules[{col!r}]: expected 'categorical' or {{'tolerance': eps}}")
    return CoverizationSpec(decision_column=data["decision"], rules=rules)


# --- reduction caches ------------------------------------------------------


CACHE_FORMAT = 4
CACHE_FIELDS = ("format", "fingerprint", "covering_names", "related", "reducts", "digest")
_HEX = re.compile(r"[0-9a-f]+")
_HEX_LIST = re.compile(r"[0-9a-f]+(?:,[0-9a-f]+)*")


def _digest(fingerprint: str, names: list[str], related: list[str], reducts: list[str]) -> str:
    """SHA-256 over the cached content, as its fields appear on the wire.

    The hex masks hold no comma or newline, and JSON escapes a newline
    inside a name, so the joined content reads back one way only.
    """
    content = "\n".join((json.dumps([fingerprint, names]), ",".join(related), ",".join(reducts)))
    return hashlib.sha256(content.encode()).hexdigest()


def serialize_cache(cache: ReductionCache) -> str:
    """The compact cache document: every mask a lowercase hex string."""
    names = list(cache.related.covering_names)
    related = [format(mask, "x") for mask in cache.related.r]
    reducts = [format(r, "x") for r in sorted(cache.reducts.reducts)]
    doc = {
        "format": CACHE_FORMAT,
        "fingerprint": cache.fingerprint,
        "covering_names": names,
        "related": related,
        "reducts": reducts,
        "digest": _digest(cache.fingerprint, names, related, reducts),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _hex_mask(raw: Any, where: str) -> int:
    _expect(
        isinstance(raw, str) and _HEX.fullmatch(raw) is not None,
        f"{where}: expected a lowercase hex mask, got {raw!r}",
    )
    return int(raw, 16)


def _hex_masks(raw: Any, where: str) -> list[int]:
    """Parse a list of hex masks, naming the first malformed entry."""
    _expect(isinstance(raw, list), f"{where}: expected a list of hex masks")
    try:
        joined = ",".join(raw)
    except TypeError:  # a non-string entry
        joined = ""
    # One regex pass over the joined list; the comma count rules out an
    # entry that itself holds a comma.
    if raw and (_HEX_LIST.fullmatch(joined) is None or joined.count(",") != len(raw) - 1):
        for k, entry in enumerate(raw):
            _hex_mask(entry, f"{where}[{k}]")
    return [int(entry, 16) for entry in raw]


def _check_width(masks: list[int], width: int, where: str) -> None:
    if max(masks, default=0) >> width:
        k = next(k for k, mask in enumerate(masks) if mask >> width)
        raise ParseError(f"{where}[{k}]: mask sets a bit past the {width} listed coverings")


def load_cache(text: str) -> ReductionCache:
    """Parse a cache document and check it against the cache invariants.

    The document must hold exactly the format's fields, the masks must fit
    the covering list, the reducts must be a non-empty antichain and the
    digest must match the content; any breach raises ParseError.
    """
    data = decode_json(text)
    _expect(isinstance(data, dict), "cache root must be an object")
    _expect(
        data.get("format") == CACHE_FORMAT,
        f"cache format {data.get('format')!r} is not {CACHE_FORMAT}; "
        "rebuild the cache with `covreduct reduce --cache`",
    )
    for key in CACHE_FIELDS:
        _expect(key in data, f"cache is missing field {key!r}")
    for key in data:
        _expect(key in CACHE_FIELDS, f"{key}: not a field of a format {CACHE_FORMAT} cache")
    _expect(isinstance(data["fingerprint"], str), "fingerprint: expected a string")
    names = data["covering_names"]
    _expect(
        isinstance(names, list) and all(isinstance(s, str) for s in names),
        "covering_names: expected a list of strings",
    )
    _expect(len(set(names)) == len(names), "covering_names: names must be distinct")
    r = _hex_masks(data["related"], "related")
    _check_width(r, len(names), "related")
    masks = _hex_masks(data["reducts"], "reducts")
    _check_width(masks, len(names), "reducts")
    reducts = frozenset(masks)
    _expect(bool(reducts), "reducts: a cache holds at least one reduct")
    _expect(len(reducts) == len(masks), "reducts: duplicate reduct")
    _expect(
        len(absorb(reducts)) == len(reducts),
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
        related=RelatedFamily(names, tuple(r)),
        reducts=ReductSet(names, reducts),
    )
