import dataclasses
import hashlib
import json
import logging
import math
import random
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import covreduct as cr
from covreduct import boolformula, io
from covreduct.bench import BenchConfig
from covreduct.bitset import to_indices
from covreduct.boolformula import _pack
from covreduct.errors import CoverageGap, DecisionNotPartition, ParseError
from covreduct.io import (
    CACHE_FIELDS,
    NonNumericForTolerance,
    _decode_rows,
    parse_covering,
    parse_coverization_spec,
)
from covreduct.synth import random_system

from bruteforce import minimal_hitting_sets
from conftest import (
    CONSISTENT8_COVERINGS,
    CONSISTENT8_REDUCTS,
    DECISION_8,
    block_fingerprint,
    partition_blocks,
)


def test_serialize_load_roundtrip(consistent8):
    text = cr.serialize_system(consistent8)
    again = cr.load_system(text)
    assert cr.fingerprint(consistent8) == cr.fingerprint(again)


def test_serialization_is_canonical():
    a = cr.build_system(3, [("A", [[0], [1, 2]]), ("B", [[2, 1, 0]])], [[0], [1, 2]])
    b = cr.build_system(3, [("A", [[2, 1], [0]]), ("B", [[0, 1, 2]])], [[2, 1], [0]])
    text = cr.serialize_system(a)
    # Block order inside a covering and class order do not affect the bytes.
    assert text == cr.serialize_system(b)
    assert cr.serialize_system(cr.load_system(text)) == text


def test_loaded_fixture_reduces_to_golden(consistent8):
    reducts, _ = cr.batch_reducts(cr.load_system(cr.serialize_system(consistent8)))
    assert reducts.as_name_sets() == CONSISTENT8_REDUCTS


def test_object_names_roundtrip(consistent8):
    names = [f"x{i+1}" for i in range(8)]
    text = cr.serialize_system(consistent8, object_names=names)
    assert json.loads(text)["object_names"] == names
    assert cr.fingerprint(cr.load_system(text)) == cr.fingerprint(consistent8)


@pytest.mark.parametrize(
    "names, message",
    [(["a"], "1 names for 8 objects"), ([f"x{i}" for i in range(7)] + [8], "list of strings")],
    ids=["short", "non-string"],
)
def test_serialize_rejects_object_names_load_would_reject(consistent8, names, message):
    with pytest.raises(cr.ValidationError, match=message):
        cr.serialize_system(consistent8, object_names=names)
    doc = json.loads(cr.serialize_system(consistent8))
    doc["object_names"] = names
    with pytest.raises(ParseError, match="object_names"):
        cr.load_system(json.dumps(doc))


def test_gap_in_a_million_object_covering_is_reported_quickly():
    # The message names the first ten uncovered objects and counts the rest,
    # so its length does not grow with the universe.
    doc = {"universe_size": 10**6, "coverings": [{"name": "C", "blocks": [[0]]}], "decision": [[0]]}
    start = time.perf_counter()
    with pytest.raises(CoverageGap, match=r"covering 'C' does not cover objects \[1, 2, ") as err:
        cr.load_system(json.dumps(doc))
    assert time.perf_counter() - start < 20
    assert len(str(err.value)) < 200


def test_a_million_object_block_loads_in_linear_time():
    n = 10**6
    everything = list(range(n))
    doc = {"universe_size": n, "coverings": [{"name": "C", "blocks": [everything]}], "decision": [everything]}
    text = json.dumps(doc)
    start = time.perf_counter()
    system = cr.load_system(text)
    assert time.perf_counter() - start < 10
    assert system.coverings[0].blocks == system.decision.classes == ((1 << n) - 1,)


def test_gap_in_a_huge_universe_is_rejected_without_building_it():
    doc = {"universe_size": 10**18, "coverings": [{"name": "C", "blocks": [[0]]}], "decision": [[0]]}
    start = time.perf_counter()
    with pytest.raises(CoverageGap, match=r"and 999999999999999989 more$"):
        cr.load_system(json.dumps(doc))
    assert time.perf_counter() - start < 1


def test_one_high_index_is_rejected_without_building_its_mask():
    # The covering's lists hold one entry, too few to cover 10**9 + 1
    # objects, so no mask as wide as object 10**9 is built.
    doc = {"universe_size": 10**9 + 1, "coverings": [{"name": "C", "blocks": [[10**9]]}], "decision": [[10**9]]}
    message = r"^covering 'C' does not cover objects \[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\] and 999999990 more$"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CoverageGap, match=message):
            cr.load_system(json.dumps(doc))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 8 * 2**20


def test_load_rejects_decision_overlap():
    text = '{"universe_size": 2, "coverings": [{"name": "C1", "blocks": [[0, 1]]}], "decision": [[0], [0, 1]]}'
    with pytest.raises(DecisionNotPartition):
        cr.load_system(text)


def test_load_rejects_empty_coverings():
    text = '{"universe_size": 2, "coverings": [], "decision": [[0], [1]]}'
    with pytest.raises(cr.ValidationError):
        cr.load_system(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "invalid JSON"),
        ("[]", "document root"),
        ('{"universe_size": "8", "coverings": [], "decision": []}', "universe_size"),
        ('{"universe_size": true, "coverings": [], "decision": []}', "universe_size"),
        ('{"universe_size": 2, "coverings": [{"name": 3, "blocks": []}], "decision": []}', "coverings[0].name"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0, "x"]]}], "decision": []}', "coverings[0].blocks[0]"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0]]}], "decision": [0]}', "decision[0]"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0, 1]]}], "decision": [[0], [1]], "object_names": ["a"]}', "object_names"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0, 1]]}], "decision": [[0], [1]], "object_names": ["a", 2]}', "object_names: expected"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ParseError) as err:
        cr.load_system(text)
    assert fragment in str(err.value)


def test_parse_covering_document():
    cov = parse_covering('{"name": "C6", "blocks": [[0, 1], [2], [0, 2]]}', 3)
    assert cov.name == "C6"
    assert cov.blocks == (0b011, 0b100, 0b101)
    with pytest.raises(ParseError):
        parse_covering('{"name": "C6"}', 3)


def test_cache_roundtrip(consistent8):
    _, cache = cr.batch_reducts(consistent8)
    text = cr.serialize_cache(cache)
    again = cr.load_cache(text)
    assert again.fingerprint == cache.fingerprint
    assert again.consistent == cache.consistent
    assert again.positive == cache.positive
    assert again.related == cache.related
    assert again.reducts == cache.reducts


def test_cache_parse_error():
    with pytest.raises(ParseError):
        cr.load_cache('{"fingerprint": "x"}')


# Each invalid text and the message every reader must raise for it.  The
# deep one once escaped as a bare RecursionError from the decoder.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
INVALID_JSON = [
    ('{\n  "name": }', "invalid JSON at line 2, column 11"),
    ("[" * 200000, "invalid JSON: arrays and objects nest too deeply"),
    # An integer literal past the interpreter's digit limit, where it has one.
    *([("1" * (INT_DIGITS + 1), "invalid JSON: Exceeds the limit")] if INT_DIGITS else []),
]


@pytest.mark.parametrize(
    "read",
    [
        cr.load_system,
        lambda text: parse_covering(text, 3),
        parse_coverization_spec,
        cr.load_cache,
        BenchConfig.from_json,
    ],
    ids=["document", "covering", "spec", "cache", "bench-config"],
)
def test_every_reader_locates_invalid_json(read):
    for text, message in INVALID_JSON:
        with pytest.raises(ParseError, match=re.escape(message)):
            read(text)


def _fields(text: str, width: int) -> list[int]:
    """The masks of a format-5 hex string, read one field at a time."""
    data = bytes.fromhex(text)
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _assert_compact_json(text: str, cache) -> None:
    """``text`` is byte for byte what ``json.dumps`` writes for the cache
    fields in ``CACHE_FIELDS`` order, the fingerprint and names taken from
    ``cache``."""
    doc = json.loads(text)
    assert list(doc) == list(CACHE_FIELDS)
    values = dict(
        doc, fingerprint=cache.fingerprint, covering_names=list(cache.related.covering_names)
    )
    dumped = {key: values[key] for key in CACHE_FIELDS}
    assert text == json.dumps(dumped, separators=(",", ":")) + "\n"


@st.composite
def _update_caches(draw):
    """Batch, add and delete caches of a random system.

    At most three coverings split the universe; the others are one block
    over it, which never fits a decision class, so the reduct count stays
    small at any covering count.  With no splitting covering, or none with
    an admissible block, the positive region is empty.  The covering counts
    put the last covering on both sides of every byte and word boundary.
    """
    m = draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65, 72, 130)))
    n = draw(st.integers(2, 6))
    cut = draw(st.integers(1, n - 1))
    decision = [list(range(cut)), list(range(cut, n))]
    partitions = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(partition_blocks)
    active = draw(st.sets(st.integers(0, m - 1), max_size=3))
    coverings = [
        (f"C{i}", draw(partitions) if i in active else [list(range(n))]) for i in range(m)
    ]
    system = cr.build_system(n, coverings, decision)
    _, cache = cr.batch_reducts(system)
    extra = cr.make_covering("X", draw(partitions), n)
    _, grown = cr.add_covering(system, cache, extra)
    victim = draw(st.sampled_from(system.names() + ("X",)))
    _, shrunk = cr.delete_covering(system.with_covering(extra), grown, victim)
    return cache, grown, shrunk


@settings(max_examples=100, deadline=None)
@given(_update_caches())
def test_cache_roundtrip_property(caches):
    for cache in caches:
        text = cr.serialize_cache(cache)
        _assert_compact_json(text, cache)
        assert cr.load_cache(text) == cache
        doc = json.loads(text)
        assert doc["format"] == 6
        width = max(1, -(-len(cache.related.covering_names) // 8))
        assert _fields(doc["related"], width) == list(cache.related.r)
        assert _fields(doc["reducts"], width) == sorted(cache.reducts.reducts)
        if cache.positive == 0:
            assert doc["reducts"] == "00" * width


# Characters JSON must escape, and ones ``json.dumps`` writes as ``\u`` escapes.
_AWKWARD = '"\\/\n\t\x00\x1f\x7f\u2028\u2029\xe9\u540d\U0001f600 x'


@settings(max_examples=100, deadline=None)
@given(
    fingerprint=st.text(alphabet=_AWKWARD),
    names=st.lists(st.text(alphabet=_AWKWARD), min_size=1, max_size=9, unique=True),
)
@example(fingerprint='"\\', names=['C"1', "C\\2", "\u2028", "\x01", "\u540d\u524d"])
def test_cache_text_escapes_fingerprint_and_names_as_json_does(fingerprint, names):
    names = tuple(names)
    m = len(names)
    related = cr.RelatedFamily(names, _pack((1, 0, 1 << (m - 1)), m))
    cache = cr.ReductionCache(fingerprint, related, cr.ReductSet(names, _pack((1,), m)))
    text = cr.serialize_cache(cache)
    _assert_compact_json(text, cache)
    assert cr.load_cache(text) == cache


# Hex pairs, upper case, ASCII whitespace and non-ASCII decimal digits.
_HEX_TOKENS = ["0a", "f3", "9", "e", "A0", "cD", "F", "\t", "\n", " ", "\uff11", "\u0663"]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(_HEX_TOKENS), max_size=8).map("".join),
        st.text(alphabet="0123456789abcdefABCDEF\t\n \uff11\u0663", max_size=12),
    )
)
def test_hex_check_accepts_exactly_the_reencoded_hex(raw):
    try:
        exact = bytes.fromhex(raw).hex() == raw
    except ValueError:
        exact = False
    # One byte per field and eight names: every byte string is whole masks
    # that fit, so only the hex check can reject.
    try:
        _decode_rows(raw, 1, 8, "related")
    except ParseError as exc:
        assert not exact
        assert str(exc).startswith("related: expected lowercase hex digits only")
    else:
        assert exact


def test_empty_positive_region_cache_roundtrip():
    system = cr.build_system(3, [("C1", [[0, 1, 2]]), ("C2", [[0, 1], [1, 2]])], [[0, 2], [1]])
    _, cache = cr.batch_reducts(system)
    assert cache.positive == 0 and cache.reducts.reducts == {0}
    text = cr.serialize_cache(cache)
    doc = json.loads(text)
    assert doc["related"] == "000000"
    assert doc["reducts"] == "00"
    assert cr.load_cache(text) == cache
    assert not cr.load_cache(text).consistent


def test_cache_fields_are_little_endian_and_fixed_width():
    # Ten coverings: two bytes per mask, low byte first.
    names = [f"C{i}" for i in range(10)]
    related = cr.RelatedFamily(tuple(names), _pack((0x201, 0x001, 0x300), 10))
    reducts = cr.ReductSet(tuple(names), _pack((0x201, 0x100), 10))
    cache = cr.ReductionCache("f", related, reducts)
    doc = json.loads(cr.serialize_cache(cache))
    assert doc["related"] == "010201000003"
    assert doc["reducts"] == "00010102"
    assert cr.load_cache(cr.serialize_cache(cache)) == cache


# SHA-256 of the document ``serialize_cache`` writes for ``_golden_cache(m)``.
# A changed document needs a new CACHE_FORMAT, not a new digest here; these
# are the format 6 documents, which differ from format 5 in that byte alone.
GOLDEN_CACHE_SHA256 = {
    1: "979a79423ca37a587e5362982ff84f5fad886039f6c59a2eb3a74d0163a0c86a",
    8: "e6f1cf9883e10fded6cfe17e6cae437d051d28518b484aa9175043fb204f508e",
    9: "19efcde282ee263e0c368b1fa70c1fb90ad2ff1d185fc85c1181e3e079181e2f",
    63: "bfad2a1051a1b17ed41dcfdbf902d790955990fa14b9a5bbbc73ca30ea568b1e",
    64: "3902eb1bcc87b0b0f99f3aad653e549496be603f69d250271e94d3bb7d57044d",
    65: "4b87691bf4467aa225016fc1d23c7fd19737cdecae9f12b240af2031fe23f6f1",
    72: "defd1bdcba65865fa1757285dde6fcb8574a7113eeee13279f97a1af3c011e97",
    130: "b39c53aa33710bd4373d5158f5274ee136e8faa36fded1bdc53ad53e6a8d5e9d",
}


def _golden_cache(m):
    """Six related sets, one with the top covering, and up to four reducts
    of min(3, m) coverings each (an antichain), drawn from seed m."""
    rng = random.Random(m)
    related = [rng.choice((0, rng.getrandbits(m))) for _ in range(6)]
    related[0] |= 1 << (m - 1)
    k = min(3, m)
    reducts = set()
    while len(reducts) < min(4, math.comb(m, k)):
        reducts.add(sum(1 << i for i in rng.sample(range(m), k)))
    names = tuple(f"C{i}" for i in range(m))
    return cr.ReductionCache(
        f"golden-{m}",
        cr.RelatedFamily(names, _pack(related, m)),
        cr.ReductSet(names, _pack(reducts, m)),
    )


@pytest.mark.parametrize("m", sorted(GOLDEN_CACHE_SHA256))
def test_cache_bytes_are_pinned(m):
    cache = _golden_cache(m)
    text = cr.serialize_cache(cache)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CACHE_SHA256[m]
    assert cr.load_cache(text) == cache
    # Equality reads every bit of the rows, the top word's included.
    rows = cache.related.rows.copy()
    rows[0, -1] ^= np.uint64(1 << ((m - 1) % 64))
    flipped = dataclasses.replace(cache, related=cr.RelatedFamily(cache.related.covering_names, rows))
    assert flipped.related != cache.related
    assert flipped != cache


def test_format_1_cache_rejected(consistent8):
    # The earlier layout: index lists, a stored "consistent" flag, no format.
    _, cache = cr.batch_reducts(consistent8)
    old = {
        "fingerprint": cache.fingerprint,
        "consistent": True,
        "covering_names": list(cache.related.covering_names),
        "positive": list(range(8)),
        "related": [to_indices(mask) for mask in cache.related.r],
        "reducts": [to_indices(r) for r in sorted(cache.reducts.reducts)],
    }
    with pytest.raises(ParseError, match="covreduct reduce --cache"):
        cr.load_cache(json.dumps(old, indent=2))


def test_format_2_cache_rejected(consistent8):
    # Format 2 had a list layout but a fingerprint computed another way: it
    # must ask for a rebuild, not fail later as a stale cache.
    _, cache = cr.batch_reducts(consistent8)
    doc = json.loads(cr.serialize_cache(cache))
    doc["format"] = 2
    with pytest.raises(ParseError, match="rebuild the cache with `covreduct reduce --cache`"):
        cr.load_cache(json.dumps(doc))


def test_format_3_cache_rejected(consistent8):
    # Format 3 stored the positive region and carried no digest.
    _, cache = cr.batch_reducts(consistent8)
    doc = json.loads(cr.serialize_cache(cache))
    del doc["digest"]
    doc.update(format=3, positive="ff")
    with pytest.raises(ParseError, match="rebuild the cache with `covreduct reduce --cache`"):
        cr.load_cache(json.dumps(doc))


def test_format_4_cache_rejected(consistent8):
    # Format 4 listed one variable-width hex string per mask, sealed by a
    # digest over the comma-joined lists.
    _, cache = cr.batch_reducts(consistent8)
    names = list(cache.related.covering_names)
    related = [format(mask, "x") for mask in cache.related.r]
    reducts = [format(r, "x") for r in sorted(cache.reducts.reducts)]
    content = "\n".join(
        (json.dumps([cache.fingerprint, names]), ",".join(related), ",".join(reducts))
    )
    doc = {
        "format": 4,
        "fingerprint": cache.fingerprint,
        "covering_names": names,
        "related": related,
        "reducts": reducts,
        "digest": hashlib.sha256(content.encode()).hexdigest(),
    }
    rebuild = "cache format 4 is not 6; rebuild the cache with `covreduct reduce --cache`"
    with pytest.raises(ParseError, match=rebuild):
        cr.load_cache(json.dumps(doc, separators=(",", ":")))


def test_format_5_cache_rejected(consistent8):
    # Format 5 had this layout but stamped the system by hashing every
    # block: its stamp never matches a format 6 one, so the cache must ask
    # for a rebuild, not fail later as a stale cache.
    _, cache = cr.batch_reducts(consistent8)
    doc = json.loads(cr.serialize_cache(cache))
    doc.update(format=5, fingerprint=block_fingerprint(consistent8))
    doc["digest"] = io._digest(
        doc["fingerprint"], doc["covering_names"], doc["related"], doc["reducts"]
    )
    rebuild = "cache format 5 is not 6; rebuild the cache with `covreduct reduce --cache`"
    with pytest.raises(ParseError, match=rebuild):
        cr.load_cache(json.dumps(doc, separators=(",", ":")))
    doc["format"] = 6
    with pytest.raises(cr.StaleCache):
        cr.add_covering(consistent8, cr.load_cache(json.dumps(doc)), cr.make_covering("X", [range(8)], 8))


def _cache_doc(system) -> dict:
    _, cache = cr.batch_reducts(system)
    return json.loads(cr.serialize_cache(cache))


def _field(doc, key, k, digits):
    """Replace byte ``k`` of a hex string with ``digits`` (mask ``k`` when a
    mask takes one byte)."""
    doc[key] = doc[key][: 2 * k] + digits + doc[key][2 * k + 2 :]


def _set(doc, key, value, index=None):
    if index is None:
        doc[key] = value
    else:
        doc[key][index] = value


# (description, edit of the consistent8 cache document, field in the
# message).  Its five coverings take one byte, two hex digits, per mask:
# related "151f1f1b1b1b0a0a", reducts "0306090c1218".
CORRUPTIONS = [
    ("negative mask", lambda d: _field(d, "related", 0, "-3"), "related"),
    ("signed mask", lambda d: _field(d, "related", 1, "+3"), "related"),
    ("underscore", lambda d: _field(d, "related", 2, "1_"), "related"),
    ("whitespace", lambda d: _field(d, "related", 3, " 1b"), "related"),
    ("trailing whitespace", lambda d: _set(d, "related", d["related"] + " "), "related"),
    ("tab inside", lambda d: _field(d, "related", 3, "\t1b"), "related"),
    ("fullwidth digit", lambda d: _field(d, "reducts", 1, "0\uff16"), "reducts"),
    ("hex prefix", lambda d: _set(d, "reducts", "0x" + d["reducts"]), "reducts"),
    ("upper case", lambda d: _set(d, "reducts", d["reducts"].upper()), "reducts"),
    ("non-hex digit", lambda d: _field(d, "related", 4, "1g"), "related"),
    ("comma inside", lambda d: _field(d, "related", 4, "1,"), "related"),
    ("odd length", lambda d: _set(d, "related", d["related"][:-1]), "related"),
    ("number not string", lambda d: _set(d, "related", 3), "related"),
    ("list of masks", lambda d: _set(d, "related", ["15", "1f"]), "related"),
    ("bad positive", lambda d: _set(d, "positive", "ff "), "positive"),
    ("related past last covering", lambda d: _field(d, "related", 0, "35"), "related[0]"),
    ("reduct past last covering", lambda d: _field(d, "reducts", 1, "26"), "reducts[1]"),
    ("reduct past last byte bit", lambda d: _field(d, "reducts", 5, "98"), "reducts[5]"),
    ("duplicate names", lambda d: _set(d, "covering_names", "C1", 1), "covering_names"),
    ("non-string name", lambda d: _set(d, "covering_names", 7, 1), "covering_names"),
    ("positive disagrees", lambda d: _set(d, "positive", "7f"), "positive"),
    ("empty related set inside positive", lambda d: _field(d, "related", 7, "00"), "digest"),
    # Both pass every other load check: only the digest ties the reducts to
    # the related sets, and a related set to the system.
    ("reducts replaced by the full family", lambda d: _set(d, "reducts", "1f"), "digest"),
    ("related set swapped", lambda d: _field(d, "related", 0, "03"), "digest"),
    ("digest edited", lambda d: _set(d, "digest", "0" + d["digest"][1:]), "digest"),
    ("not an antichain", lambda d: _set(d, "reducts", d["reducts"] + "07"), "reducts"),
    ("duplicate reduct", lambda d: _set(d, "reducts", d["reducts"] + d["reducts"][:2]), "reducts"),
    ("no reducts", lambda d: _set(d, "reducts", ""), "reducts"),
    ("missing field", lambda d: d.pop("reducts"), "reducts"),
    ("fingerprint not a string", lambda d: _set(d, "fingerprint", 5), "fingerprint"),
    ("wrong format", lambda d: _set(d, "format", 1), "format"),
    # 6.0 == 6 in Python, but the format is the JSON integer 6.
    ("float format", lambda d: _set(d, "format", 6.0), "format"),
]


@pytest.mark.parametrize("edit,field", [c[1:] for c in CORRUPTIONS], ids=[c[0] for c in CORRUPTIONS])
def test_corrupted_cache_rejected(consistent8, edit, field):
    doc = _cache_doc(consistent8)
    cr.load_cache(json.dumps(doc))
    edit(doc)
    with pytest.raises(ParseError, match=re.escape(field)):
        cr.load_cache(json.dumps(doc))


@pytest.mark.parametrize("m", [5, 70])
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda fields: fields + fields[:1], "reducts: duplicate reduct"),
        (lambda fields: [], "reducts: a cache holds at least one reduct"),
        (lambda fields: fields + ["07" + fields[0][2:]], "reducts: one reduct contains another"),
    ],
    ids=["duplicate", "empty", "not an antichain"],
)
def test_reduct_checks_name_the_breach(m, edit, message):
    # Reducts {C0, C1} and {C2}; "07" in the low byte is {C0, C1, C2}.
    names = tuple(f"C{i}" for i in range(m))
    related = cr.RelatedFamily(names, _pack((0b11, 0b100), m))
    cache = cr.ReductionCache("f", related, cr.ReductSet(names, _pack((0b11, 0b100), m)))
    doc = json.loads(cr.serialize_cache(cache))
    width = 2 * max(1, -(-m // 8))
    fields = [doc["reducts"][k : k + width] for k in range(0, len(doc["reducts"]), width)]
    doc["reducts"] = "".join(edit(fields))
    with pytest.raises(ParseError, match=re.escape(message)):
        cr.load_cache(json.dumps(doc))


def _antichain_rule(m: int, related: list[int], reducts: list[int]) -> None:
    """``load_cache`` accepts distinct ``reducts`` exactly when ``absorb``
    keeps every one of them, and otherwise gives the antichain message."""
    names = tuple(f"C{i}" for i in range(m))
    rows = _pack(reducts, m)
    cache = cr.ReductionCache(
        "f", cr.RelatedFamily(names, _pack(related, m)), cr.ReductSet(names, rows)
    )
    text = cr.serialize_cache(cache)
    if len(cr.absorb(rows)) == len(rows):
        assert cr.load_cache(text) == cache
    else:
        with pytest.raises(ParseError) as caught:
            cr.load_cache(text)
        assert str(caught.value) == "reducts: one reduct contains another"


@pytest.mark.parametrize("m", [5, 70])
@pytest.mark.parametrize(
    "related,reducts",
    [
        (["abc"], ["a", "b", "c"]),
        (["ab"], ["ab", "c"]),
        (["abc"], ["a", "b", "c", "ab"]),
        (["a", "b"], ["ab", "a", "c"]),
        (["", ""], ["a", "b", "c"]),
        (["", ""], ["", "a", "b"]),
    ],
    ids=[
        "minimal hitting sets",
        "antichain of other sets",
        "minimal hitting sets and a superset",
        "nested",
        "no clauses, antichain",
        "no clauses, nested",
    ],
)
def test_more_reducts_than_objects_follow_the_antichain_rule(m, related, reducts):
    # a, b and c are coverings 0, 1 and m - 1, so at m = 70 c is in word two.
    bit = {"a": 1, "b": 2, "c": 1 << (m - 1)}
    masks = [[sum(bit[v] for v in s) for s in sets] for sets in (related, reducts)]
    _antichain_rule(m, *masks)


@st.composite
def _reduct_families(draw):
    """Related sets of n objects and more than n distinct reducts: their
    minimal hitting sets, other sets, or both, at one word and at two.
    Other sets of one size are an antichain."""
    m = draw(st.sampled_from((5, 12, 66, 70)))
    pool = sorted({0, 1, 2, min(63, m - 3), min(64, m - 2), m - 1})

    def masks(low, high):
        sets = st.sets(st.sampled_from(pool), min_size=low, max_size=high)
        return sets.map(lambda ps: sum(1 << p for p in ps))

    n = draw(st.integers(1, 3))
    related = draw(st.lists(masks(0, 3), min_size=n, max_size=n))
    clauses = [frozenset(to_indices(r)) for r in related if r]
    hitting = {sum(1 << v for v in h) for h in minimal_hitting_sets(clauses, pool)}
    size = draw(st.integers(1, 3))
    other = draw(st.sets(draw(st.sampled_from([masks(size, size), masks(0, 3)])), max_size=6))
    reducts = draw(st.sampled_from([hitting, hitting | other, other]))
    assume(len(reducts) > n)
    return m, related, draw(st.permutations(sorted(reducts)))


@settings(max_examples=200, deadline=None)
@given(_reduct_families())
def test_more_reducts_than_objects_follow_the_antichain_rule_property(family):
    _antichain_rule(*family)


@pytest.fixture
def absorbed_counts(monkeypatch):
    """The row count of every ``absorb`` call ``io`` makes."""
    counts = []

    def recording(rows):
        counts.append(len(rows))
        return cr.absorb(rows)

    monkeypatch.setattr(io, "absorb", recording)
    return counts


@pytest.mark.parametrize("padding", [0, 56])
def test_more_reducts_than_objects_skip_the_quadratic_check(absorbed_counts, padding):
    # 16 reducts on 10 objects.  One-block coverings over the universe are
    # never admissible: 56 of them make the rows two words wide and change
    # nothing else.
    system = random_system(random.Random(0), 10, 14, 4, 3, block_style="subset")
    for i in range(padding):
        system = system.with_covering(cr.make_covering(f"P{i}", [list(range(10))], 10))
    _, cache = cr.batch_reducts(system)
    assert len(cache.reducts.rows) == 16 and cache.reducts.rows.shape[1] == 1 + (padding > 0)
    assert cr.load_cache(cr.serialize_cache(cache)) == cache
    # The one absorb is of the non-empty related sets, never of the reducts.
    assert absorbed_counts == [np.count_nonzero(cache.related.rows.any(axis=1))]


def test_few_reducts_take_the_quadratic_check(absorbed_counts, consistent8):
    _, cache = cr.batch_reducts(consistent8)
    assert len(cache.reducts.rows) == 6 <= consistent8.universe_size
    assert cr.load_cache(cr.serialize_cache(cache)) == cache
    assert absorbed_counts == [6]


@pytest.mark.parametrize("padding", [0, 56])
def test_superset_past_the_first_absorb_head_is_rejected(absorbed_counts, padding):
    # 167 reducts of popcount 7-10 on 200 objects, so absorb decides and
    # takes several heads.  The appended row strictly contains a reduct of
    # the lowest popcount, which is in the first head, and has the top
    # popcount, which is not.
    system = random_system(random.Random(2), 200, 30, 20, 6, contiguous_decision=True)
    for i in range(padding):
        system = system.with_covering(cr.make_covering(f"P{i}", [list(range(200))], 200))
    _, cache = cr.batch_reducts(system)
    rows = cache.reducts.rows
    counts = np.bitwise_count(rows).sum(axis=1)
    assert len(rows) == 167 <= system.universe_size and rows.shape[1] == 1 + (padding > 0)
    assert np.count_nonzero(counts < counts.max()) > boolformula.HEAD_ROWS
    doc = json.loads(cr.serialize_cache(cache))
    width = max(1, -(-len(doc["covering_names"]) // 8))
    superset = min(_fields(doc["reducts"], width), key=int.bit_count)
    for i in range(len(doc["covering_names"])):
        if superset.bit_count() < counts.max() and not superset >> i & 1:
            superset |= 1 << i
    doc["reducts"] += superset.to_bytes(width, "little").hex()
    doc["digest"] = io._digest(doc["fingerprint"], doc["covering_names"], doc["related"], doc["reducts"])
    with pytest.raises(ParseError, match=re.escape("reducts: one reduct contains another")):
        cr.load_cache(json.dumps(doc))
    assert absorbed_counts == [168]


# With four more coverings, none admissible, the consistent8 masks take two
# bytes each: related "1500" "1f00" ..., reducts "0300" ... "1800".  Byte 1
# is the high byte of related[0], byte 11 that of reducts[5].
WIDE_CORRUPTIONS = [
    ("length not a whole mask", lambda d: _set(d, "related", d["related"][:-2]), "related"),
    ("reducts not whole masks", lambda d: _set(d, "reducts", d["reducts"] + "00"), "reducts"),
    ("related past last covering", lambda d: _field(d, "related", 1, "02"), "related[0]"),
    ("reduct past last covering", lambda d: _field(d, "reducts", 11, "80"), "reducts[5]"),
]


@pytest.mark.parametrize(
    "edit,field", [c[1:] for c in WIDE_CORRUPTIONS], ids=[c[0] for c in WIDE_CORRUPTIONS]
)
def test_corrupted_two_byte_cache_rejected(edit, field):
    coverings = CONSISTENT8_COVERINGS + [(f"P{i}", [list(range(8))]) for i in range(4)]
    doc = _cache_doc(cr.build_system(8, coverings, DECISION_8))
    assert doc["related"][:8] == "15001f00" and doc["reducts"][:4] == "0300"
    cr.load_cache(json.dumps(doc))
    edit(doc)
    with pytest.raises(ParseError, match=re.escape(field)):
        cr.load_cache(json.dumps(doc))


def _edit_one_field(rng: random.Random, doc: dict) -> None:
    """Change one field of a cache document, keeping it well-formed JSON:
    one character of a string (a hex digit of a mask string or of a
    hash), or the order of two covering names."""
    key = rng.choice(["fingerprint", "covering_names", "related", "reducts", "digest"])
    value = doc[key]
    if isinstance(value, str):
        k = rng.randrange(len(value))
        doc[key] = value[:k] + rng.choice("0123456789abcdef") + value[k + 1 :]
    else:
        i, j = rng.randrange(len(value)), rng.randrange(len(value))
        value[i], value[j] = value[j], value[i]


def test_single_field_edits_are_rejected_or_harmless():
    """Every edited cache is rejected at load, or answers as batch does."""
    rng = random.Random(13)
    rejected = 0
    for _ in range(400):
        system = random_system(
            rng, rng.randint(3, 10), rng.randint(2, 6), rng.randint(2, 5), 3, "subset"
        )
        _, cache = cr.batch_reducts(system)
        doc = json.loads(cr.serialize_cache(cache))
        edited = json.loads(json.dumps(doc))
        _edit_one_field(rng, edited)
        try:
            loaded = cr.load_cache(json.dumps(edited))
        except ParseError:
            rejected += 1
            continue
        assert edited == doc
        victim = rng.choice(system.names())
        reducts, _ = cr.delete_covering(system, loaded, victim)
        batch, _ = cr.batch_reducts(system.without_covering(victim))
        assert reducts.as_name_sets() == batch.as_name_sets()
    assert rejected > 300


def test_coverize_categorical_partition():
    columns = {"a": ["a", "a", "b"], "class": ["p", "q", "q"]}
    system = cr.coverize(columns, cr.CoverizationSpec(decision_column="class"))
    assert system.universe_size == 3
    assert system.coverings[0].name == "a"
    assert set(system.coverings[0].blocks) == {0b011, 0b100}
    assert set(system.decision.classes) == {0b001, 0b110}


def test_coverize_tolerance_blocks():
    columns = {"v": ["1", "2", "3"], "class": ["p", "p", "q"]}
    spec = cr.CoverizationSpec(decision_column="class", rules={"v": cr.Tolerance(0.5)})
    system = cr.coverize(columns, spec)
    assert set(system.coverings[0].blocks) == {0b011, 0b111, 0b110}


def test_coverize_tolerance_full_range_collapses():
    columns = {"v": ["1", "2", "3"], "class": ["p", "p", "q"]}
    spec = cr.CoverizationSpec(decision_column="class", rules={"v": cr.Tolerance(1.0)})
    system = cr.coverize(columns, spec)
    assert system.coverings[0].blocks == (0b111,)


def _reference_tolerance_blocks(values, epsilon):
    """The all-pairs loop that sorted runs replaced, kept as the reference
    for the blocks and their order."""
    nums = [float(v) for v in values]
    threshold = epsilon * (max(nums) - min(nums))
    blocks, seen = [], set()
    for vx in nums:
        members = tuple(y for y, vy in enumerate(nums) if abs(vx - vy) <= threshold)
        if members not in seen:
            seen.add(members)
            blocks.append(list(members))
    return blocks


def test_tolerance_blocks_match_the_all_pairs_loop():
    # Ties, small integers whose differences can equal the threshold, huge
    # values whose differences overflow to inf, tiny negatives and signed
    # zeros.
    rng = random.Random("tolerance-blocks")
    pools = [
        lambda: rng.choice([0, 1, 2, 3, 5, 8]),
        lambda: rng.uniform(-10, 10),
        lambda: rng.choice([1e308, -1e308, 1.7e308, -1.7e308, 0.0, 1.0]),
        lambda: rng.choice([-5e-324, 5e-324, -1e-300, 0.0, -0.0, 1e-310]),
        lambda: rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, 1.1]) * rng.choice([1, -1, 3]),
    ]
    for trial in range(300):
        draw = pools[trial % len(pools)]
        values = [repr(float(draw())) for _ in range(rng.randint(2, 60))]
        if len(set(map(float, values))) == 1:
            continue
        for epsilon in (0.01, 0.1, 1 / 3, 0.5, 1.0):
            got = io._tolerance_blocks("v", values, epsilon)
            assert got == _reference_tolerance_blocks(values, epsilon), (values, epsilon)


def test_tolerance_blocks_of_twenty_thousand_rows_are_not_quadratic():
    rng = random.Random(20_000)
    values = [repr(rng.gauss(0, 1)) for _ in range(20_000)]
    start = time.perf_counter()
    io._tolerance_blocks("v", values, 0.01)
    assert time.perf_counter() - start < 10


def test_coverize_constant_column_warns(caplog):
    columns = {"v": ["5", "5", "5"], "class": ["p", "p", "q"]}
    spec = cr.CoverizationSpec(decision_column="class", rules={"v": cr.Tolerance(0.5)})
    with caplog.at_level(logging.WARNING, logger="covreduct.io"):
        system = cr.coverize(columns, spec)
    assert system.coverings[0].blocks == (0b111,)
    assert any("constant" in rec.message for rec in caplog.records)


def test_coverize_non_numeric_rejected():
    columns = {"v": ["1", "two", "3"], "class": ["p", "p", "q"]}
    spec = cr.CoverizationSpec(decision_column="class", rules={"v": cr.Tolerance(0.5)})
    with pytest.raises(NonNumericForTolerance):
        cr.coverize(columns, spec)


@pytest.mark.parametrize(
    "columns, error, fragment",
    [
        ({"v": ["1", "2"], "class": ["p"]}, cr.ValidationError, "unequal lengths"),
        ({"v": [], "class": []}, cr.ValidationError, "no rows"),
        ({"v": ["1", "inf", "3"], "class": ["p", "p", "q"]}, NonNumericForTolerance, "non-finite"),
        ({"v": ["1", "nan", "3"], "class": ["p", "p", "q"]}, NonNumericForTolerance, "non-finite"),
    ],
)
def test_coverize_rejects_malformed_tables(columns, error, fragment):
    spec = cr.CoverizationSpec(decision_column="class", rules={"v": cr.Tolerance(0.5)})
    with pytest.raises(error, match=fragment):
        cr.coverize(columns, spec)


def test_coverize_epsilon_validated():
    with pytest.raises(cr.ValidationError):
        cr.Tolerance(0.0)
    with pytest.raises(cr.ValidationError):
        cr.Tolerance(1.5)


def test_coverize_missing_decision_column():
    with pytest.raises(cr.ValidationError):
        cr.coverize({"a": ["x"]}, cr.CoverizationSpec(decision_column="class"))


@pytest.mark.parametrize("column", ["zz", "class"], ids=["not in table", "decision"])
def test_coverize_rejects_a_rule_for_no_condition_column(column):
    # A mistyped column name must not leave the column it meant categorical.
    columns = {"v": ["1", "2", "3"], "class": ["p", "p", "q"]}
    spec = cr.CoverizationSpec(decision_column="class", rules={column: cr.Tolerance(0.5)})
    with pytest.raises(cr.ValidationError, match=f"rule for column '{column}'"):
        cr.coverize(columns, spec)


def test_coverize_output_is_valid_system():
    columns = {
        "size": ["1", "2", "2", "9"],
        "color": ["r", "g", "r", "g"],
        "class": ["p", "p", "q", "q"],
    }
    spec = cr.CoverizationSpec(decision_column="class", rules={"size": cr.Tolerance(0.25)})
    system = cr.coverize(columns, spec)
    reducts, _ = cr.batch_reducts(system)  # reducible without raising
    assert cr.serialize_system(cr.load_system(cr.serialize_system(system))) == cr.serialize_system(system)
    assert reducts.covering_names == ("size", "color")


def test_parse_coverization_spec():
    spec = parse_coverization_spec(
        '{"decision": "class", "rules": {"a": "categorical", "b": {"tolerance": 0.25}}}'
    )
    assert spec.decision_column == "class"
    assert spec.rules["a"] == cr.Categorical()
    assert spec.rules["b"] == cr.Tolerance(0.25)
    with pytest.raises(ParseError):
        parse_coverization_spec('{"decision": "class", "rules": {"a": 5}}')
    # A bool is no number: true once passed as epsilon 1.
    with pytest.raises(ParseError, match="rules\\['a'\\]"):
        parse_coverization_spec('{"decision": "class", "rules": {"a": {"tolerance": true}}}')
    with pytest.raises(ParseError, match="^rules: expected an object$"):
        parse_coverization_spec('{"decision": "class", "rules": []}')


def test_coverization_spec_rejects_unknown_fields():
    # Both typos were once ignored: the first turned every tolerance
    # column categorical, the second dropped the extra field silently.
    with pytest.raises(ParseError, match="^rulez: not a field of a coverization spec$"):
        parse_coverization_spec('{"decision": "y", "rulez": {"a": {"tolerance": 0.5}}}')
    with pytest.raises(
        ParseError, match=re.escape("rules['a'].extra: not a field of a tolerance rule")
    ):
        parse_coverization_spec('{"decision": "y", "rules": {"a": {"tolerance": 0.5, "extra": 1}}}')
