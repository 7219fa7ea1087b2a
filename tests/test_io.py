import json
import logging
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import covreduct as cr
from covreduct.bench import BenchConfig
from covreduct.bitset import to_indices
from covreduct.errors import DecisionNotPartition, ParseError
from covreduct.io import (
    NonNumericForTolerance,
    parse_covering,
    parse_coverization_spec,
    parse_document,
)
from covreduct.synth import random_system

from conftest import CONSISTENT8_REDUCTS, partition_blocks


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
    doc = parse_document(text)
    assert doc.object_names == tuple(names)
    assert cr.fingerprint(cr.load_system(text)) == cr.fingerprint(consistent8)


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
        ('{"universe_size": 2, "coverings": [{"name": 3, "blocks": []}], "decision": []}', "coverings[0].name"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0, "x"]]}], "decision": []}', "coverings[0].blocks[0]"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0]]}], "decision": [0]}', "decision[0]"),
        ('{"universe_size": 2, "coverings": [{"name": "C", "blocks": [[0, 1]]}], "decision": [[0], [1]], "object_names": ["a"]}', "object_names"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
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


@pytest.mark.parametrize(
    "read",
    [
        parse_document,
        lambda text: parse_covering(text, 3),
        parse_coverization_spec,
        cr.load_cache,
        BenchConfig.from_json,
    ],
    ids=["document", "covering", "spec", "cache", "bench-config"],
)
def test_every_reader_locates_invalid_json(read):
    with pytest.raises(ParseError, match="invalid JSON at line 2, column 11"):
        read('{\n  "name": }')


@st.composite
def _update_caches(draw):
    """Batch, add and delete caches of a random system.

    At most three coverings split the universe; the others are one block
    over it, which never fits a decision class, so the reduct count stays
    small at any covering count.  With no splitting covering, or none with
    an admissible block, the positive region is empty.
    """
    m = draw(st.sampled_from((1, 63, 64, 65, 130)))
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
        assert cr.load_cache(text) == cache
        doc = json.loads(text)
        assert doc["format"] == 4
        assert doc["reducts"] == sorted(doc["reducts"], key=lambda h: int(h, 16))
        if cache.positive == 0:
            assert doc["reducts"] == ["0"]


def test_empty_positive_region_cache_roundtrip():
    system = cr.build_system(3, [("C1", [[0, 1, 2]]), ("C2", [[0, 1], [1, 2]])], [[0, 2], [1]])
    _, cache = cr.batch_reducts(system)
    assert cache.positive == 0 and cache.reducts.reducts == {0}
    text = cr.serialize_cache(cache)
    doc = json.loads(text)
    assert doc["related"] == ["0", "0", "0"]
    assert doc["reducts"] == ["0"]
    assert cr.load_cache(text) == cache
    assert not cr.load_cache(text).consistent


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
    # Format 2 had this layout but a fingerprint computed another way: it
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


def _cache_doc(system) -> dict:
    _, cache = cr.batch_reducts(system)
    return json.loads(cr.serialize_cache(cache))


def _set(doc, key, value, index=None):
    if index is None:
        doc[key] = value
    else:
        doc[key][index] = value


# (description, edit of the consistent8 cache document, field in the message)
CORRUPTIONS = [
    ("negative mask", lambda d: _set(d, "related", "-3", 0), "related[0]"),
    ("signed mask", lambda d: _set(d, "related", "+3", 1), "related[1]"),
    ("underscore", lambda d: _set(d, "related", "1_0", 2), "related[2]"),
    ("whitespace", lambda d: _set(d, "related", " 3", 3), "related[3]"),
    ("hex prefix", lambda d: _set(d, "reducts", "0x3", 0), "reducts[0]"),
    ("upper case", lambda d: _set(d, "reducts", "A", 0), "reducts[0]"),
    ("non-hex digit", lambda d: _set(d, "related", "1g", 4), "related[4]"),
    ("comma inside", lambda d: _set(d, "related", "1,2", 4), "related[4]"),
    ("empty string", lambda d: _set(d, "related", "", 5), "related[5]"),
    ("number not string", lambda d: _set(d, "related", 3, 6), "related[6]"),
    ("bad positive", lambda d: _set(d, "positive", "ff "), "positive"),
    ("related past last covering", lambda d: _set(d, "related", "21", 0), "related[0]"),
    ("reduct past last covering", lambda d: _set(d, "reducts", "20", 1), "reducts[1]"),
    ("duplicate names", lambda d: _set(d, "covering_names", "C1", 1), "covering_names"),
    ("non-string name", lambda d: _set(d, "covering_names", 7, 1), "covering_names"),
    ("positive disagrees", lambda d: _set(d, "positive", "7f"), "positive"),
    ("empty related set inside positive", lambda d: _set(d, "related", "0", 7), "digest"),
    # Both pass every other load check: only the digest ties the reducts to
    # the related sets, and a related set to the system.
    ("reducts replaced by the full family", lambda d: _set(d, "reducts", ["1f"]), "digest"),
    ("related set swapped", lambda d: _set(d, "related", "3", 0), "digest"),
    ("digest edited", lambda d: _set(d, "digest", "0" + d["digest"][1:]), "digest"),
    ("not an antichain", lambda d: d["reducts"].append("7"), "reducts"),
    ("duplicate reduct", lambda d: d["reducts"].append(d["reducts"][0]), "reducts"),
    ("no reducts", lambda d: _set(d, "reducts", []), "reducts"),
    ("related not a list", lambda d: _set(d, "related", "ff"), "related"),
    ("missing field", lambda d: d.pop("reducts"), "reducts"),
    ("fingerprint not a string", lambda d: _set(d, "fingerprint", 5), "fingerprint"),
    ("wrong format", lambda d: _set(d, "format", 1), "format"),
]


@pytest.mark.parametrize("edit,field", [c[1:] for c in CORRUPTIONS], ids=[c[0] for c in CORRUPTIONS])
def test_corrupted_cache_rejected(consistent8, edit, field):
    doc = _cache_doc(consistent8)
    cr.load_cache(json.dumps(doc))
    edit(doc)
    with pytest.raises(ParseError, match=re.escape(field)):
        cr.load_cache(json.dumps(doc))


def _edit_one_field(rng: random.Random, doc: dict, width: int) -> None:
    """Change one field of a cache document, keeping it well-formed."""
    key = rng.choice(["fingerprint", "covering_names", "related", "reducts", "digest"])
    value = doc[key]
    if isinstance(value, str):
        k = rng.randrange(len(value))
        doc[key] = value[:k] + rng.choice("0123456789abcdef") + value[k + 1 :]
    elif key == "covering_names":
        i, j = rng.randrange(len(value)), rng.randrange(len(value))
        value[i], value[j] = value[j], value[i]
    else:
        value[rng.randrange(len(value))] = format(rng.randrange(1 << width), "x")


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
        _edit_one_field(rng, edited, len(system.coverings))
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
