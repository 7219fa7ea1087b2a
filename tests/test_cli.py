import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import covreduct as cr
import covreduct.cli as cli
from covreduct import bench
from covreduct.bench import BenchConfig, _generate
from covreduct.bitset import to_indices
from covreduct.boolformula import HEAD_ROWS, _pack
from covreduct.io import _digest
from covreduct.synth import random_covering, random_system

from conftest import (
    CONSISTENT8_COVERINGS,
    DECISION_8,
    EXTRA_COVERING_6,
    INCONSISTENT8_COVERINGS,
    readme_block,
)

SYSTEM8 = cr.serialize_system(cr.build_system(8, CONSISTENT8_COVERINGS, DECISION_8))
INCONSISTENT_SYSTEM8 = cr.serialize_system(cr.build_system(8, INCONSISTENT8_COVERINGS, DECISION_8))
C6 = json.dumps(dict(zip(("name", "blocks"), EXTRA_COVERING_6)))


@pytest.fixture
def consistent8_file(tmp_path, consistent8):
    path = tmp_path / "consistent8.cds.json"
    path.write_text(cr.serialize_system(consistent8))
    return path


@pytest.fixture
def inconsistent8_file(tmp_path, inconsistent8):
    path = tmp_path / "inconsistent8.cds.json"
    path.write_text(cr.serialize_system(inconsistent8))
    return path


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, consistent8_file):
    code, out, _ = run(capsys, "validate", consistent8_file)
    assert code == 0
    assert "8 objects" in out and "consistent" in out


def test_validate_reads_past_a_byte_order_mark(capsys, consistent8_file, tmp_path):
    marked = tmp_path / "marked.cds.json"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(consistent8_file).read_bytes())
    assert run(capsys, "validate", marked) == run(capsys, "validate", consistent8_file)


def _cli_process(log_level, *argv):
    """The CLI in a fresh interpreter, so that ``logging`` is not yet configured."""
    src = str(Path(cr.__file__).parents[1])
    env = dict(os.environ, COVREDUCT_LOG_LEVEL=log_level)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "covreduct.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_log_level_is_read_in_any_case(consistent8_file):
    done = _cli_process("debug", "validate", consistent8_file)
    assert done.returncode == 0, done.stderr
    assert "8 objects" in done.stdout
    assert "Traceback" not in done.stderr


def test_unknown_log_level_is_one_error_line(consistent8_file):
    done = _cli_process("loud", "validate", consistent8_file)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == ["error: COVREDUCT_LOG_LEVEL='loud' is not a logging level"]


def test_unknown_log_level_in_process(capsys, monkeypatch, consistent8_file):
    # The same check as above through cli.main, so that it runs in the
    # test process: the level is checked before logging is configured.
    monkeypatch.setenv("COVREDUCT_LOG_LEVEL", "loud")
    code, out, err = run(capsys, "validate", consistent8_file)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: COVREDUCT_LOG_LEVEL='loud' is not a logging level"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce"], "the following arguments are required: file"),
        (["validate", "{system}", "--bogus"], "unrecognized arguments: --bogus"),
        (["update", "{system}", "--cache", "cache.json"], "one of the arguments --add --del is required"),
    ],
    ids=["missing-file", "unknown-flag", "update-without-change"],
)
def test_usage_errors_exit_1(capsys, consistent8_file, argv, message):
    # argparse exits 2, which the CLI keeps for engine errors.
    code, out, err = run(capsys, *(arg.format(system=consistent8_file) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith("usage: covreduct") and f"error: {message}" in err


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: covreduct")


def test_reduce_prints_golden_lines(capsys, consistent8_file):
    code, out, _ = run(capsys, "reduce", consistent8_file)
    assert code == 0
    assert out.splitlines() == [
        "C1,C2",
        "C1,C4",
        "C2,C3",
        "C2,C5",
        "C3,C4",
        "C4,C5",
    ]
    # Byte-identical on a second run.
    _, out2, _ = run(capsys, "reduce", consistent8_file)
    assert out2 == out


def test_reduce_inconsistent_notes_region(capsys, inconsistent8_file):
    code, out, _ = run(capsys, "reduce", inconsistent8_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "inconsistent (POS != U)"
    assert lines[1:] == ["C1,C2", "C1,C3"]


@pytest.mark.parametrize("fixture", ["consistent8_file", "inconsistent8_file"])
def test_reduce_verify_ok(capsys, fixture, request):
    path = request.getfixturevalue(fixture)
    code, out, _ = run(capsys, "reduce", path, "--verify")
    assert code == 0
    assert "verification: OK" in out


def test_reduce_verify_mismatch_exit_code(capsys, consistent8_file, monkeypatch):
    broken = cr.ReductSet(("C1",), _pack([1], 1))
    monkeypatch.setattr(cli, "oracle_reducts", lambda system: broken)
    code, _, err = run(capsys, "reduce", consistent8_file, "--verify")
    assert code == 3
    assert "MISMATCH" in err


def test_update_add_and_delete(capsys, tmp_path, consistent8_file):
    cache_path = tmp_path / "cache.json"
    code, _, _ = run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    assert code == 0

    cov_path = tmp_path / "c6.json"
    name, blocks = EXTRA_COVERING_6
    cov_path.write_text(json.dumps({"name": name, "blocks": blocks}))
    out_path = tmp_path / "updated.cds.json"
    code, out, _ = run(
        capsys, "update", consistent8_file, "--add", cov_path, "--cache", cache_path, "-o", out_path
    )
    assert code == 0
    assert out.splitlines() == [
        "C1,C2",
        "C1,C4",
        "C1,C6",
        "C2,C3",
        "C2,C5",
        "C3,C4",
        "C4,C5",
        "C5,C6",
    ]
    updated = cr.load_system(out_path.read_text())
    assert updated.names()[-1] == "C6"
    # The rewritten cache matches the updated system: delete C6 again.
    code, out, _ = run(capsys, "update", out_path, "--del", "C6", "--cache", cache_path)
    assert code == 0
    assert len(out.splitlines()) == 6


def test_update_keeps_the_cache_when_the_output_fails(capsys, tmp_path, consistent8_file):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    before = cache_path.read_bytes()
    cov_path = tmp_path / "c6.json"
    name, blocks = EXTRA_COVERING_6
    cov_path.write_text(json.dumps({"name": name, "blocks": blocks}))
    update = ["update", consistent8_file, "--add", cov_path, "--cache", cache_path, "-o"]
    code, _, err = run(capsys, *update, tmp_path / "missing" / "out.json")
    assert code == 1 and "error" in err
    assert cache_path.read_bytes() == before
    # The cache still matches the input system, so the command can be re-run.
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, *update, out_path)
    assert code == 0
    code, out, _ = run(capsys, "update", out_path, "--del", "C6", "--cache", cache_path)
    assert code == 0 and len(out.splitlines()) == 6


def test_update_output_may_replace_its_input_system(capsys, tmp_path, consistent8_file):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    code, updated, _ = run(
        capsys, "update", consistent8_file, "--del", "C5", "--cache", cache_path, "-o", consistent8_file
    )
    assert code == 0
    assert cr.load_system(consistent8_file.read_text()).names() == ("C1", "C2", "C3", "C4")
    assert run(capsys, "reduce", consistent8_file)[1] == updated


def _covering_json(covering):
    blocks = sorted(to_indices(b) for b in covering.blocks)
    return json.dumps({"name": covering.name, "blocks": blocks})


def _drawn(seed, n, m, classes, object_names=None):
    """A drawn system, with 40 blocks per covering, and the chain that adds
    A1, drawn from the same rng, then deletes C1."""
    rng = random.Random(seed)
    system = random_system(rng, n, m, 40, classes, contiguous_decision=True)
    a1 = _covering_json(random_covering(rng, n, "A1", 40))
    return cr.serialize_system(system, object_names), [("--add", a1), ("--del", "C1")]


def _masks(doc, key, digits):
    """The ``digits``-wide hex mask fields of a cache document's ``key``."""
    text = doc[key]
    assert len(text) % digits == 0, (key, len(text), digits)
    return [text[i : i + digits] for i in range(0, len(text), digits)]


def _consistent8_chain(add_first):
    steps = [("--add", C6), ("--del", "C5")]
    return SYSTEM8, steps if add_first else steps[::-1], None


def _readme_chain():
    example = readme_block("### File formats", "json")
    c2 = json.dumps({"name": "C2", "blocks": [[0, 1], [1, 2], [3]]})
    return example, [("--add", c2), ("--del", "C1")], None


def _word_edge_cache(step, doc):
    # 64 coverings fill one word; the add makes 65, so every mask field
    # grows from 16 to 18 hex digits (9 bytes), and the delete of C1,
    # below bit 64, brings the system back to one word and 16.
    digits = (16, 18, 16)[step]
    assert len(_masks(doc, "related", digits)) == 1000
    assert _masks(doc, "reducts", digits)


def _more_reducts_chain():
    # 16 reducts on 10 objects, so every cache load certifies the reducts
    # as minimal hitting sets of the related sets instead of running the
    # quadratic antichain test.  C1 is in no reduct, so the count stays 16
    # along the chain; 13 and 14 coverings take four hex digits per mask.
    system = random_system(random.Random(0), 10, 14, 4, 3, block_style="subset")
    steps = [("--del", "C1"), ("--add", _covering_json(system.coverings[0]))]

    def check(step, doc):
        assert (len(_masks(doc, "reducts", 4)), len(_masks(doc, "related", 4))) == (16, 10)

    return cr.serialize_system(system), steps, check


def _several_heads_cache(step, doc):
    # More reducts than objects, so each load absorbs the related sets for
    # its certificate, and more non-empty ones than one absorb head holds.
    digits = 2 * -(-len(doc["covering_names"]) // 8)
    related = _masks(doc, "related", digits)
    assert len(_masks(doc, "reducts", digits)) > len(related) == 300
    assert sum(int(r, 16) > 0 for r in related) > HEAD_ROWS


# Each case: a system document, its chain of update steps and a check of
# the cache after reduce (step 0) and after each step.  The consistent8
# cases keep the ids they had as one-step tests.  A new edge case of the
# chain is one more entry here.
UPDATE_CHAINS = {
    "add": lambda: _consistent8_chain(add_first=True),
    "del": lambda: _consistent8_chain(add_first=False),
    "readme": _readme_chain,
    # 66 coverings, two words per mask, and object names to keep.
    "wide": lambda: (*_drawn(66, 1000, 66, 6, [f"x{i}" for i in range(1000)]), None),
    "word-edge": lambda: (*_drawn(64, 1000, 64, 6), _word_edge_cache),
    "more-reducts-than-objects": _more_reducts_chain,
    "several-heads": lambda: (*_drawn(1, 300, 36, 8), _several_heads_cache),
}


@pytest.mark.parametrize("chain", UPDATE_CHAINS)
def test_update_output_reduces_to_the_same_reducts(capsys, tmp_path, chain):
    text, steps, check = UPDATE_CHAINS[chain]()
    names = json.loads(text).get("object_names")
    paths = [tmp_path / f"step{i}.cds.json" for i in range(len(steps) + 1)]
    paths[0].write_text(text)
    cache_path = tmp_path / "cache.json"

    def check_cache(step):
        # The writer places its hex fields without json.dumps; the cache
        # must still be exactly the compact JSON dump.
        cache = cache_path.read_text()
        assert cache == json.dumps(json.loads(cache), separators=(",", ":")) + "\n"
        if check:
            check(step, json.loads(cache))

    assert run(capsys, "reduce", paths[0], "--cache", cache_path)[0] == 0
    check_cache(0)
    for step, (flag, change) in enumerate(steps, 1):
        if flag == "--add":
            (tmp_path / "covering.json").write_text(change)
            change = tmp_path / "covering.json"
        argv = ["update", paths[step - 1], flag, change, "--cache", cache_path, "-o", paths[step]]
        code, updated, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        check_cache(step)
        # update prints what reduce finds for the system it wrote; reduce
        # also notes an inconsistent system, update does not.
        code, batch, _ = run(capsys, "reduce", paths[step])
        assert code == 0 and updated
        assert batch.removeprefix("inconsistent (POS != U)\n") == updated
        # An add or delete moves no object, so the names stay.
        assert json.loads(paths[step].read_text()).get("object_names") == names


@pytest.mark.parametrize("op", ["add", "del"])
def test_update_output_keeps_object_names(capsys, tmp_path, consistent8, covering6, op):
    names = [f"x{i}" for i in range(1, 9)]
    path = tmp_path / "named.cds.json"
    path.write_text(cr.serialize_system(consistent8, names))
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", path, "--cache", cache_path)
    if op == "add":
        name, blocks = EXTRA_COVERING_6
        change = tmp_path / "c6.json"
        change.write_text(json.dumps({"name": name, "blocks": blocks}))
        expected = consistent8.with_covering(covering6)
    else:
        change = "C5"
        expected = consistent8.without_covering("C5")
    out_path = tmp_path / "updated.cds.json"
    code, _, _ = run(capsys, "update", path, f"--{op}", change, "--cache", cache_path, "-o", out_path)
    assert code == 0
    assert out_path.read_text() == cr.serialize_system(expected, names)


def test_update_without_output_derives_the_system_once(
    capsys, tmp_path, consistent8_file, monkeypatch
):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    name, blocks = EXTRA_COVERING_6
    cov_path = tmp_path / "c6.json"
    cov_path.write_text(json.dumps({"name": name, "blocks": blocks}))
    derived = []
    with_covering = cr.CoveringDecisionSystem.with_covering

    def counting(self, covering):
        derived.append(covering.name)
        return with_covering(self, covering)

    monkeypatch.setattr(cr.CoveringDecisionSystem, "with_covering", counting)
    code, _, _ = run(capsys, "update", consistent8_file, "--add", cov_path, "--cache", cache_path)
    assert code == 0
    assert derived == ["C6"]


def test_update_output_decodes_the_system_once(capsys, tmp_path, consistent8, monkeypatch):
    path = tmp_path / "named.cds.json"
    text = cr.serialize_system(consistent8, [f"x{i}" for i in range(1, 9)])
    path.write_text(text)
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", path, "--cache", cache_path)
    name, blocks = EXTRA_COVERING_6
    cov_path = tmp_path / "c6.json"
    cov_path.write_text(json.dumps({"name": name, "blocks": blocks}))
    decoded = []
    loads = json.loads

    def counting(s, *args, **kwargs):
        decoded.append(s == text)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    code, _, _ = run(
        capsys, "update", path, "--add", cov_path, "--cache", cache_path, "-o", tmp_path / "out.json"
    )
    assert code == 0
    assert decoded.count(True) == 1


def test_update_delete_golden(capsys, tmp_path, inconsistent8_file):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", inconsistent8_file, "--cache", cache_path)
    code, out, _ = run(capsys, "update", inconsistent8_file, "--del", "C4", "--cache", cache_path)
    assert code == 0
    assert out.splitlines() == ["C1,C2", "C1,C3"]


def _reseal(cache_path, edit):
    """Rewrite a cache file with ``edit`` applied to its related masks and
    the digest recomputed, as a forger would."""
    cache = cr.load_cache(cache_path.read_text())
    names = cache.related.covering_names
    related = cr.RelatedFamily(names, _pack(edit(list(cache.related.r)), len(names)))
    cache_path.write_text(cr.serialize_cache(dataclasses.replace(cache, related=related)))


def test_update_rejects_tampered_related_sets(capsys, tmp_path, consistent8_file):
    # A hand edit fails the digest at load; a forger who recomputes the
    # digest still meets the delete's check against the recomputed region.
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    doc = json.loads(cache_path.read_text())
    # One byte per mask: the first two digits are object 0's related set.
    assert doc["related"][:2] == "15"
    doc["related"] = "01" + doc["related"][2:]
    cache_path.write_text(json.dumps(doc))
    before = cache_path.read_bytes()
    code, out, err = run(capsys, "update", consistent8_file, "--del", "C1", "--cache", cache_path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: digest: does not match the cache content")
    assert cache_path.read_bytes() == before

    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    _reseal(cache_path, lambda r: [1] + r[1:])
    before = cache_path.read_bytes()
    code, out, err = run(capsys, "update", consistent8_file, "--del", "C1", "--cache", cache_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cached related sets disagree with the positive region")
    assert cache_path.read_bytes() == before


def test_coverize_command(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("size,color,class\n1,r,p\n2,g,p\n2,r,q\n9,g,q\n")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"decision": "class", "rules": {"size": {"tolerance": 0.25}}}')
    out_path = tmp_path / "out.cds.json"
    code, out, _ = run(capsys, "coverize", csv_path, "--spec", spec_path, "-o", out_path)
    assert code == 0
    system = cr.load_system(out_path.read_text())
    assert system.universe_size == 4
    assert system.names() == ("size", "color")


def test_coverize_reads_past_a_byte_order_mark(capsys, tmp_path):
    """Spreadsheet tools start a UTF-8 CSV with U+FEFF.  It is no part of the
    first column's name, so a table whose decision column comes first
    coverizes to the same bytes with the mark or without it."""
    table = "class,size,color\np,1,r\np,2,g\nq,2,r\nq,9,g\n"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"decision": "class", "rules": {"size": {"tolerance": 0.25}}}')
    written = []
    for mark in ("", "\ufeff"):
        csv_path = tmp_path / f"table{len(mark)}.csv"
        csv_path.write_text(mark + table, encoding="utf-8")
        out_path = tmp_path / f"out{len(mark)}.cds.json"
        code, _, err = run(capsys, "coverize", csv_path, "--spec", spec_path, "-o", out_path)
        assert code == 0, err
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
    assert cr.load_system(written[1].decode()).names() == ("size", "color")


def test_bench_command(capsys, tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {
                "universe_sizes": [30],
                "covering_counts": [4],
                "blocks_per_covering": 4,
                "decision_classes": 3,
                "seed": 5,
                "trials": 1,
                "updates": ["add", "delete"],
            }
        )
    )
    code, out, _ = run(capsys, "bench", config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,update,batch_s,incremental_s,speedup,equal"
    assert len(lines) == 3
    assert all(line.endswith(",true") for line in lines[1:])


def test_bench_writes_csv_to_out(capsys, tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(
        '{"universe_sizes": [20], "covering_counts": [3], "blocks_per_covering": 4,'
        ' "decision_classes": 2, "trials": 1, "updates": ["add"]}'
    )
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", config, "--out", csv_path)
    assert code == 0
    assert out == ""
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,m,update,batch_s,incremental_s,speedup,equal"
    assert len(lines) == 2 and lines[1].startswith("20,3,add,") and lines[1].endswith(",true")


# Each config and the field its error line must name.  Zero sizes once
# crashed in randrange, a string grid in int arithmetic, zero decision
# classes silently ran with one class, and one covering (with the default
# delete update) failed only after the CSV header was written.
BAD_BENCH_CONFIGS = [
    ('{"trials": 0}', "trials"),
    ('{"universe_sizes": [0]}', "universe_sizes"),
    ('{"covering_counts": [0]}', "covering_counts"),
    ('{"universe_sizes": "ab"}', "universe_sizes"),
    ('{"universe_sizes": [true]}', "universe_sizes"),
    ('{"covering_counts": [2.5]}', "covering_counts"),
    ('{"decision_classes": 0}', "decision_classes"),
    ('{"blocks_per_covering": -1}', "blocks_per_covering"),
    ('{"updates": "add"}', "updates"),
    ('{"updates": [["add"]]}', "updates"),
    ('{"covering_counts": [1]}', "covering_counts"),
    # A seed that is no integer once ran, and an empty list wrote only
    # the CSV header and exited 0.
    ('{"seed": NaN}', "seed"),
    ('{"seed": [1]}', "seed"),
    ('{"seed": "1"}', "seed"),
    ('{"seed": 1.5}', "seed"),
    ('{"seed": true}', "seed"),
    ('{"universe_sizes": []}', "universe_sizes"),
    ('{"covering_counts": []}', "covering_counts"),
    ('{"updates": []}', "updates"),
    # More classes than objects once ran with fewer classes, and a repeated
    # value measured its grid points twice; both exited 0.
    ('{"universe_sizes": [3], "covering_counts": [2], "decision_classes": 8}', "decision_classes"),
    ('{"universe_sizes": [20, 9], "decision_classes": 10}', "decision_classes"),
    ('{"universe_sizes": [20, 20]}', "universe_sizes"),
    ('{"covering_counts": [3, 2, 3]}', "covering_counts"),
    ('{"updates": ["add", "add"]}', "updates"),
    # A config built in Python once ran with these, timing deletes under
    # the label "remove" and drawing blocks_per_covering=0 blocks.
    ('{"updates": ["add", "remove"]}', "updates"),
    ('{"blocks_per_covering": 0}', "blocks_per_covering"),
    ('{"seeds": 1}', "seeds"),
    ('[1000]', "bench config root"),
]


def test_bench_config_checks_values_however_it_is_built():
    # The value faults of BAD_BENCH_CONFIGS, built in Python: a config that
    # passes the JSON-shape checks (an object of known fields, lists where
    # lists belong) fails in BenchConfig itself, before anything runs.  The
    # four shape faults, the two non-list grids, "seeds" and the list root,
    # are from_json's alone.
    built = 0
    for text, field in BAD_BENCH_CONFIGS:
        data = json.loads(text)
        if not isinstance(data, dict) or not data.keys() <= BenchConfig.__dataclass_fields__.keys():
            continue
        if any(not isinstance(data.get(key, [1]), list) for key in bench._LISTS):
            continue
        kwargs = {k: tuple(v) if k in bench._LISTS else v for k, v in data.items()}
        with pytest.raises(cr.ValidationError, match=f"^{field}: "):
            BenchConfig(**kwargs)
        built += 1
    assert built == len(BAD_BENCH_CONFIGS) - 4


def test_bench_mismatch_exits_3_with_the_system(capsys, tmp_path, monkeypatch):
    config = tmp_path / "bench.json"
    config.write_text(
        '{"universe_sizes": [20], "covering_counts": [3], "blocks_per_covering": 4,'
        ' "decision_classes": 2, "trials": 1, "updates": ["add"]}'
    )

    def no_reducts(system, cache, covering):
        names = system.names() + (covering.name,)
        return cr.ReductSet(names, _pack([], len(names))), cache

    monkeypatch.setattr(bench, "add_covering", no_reducts)
    code, out, err = run(capsys, "bench", config)
    assert (code, out) == (3, bench.CSV_HEADER + "\n")
    first, rest = err.split("\n", 1)
    assert first == "error: incremental and batch reducts differ for the system below (update=add):"
    # The rest of the message is the offending system, as a document.
    generated = _generate(BenchConfig.from_json(config.read_text()), 20, 3)
    assert rest == cr.serialize_system(generated) + "\n"


def test_bench_config_allows_one_covering_without_delete():
    config = BenchConfig.from_json('{"covering_counts": [1], "updates": ["add"]}')
    assert config.covering_counts == (1,)


def test_a_two_million_object_block_validates_within_seconds(capsys, tmp_path):
    # Block masks are built in linear time, so the parser's cost grows with
    # the index count, not with its square.
    n = 2 * 10**6
    path = tmp_path / "one.cds.json"
    block = list(range(n))
    doc = {"universe_size": n, "coverings": [{"name": "C", "blocks": [block]}], "decision": [block]}
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (0, "") and f"{n} objects" in out
    assert time.perf_counter() - start < 20


TABLE = "size,class\n1,p\n9,q\n"
SPEC = '{"decision": "class"}'
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _one_index(n, i):
    """A document of ``n`` objects whose one covering and one class are {i}."""
    doc = {"universe_size": n, "coverings": [{"name": "C", "blocks": [[i]]}], "decision": [[i]]}
    return json.dumps(doc)


def _cache(text, edit=lambda doc: {}):
    """The cache ``reduce --cache`` writes for the system document ``text``,
    its fields updated by ``edit(doc)`` and its digest recomputed, as a
    forger would."""
    doc = json.loads(cr.serialize_cache(cr.batch_reducts(cr.load_system(text))[1]))
    doc.update(edit(doc))
    doc["digest"] = _digest(doc["fingerprint"], doc["covering_names"], doc["related"], doc["reducts"])
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _superset_reduct(doc):
    # A 17th reduct on 10 objects, a strict superset of the first: it is no
    # minimal hitting set, so the certificate fails and the antichain test
    # rejects the cache.
    first = int.from_bytes(bytes.fromhex(doc["reducts"][:4]), "little")
    extra = next(1 << i for i in range(14) if not first >> i & 1)
    return {"reducts": doc["reducts"] + (first | extra).to_bytes(2, "little").hex()}


def _row(case, argv, files, code, fragment, **kwargs):
    return pytest.param(argv.split(), files, code, fragment, id=case, **kwargs)


UPDATE8 = {"system.cds.json": SYSTEM8, "cache.json": lambda: _cache(SYSTEM8), "c6.json": C6}
UPDATE = "update system.cds.json --cache cache.json -o out.cds.json"
COVERIZE = "coverize table.csv --spec spec.json -o out.cds.json"

# Rejected input, one row each: the argv, run in tmp_path; the files written
# there first (text, bytes or a function that builds either); the exit code;
# and a fragment of the error line.  A fragment from "error: " through the
# newline pins the whole line.  A new rejected input is one more row.
REJECTED_INPUT = [
    _row("validate-missing-file", "validate nope.json", {}, 1, "No such file or directory: 'nope.json'"),
    _row(
        "validate-uncovered-object", "validate bad.cds.json",
        {"bad.cds.json": '{"universe_size": 3, "coverings": [{"name": "C1", "blocks": [[0]]}], '
                         '"decision": [[0, 1, 2]]}'},
        1, "error: covering 'C1' does not cover objects [1, 2]\n",
    ),
    *(
        _row(f"{command}-bool-universe-size", f"{command} bool.cds.json",
             {"bool.cds.json": _one_index(True, 0)}, 1, "error: universe_size: expected an integer\n")
        for command in ("validate", "reduce")
    ),
    # The error names the first ten uncovered objects and counts the rest,
    # so it stays short at any universe size.  The lone index 10^12 would
    # take a 125 GB mask.
    *(
        _row(case, "validate gap.json", {"gap.json": _one_index(n, i)}, 1, f"does not cover objects {first}")
        for case, n, i, first in [
            ("validate-gap-1e6", 10**6, 0, "[1, 2, "),
            ("validate-gap-1e18", 10**18, 0, "[1, 2, "),
            ("validate-index-1e12", 10**12 + 1, 10**12, "[0, 1, "),
        ]
    ),
    # A misspelt field once passed silently: its names or blocks were dropped.
    _row("validate-misspelt-object-names", "validate bad.cds.json",
         {"bad.cds.json": json.dumps({**json.loads(SYSTEM8), "object_name": list("abcdefgh")})},
         1, "error: object_name: not a field of a system document\n"),
    _row("update-add-misspelt-covering-field", UPDATE + " --add c6.json",
         {**UPDATE8, "c6.json": json.dumps({**json.loads(C6), "blokcs": [list(range(8))]})},
         1, "error: blokcs: not a field of a covering\n"),
    _row(
        "validate-deep-nesting", "validate deep.json", {"deep.json": "[" * 200000},
        1, "error: invalid JSON: arrays and objects nest too deeply\n",
    ),
    _row(
        "validate-long-integer", "validate long.json",
        {"long.json": '{"universe_size": ' + "1" * (INT_DIGITS + 1) + "}"},
        1, "error: invalid JSON: Exceeds the limit",
        marks=pytest.mark.skipif(not INT_DIGITS, reason="integer strings have no digit limit"),
    ),
    # The n=1000, m=72 bench system (seed 2024) never passes the default
    # 10^6-term limit before its product steps reach 10^10 subset tests;
    # the cell budget turns what was a hang into exit code 2.
    _row(
        "reduce-cell-budget", "reduce m72.cds.json --cache cache.json",
        {"m72.cds.json": lambda: cr.serialize_system(_generate(BenchConfig(), 1000, 72))},
        2, "error: DNF expansion exceeded 10000000000 subset tests",
    ),
    # 17 coverings are past the oracle's limit: refused before the reducts
    # are printed or the cache written.
    _row(
        "reduce-verify-past-oracle-limit", "reduce s17.cds.json --verify --cache cache.json",
        {"s17.cds.json": lambda: cr.serialize_system(random_system(random.Random(5), 30, 17, 4, 3))},
        2, "error: 17 coverings exceeds the oracle limit of 16\n",
    ),
    _row(
        "update-stale-cache", UPDATE + " --del C4", {**UPDATE8, "system.cds.json": INCONSISTENT_SYSTEM8},
        2, "error: cache was built for system ",
    ),
    _row("update-unknown-covering", UPDATE + " --del C9", UPDATE8, 2, "error: no covering named 'C9'\n"),
    # A negative mask once escaped as an uncaught ValueError traceback.
    _row(
        "update-corrupted-cache", UPDATE + " --del C5",
        {**UPDATE8, "cache.json": lambda: _cache(SYSTEM8, lambda doc: {"related": "-3" + doc["related"][2:]})},
        1, "error: related: expected lowercase hex digits",
    ),
    # Object 1 of the inconsistent system has an empty related set, so a
    # cache cut to the first two objects is self-consistent and only the
    # system shows the gap.
    _row(
        "update-short-related-cache", UPDATE + " --del C4",
        {"system.cds.json": INCONSISTENT_SYSTEM8,
         "cache.json": lambda: _cache(INCONSISTENT_SYSTEM8, lambda doc: {"related": doc["related"][:4]})},
        2, "error: cache holds related sets for 2 objects",
    ),
    _row(
        "update-reduct-contains-another", UPDATE + " --del C1",
        {"system.cds.json": lambda: _more_reducts_chain()[0],
         "cache.json": lambda: _cache(_more_reducts_chain()[0], _superset_reduct)},
        1, "reducts: one reduct contains another",
    ),
    # Format 5 stamped a system by hashing every block, format 6 by its
    # admissible unions, so an old cache would otherwise fail as stale.
    _row(
        "update-format-5-cache", UPDATE + " --add c6.json",
        {**UPDATE8, "cache.json": lambda: _cache(SYSTEM8, lambda doc: {"format": 5})},
        1, "error: cache format 5 is not 6; rebuild the cache with `covreduct reduce --cache`\n",
    ),
    *(
        _row(case, COVERIZE, {"table.csv": table, "spec.json": spec}, 1, f"error: {message}\n")
        for case, table, spec, message in [
            ("coverize-empty-csv", "", SPEC, "CSV file is empty"),
            ("coverize-short-row", "a,b,class\n1,2\n3,4,p\n", SPEC, "CSV line 2: 2 cells, the header has 3"),
            ("coverize-long-row", "a,b,class\n1,2,p\n3,4,p,q\n", SPEC, "CSV line 3: 4 cells, the header has 3"),
            ("coverize-repeated-column", "a,a,d\n1,x,p\n2,y,q\n", '{"decision": "d"}',
             "CSV header repeats column 'a'"),
            # A spec field the layout does not have once passed silently
            # and left every tolerance column categorical.
            ("coverize-misspelt-spec-field", TABLE,
             '{"decision": "class", "rulez": {"size": {"tolerance": 0.25}}}',
             "rulez: not a field of a coverization spec"),
        ]
    ),
    *(
        _row(f"bench-{k:02d}", "bench bench.json", {"bench.json": text}, 1, f"error: {field}")
        for k, (text, field) in enumerate(BAD_BENCH_CONFIGS)
    ),
    # Every input file is read as UTF-8.
    *(
        _row(f"{case}-not-utf8", argv, {**files, name: b"\xff{}"}, 1, f"error: {name}: byte 0 is not UTF-8")
        for case, argv, files, name in [
            ("validate", "validate bad.json", {}, "bad.json"),
            ("reduce", "reduce bad.json --cache cache.json", {}, "bad.json"),
            ("update-system", UPDATE + " --del C1", UPDATE8, "system.cds.json"),
            ("update-cache", UPDATE + " --del C1", UPDATE8, "cache.json"),
            ("update-add", UPDATE + " --add c6.json", UPDATE8, "c6.json"),
            ("bench", "bench bench.json --out out.csv", {}, "bench.json"),
            ("coverize-spec", COVERIZE, {"table.csv": TABLE}, "spec.json"),
        ]
    ),
    _row(
        "coverize-csv-not-utf8", COVERIZE, {"table.csv": b"size,class\n1,p\n\xff,q\n", "spec.json": SPEC},
        1, "error: table.csv: byte 15 is not UTF-8",
    ),
]


@pytest.mark.parametrize("argv, files, code, fragment", REJECTED_INPUT)
def test_rejected_input_is_one_error_line(capsys, tmp_path, monkeypatch, argv, files, code, fragment):
    for name, content in files.items():
        content = content() if callable(content) else content
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, err
    assert fragment in err and len(err.encode()) < 1024 and "Traceback" not in err
    # No file is written or changed: every output the command names is
    # absent or as it was.
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


OWN_FILES = {
    "system.cds.json": SYSTEM8,
    "c6.json": C6,
    "table.csv": TABLE,
    "spec.json": SPEC,
    "bench.json": '{"universe_sizes": [20], "covering_counts": [3]}',
    "cache.json": lambda: _cache(SYSTEM8),
}


@pytest.mark.parametrize(
    "argv, flags",
    [
        ("reduce {tmp}/system.cds.json --cache system.cds.json", "--cache and file"),
        ("update {tmp}/system.cds.json --add {tmp}/c6.json --cache system.cds.json", "--cache and file"),
        ("update {tmp}/system.cds.json --add {tmp}/c6.json --cache c6.json", "--cache and --add"),
        ("update {tmp}/system.cds.json --add {tmp}/c6.json --cache {tmp}/cache.json -o cache.json", "-o and --cache"),
        ("update {tmp}/system.cds.json --del C1 --cache {tmp}/cache.json -o cache.json", "-o and --cache"),
        ("update {tmp}/system.cds.json --add {tmp}/c6.json --cache {tmp}/cache.json -o c6.json", "-o and --add"),
        ("coverize {tmp}/table.csv --spec {tmp}/spec.json -o table.csv", "-o and csv"),
        ("coverize {tmp}/table.csv --spec {tmp}/spec.json -o spec.json", "-o and --spec"),
        ("bench {tmp}/bench.json --out bench.json", "--out and config"),
    ],
    ids=[
        "reduce-cache-file",
        "update-cache-file",
        "update-cache-add",
        "update-add-out-cache",
        "update-del-out-cache",
        "update-out-add",
        "coverize-out-csv",
        "coverize-out-spec",
        "bench-out-config",
    ],
)
def test_no_command_overwrites_its_own_files(capsys, tmp_path, monkeypatch, argv, flags):
    # The output is named relative to the working directory, the input by
    # its absolute path: the two are compared as resolved paths.
    argv = argv.format(tmp=tmp_path).split()
    test_rejected_input_is_one_error_line(
        capsys, tmp_path, monkeypatch, argv, OWN_FILES, 1, f"error: {flags} both name "
    )
