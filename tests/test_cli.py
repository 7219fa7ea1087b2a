import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covreduct as cr
import covreduct.cli as cli
from covreduct import bench
from covreduct.bench import BenchConfig, _generate
from covreduct.boolformula import _pack

from conftest import EXTRA_COVERING_6


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


def test_validate_bad_document(capsys, tmp_path):
    bad = tmp_path / "bad.cds.json"
    bad.write_text('{"universe_size": 3, "coverings": [{"name": "C1", "blocks": [[0]]}], "decision": [[0, 1, 2]]}')
    code, _, err = run(capsys, "validate", bad)
    assert code == 1
    assert "error:" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", tmp_path / "nope.json")
    assert code == 1
    assert "error:" in err


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


@pytest.mark.parametrize("op", ["add", "del"])
def test_update_output_reduces_to_the_same_reducts(capsys, tmp_path, consistent8_file, op):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    if op == "add":
        name, blocks = EXTRA_COVERING_6
        change = tmp_path / "c6.json"
        change.write_text(json.dumps({"name": name, "blocks": blocks}))
    else:
        change = "C5"
    out_path = tmp_path / "updated.cds.json"
    code, updated, _ = run(
        capsys, "update", consistent8_file, f"--{op}", change, "--cache", cache_path, "-o", out_path
    )
    assert code == 0
    code, batch, _ = run(capsys, "reduce", out_path)
    assert code == 0
    assert batch == updated


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


def test_update_stale_cache(capsys, tmp_path, consistent8_file, inconsistent8_file):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    code, _, err = run(capsys, "update", inconsistent8_file, "--del", "C4", "--cache", cache_path)
    assert code == 2
    assert "cache" in err


def test_update_corrupted_cache(capsys, tmp_path, consistent8_file):
    # A negative mask once escaped as an uncaught ValueError traceback.
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    doc = json.loads(cache_path.read_text())
    doc["related"] = "-3" + doc["related"][2:]
    cache_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "update", consistent8_file, "--del", "C5", "--cache", cache_path)
    assert code == 1
    assert err.startswith("error: related: expected lowercase hex digits")
    assert "Traceback" not in err


def _reseal(cache_path, edit):
    """Rewrite a cache file with ``edit`` applied to its related masks and
    the digest recomputed, as a forger would."""
    cache = cr.load_cache(cache_path.read_text())
    names = cache.related.covering_names
    related = cr.RelatedFamily(names, _pack(edit(list(cache.related.r)), len(names)))
    cache_path.write_text(cr.serialize_cache(dataclasses.replace(cache, related=related)))


def test_update_short_related_cache(capsys, tmp_path, inconsistent8_file):
    # Index 1 has an empty related set, so a document cut to the first two
    # objects is self-consistent and only the system shows the gap.
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", inconsistent8_file, "--cache", cache_path)
    _reseal(cache_path, lambda r: r[:2])
    code, _, err = run(capsys, "update", inconsistent8_file, "--del", "C4", "--cache", cache_path)
    assert code == 2
    assert err.startswith("error: cache holds related sets for 2 objects")


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


def test_update_unknown_covering(capsys, tmp_path, consistent8_file):
    cache_path = tmp_path / "cache.json"
    run(capsys, "reduce", consistent8_file, "--cache", cache_path)
    code, _, err = run(capsys, "update", consistent8_file, "--del", "C9", "--cache", cache_path)
    assert code == 2
    assert "C9" in err


def test_reduce_exits_on_the_cell_budget(capsys, tmp_path):
    # The n=1000, m=72 bench system (seed 2024) never passes the default
    # 10^6-term limit before its product steps reach 10^10 subset tests;
    # the cell budget turns what was a hang into exit code 2.
    path = tmp_path / "m72.cds.json"
    path.write_text(cr.serialize_system(_generate(BenchConfig(), 1000, 72)))
    code, out, err = run(capsys, "reduce", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: DNF expansion exceeded 10000000000 subset tests")


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


def test_coverize_empty_csv(capsys, tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"decision": "class"}')
    out_path = tmp_path / "out.cds.json"
    code, out, err = run(capsys, "coverize", csv_path, "--spec", spec_path, "-o", out_path)
    assert (code, out) == (1, "")
    assert err == "error: CSV file is empty\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "table, line, cells",
    [("a,b,class\n1,2\n3,4,p\n", 2, 2), ("a,b,class\n1,2,p\n3,4,p,q\n", 3, 4)],
    ids=["short row", "long row"],
)
def test_coverize_rejects_ragged_rows(capsys, tmp_path, table, line, cells):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(table)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"decision": "class"}')
    out_path = tmp_path / "out.cds.json"
    code, out, err = run(capsys, "coverize", csv_path, "--spec", spec_path, "-o", out_path)
    assert (code, out) == (1, "")
    assert err == f"error: CSV line {line}: {cells} cells, the header has 3\n"
    assert not out_path.exists()


def test_coverize_rejects_a_repeated_column(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("a,a,d\n1,x,p\n2,y,q\n")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"decision": "d"}')
    out_path = tmp_path / "out.cds.json"
    code, out, err = run(capsys, "coverize", csv_path, "--spec", spec_path, "-o", out_path)
    assert (code, out) == (1, "")
    assert err == "error: CSV header repeats column 'a'\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_bool_universe_size_rejected(capsys, tmp_path, command):
    path = tmp_path / "bool.cds.json"
    path.write_text(
        '{"universe_size": true, "coverings": [{"name": "C", "blocks": [[0]]}], "decision": [[0]]}'
    )
    code, out, err = run(capsys, command, path)
    assert (code, out) == (1, "")
    assert err == "error: universe_size: expected an integer\n"


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
    ('{"updates": [["add"]]}', "update"),
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
    ('{"seeds": 1}', "seeds"),
    ('[1000]', "root"),
]


def test_bench_bad_config(capsys, tmp_path):
    config = tmp_path / "bench.json"
    for text, field in BAD_BENCH_CONFIGS:
        config.write_text(text)
        code, out, err = run(capsys, "bench", config)
        assert (code, out) == (1, ""), text
        assert err.startswith("error: ") and field in err.splitlines()[0], (text, err)
        assert "Traceback" not in err


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
