"""``tools/bench_pairs.py``'s summary, fed canned perfbench run lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [m["name"] for m in SPEC["end_to_end"]]


def _line(**metrics):
    """A perfbench last line whose metrics all read 1.0 but ``metrics``."""
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {name: metrics.get(name, 1.0) for name in NAMES}}


def _runs(parent, change, metric="delete_p50_ms"):
    """One workload's runs: pair k reads ``parent[k]`` and ``change[k]`` on ``metric``."""
    return {"update_dense": {
        "parent": {str(9000 + k): _line(**{metric: v}) for k, v in enumerate(parent)},
        "change": {str(9000 + k): _line(**{metric: v}) for k, v in enumerate(change)},
    }}


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


@pytest.mark.parametrize("losses, met", [(1, True), (2, False)])
def test_a_claim_needs_nine_wins_in_ten(losses, met):
    # The change reads 0.8 on every pair but ``losses`` of them, so its
    # median gain (0.2) is far past the parent's IQR either way.
    change = [1.5 if k < losses else 0.8 for k in range(10)]
    summary = bench_pairs.summarize(_runs(PARENT, change), SPEC, ("update_dense", "delete_p50_ms"))
    claim = summary["claim"]
    assert (claim["change_wins"], claim["pairs"], claim["met"]) == (10 - losses, 10, met)
    assert claim["median_gain"] > claim["parent_iqr"]


def test_a_claim_needs_a_gain_past_the_parents_iqr():
    change = [v - 0.005 for v in PARENT]
    claim = bench_pairs.summarize(_runs(PARENT, change), SPEC, ("update_dense", "delete_p50_ms"))["claim"]
    assert claim["change_wins"] == 10 and not claim["met"]


def test_a_regression_past_the_bound_is_flagged():
    verdicts = bench_pairs.summarize(_runs(PARENT, [1.3] * 10), SPEC)["verdicts"]["update_dense"]
    assert verdicts["delete_p50_ms"]["verdict"] == "worse"
    assert verdicts["delete_p50_ms"]["relative_change"] == pytest.approx(0.3)
    assert {v["verdict"] for k, v in verdicts.items() if k != "delete_p50_ms"} == {"within_bound"}
    # A higher-is-better metric regresses downwards.
    drop = _runs(PARENT, [0.7] * 10, metric="incremental_speedup")
    assert bench_pairs.summarize(drop, SPEC)["verdicts"]["update_dense"]["incremental_speedup"]["verdict"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.5, 1.5] * 5
    verdicts = bench_pairs.summarize(_runs(parent, parent[::-1]), SPEC)["verdicts"]["update_dense"]
    assert verdicts["delete_p50_ms"]["verdict"] == "unresolved"


@pytest.mark.parametrize("fault", [{"correct": False}, {"failed": 1}])
def test_an_incorrect_run_is_rejected(fault):
    runs = _runs(PARENT, PARENT)
    runs["update_dense"]["change"]["9003"].update(fault)
    with pytest.raises(bench_pairs.RunRejected, match="change update_dense:9003"):
        bench_pairs.summarize(runs, SPEC)
