"""Alternating parent/change pairs of perfbench runs, summed up in one BENCH file.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads update_dense,update_sparse --seeds 9401-9410 --seconds 20 \\
        --claim update_dense:delete_p50_ms --trace-seed 9421 \\
        --what "what the change does" --out BENCH_name.json

``--parent`` and ``--change`` are two checkouts of the repository.  For each
workload and seed, each side runs its own ``perfbench/run.py --trace 0``, one
after the other; the side that goes first alternates, the parent first on
the first seed.  Every run's last line is kept.  A run that is not
``correct`` or has failed operations stops the tool with exit code 1, and
no file is written.  ``--trace-seed`` adds one ``--trace 1`` run per side
and workload at that seed, whose per-layer metrics land under ``traced``.

The output has the fields ``what``, ``command``, ``machine``, ``seeds``,
``medians``, ``quartiles``, ``verdicts``, ``claim`` and ``runs`` (and
``traced``).  Verdicts read ``BENCHMARK.json`` of the change checkout: each
end-to-end metric's ``better`` direction and ``bound``, a relative change.

* ``worse``: the change's median is worse than the parent's by more than
  the bound.
* ``unresolved``: otherwise, when the parent's own spread (the distance
  between its quartiles, over its median) is wider than the bound, unless
  every change run reads better than every parent run.
* ``within_bound``: neither.

The claim (``--claim workload:metric``) is met when the change wins at least
nine tenths of the pairs, ties counting for neither side, and its median is
better than the parent's by more than the parent's interquartile range.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunRejected(Exception):
    """A perfbench run that is not correct, failed operations or did not finish."""


def check_run(run: dict, where: str) -> None:
    if not run["correct"] or run["failed"] > 0:
        raise RunRejected(
            f"{where}: correct={run['correct']}, failed {run['failed']} of {run['attempted']}"
        )


def run_perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``checkout``: its info line and its last
    line, the metrics flattened to their values."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RunRejected(f"{checkout} {workload}:{seed}: exit {proc.returncode}\n{proc.stderr}")
    info, last = json.loads(lines[-2])["info"], json.loads(lines[-1])
    last["metrics"] = {k: v["value"] for k, v in last["metrics"].items()}
    return info, last


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a < b if direction == "lower" else a > b


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired values of one metric (pair k is ``parent[k]``, ``change[k]``):
    medians, wins, the relative change of the medians and the verdict."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    relative = (c_med - p_med) / p_med if p_med else 0.0
    worse_by = relative if better == "lower" else -relative
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    separated = all(_better(c, p, better) for c in change for p in parent)
    if worse_by > bound:
        verdict = "worse"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "relative_change": round(relative, 4),
        "change_wins": sum(_better(c, p, better) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_spread": round(spread, 4),
        "verdict": verdict,
    }


def summarize(runs: dict, spec: dict, claim: tuple[str, str] | None = None) -> dict:
    """Seeds, medians, quartiles, verdicts and the claim of ``runs``,
    ``{workload: {"parent" | "change": {seed: last line}}}``, under the
    end-to-end metrics of ``spec``, the parsed ``BENCHMARK.json``.  Raises
    RunRejected on a run that is not correct or failed operations."""
    out = {"seeds": {}, "medians": {}, "quartiles": {}, "verdicts": {}, "claim": None}
    paired = {}
    for workload, sides in runs.items():
        for side, by_seed in sides.items():
            for seed, run in by_seed.items():
                check_run(run, f"{side} {workload}:{seed}")
        seeds = sorted(sides["parent"], key=int)
        if sorted(sides["change"], key=int) != seeds:
            raise RunRejected(f"{workload}: the two sides ran different seeds")
        out["seeds"][workload] = [int(s) for s in seeds]
        for key in ("medians", "quartiles", "verdicts"):
            out[key][workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [sides[side][s]["metrics"][name] for s in seeds] for side in sides}
            paired[workload, name] = values
            out["medians"][workload][name] = {s: statistics.median(v) for s, v in values.items()}
            out["quartiles"][workload][name] = {s: list(quartiles(v)) for s, v in values.items()}
            out["verdicts"][workload][name] = compare(
                values["parent"], values["change"], metric["better"], metric["bound"])
    if claim:
        workload, name = claim
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
        parent, change = paired[workload, name]["parent"], paired[workload, name]["change"]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        gain = p_med - c_med if better == "lower" else c_med - p_med
        wins = out["verdicts"][workload][name]["change_wins"]
        out["claim"] = {
            "workload": workload,
            "metric": name,
            "pairs": len(parent),
            "change_wins": wins,
            "parent_median": p_med,
            "change_median": c_med,
            "parent_iqr": q3 - q1,
            "median_gain": gain,
            "relative_change": out["verdicts"][workload][name]["relative_change"],
            "met": 10 * wins >= 9 * len(parent) and gain > q3 - q1,
        }
    return out


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="seed range, FIRST-LAST")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--trace-seed", type=int, help="seed of one traced run per side and workload")
    args = ap.parse_args(argv)

    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {w: {"parent": {}, "change": {}} for w in workloads}
    traced, machine = {}, None
    try:
        for workload in workloads:
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    info, last = run_perfbench(checkouts[side], workload, seed, args.seconds, 0)
                    check_run(last, f"{side} {workload}:{seed}")
                    machine = machine or {key: v for key, v in info["machine"].items() if key != "seed"}
                    runs[workload][side][seed] = {"ran_first": side == order[0], **last}
                    print(f"{workload}:{seed} {side}: {json.dumps(last['metrics'])}", file=sys.stderr)
            if args.trace_seed is not None:
                for side in ("parent", "change"):
                    _, last = run_perfbench(checkouts[side], workload, args.trace_seed, args.seconds, 1)
                    check_run(last, f"traced {side} {workload}:{args.trace_seed}")
                    traced.setdefault(workload, {}).setdefault(args.trace_seed, {})[side] = last["metrics"]
        summary = summarize(runs, spec, claim)
    except RunRejected as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    command = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 "
        f"in each checkout; pairs alternate which side runs first, the parent first on the first seed"
    )
    if traced:
        command += f"; traced: the same with --trace 1 at seed {args.trace_seed}, parent then change"
    doc = {"what": args.what, "command": command, "machine": machine, **summary, "runs": runs}
    if traced:
        doc["traced"] = traced
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
