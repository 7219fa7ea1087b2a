"""Select the pinned benchmark corpus and write ``corpus.json``.

Usage: ``python3 perfbench/build_corpus.py`` from the repository root.  It
takes a few minutes: every candidate system is reduced, every update is
replayed incrementally and checked against a batch recompute, and the
answers' digests and sizes are stored next to the generator keys.

Candidate base systems are drawn from a fixed key stream per workload.  One
is kept when its reduct count lies in the workload's band; one whose
expansion passes ``max_terms`` intermediate terms is skipped (the bound keeps
every run of the benchmark inside its time limit).  The skipped keys are
listed in the corpus, so the selection stays visible.
"""

import json
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from covreduct import engine  # noqa: E402
from covreduct.errors import TermBlowup  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# Generator settings match covreduct.bench: interval blocks, 60 per covering,
# 8 contiguous decision classes.  The reduct bands and term limits keep one
# pass over a workload to a few seconds; chains keep m inside ``m_band``.
WORKLOADS = {
    "batch_dense": {
        "kind": "batch",
        "params": {"blocks_per_covering": 60, "classes": 8},
        "n": (500, 500),
        "m": (36, 40),
        "items": 12,
        "reducts": (1000, 15000),
        "max_terms": 200_000,
    },
    "batch_wide": {
        "kind": "batch",
        "params": {"blocks_per_covering": 60, "classes": 8},
        "n": (2000, 3000),
        "m": (65, 72),
        "items": 10,
        "reducts": (10, 1000),
        "max_terms": 20_000,
    },
    "update_sparse": {
        "kind": "chain",
        "params": {"blocks_per_covering": 60, "classes": 8},
        "n": (2000, 2000),
        "m": (32, 32),
        "items": 4,
        "steps": 12,
        "m_band": (30, 34),
        "reducts": (1, 1000),
        "max_terms": 200_000,
    },
    "update_dense": {
        "kind": "chain",
        "params": {"blocks_per_covering": 60, "classes": 8},
        "n": (500, 500),
        "m": (32, 34),
        "items": 4,
        "steps": 10,
        "m_band": (30, 35),
        "reducts": (100, 3000),
        "max_terms": 200_000,
    },
}


def _answer(reduct_set, cache, base_name: dict) -> dict:
    return {
        "m": len(reduct_set.covering_names),
        "reducts": len(reduct_set.reducts),
        "clauses": len({r for r in cache.related.r if r}),
        "consistent": cache.positive == (1 << cache.related.universe_size) - 1,
        "digest": wl.digest(reduct_set.covering_names, reduct_set.reducts, base_name),
    }


def _chain_steps(spec: dict, cfg: dict, system) -> list:
    rng = random.Random(f"{spec['key']}:steps")
    names = list(system.names())
    lo, hi = cfg["m_band"]
    steps = []
    for k in range(cfg["steps"]):
        grow = len(names) <= lo or (len(names) < hi and rng.random() < 0.5)
        if grow:
            name = f"A{k + 1}"
            names.append(name)
            steps.append(["add", name])
        else:
            name = names.pop(rng.randrange(len(names)))
            steps.append(["delete", name])
    return steps


def _replay(spec: dict, cfg: dict) -> list:
    """Batch answers of the base and every updated system, checked incrementally."""
    item = wl.build_item(spec, cfg["params"], seed=0)
    reducts, cache = engine.batch_reducts(item.base, cfg["max_terms"])
    answers = [_answer(reducts, cache, item.base_name)]
    for step in item.steps:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            if step.op == "add":
                inc, _ = engine.add_covering(step.before, cache, step.covering)
            else:
                inc, _ = engine.delete_covering(step.before, cache, step.name)
        reducts, cache = engine.batch_reducts(step.after, cfg["max_terms"])
        if inc.as_name_sets() != reducts.as_name_sets():
            raise SystemExit(f"{spec['key']}: incremental answer differs from batch")
        answers.append(_answer(reducts, cache, item.base_name))
        (path,) = [k for k in tracer.counts if k.startswith("engine.path.")]
        answers[-1]["path"] = path.removeprefix("engine.path.")
    return answers


def select(name: str, cfg: dict) -> dict:
    items, skipped = [], []
    k = 0
    while len(items) < cfg["items"]:
        key = f"{name}:{k}"
        k += 1
        rng = random.Random(f"{key}:size")
        spec = {"key": key, "n": rng.randint(*cfg["n"]), "m": rng.randint(*cfg["m"])}
        system = wl.base_system(spec, cfg["params"])
        try:
            reducts, _ = engine.batch_reducts(system, cfg["max_terms"])
        except TermBlowup:
            skipped.append({"key": key, "reason": f"more than {cfg['max_terms']} terms"})
            continue
        lo, hi = cfg["reducts"]
        if not lo <= len(reducts.reducts) <= hi:
            skipped.append({"key": key, "reason": f"{len(reducts.reducts)} reducts"})
            continue
        if cfg["kind"] == "batch":
            spec["steps"] = [["add", wl.KEY_NAME], ["delete", wl.KEY_NAME]]
        else:
            spec["steps"] = _chain_steps(spec, cfg, system)
        spec["answers"] = _replay(spec, cfg)
        items.append(spec)
        print(f"{key}: n={spec['n']} m={spec['m']} reducts="
              f"{[a['reducts'] for a in spec['answers']]}", file=sys.stderr, flush=True)
    counts = [a["reducts"] for s in items for a in s["answers"]]
    paths = [a["path"] for s in items for a in s["answers"][1:]]
    clauses = [a["clauses"] for s in items for a in s["answers"]]
    return {
        "kind": cfg["kind"],
        "params": cfg["params"],
        "properties": {
            "n_min_max": [min(s["n"] for s in items), max(s["n"] for s in items)],
            "m_min_max": [min(a["m"] for s in items for a in s["answers"]),
                          max(a["m"] for s in items for a in s["answers"])],
            "systems": len(counts),
            "blocks_per_covering": cfg["params"]["blocks_per_covering"],
            "reducts_min_median_max": [min(counts), statistics.median(counts), max(counts)],
            "clauses_min_median_max": [min(clauses), statistics.median(clauses), max(clauses)],
            "consistent_share": sum(a["consistent"] for s in items for a in s["answers"])
            / len(counts),
            "path_share": {p: paths.count(p) / len(paths) for p in sorted(set(paths))},
        },
        "items": items,
        "skipped": skipped,
    }


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    corpus = wl.load_corpus() if wl.CORPUS_PATH.exists() else {"workloads": {}}
    for name in names:
        corpus["workloads"][name] = select(name, WORKLOADS[name])
        wl.CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
