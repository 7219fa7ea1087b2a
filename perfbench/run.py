"""covreduct benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload update_sparse --seed 1 --seconds 20 --trace 0

The program under test is the ``covreduct`` package in ``src/`` next to this
directory; the run stops with an error if it cannot import it from there.

Set-up regenerates the workload's pinned corpus (see ``workloads.py``),
relabels it for ``--seed`` and builds the initial caches of the update
chains.  It is repeated ``SETUP_REPEATS`` times and ``setup_s`` is the
median.  The run then makes whole passes over the corpus, single-threaded:
at least ``MIN_PASSES``, and more while another pass fits in ``--seconds``.
A pass, per item:

* batch item: ``batch_reducts`` of the base system, ``add_covering`` of the
  discrete covering from that cache, a cache round trip, ``batch_reducts``
  of the grown system, and ``delete_covering`` of the discrete covering
  from the reloaded cache;
* chain item: per step, ``add_covering`` or ``delete_covering`` from the
  previous step's reloaded cache, ``batch_reducts`` of the updated system,
  and ``serialize_cache`` plus ``load_cache`` to hand the cache on.

Every incremental answer must equal the batch answer on the updated system,
every batch answer must match the digest recorded in the corpus, and every
reloaded cache must equal the one serialized.  Each exception or mismatch
counts as one failed operation.

Times are corrected for the machine's speed (see ``speed.py``), and an
operation's time is its median over the passes.  Latency percentiles are
taken over every call of the run; totals add up the operations.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the last line holds the
per-layer metrics of one traced pass (medians over traced passes) and
``trace.overhead``, the traced timed total over the untraced one, minus 1.
The line before the last carries the machine, the seed, the corpus
properties, the sample counts and the uncorrected end-to-end figures.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
# A tail is the highest whole percentile with at least TAIL_BEYOND calls
# above it, counted over MIN_PASSES passes; below 2 * TAIL_BEYOND calls it
# falls back to the median.
TAIL_BEYOND = 10
KINDS = ("batch", "add", "delete", "roundtrip")

# Spans a traced run of each workload must reach.
COMMON_SPANS = (
    "model.fingerprint",
    "model.with_covering",
    "model.without_covering",
    "approximation.positive_region",
    "related.related_sets",
    "related.related_function",
    "boolformula.minimal_dnf",
    "engine.batch_reducts",
    "engine.add_covering",
    "engine.delete_covering",
    "io.serialize_cache",
    "io.load_cache",
)
REQUIRED_SPANS = {
    "batch_dense": COMMON_SPANS + ("boolformula.filter_non_extensions",),
    "batch_wide": COMMON_SPANS + ("boolformula.absorb",),
    "update_sparse": COMMON_SPANS + ("boolformula.filter_non_extensions", "boolformula.absorb"),
    "update_dense": COMMON_SPANS + ("boolformula.filter_non_extensions",),
}
# Expander a workload must reach, by the width split of minimal_dnf.
REQUIRED_EXPANDER = {
    "batch_dense": "u64",
    "batch_wide": "wide",
    "update_sparse": "u64",
    "update_dense": "u64",
}

PATHS = (
    "add-noop",
    "add-same-pos",
    "add-pos-grew",
    "delete-filter",
    "delete-verified",
    "delete-fallback",
)


def _import_program():
    """Import covreduct from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import covreduct
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import covreduct from {SRC}: {exc}")
    if not Path(covreduct.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: covreduct imported from {covreduct.__file__}, not {SRC}")


def machine_info(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def tail_percentile(n: int) -> int:
    return max(50, int(100 * (1 - TAIL_BEYOND / n))) if n else 50


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Pass:
    """Timings and failures of one pass over the corpus.

    ``raw[kind]`` maps an operation's place in the corpus to its time, so
    passes can be compared operation by operation; ``finish()`` fills
    ``corrected`` the same way with machine-speed corrected times.
    """

    def __init__(self, speed):
        self.speed = speed
        self.raw = {kind: {} for kind in KINDS}
        self.corrected = {kind: {} for kind in KINDS}
        self.factor = 1.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._order = []
        self._stamps = []
        self._reference = []

    def timed(self, kind, key, fn, *args):
        """Call ``fn``; record its time, or a failure and ``None``."""
        self.attempted += 1
        stamp = time.perf_counter()
        reference = self.speed.reference()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # every failure is counted, never skipped
            self.fail(f"{key} {kind}: {type(exc).__name__}: {exc}")
            return None
        self.raw[kind][key] = time.perf_counter() - start
        self._order.append((kind, key))
        self._stamps.append(stamp)
        self._reference.append(reference)
        return result

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def finish(self):
        factors = self.speed.factors(self._stamps, self._reference)
        for (kind, key), factor in zip(self._order, factors):
            self.corrected[kind][key] = self.raw[kind][key] * factor
        if factors:
            self.factor = statistics.median(factors)


def op_times(passes, field="corrected") -> dict:
    """Each operation's median time over the passes, per kind."""
    times = {}
    for kind in KINDS:
        tables = [getattr(p, field)[kind] for p in passes]
        keys = set().union(*tables)
        times[kind] = [statistics.median(t[k] for t in tables if k in t) for k in keys]
    return times


def total(times: dict) -> float:
    return sum(sum(v) for v in times.values())


class Checker:
    """Compares answers with the corpus digests, once per distinct answer."""

    def __init__(self, wl):
        self.wl = wl
        self.seen = {}

    def matches(self, key, reduct_set, expect, base_name) -> bool:
        value = (reduct_set.covering_names, reduct_set.reducts)
        if self.seen.get(key) == value:
            return True
        digest = self.wl.digest(reduct_set.covering_names, reduct_set.reducts, base_name)
        if digest != expect["digest"]:
            return False
        self.seen[key] = value
        return True


def same_answer(a, b) -> bool:
    if a.covering_names == b.covering_names:
        return a.reducts == b.reducts
    return a.as_name_sets() == b.as_name_sets()


def _roundtrip(io, cache):
    return io.load_cache(io.serialize_cache(cache))


def _step(p, engine, io, wl, checker, key, item, step, cache, last, batch_answer=None):
    """One incremental update, its batch check, and the cache round trip
    that hands the new cache to the next step (none after the ``last``)."""
    if step.op == "add":
        inc = p.timed("add", key, engine.add_covering, wl.fresh(step.before), cache, step.covering)
    else:
        inc = p.timed("delete", key, engine.delete_covering, wl.fresh(step.before), cache, step.name)
    if batch_answer is None:
        batch = p.timed("batch", key, engine.batch_reducts, wl.fresh(step.after))
        if batch is not None:
            batch_answer = batch[0]
    if batch_answer is not None:
        if not checker.matches(key, batch_answer, step.expect, item.base_name):
            p.fail(f"{key}: batch answer does not match the corpus digest")
        if inc is not None and not same_answer(inc[0], batch_answer):
            p.fail(f"{key}: incremental answer differs from batch")
    if inc is None or last:
        return None
    loaded = p.timed("roundtrip", key, _roundtrip, io, inc[1])
    if loaded is not None and loaded != inc[1]:
        p.fail(f"{key}: reloaded cache differs from the serialized one")
        return None
    return loaded


def run_pass(kind, items, caches, engine, io, wl, checker, speed) -> Pass:
    p = Pass(speed)
    for i, item in enumerate(items):
        if kind == "batch":
            base = p.timed("batch", (i, 0), engine.batch_reducts, wl.fresh(item.base))
            if base is None:
                continue
            if not checker.matches((i, 0), base[0], item.base_expect, item.base_name):
                p.fail(f"{item.spec['key']}: batch answer does not match the corpus digest")
            add_step, delete_step = item.steps
            cache = _step(p, engine, io, wl, checker, (i, 1), item, add_step, base[1], False)
            if cache is not None:
                _step(p, engine, io, wl, checker, (i, 2), item, delete_step, cache, True, base[0])
        else:
            cache = caches[i]
            last = len(item.steps) - 1
            for k, step in enumerate(item.steps):
                cache = _step(p, engine, io, wl, checker, (i, k + 1), item, step, cache, k == last)
                if cache is None:
                    break
    p.finish()
    return p


def setup(spec, seed, engine, wl, checker):
    """Relabeled items plus the initial caches of chain items."""
    items = [wl.build_item(s, spec["params"], seed) for s in spec["items"]]
    caches = []
    failures = []
    if spec["kind"] == "chain":
        for i, item in enumerate(items):
            answer, cache = engine.batch_reducts(wl.fresh(item.base))
            if not checker.matches((i, 0), answer, item.base_expect, item.base_name):
                failures.append(f"{item.spec['key']}: base answer does not match the corpus digest")
            caches.append(cache)
    return items, caches, failures


def end_to_end(passes, setup_s: float, field="corrected") -> tuple[dict, dict]:
    """Latencies over every call of the passes, totals over the operations.

    Each call is timed as its operation's median over the passes, which
    takes out most of the noise of single calls.  The tail percentile
    depends only on the calls in MIN_PASSES passes, so it stays put however
    many passes a run makes.
    """
    times = op_times(passes, field)
    calls = {kind: [t for t in times[kind] for _ in passes] for kind in KINDS}
    tails = {kind: tail_percentile(len(times[kind]) * MIN_PASSES) for kind in KINDS}
    batch_s = sum(times["batch"])
    update_s = sum(times["add"]) + sum(times["delete"])

    # A kind with no successful call (the run is then marked incorrect) reads 0.
    def ms(kind, p):
        return 1000 * percentile(calls[kind], p) if calls[kind] else 0.0

    metrics = {
        "setup_s": (setup_s, "s"),
        "batch_p50_ms": (ms("batch", 50), "ms"),
        "batch_tail_ms": (ms("batch", tails["batch"]), "ms"),
        "batch_total_s": (batch_s, "s"),
        "add_p50_ms": (ms("add", 50), "ms"),
        "add_tail_ms": (ms("add", tails["add"]), "ms"),
        "delete_p50_ms": (ms("delete", 50), "ms"),
        "delete_tail_ms": (ms("delete", tails["delete"]), "ms"),
        "update_total_s": (update_s, "s"),
        "incremental_speedup": (batch_s / update_s if update_s else 0.0, "ratio"),
        "cache_roundtrip_p50_ms": (ms("roundtrip", 50), "ms"),
    }
    return metrics, {kind: f"p{p} of {len(calls[kind])} calls" for kind, p in tails.items()}


def per_layer(tracers, factors, overhead) -> dict:
    """Per-layer figures of each traced pass, medians over the passes.

    Span times are scaled by their pass's median speed correction.
    """

    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    def scaled(fn):
        return statistics.median(fn(t) * f for t, f in zip(tracers, factors))

    def seconds(table, name):
        return scaled(lambda t: getattr(t, table)[name])

    def counted_s(name):
        return scaled(lambda t: t.counts[name])

    def ratio(num, den):
        return med(lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0)

    def calls(name):
        return med(lambda t: t.calls[name])

    fne = "boolformula.filter_non_extensions"
    metrics = {
        "model.fingerprint.calls": (calls("model.fingerprint"), "count"),
        "model.fingerprint.s": (seconds("seconds", "model.fingerprint"), "s"),
        "model.fingerprint.hit_ratio": (
            med(lambda t: t.counts["model.fingerprint.hits"] / max(1, t.calls["model.fingerprint"])),
            "ratio",
        ),
        "model.with_covering.s": (seconds("seconds", "model.with_covering"), "s"),
        "model.without_covering.s": (seconds("seconds", "model.without_covering"), "s"),
        "approximation.positive_region.calls": (calls("approximation.positive_region"), "count"),
        "approximation.positive_region.s": (
            seconds("seconds", "approximation.positive_region"), "s"),
        "related.related_sets.s": (seconds("seconds", "related.related_sets"), "s"),
        "related.related_function.s": (seconds("seconds", "related.related_function"), "s"),
        "related.clauses": (med(lambda t: t.counts["related.clauses"]), "count"),
        "boolformula.minimal_dnf.calls": (calls("boolformula.minimal_dnf"), "count"),
        "boolformula.minimal_dnf.s": (seconds("seconds", "boolformula.minimal_dnf"), "s"),
        "boolformula.minimal_dnf.clauses_in": (
            med(lambda t: t.counts["boolformula.minimal_dnf.clauses_in"]), "count"),
        "boolformula.minimal_dnf.terms_out": (
            med(lambda t: t.counts["boolformula.minimal_dnf.terms_out"]), "count"),
        "boolformula.minimal_dnf.u64.s": (counted_s("boolformula.minimal_dnf.u64.s"), "s"),
        "boolformula.minimal_dnf.wide.s": (counted_s("boolformula.minimal_dnf.wide.s"), "s"),
        f"{fne}.calls": (calls(fne), "count"),
        f"{fne}.s": (seconds("seconds", fne), "s"),
        f"{fne}.pairs": (med(lambda t: t.counts[f"{fne}.pairs"]), "count"),
        f"{fne}.kept_ratio": (ratio(f"{fne}.kept", f"{fne}.in"), "ratio"),
        "boolformula.absorb.calls": (calls("boolformula.absorb"), "count"),
        "boolformula.absorb.s": (seconds("seconds", "boolformula.absorb"), "s"),
        "boolformula.absorb.kept_ratio": (
            ratio("boolformula.absorb.kept", "boolformula.absorb.in"), "ratio"),
        "engine.batch_reducts.self_s": (seconds("self_seconds", "engine.batch_reducts"), "s"),
        "engine.add_covering.self_s": (seconds("self_seconds", "engine.add_covering"), "s"),
        "engine.delete_covering.self_s": (seconds("self_seconds", "engine.delete_covering"), "s"),
    }
    for path in PATHS:
        name = f"engine.path.{path}"
        metrics[name] = (med(lambda t: t.counts[name]), "count")
    metrics["io.serialize_cache.s"] = (seconds("seconds", "io.serialize_cache"), "s")
    metrics["io.load_cache.s"] = (seconds("seconds", "io.load_cache"), "s")
    metrics["io.cache_bytes"] = (
        med(lambda t: t.counts["io.cache_bytes"] / max(1, t.calls["io.serialize_cache"])), "bytes")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from covreduct import engine, io

    import spans
    import speed
    import workloads as wl

    corpus = wl.load_corpus()["workloads"]
    if args.workload not in corpus:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(corpus)}")
    spec = corpus[args.workload]
    problems = [f"wrapper left in place before the run: {n}" for n in spans.leaked()]

    checker = Checker(wl)
    setup_raw, setup_corrected = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = speed.factor_now()
        start = time.perf_counter()
        items, caches, failures = setup(spec, args.seed, engine, wl, checker)
        elapsed = time.perf_counter() - start
        setup_raw.append(elapsed)
        setup_corrected.append(elapsed * (before + speed.factor_now()) / 2)
    problems += failures

    passes, traced_passes, tracers = [], [], []
    begin = time.perf_counter()
    while True:
        traced_turn = bool(args.trace) and len(traced_passes) < len(passes)
        gc.collect()
        if traced_turn:
            tracer = spans.Tracer()
            with spans.traced(tracer):
                traced_passes.append(
                    run_pass(spec["kind"], items, caches, engine, io, wl, checker, speed))
            tracers.append(tracer)
        else:
            if spans.leaked():
                problems.append(f"wrapper leaked into an untraced pass: {spans.leaked()}")
            passes.append(run_pass(spec["kind"], items, caches, engine, io, wl, checker, speed))
        done = min(len(passes), len(traced_passes)) if args.trace else len(passes)
        elapsed = time.perf_counter() - begin
        per_pass = elapsed / (len(passes) + len(traced_passes))
        if done >= MIN_PASSES and elapsed + per_pass > args.seconds:
            break
    problems += [f"wrapper left in place after the run: {n}" for n in spans.leaked()]

    all_passes = passes + traced_passes
    attempted = sum(p.attempted for p in all_passes) + len(failures)
    failed = sum(p.failed for p in all_passes) + len(failures)
    for p in all_passes:
        problems += p.errors

    e2e, tails = end_to_end(passes, statistics.median(setup_corrected))
    raw, _ = end_to_end(passes, statistics.median(setup_raw), "raw")
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "properties": spec["properties"],
        "items": len(items),
        "passes": len(passes),
        "speed_factor_per_pass": [round(p.factor, 4) for p in passes],
        "tail_percentiles": tails,
        "uncorrected": {k: v for k, (v, _) in raw.items()},
    }
    if args.trace:
        overhead = total(op_times(traced_passes)) / total(op_times(passes)) - 1
        metrics = per_layer(tracers, [p.factor for p in traced_passes], overhead)
        incremental = sum(metrics[f"engine.path.{p}"][0] for p in PATHS)
        info["path_share"] = {
            p: metrics[f"engine.path.{p}"][0] / incremental if incremental else 0.0 for p in PATHS
        }
        info["traced_passes"] = len(traced_passes)
        info["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        for name in REQUIRED_SPANS[args.workload]:
            if not all(t.calls[name] for t in tracers):
                problems.append(f"span {name} recorded no calls")
        width = REQUIRED_EXPANDER[args.workload]
        if not all(t.counts[f"boolformula.minimal_dnf.{width}.s"] for t in tracers):
            problems.append(f"minimal_dnf never ran on the {width} expander")
    else:
        metrics = e2e
    info["problems"] = problems
    print(json.dumps({"info": info}))
    for message in problems:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
