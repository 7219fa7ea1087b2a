"""Self-test of the benchmark's tracing.

Usage, from the repository root::

    python3 perfbench/selftest.py                 # wrapper checks, ~1 s
    python3 perfbench/selftest.py update_sparse   # plus traced runs of workloads

It fails (exit 1) if a span wrapper stays installed after ``traced()``
exits, normally or by an exception; if an untraced call still reaches a
tracer; if the incremental paths inferred from spans disagree with the ones
worked out from the inputs; or if a traced run of a named workload reports a
span with zero calls or any failed operation.
"""

import contextlib
import io as stdio
import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from covreduct import engine, io  # noqa: E402
from covreduct.approximation import positive_region  # noqa: E402
from covreduct.synth import random_covering, random_system  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402


def _exercise(seed: int) -> tuple[str, str]:
    """Batch, add, round trip and delete on a small random system.

    Returns the add's path and whether the delete kept the positive region,
    both worked out from the inputs rather than from the spans.
    """
    rng = random.Random(seed)
    system = random_system(rng, 40, 6, 8, 3, block_style="subset")
    _, cache = engine.batch_reducts(system)
    extra = random_covering(rng, 40, "extra", 8, style="subset")
    _, grown = engine.add_covering(system, cache, extra)
    grown = io.load_cache(io.serialize_cache(grown))
    grown_system = system.with_covering(extra)
    victim = system.coverings[0].name
    engine.delete_covering(grown_system, grown, victim)

    union = engine.add_delta(system, extra).union
    if not union:
        add_path = "add-noop"
    elif cache.positive | union == cache.positive:
        add_path = "add-same-pos"
    else:
        add_path = "add-pos-grew"
    _, pos_minus = positive_region(grown_system.without_covering(victim))
    return add_path, "delete-filter" if pos_minus == grown.positive else "delete-shrank"


def check_wrappers() -> list[str]:
    errors = []
    if spans.leaked():
        errors.append(f"wrappers installed before any trace: {spans.leaked()}")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        if len(spans.leaked()) != len(spans.TARGETS):
            errors.append("traced() did not wrap every target")
        expected = Counter(path for seed in range(20) for path in _exercise(seed))
    if spans.leaked():
        errors.append(f"wrappers left after traced(): {spans.leaked()}")
    inferred = Counter({p: tracer.counts[f"engine.path.{p}"] for p in run.PATHS})
    inferred["delete-shrank"] = inferred.pop("delete-verified") + inferred.pop("delete-fallback")
    if +inferred != +expected:
        errors.append(f"inferred paths {dict(inferred)} differ from the inputs' {dict(expected)}")
    for path in run.PATHS:
        if not tracer.counts[f"engine.path.{path}"]:
            errors.append(f"the self-test never took the {path} path")
    for name in run.COMMON_SPANS:
        if not tracer.calls[name]:
            errors.append(f"span {name} recorded no calls")
    for name in tracer.calls:
        if tracer.self_seconds[name] < -1e-6 or tracer.self_seconds[name] > tracer.seconds[name]:
            errors.append(f"span {name}: self time outside [0, total]")

    recorded = dict(tracer.calls)
    _exercise(0)
    if dict(tracer.calls) != recorded:
        errors.append("an untraced call reached the tracer")

    try:
        with spans.traced(spans.Tracer()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    if spans.leaked():
        errors.append(f"wrappers left after an exception: {spans.leaked()}")
    return errors


def check_workload(name: str) -> list[str]:
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1"])
    result = json.loads(out.getvalue().splitlines()[-1])
    info = json.loads(out.getvalue().splitlines()[-2])["info"]
    errors = [f"{name}: {p}" for p in info["problems"]]
    if not result["correct"] or result["failed"]:
        errors.append(f"{name}: {result['failed']} of {result['attempted']} operations failed")
    return errors


def main(argv: list[str]) -> int:
    errors = check_wrappers()
    for name in argv:
        errors += check_workload(name)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
