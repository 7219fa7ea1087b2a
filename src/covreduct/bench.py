"""Incremental-versus-batch benchmark harness.

For every grid point (universe size x covering count x update kind) the
harness generates a seeded system plus an update, then times the full batch
recomputation on the updated system against the incremental path from a
prebuilt cache.  One warmup pass is discarded and the median of the timed
trials is reported.  Every row carries a result-equality flag; a mismatch
aborts the run with the offending system serialized, so an emitted table
never contains an unequal row.

Every trial of a grid point reuses the same system objects, so once the
untimed first calls have filled the memos on them, the timed add or
delete skips the base system's fingerprint and the timed batch skips the
admissible unions and the fingerprint of the updated system.  The times
are those of warm systems; perfbench times fresh ones.
"""

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, TextIO

from .engine import add_covering, batch_reducts, delete_covering
from .errors import EngineError, ParseError, ValidationError
from .io import _only_fields, decode_json, serialize_system
from .model import CoveringDecisionSystem
from .synth import random_covering, random_system

CSV_HEADER = "n,m,update,batch_s,incremental_s,speedup,equal"
_LISTS = ("universe_sizes", "covering_counts", "updates")
_COUNTS = ("universe_sizes", "covering_counts", "blocks_per_covering", "decision_classes", "trials")


@dataclass(frozen=True)
class BenchConfig:
    universe_sizes: tuple[int, ...] = (500, 1000, 2000)
    covering_counts: tuple[int, ...] = (20, 40)
    blocks_per_covering: int = 60
    decision_classes: int = 8
    seed: int = 2024
    trials: int = 3
    updates: tuple[str, ...] = ("add", "delete")

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        data = decode_json(text)
        if not isinstance(data, dict):
            raise ParseError("bench config root must be an object")
        _only_fields(data, cls.__dataclass_fields__, "a bench config")
        kwargs = {}
        for key, value in data.items():
            values = value if key in _LISTS else [value]
            if not isinstance(values, list) or not values:
                raise ParseError(f"{key}: expected a non-empty list, got {value!r}")
            # type(), not isinstance(): a bool is no integer.
            if key in _COUNTS and any(type(v) is not int or v < 1 for v in values):
                raise ValidationError(f"{key}: expected positive integers, got {value!r}")
            if key == "seed" and type(value) is not int:
                raise ValidationError(f"seed: expected an integer, got {value!r}")
            kwargs[key] = tuple(value) if key in _LISTS else value
        cfg = cls(**kwargs)
        bad = [u for u in cfg.updates if u not in ("add", "delete")]
        if bad:
            raise ValidationError(f"unknown update kinds: {bad}")
        if "delete" in cfg.updates and any(m < 2 for m in cfg.covering_counts):
            raise ValidationError(
                "covering_counts: a delete update needs at least 2 coverings, "
                f"got {list(cfg.covering_counts)}"
            )
        return cfg


@dataclass(frozen=True)
class BenchRow:
    n: int
    m: int
    update: str
    batch_s: float
    incremental_s: float
    speedup: float
    equal: bool

    def csv(self) -> str:
        return (
            f"{self.n},{self.m},{self.update},{self.batch_s:.6f},"
            f"{self.incremental_s:.6f},{self.speedup:.2f},{str(self.equal).lower()}"
        )


class BenchMismatch(EngineError):
    """Incremental and batch reduct sets diverged (should never happen)."""


def _generate(config: BenchConfig, n: int, m: int) -> CoveringDecisionSystem:
    return random_system(
        random.Random(f"{config.seed}:{n}:{m}"),
        n,
        m,
        config.blocks_per_covering,
        config.decision_classes,
        block_style="interval",
        contiguous_decision=True,
    )


def _median_time(fn: Callable[[], object], trials: int) -> float:
    fn()  # warmup, discarded
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _measure_point(
    config: BenchConfig, n: int, m: int, update: str
) -> BenchRow:
    system = _generate(config, n, m)
    rng = random.Random(f"{config.seed}:{n}:{m}:{update}")
    _, cache = batch_reducts(system)

    if update == "add":
        extra = random_covering(rng, n, f"C{m + 1}", config.blocks_per_covering)
        updated = system.with_covering(extra)
        incremental = lambda: add_covering(system, cache, extra)
    else:
        victim = system.coverings[rng.randrange(m)].name
        updated = system.without_covering(victim)
        incremental = lambda: delete_covering(system, cache, victim)

    inc_set, _ = incremental()
    batch_set, _ = batch_reducts(updated)
    equal = inc_set.as_name_sets() == batch_set.as_name_sets()
    if not equal:
        raise BenchMismatch(
            "incremental and batch reducts differ for the system below "
            f"(update={update}):\n{serialize_system(system)}"
        )

    batch_s = _median_time(lambda: batch_reducts(updated), config.trials)
    incremental_s = _median_time(incremental, config.trials)
    speedup = batch_s / incremental_s if incremental_s > 0 else float("inf")
    return BenchRow(n, m, update, batch_s, incremental_s, speedup, equal)


def run_bench(config: BenchConfig, out: TextIO | None = None) -> list[BenchRow]:
    """Run the whole grid; write CSV rows to ``out`` as they complete."""
    rows = []
    if out is not None:
        print(CSV_HEADER, file=out, flush=True)
    for n in config.universe_sizes:
        for m in config.covering_counts:
            for update in config.updates:
                row = _measure_point(config, n, m, update)
                rows.append(row)
                if out is not None:
                    print(row.csv(), file=out, flush=True)
    return rows
