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
delete finds the base system's admissible unions and fingerprint, and
the timed batch those of the updated system, already computed.  A cold
system would test each block once, for admissibility, and hash only the
unions.  The times are those of warm systems; perfbench times fresh ones.
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

    def __post_init__(self) -> None:
        """Check every value, so that a config fails here, before anything
        runs, however it was built; each error line names its field."""
        for key in _LISTS:
            values = getattr(self, key)
            if not isinstance(values, tuple) or not values:
                raise ValidationError(f"{key}: expected a non-empty tuple, got {values!r}")
        for key in _COUNTS:
            value = getattr(self, key)
            # type(), not isinstance(): a bool is no integer.
            if any(type(v) is not int or v < 1 for v in (value if key in _LISTS else (value,))):
                raise ValidationError(f"{key}: expected positive integers, got {value!r}")
        if type(self.seed) is not int:
            raise ValidationError(f"seed: expected an integer, got {self.seed!r}")
        bad = [u for u in self.updates if u not in ("add", "delete")]
        if bad:
            raise ValidationError(f"updates: unknown update kinds {bad}")
        for key in _LISTS:
            # A repeated value would measure its grid points twice.
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ValidationError(f"{key}: expected distinct values, got {list(values)}")
        if self.decision_classes > min(self.universe_sizes):
            raise ValidationError(
                f"decision_classes: {self.decision_classes} classes need as many objects, "
                f"but the smallest of universe_sizes is {min(self.universe_sizes)}"
            )
        if "delete" in self.updates and any(m < 2 for m in self.covering_counts):
            raise ValidationError(
                "covering_counts: a delete update needs at least 2 coverings, "
                f"got {list(self.covering_counts)}"
            )

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        """A config from its JSON document; ``__post_init__`` checks the values."""
        data = decode_json(text)
        if not isinstance(data, dict):
            raise ParseError("bench config root must be an object")
        _only_fields(data, cls.__dataclass_fields__, "a bench config")
        for key in _LISTS:
            if key in data and (not isinstance(data[key], list) or not data[key]):
                raise ParseError(f"{key}: expected a non-empty list, got {data[key]!r}")
        return cls(**{k: tuple(v) if k in _LISTS else v for k, v in data.items()})


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
