"""Machine-speed correction for timings taken on a shared machine.

On a small shared virtual machine the speed of one core drifts with the
load of its neighbours: a pure-Python loop's median time moved by 12%
between consecutive 6-second windows, and the same benchmark pass by 40%
over a few minutes (2-vCPU Xeon VM).  Repeating work inside one run does not
average a drift that lasts longer than the run.

So the benchmark runs a fixed reference kernel right before every timed
operation and scales the operation's time by ``REFERENCE_S`` over the median
of the reference times sampled within ``WINDOW_S`` seconds of it.  The kernel is
half a pure-Python loop and half a numpy broadcast over uint64 terms, the two
kinds of work the program does; each half alone tracked the slowdown of its
own kind of operation and missed the other's.  A corrected time
reads as the operation's time on a machine where the kernel takes
``REFERENCE_S``.  The kernel uses nothing of the program under test, so a
change to the program cannot move it; only the machine can.  Runs report the
uncorrected figures next to the corrected ones.
"""

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.0023
WINDOW_S = 1.0

_TERMS = (np.arange(1024, dtype=np.uint64) * np.uint64(2654435761)) & np.uint64((1 << 40) - 1)


def reference() -> float:
    """Seconds the reference kernel takes now (garbage collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(10_000):
            acc += i * i
            table[i & 255] = acc
        for lo in (0, 256):
            part = _TERMS[lo : lo + 256]
            ((_TERMS[None, :] & ~part[:, None]) == 0).any(axis=1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(stamps: list[float], reference_times: list[float]) -> list[float]:
    """Correction factor at each of a sequence of reference samples.

    ``stamps`` are the samples' ``perf_counter`` readings, in order.
    """
    out = []
    lo = hi = 0
    for t in stamps:
        while stamps[lo] < t - WINDOW_S:
            lo += 1
        while hi < len(stamps) and stamps[hi] <= t + WINDOW_S:
            hi += 1
        out.append(REFERENCE_S / statistics.median(reference_times[lo:hi]))
    return out


def factor_now(samples: int = 5) -> float:
    """Correction factor from a burst of reference samples."""
    return REFERENCE_S / statistics.median(reference() for _ in range(samples))
