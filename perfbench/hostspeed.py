"""Host-speed reference: a fixed kernel that tracks how fast the host runs.

The benchmark's host is a shared virtual machine whose speed drifts by
tens of percent from minute to minute, and a pure-Python loop slows down
with it (its CPU time grows as much as its wall time, so CPU time does
not help).  The workloads therefore time this kernel between their own
units of work and scale every time they report to the kernel's
*reference* duration: a time reads as it would on the host at the speed
where the kernel takes :data:`REFERENCE_S`.  A change to the program
moves its own times and not the kernel's, so it still shows in full.

The kernel mixes interpreted Python (integer arithmetic, dict lookups,
calls) with numpy passes over arrays about the size of the workloads'
curve banks, the two kinds of work the measured paths do.  It allocates
no garbage-collected objects and runs with the collector off, so the
heap the workload has built does not change its duration.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

#: The kernel's duration at the reference speed, in seconds: about its
#: median on the 2-vCPU host the first numbers in README.md come from.
REFERENCE_S = 0.050

_N = 1 << 17
_ROUNDS = 5
_PY_STEPS = 150_000
_TABLE = {i: (i * 2654435761) % 1_000_003 for i in range(1024)}
_SOURCE = np.random.default_rng(12345).random(_N)
_INDEX = np.random.default_rng(54321).integers(0, _N, _N)
_WORK = np.empty(_N)
_OUT = np.empty(_N)


def _step(acc: int, i: int, table: dict) -> int:
    return (acc + table[i & 1023] * (i | 1)) % 1_000_003


def _kernel() -> float:
    acc = 0
    table = _TABLE
    for i in range(_PY_STEPS):
        acc = _step(acc, i, table)
    total = 0.0
    for _ in range(_ROUNDS):
        np.copyto(_WORK, _SOURCE)
        _WORK.sort()
        np.cumsum(_WORK, out=_OUT)
        np.take(_OUT, _INDEX, out=_WORK)
        np.multiply(_WORK, _SOURCE, out=_OUT)
        total += float(_OUT.sum())
    return total + acc


def sample() -> float:
    """One timed pass of the kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTrace:
    """Kernel samples taken through a run, and the scale they imply.

    ``mark()`` times the kernel and files the sample at the moment it
    was taken.  ``scale(t0, t1)`` is the reference duration over the
    kernel's duration for an interval, interpolated linearly between
    the samples around it: below 1 when the host ran slow.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        sample()  # first touch of the arrays; not a reading

    def mark(self) -> None:
        duration = sample()
        self.times.append(time.perf_counter() - duration / 2)
        self.samples.append(duration)

    def _at(self, t: float) -> float:
        times, samples = self.times, self.samples
        i = bisect.bisect_left(times, t)
        if i == 0:
            return samples[0]
        if i == len(times):
            return samples[-1]
        t_lo, t_hi = times[i - 1], times[i]
        w = (t - t_lo) / (t_hi - t_lo)
        return samples[i - 1] * (1 - w) + samples[i] * w

    def scale(self, t0: float, t1: float) -> float:
        """Reference over measured kernel duration for ``[t0, t1]``."""
        return REFERENCE_S / self._at((t0 + t1) / 2)

    def reference_s(self, t0: float, t1: float) -> float:
        """How long ``[t0, t1]`` would have taken at the reference speed."""
        return (t1 - t0) * self.scale(t0, t1)

    def host_scale(self) -> float:
        """The run's median scale: 1 at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


if __name__ == "__main__":
    print(" ".join(f"{1e3 * sample():.1f}" for _ in range(10)), "ms")
