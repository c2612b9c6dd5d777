"""Small helpers shared by the workload modules."""

from __future__ import annotations

import math
import resource


class CheckFailed(RuntimeError):
    """An output of the program is wrong; the run reports no numbers."""


def mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The *q*-quantile (0 <= q <= 1) of a non-empty sample, interpolated
    linearly between order statistics (steadier than nearest rank on the
    small samples of the slow workloads)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
