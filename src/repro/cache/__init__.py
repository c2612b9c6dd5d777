"""Cache substrate: miss curves, partitioned banks (Vantage-contract LRU),
miss-curve monitors (UMON / geometric GMON), and bounded-memory telemetry
sketches (:mod:`repro.cache.sketch`)."""

from repro.cache.bank import BankStats, PartitionedBank
from repro.cache.miss_curve import (
    MissCurve,
    cliff_curve,
    exponential_curve,
    flat_curve,
)
from repro.cache.monitor import GMon, UMon, required_umon_ways, solve_gamma
from repro.cache.sketch import (
    DEFAULT_SKETCH_BYTES,
    MissCurveSketch,
    points_for_budget,
    sketch_grid,
)

__all__ = [
    "BankStats",
    "DEFAULT_SKETCH_BYTES",
    "GMon",
    "MissCurve",
    "MissCurveSketch",
    "PartitionedBank",
    "UMon",
    "cliff_curve",
    "exponential_curve",
    "flat_curve",
    "points_for_budget",
    "required_umon_ways",
    "sketch_grid",
    "solve_gamma",
]
