"""Bounded-memory miss-curve sketches for streaming telemetry.

A :class:`MissCurveSketch` is the monitor-side summary the ROADMAP's
streaming-reconfiguration item calls for: instead of shipping a full
exact miss curve every epoch (65+ float64 knots per VC), a monitor emits
a fixed-byte-budget sketch — the curve sampled at a *geometric* capacity
grid (the GMON way-sizing idiom: fine resolution at small capacities,
coarse at large) in float32, plus a per-interval error bound (``slack``)
that makes the sketch *sound*: the true curve is guaranteed to lie
within ``slack`` of the sketch's piecewise-linear reconstruction on
every grid interval.

That soundness is what makes ``delta(other)`` useful: it returns an
upper bound on :func:`repro.sched.engine.curve_distance` between the two
*source* curves computed purely from the sketches (O(points), no curve
materialization, no union grids).  A dirty-VC detector that marks a VC
dirty whenever the sketch delta exceeds the threshold therefore can
never miss a VC the exact detector would have flagged — sketch-driven
detection is a superset of exact detection (pinned by
``tests/test_sketch_properties.py``).

Shape conventions
-----------------
* ``grid``: (P,) float64, strictly increasing capacities in bytes,
  ``grid[0] == 0``; shared across every sketch of one chip (same
  ``(grid_max, points)`` key) via a process-wide cache.
* ``values``: (P,) float32, the curve sampled at ``grid``.
* ``slack``: (P,) float32; ``slack[i]`` bounds the reconstruction error
  on ``[grid[i], grid[i+1])`` for ``i < P-1`` and on the tail
  ``[grid[P-1], inf)`` for ``i == P-1``.
* :func:`sketch_deltas` stacks the K same-grid pairs it is given into
  (K, P) arrays, so their deltas are one vectorized pass.

All published arrays are frozen (``writeable=False``); see
docs/ANALYSIS.md (immutability rule).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.cache.miss_curve import MissCurve
from repro.util.guards import guarded_mapping

__all__ = [
    "DEFAULT_SKETCH_BYTES",
    "MissCurveSketch",
    "points_for_budget",
    "record_sketch_pairs",
    "sketch_deltas",
    "sketch_grid",
]

#: Default per-VC telemetry budget.  At 8 bytes/point (float32 value +
#: float32 slack) this is ~61 grid points — a quarter of the 65-knot
#: float64 exact curves the service ships today, with the geometric grid
#: spending its resolution where miss curves actually bend.
DEFAULT_SKETCH_BYTES = 512

#: Fixed per-sketch overhead we account for in ``nbytes``: the grid key
#: (grid_max + points) and the float64 peak.
SKETCH_HEADER_BYTES = 24

#: ``grid[1] == grid_max / GRID_SPAN``: the smallest resolved capacity.
#: 4096 mirrors a 64 KiB first way on a 256 MiB LLC.
GRID_SPAN = 4096.0

#: A sketch needs at least two grid points to carry an interval.
MIN_POINTS = 4

# Process-wide grid cache: every sketch of one chip shares one frozen
# grid array, so stacking never re-derives or copies grids.
# Registered in tools/analyze/locks.py; the guarded_mapping wrapper adds
# the REPRO_CHECK_LOCKS=1 runtime assertion at zero production cost.
_GRID_LOCK = threading.Lock()
_GRID_CACHE: dict[tuple[float, int], np.ndarray] = guarded_mapping(
    _GRID_LOCK, "sketch grid cache"
)


def points_for_budget(budget_bytes: int) -> int:
    """Grid points affordable under *budget_bytes* (8 bytes per point)."""
    points = (int(budget_bytes) - SKETCH_HEADER_BYTES) // 8
    if points < MIN_POINTS:
        raise ValueError(
            f"sketch budget {budget_bytes}B affords {points} grid points; "
            f"need >= {MIN_POINTS} "
            f"(>= {SKETCH_HEADER_BYTES + 8 * MIN_POINTS}B)"
        )
    return points


def sketch_grid(grid_max: float, points: int) -> np.ndarray:
    """The shared geometric capacity grid for ``(grid_max, points)``.

    ``[0, grid_max/GRID_SPAN, ..., grid_max]`` with geometric spacing —
    the GMON way-capacity layout.  Returned arrays are cached
    process-wide and frozen; callers must treat them as immutable.
    """
    grid_max = float(grid_max)
    points = int(points)
    if grid_max <= 0.0:
        raise ValueError(f"grid_max must be positive, got {grid_max}")
    if points < MIN_POINTS:
        raise ValueError(f"need >= {MIN_POINTS} grid points, got {points}")
    key = (grid_max, points)
    with _GRID_LOCK:
        grid = _GRID_CACHE.get(key)
        if grid is None:
            tail = np.geomspace(
                grid_max / GRID_SPAN, grid_max, points - 1, dtype=np.float64
            )
            tail[-1] = grid_max  # geomspace endpoint is not always exact
            grid = np.concatenate(([0.0], tail))
            grid.setflags(write=False)
            _GRID_CACHE[key] = grid
    return grid


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _round_up_f32(exact: np.ndarray) -> np.ndarray:
    """float32 cast of non-negative *exact* that never rounds below it."""
    out = exact.astype(np.float32)
    low = out.astype(np.float64) < exact
    if np.any(low):
        out = np.where(low, np.nextafter(out, np.float32(np.inf)), out)
    return out


def _row_deltas(
    values_new: np.ndarray,
    slack_new: np.ndarray,
    peaks_new: np.ndarray,
    values_old: np.ndarray,
    slack_old: np.ndarray,
    peaks_old: np.ndarray,
) -> np.ndarray:
    """``(K,)`` deltas of K row pairs of same-grid ``(K, P)`` sketch
    arrays and their ``(K,)`` peaks: the one sketch-delta kernel.

    For any capacity x in grid interval i, each true curve lies within
    ``slack[i]`` of its stored chord, and the chords' pointwise gap on
    the interval is at most the larger endpoint gap — so the true curves'
    gap is bounded per interval by ``max(dv[i], dv[i+1]) + sa[i] + sb[i]``
    (tail: ``dv[-1] + sa[-1] + sb[-1]``), normalized by the larger peak.
    Every operation is per row, so a row's delta does not depend on the
    other rows of the call.
    """
    dv = np.abs(values_new.astype(np.float64) - values_old.astype(np.float64))
    comb = slack_new.astype(np.float64) + slack_old.astype(np.float64)
    body = np.maximum(dv[:, :-1], dv[:, 1:]) + comb[:, :-1]
    tail = dv[:, -1] + comb[:, -1]
    numerator = np.maximum(np.max(body, axis=1), tail)
    return numerator / np.maximum(np.maximum(peaks_new, peaks_old), 1e-12)


def sketch_deltas(
    pairs: list[tuple["MissCurveSketch", "MissCurveSketch"]],
) -> list[float]:
    """The delta of every ``(new, old)`` pair of same-grid sketches:
    identical sketch objects give exactly 0.0, and the other pairs are
    stacked into one :func:`_row_deltas` call."""
    deltas = [0.0] * len(pairs)
    moved = [i for i, (new, old) in enumerate(pairs) if new is not old]
    if not moved:
        return deltas
    moved_pairs = [pairs[i] for i in moved]
    # One flat concatenation (cheaper than stacking K rows) reshaped to
    # (K, 4, P); same-grid rows all have P points.
    stacked = np.concatenate([
        array
        for new, old in moved_pairs
        for array in (new.values, new.slack, old.values, old.slack)
    ]).reshape(len(moved), 4, -1)
    peaks = np.fromiter(
        (peak for new, old in moved_pairs for peak in (new.peak, old.peak)),
        dtype=np.float64, count=2 * len(moved),
    ).reshape(len(moved), 2)
    rows = _row_deltas(
        stacked[:, 0], stacked[:, 1], peaks[:, 0],
        stacked[:, 2], stacked[:, 3], peaks[:, 1],
    )
    for i, delta in zip(moved, rows.tolist()):
        deltas[i] = delta
    return deltas


@dataclass(frozen=True, eq=False)
class MissCurveSketch:
    """A fixed-budget summary of one miss curve.

    Built with :meth:`from_curve`; compared with :meth:`delta`;
    materialized with :meth:`to_curve`.  All arrays are frozen.
    """

    grid: np.ndarray
    values: np.ndarray
    slack: np.ndarray
    peak: float

    # -- construction --------------------------------------------------------

    @classmethod
    def from_curve(
        cls,
        curve: MissCurve,
        budget_bytes: int = DEFAULT_SKETCH_BYTES,
        grid_max: float | None = None,
        points: int | None = None,
    ) -> "MissCurveSketch":
        """Sketch *curve* on the geometric grid for *grid_max*.

        *grid_max* defaults to the curve's own largest knot; pass the
        chip's LLC capacity so every VC of one chip shares a grid (a
        delta requires it).  *points* overrides the budget-derived grid
        size.
        """
        if points is None:
            points = points_for_budget(budget_bytes)
        span = float(grid_max) if grid_max is not None else float(curve.max_size)
        grid = sketch_grid(span, points)

        exact64 = np.asarray(curve(grid), dtype=np.float64)
        values = exact64.astype(np.float32)
        stored64 = values.astype(np.float64)

        # Per-interval sup error of the stored float32 chord against the
        # true curve.  Both are piecewise linear, so their difference is
        # piecewise linear too and peaks at a breakpoint of either: the
        # grid points (where the error is pure float32 quantization) or
        # the curve's own knots.
        slack64 = np.abs(stored64 - exact64)
        # Each grid point's quantization error bounds both intervals it
        # borders; fold the right endpoint into the preceding interval.
        slack64[:-1] = np.maximum(slack64[:-1], slack64[1:])
        knots = np.asarray(curve.sizes, dtype=np.float64)
        knot_true = np.asarray(curve.values, dtype=np.float64)
        knot_chord = np.interp(knots, grid, stored64)
        knot_err = np.abs(knot_true - knot_chord)
        spans = np.clip(
            np.searchsorted(grid, knots, side="right") - 1, 0, points - 1
        )
        np.maximum.at(slack64, spans, knot_err)

        sketch = cls(
            grid=grid,
            values=_freeze(values),
            slack=_freeze(_round_up_f32(slack64)),
            peak=float(np.max(np.asarray(curve.values, dtype=np.float64))),
        )
        return sketch

    # -- telemetry accounting ------------------------------------------------

    @property
    def points(self) -> int:
        return int(self.grid.shape[0])

    @property
    def nbytes(self) -> int:
        """Wire footprint: values + slack payload plus the fixed header."""
        return int(self.values.nbytes + self.slack.nbytes + SKETCH_HEADER_BYTES)

    def cache_key(self) -> tuple:
        """Content identity for :mod:`repro.util.hashing`."""
        return (self.grid, self.values, self.slack, self.peak)

    def compatible(self, other: "MissCurveSketch") -> bool:
        """True when both sketches live on the same grid."""
        return self.grid is other.grid or np.array_equal(self.grid, other.grid)

    # -- reconstruction ------------------------------------------------------

    def to_curve(self) -> MissCurve:
        """Materialize the sketch as a (monotone) miss curve."""
        values = np.maximum(self.values.astype(np.float64), 0.0)
        return MissCurve(self.grid, values).monotone_decreasing()

    # -- comparison ----------------------------------------------------------

    def delta(self, other: "MissCurveSketch") -> float:
        """Upper bound on ``curve_distance`` between the source curves.

        Same normalization as :func:`repro.sched.engine.curve_distance`
        (sup gap over the larger curve peak), so thresholding the delta
        is directly comparable with thresholding the exact distance.
        Raises ``ValueError`` on mismatched grids.
        """
        if self is other:
            return 0.0
        if not self.compatible(other):
            raise ValueError(
                f"sketch grids differ ({self.points} pts to "
                f"{float(self.grid[-1]):.0f}B vs {other.points} pts to "
                f"{float(other.grid[-1]):.0f}B); rebuild on a shared grid"
            )
        return sketch_deltas([(self, other)])[0]


def _curve_sketch(
    curve: MissCurve, grid: tuple[float, int]
) -> MissCurveSketch:
    """*curve*'s sketch on the ``(grid_max, points)`` *grid*, memoized
    on the curve object: every delta over one curve shares one sketch,
    so an unchanged curve's delta is the identity case."""
    memo = getattr(curve, "_sketch_memo", None)
    if memo is None:
        memo = curve._sketch_memo = {}
    sketch = memo.get(grid)
    if sketch is None:
        sketch = memo[grid] = MissCurveSketch.from_curve(
            curve, grid_max=grid[0], points=grid[1]
        )
    return sketch


def record_sketch_pairs(
    vc_pairs, grid_max: float, budget_bytes: int = DEFAULT_SKETCH_BYTES
) -> list[tuple[MissCurveSketch, MissCurveSketch]]:
    """``(new, old)`` sketches of ``(new VC, old VC)`` pairs of one chip,
    for :func:`sketch_deltas`: taken from the per-curve memo on the
    *grid_max* grid (the chip's LLC size), so a curve both VCs share
    gives one sketch object."""
    grid = (float(grid_max), points_for_budget(budget_bytes))
    return [
        (_curve_sketch(new.miss_curve, grid), _curve_sketch(old.miss_curve, grid))
        for new, old in vc_pairs
    ]
