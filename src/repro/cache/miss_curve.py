"""Miss curves: misses-per-kilo-instruction as a function of cache capacity.

Miss curves are the currency of every allocation decision in the paper
(Fig 2, Sec IV-C).  A :class:`MissCurve` is a piecewise-linear function
sampled at increasing capacities; it supports interpolation, scaling,
convex minorants (what Lookahead/Peekahead allocate over), and combination
of curves (for modeling unpartitioned sharing).

Capacities are in **bytes**; values are in **misses per kilo-instruction**
(or any other per-unit rate — monitors produce miss *counts* per interval,
which behave identically).

Shape conventions
-----------------
:class:`MissCurveBatch` packs ``K`` curves into padded ``float64`` arrays
so every VC's curve is evaluated in one NumPy call:

* ``sizes2d``, ``values2d`` — ``(K, P)``; rows are the sampled points of
  each curve, right-padded by repeating the last point (``P`` is the
  longest curve's point count; padding preserves clamped extrapolation);
* ``lengths`` — ``(K,) int64``; each row's true point count;
* ``batch(x)`` with scalar or ``(K,)`` *x* returns ``(K,)`` (one query per
  curve); ``batch.at_grid(grid)`` with a ``(Q,)`` grid returns ``(K, Q)``
  (all curves on a shared capacity grid);
* ``batch.query_knots()`` returns ``(sizes, values)``, ``(K, P)`` each:
  the banks with each row's slice transform applied.

Batch evaluation is bitwise-identical to per-curve ``np.interp`` (it runs
the same ``slope * (x - x0) + y0`` arithmetic), which the equivalence
tests assert exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _frozen_points(points: Sequence[float]) -> np.ndarray:
    """*points* as a read-only float64 array that no caller can write
    through: an array that is already read-only is kept, any other array
    the caller may hold (the input itself or a view) is copied first."""
    array = np.asarray(points, dtype=np.float64)
    if array.flags.writeable:
        if array is points or array.base is not None:
            array = array.copy()
        array.setflags(write=False)
    return array


class MissCurve:
    """Piecewise-linear, non-negative function of capacity.

    Points must have strictly increasing sizes.  Evaluation clamps outside
    the sampled range (constant extrapolation), matching how monitors with
    finite coverage are used.  ``sizes`` and ``values`` are read-only: a
    curve is fixed content, which record digests and sketch memos rely on.
    """

    def __init__(self, sizes: Sequence[float], values: Sequence[float]):
        sizes_arr = _frozen_points(sizes)
        values_arr = _frozen_points(values)
        if sizes_arr.ndim != 1 or sizes_arr.shape != values_arr.shape:
            raise ValueError("sizes and values must be 1-D and equal length")
        if len(sizes_arr) == 0:
            raise ValueError("miss curve needs at least one point")
        if np.any(np.diff(sizes_arr) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if np.any(values_arr < 0):
            raise ValueError("miss rates cannot be negative")
        if sizes_arr[0] < 0:
            raise ValueError("sizes cannot be negative")
        self.sizes = sizes_arr
        self.values = values_arr

    def __setstate__(self, state: dict) -> None:
        # Unpickling and deepcopy bypass __init__, and numpy does not
        # carry the read-only flag through a pickle: freeze again.
        self.__dict__.update(state)
        self.sizes.setflags(write=False)
        self.values.setflags(write=False)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, size: float | np.ndarray) -> float | np.ndarray:
        """Miss rate at *size* (linear interpolation, clamped ends)."""
        result = np.interp(size, self.sizes, self.values)
        if np.isscalar(size):
            return float(result)
        return result

    def cache_key(self) -> tuple:
        """Content identity for the runner's result cache (the sampled
        points fully determine the curve)."""
        return (self.sizes, self.values)

    @property
    def max_size(self) -> float:
        return float(self.sizes[-1])

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    # -- transforms ---------------------------------------------------------

    def scaled(self, factor: float) -> "MissCurve":
        """Scale the miss rate (e.g. convert MPKI to misses/cycle)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return MissCurve(self.sizes, self.values * factor)

    def scaled_sizes(self, factor: float) -> "MissCurve":
        """Scale the capacity axis (used to shrink workloads for scaled-down
        trace simulations: a cache at 1/k capacity with a curve at 1/k sizes
        behaves identically)."""
        if factor <= 0:
            raise ValueError("size scale factor must be positive")
        return MissCurve(self.sizes * factor, self.values)

    def effective_footprint(self, tolerance: float = 0.05) -> float:
        """Smallest size at which the curve is within *tolerance* of its
        floor (relative to its total drop) — the app's working set."""
        floor = self.values.min()
        drop = self.values[0] - floor
        if drop <= 0:
            return float(self.sizes[0])
        threshold = floor + tolerance * drop
        for size, value in zip(self.sizes, self.values):
            if value <= threshold:
                return float(size)
        return float(self.sizes[-1])

    def monotone_decreasing(self) -> "MissCurve":
        """Running minimum of the curve.

        Real workloads' miss curves are non-increasing, but *monitored*
        curves are noisy; allocation assumes more capacity never hurts
        misses, so monitored curves are cleaned up with this first.
        """
        return MissCurve(self.sizes, np.minimum.accumulate(self.values))

    def convex_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertices of the lower convex hull (the convex minorant).

        Lookahead-style allocation walks the hull: hull segments give the
        best achievable marginal miss reduction per byte at each size, which
        is what Peekahead exploits to run in linear time [Jigsaw, Talus].
        """
        xs, ys = self.sizes, self.values
        hull_x: list[float] = [float(xs[0])]
        hull_y: list[float] = [float(ys[0])]
        for x, y in zip(xs[1:], ys[1:]):
            hull_x.append(float(x))
            hull_y.append(float(y))
            # Pop middle points that lie above the chord (cross-product test).
            while len(hull_x) >= 3:
                x0, y0 = hull_x[-3], hull_y[-3]
                x1, y1 = hull_x[-2], hull_y[-2]
                x2, y2 = hull_x[-1], hull_y[-1]
                if (y1 - y0) * (x2 - x1) <= (y2 - y1) * (x1 - x0) + 1e-12:
                    break
                del hull_x[-2]
                del hull_y[-2]
        return np.asarray(hull_x), np.asarray(hull_y)

    def convex_hull(self) -> "MissCurve":
        """The convex minorant as a new curve."""
        xs, ys = self.convex_points()
        return MissCurve(xs, ys)

    # -- combination --------------------------------------------------------

    def __add__(self, other: "MissCurve") -> "MissCurve":
        """Pointwise sum on the union grid (total misses if both streams had
        the same capacity — used to aggregate threads sharing a VC)."""
        grid = np.union1d(self.sizes, other.sizes)
        return MissCurve(grid, np.asarray(self(grid)) + np.asarray(other(grid)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissCurve):
            return NotImplemented
        return (
            self.sizes.shape == other.sizes.shape
            and bool(np.allclose(self.sizes, other.sizes))
            and bool(np.allclose(self.values, other.values))
        )

    def __hash__(self) -> int:  # curves are mutable-free; hash by identity
        return id(self)

    def __repr__(self) -> str:
        return (
            f"MissCurve({len(self.sizes)} pts, "
            f"[{self.sizes[0]:.0f}..{self.sizes[-1]:.0f}] B, "
            f"{self.values[0]:.2f}->{self.values[-1]:.2f})"
        )


class MissCurveBatch:
    """K miss curves evaluated together with one NumPy call per query set.

    The batch is immutable and cheap to build (one pass over the curves);
    build it once per placement problem and reuse it across epochs.  See
    the module docstring for the shape conventions.

    *arg_scale* / *value_divisor* (optional ``(K,)`` vectors) evaluate row
    *i* as ``curve_i(x * arg_scale[i]) / value_divisor[i]`` — the slice
    transform R-NUCA applies to chip-spread shared VCs (a VC interleaved
    over N banks behaves per bank as 1/N of the accesses over 1/N of the
    data).  The scale is applied before the segment search and the divisor
    after, exactly like the scalar closure, so bitwise equivalence holds.
    """

    def __init__(
        self,
        curves: Sequence[MissCurve],
        arg_scale: Sequence[float] | None = None,
        value_divisor: Sequence[float] | None = None,
    ):
        if len(curves) == 0:
            raise ValueError("batch needs at least one curve")
        self.curves = list(curves)
        k = len(self.curves)
        lengths = np.fromiter(
            (len(c.sizes) for c in self.curves), dtype=np.int64, count=k
        )
        # >= 2 columns so segment indexing (j, j+1) is always in bounds,
        # even when every curve is a single point.
        p = max(2, int(lengths.max()))
        # Pack into locals first; the banks only become shared (and are
        # frozen) once published on self at the end of construction.  Row
        # i gathers its points from the concatenation, then its last one.
        gather = (np.cumsum(lengths) - lengths)[:, None] + np.minimum(
            np.arange(p), (lengths - 1)[:, None]
        )
        sizes2d = np.concatenate([c.sizes for c in self.curves])[gather]
        values2d = np.concatenate([c.values for c in self.curves])[gather]
        self.lengths = lengths
        self.sizes2d = sizes2d
        self.values2d = values2d
        self._arg_scale = None
        if arg_scale is not None:
            self._arg_scale = np.asarray(arg_scale, dtype=np.float64)
            if self._arg_scale.shape != (k,):
                raise ValueError("arg_scale must be one factor per curve")
        self._value_divisor = None
        if value_divisor is not None:
            self._value_divisor = np.asarray(value_divisor, dtype=np.float64)
            if self._value_divisor.shape != (k,):
                raise ValueError("value_divisor must be one divisor per curve")
        self._rows = np.arange(k)
        # Highest valid segment index per row (0 for single-point curves,
        # whose every query the clamp masks resolve).
        self._seg_hi = np.maximum(self.lengths - 2, 0)
        self._first_x = self.sizes2d[:, 0]
        self._first_y = self.values2d[:, 0]
        self._last_x = self.sizes2d[self._rows, self.lengths - 1]
        self._last_y = self.values2d[self._rows, self.lengths - 1]
        self._freeze_banks()

    def _freeze_banks(self) -> None:
        """Publish the packed banks read-only.  Batches are shared across
        schemes, epochs, and (via mega-batching) whole job groups; an
        in-place write would corrupt every later query, so mutation must
        fail loudly at the write site (see docs/ANALYSIS.md)."""
        self.lengths.flags.writeable = False
        self.sizes2d.flags.writeable = False
        self.values2d.flags.writeable = False

    def __len__(self) -> int:
        return len(self.curves)

    def take(self, indices: Sequence[int] | np.ndarray) -> "MissCurveBatch":
        """Row-subset batch: lane ``i`` of the result is lane
        ``indices[i]`` of this batch (transforms included).

        Every per-lane quantity is sliced from the parent's arrays, so a
        query against the subset runs arithmetic element-for-element equal
        to the same lanes of the full batch — the padded width ``P`` is
        shared and padding never affects results.  The sharing solver uses
        this to iterate only the lanes of pressured groups.
        """
        idx = np.asarray(indices, dtype=np.int64)
        sub = object.__new__(MissCurveBatch)
        sub.curves = [self.curves[i] for i in idx]
        sub.lengths = self.lengths[idx]
        sub.sizes2d = self.sizes2d[idx]
        sub.values2d = self.values2d[idx]
        sub._arg_scale = (
            None if self._arg_scale is None else self._arg_scale[idx]
        )
        sub._value_divisor = (
            None if self._value_divisor is None else self._value_divisor[idx]
        )
        sub._rows = np.arange(len(idx))
        sub._seg_hi = self._seg_hi[idx]
        sub._first_x = self._first_x[idx]
        sub._first_y = self._first_y[idx]
        sub._last_x = self._last_x[idx]
        sub._last_y = self._last_y[idx]
        sub._freeze_banks()
        return sub

    @staticmethod
    def _interp(queries, x0, x1, y0, y1):
        """np.interp's segment arithmetic: ``slope * (x - x0) + y0`` with
        ``slope = (y1 - y0) / (x1 - x0)`` — bitwise what the scalar path
        computes curve by curve.  Degenerate segments only occur in
        padding / single-point rows, all of which the end masks overwrite;
        the division is guarded so no warning fires for discarded lanes."""
        denom = x1 - x0
        slope = (y1 - y0) / np.where(denom == 0.0, 1.0, denom)
        return slope * (queries - x0) + y0

    def __call__(self, sizes: float | np.ndarray) -> np.ndarray:
        """Evaluate each curve at its own query -> (K,).

        *sizes* is a scalar (shared by all curves) or a (K,) vector (one
        capacity per curve) — the batched form of ``curve(size)`` used by
        the sharing fixed point and Eq 1.
        """
        q = np.asarray(sizes, dtype=np.float64)
        if q.ndim == 0:
            q = np.full(len(self.curves), float(q))
        if q.shape != (len(self.curves),):
            raise ValueError(
                f"expected scalar or ({len(self.curves)},) queries, "
                f"got shape {q.shape}"
            )
        if self._arg_scale is not None:
            q = q * self._arg_scale
        # Segment index: number of knots <= x, minus one, clamped to the
        # row's true segments.  Padded knots equal the last real knot, so
        # they are only counted when x lies past the end — which the
        # clamp-to-last mask below handles anyway.
        j = (self.sizes2d <= q[:, None]).sum(axis=1) - 1
        j = np.minimum(np.maximum(j, 0), self._seg_hi)
        rows = self._rows
        result = self._interp(
            q,
            self.sizes2d[rows, j],
            self.sizes2d[rows, j + 1],
            self.values2d[rows, j],
            self.values2d[rows, j + 1],
        )
        result = np.where(q <= self._first_x, self._first_y, result)
        result = np.where(q >= self._last_x, self._last_y, result)
        if self._value_divisor is not None:
            result = result / self._value_divisor
        return result

    def balance_bisect(
        self,
        pressure: float | np.ndarray,
        capacity: float | np.ndarray,
        iters: int,
    ) -> np.ndarray:
        """Lockstep bisection of ``m(o) = pressure * o`` per lane -> (K,).

        The inner loop of the sharing fixed point, with the per-iteration
        evaluation inlined: each round runs exactly ``__call__``'s
        arithmetic (same operations, same order, so results stay bitwise
        equal to ``batch(mid)``) without re-resolving attributes or
        re-validating shapes 60 times.  Returns the midpoint of the final
        bracket; lanes that an early-exit rule covers (zero curves,
        at-capacity lanes) return whatever the bracket converges to and
        must be masked by the caller, as before.

        The knot search runs only while a lane's segment is unsettled.
        Each lane tracks the clipped segment index at both ends of its
        bracket; the index is non-decreasing in the query, the query
        ``mid * arg_scale`` is non-decreasing in ``mid``, and ``mid`` lies
        in ``[lo, hi]``, so once both ends agree every later probe reads
        that segment.  Only lanes whose ends differ are searched, and
        once none differ the segment operands are gathered one last time
        and the remaining rounds are elementwise arithmetic.
        """
        k = len(self.curves)
        lo = np.zeros(k)
        hi = np.full(k, capacity, dtype=np.float64)
        sizes2d, values2d = self.sizes2d, self.values2d
        sizes_flat, values_flat = sizes2d.ravel(), values2d.ravel()
        row_base = self._rows * sizes2d.shape[1]  # flat offsets of column 0
        seg_hi = self._seg_hi
        first_x, first_y = self._first_x, self._first_y
        last_x, last_y = self._last_x, self._last_y
        arg_scale, divisor = self._arg_scale, self._value_divisor

        def query(x: np.ndarray) -> np.ndarray:
            return x if arg_scale is None else x * arg_scale

        def segment(q: np.ndarray, lanes) -> np.ndarray:
            """Clipped segment index of *lanes* at their queries *q*."""
            j = (sizes2d[lanes] <= q[:, None]).sum(axis=1) - 1
            return j.clip(0, seg_hi[lanes])

        j_lo = segment(query(lo), slice(None))
        j_hi = segment(query(hi), slice(None))
        j = j_lo.copy()  # settled lanes: the segment both ends agree on
        unsettled = np.flatnonzero(j_lo != j_hi)
        operands = None
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            q = query(mid)
            if unsettled.size or operands is None:
                j[unsettled] = segment(q[unsettled], unsettled)
                flat = row_base + j
                x0 = sizes_flat.take(flat)
                y0 = values_flat.take(flat)
                denom = sizes_flat.take(flat + 1) - x0
                slope = (values_flat.take(flat + 1) - y0) / np.where(
                    denom == 0.0, 1.0, denom
                )
                operands = x0, y0, slope
            x0, y0, slope = operands
            val = slope * (q - x0) + y0
            val = np.where(q <= first_x, first_y, val)
            val = np.where(q >= last_x, last_y, val)
            if divisor is not None:
                val = val / divisor
            cond = val >= pressure * mid
            lo = np.where(cond, mid, lo)
            hi = np.where(cond, hi, mid)
            if unsettled.size:
                j_lo = np.where(cond, j, j_lo)
                j_hi = np.where(cond, j_hi, j)
                unsettled = np.flatnonzero(j_lo != j_hi)
        return 0.5 * (lo + hi)

    def query_knots(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's knots in query space -> ``(sizes, values)``, (K, P).

        Row ``i`` evaluates ``curve_i(x * arg_scale[i]) / value_divisor[i]``,
        a piecewise-linear function of ``x`` that bends at
        ``sizes2d[i] / arg_scale[i]`` with values
        ``values2d[i] / value_divisor[i]`` (padded like the banks).  The
        divisions round, so the knots suit estimates only; exact queries
        go through ``__call__`` and :meth:`balance_bisect`.
        """
        sizes, values = self.sizes2d, self.values2d
        if self._arg_scale is not None:
            sizes = sizes / self._arg_scale[:, None]
        if self._value_divisor is not None:
            values = values / self._value_divisor[:, None]
        return sizes, values

    def at_grid(self, grid: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate every curve on a shared capacity grid -> (K, Q).

        The matrix form of ``[curve(grid) for curve in curves]`` that
        batched allocation uses to build all latency curves at once.  Each
        row is one fused ``np.interp`` pass over the whole grid — for
        grid-shaped queries that single C kernel beats any composition of
        elementwise array ops, and row-for-row bitwise equality with the
        scalar path is free.  (The per-curve-query form in ``__call__`` is
        where the one-call batched search pays off.)
        """
        g = np.asarray(grid, dtype=np.float64)
        if g.ndim != 1:
            raise ValueError(f"grid must be 1-D, got shape {g.shape}")
        out = np.empty((len(self.curves), len(g)), dtype=np.float64)
        for i, curve in enumerate(self.curves):
            q = g if self._arg_scale is None else g * self._arg_scale[i]
            out[i] = np.interp(q, curve.sizes, curve.values)
        if self._value_divisor is not None:
            out = out / self._value_divisor[:, None]
        return out


def flat_curve(max_size: float, value: float) -> MissCurve:
    """A capacity-insensitive (streaming) curve, e.g. milc in Fig 2."""
    return MissCurve([0.0, max_size], [value, value])


def cliff_curve(
    max_size: float,
    base_mpki: float,
    cliff_size: float,
    after_mpki: float,
    cliff_sharpness: float = 0.05,
) -> MissCurve:
    """A working-set "cliff" curve, e.g. omnet in Fig 2: high misses until
    the footprint fits, then a sharp drop to *after_mpki*.

    *cliff_sharpness* is the fraction of *cliff_size* over which the drop
    happens (real cliffs are steep but not vertical).
    """
    if not 0 < cliff_size <= max_size:
        raise ValueError("cliff must lie inside (0, max_size]")
    drop_start = cliff_size * (1.0 - cliff_sharpness)
    sizes = [0.0, drop_start, cliff_size]
    values = [base_mpki, base_mpki, after_mpki]
    if cliff_size < max_size:
        sizes.append(max_size)
        values.append(after_mpki)
    return MissCurve(sizes, values)


def exponential_curve(
    max_size: float,
    base_mpki: float,
    floor_mpki: float,
    half_size: float,
    points: int = 65,
) -> MissCurve:
    """A smoothly-decaying curve (friendly apps): misses halve every
    *half_size* bytes of capacity, floored at *floor_mpki*."""
    if half_size <= 0:
        raise ValueError("half_size must be positive")
    sizes = np.linspace(0.0, max_size, points)
    values = floor_mpki + (base_mpki - floor_mpki) * np.power(0.5, sizes / half_size)
    return MissCurve(sizes, values)
