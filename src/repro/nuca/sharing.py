"""Emergent capacity sharing in unpartitioned caches.

S-NUCA and R-NUCA do not partition capacity; occupancy emerges from the
replacement policy.  We model LRU sharing with the standard insertion-
balance fixed point: in steady state each stream's insertion rate (its miss
rate at its occupancy) equals its eviction rate, and eviction pressure hits
streams in proportion to their occupancy.  Formally, find pressure ``P``
and occupancies ``o_d`` with::

    m_d(o_d) = P * o_d          (per-stream balance)
    sum_d o_d = C               (cache fills up)

unless all footprints fit (then ``P = 0`` and everyone keeps their working
set).  Both equations are monotone, so nested bisection converges fast.
This is how streaming apps (milc) crowd fitting apps (omnet) out of an
unmanaged LLC — the Sec II-B observation that motivates partitioning.

Two implementations solve the same system:

* :func:`shared_cache_occupancies` — the scalar reference for one cache:
  one nested bisection per stream, one ``np.interp`` per probe;
* :func:`shared_cache_occupancies_grouped` — the vectorized kernel for
  any number of independent caches (one group of streams each): all
  streams bisect in lockstep through
  :meth:`~repro.cache.miss_curve.MissCurveBatch.balance_bisect`, which
  searches a stream's curve knots only until its bracket settles on one
  segment and then evaluates that segment elementwise.  Per-stream
  arithmetic and summation order replicate the scalar path exactly, so
  each group's occupancies are bitwise the scalar solve of that cache.

S-NUCA and R-NUCA reach the kernel through :func:`solve_sharing_plans`,
which merges many schemes' (and mixes') caches into one lockstep call.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cache.miss_curve import MissCurveBatch

MissFn = Callable[[float], float]

#: Bisection iterations (both solvers; enough for double precision).
_BISECT_ITERS = 60


def _occupancy_at_pressure(
    miss_fn: MissFn, pressure: float, capacity: float
) -> float:
    """Solve ``m(o) = P * o`` for one stream (clamped to [0, capacity])."""
    if miss_fn(0.0) <= 0.0:
        return 0.0
    if pressure <= 0.0 or miss_fn(capacity) >= pressure * capacity:
        return capacity
    lo, hi = 0.0, capacity
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if miss_fn(mid) >= pressure * mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shared_cache_occupancies(
    miss_fns: Sequence[MissFn], capacity: float
) -> list[float]:
    """Steady-state occupancy of each stream in a shared LRU cache.

    *miss_fns* give each stream's miss rate as a function of its own
    occupancy (units are arbitrary but must be common across streams).
    """
    if capacity <= 0:
        return [0.0] * len(miss_fns)
    # If everything fits at zero pressure, footprints are the answer.
    unconstrained = [
        _occupancy_at_pressure(fn, 0.0, capacity) for fn in miss_fns
    ]
    if sum(unconstrained) <= capacity:
        return unconstrained

    def total_occupancy(pressure: float) -> float:
        return sum(
            _occupancy_at_pressure(fn, pressure, capacity) for fn in miss_fns
        )

    lo, hi = 1e-12, 1.0
    while total_occupancy(hi) > capacity:
        hi *= 4.0
        if hi > 1e12:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if total_occupancy(mid) > capacity:
            lo = mid
        else:
            hi = mid
    pressure = 0.5 * (lo + hi)
    occ = [_occupancy_at_pressure(fn, pressure, capacity) for fn in miss_fns]
    total = sum(occ)
    if total > capacity and total > 0:
        scale = capacity / total
        occ = [o * scale for o in occ]
    return occ


# ---------------------------------------------------------------------------
# Vectorized kernel
# ---------------------------------------------------------------------------


def _occupancies_at_pressure_batch(
    batch: MissCurveBatch,
    pressure: float | np.ndarray,
    capacity: float | np.ndarray,
    miss_at_zero: np.ndarray,
    miss_at_cap: np.ndarray,
) -> np.ndarray:
    """All streams' ``m(o) = P * o`` solutions at once -> (K,).

    Lockstep bisection: every iteration evaluates all K curves in one
    batched call; per-lane arithmetic is element-for-element the scalar
    solver's, so each lane lands on the scalar result bitwise.  *pressure*
    is a scalar shared by every stream (one cache) or a ``(K,)`` vector of
    per-stream pressures (the grouped many-caches solve); *capacity* is
    likewise a scalar or a ``(K,)`` vector of per-stream cache capacities
    (lanes of different caches bisect over different brackets — each
    lane's arithmetic only ever sees its own capacity, so mixed-capacity
    solves stay bitwise equal to per-cache scalar solves).
    """
    k = len(batch)
    at_cap = (pressure <= 0.0) | (miss_at_cap >= pressure * capacity)
    inactive = miss_at_zero <= 0.0
    if bool(np.all(at_cap | inactive)):
        # Every lane resolves by an early-exit rule; the bisection would
        # only compute values the masks below discard.
        return np.where(inactive, 0.0, np.broadcast_to(capacity, (k,)).astype(np.float64))
    mid = batch.balance_bisect(pressure, capacity, _BISECT_ITERS)
    occ = np.where(at_cap, capacity, mid)
    return np.where(inactive, 0.0, occ)


def shared_cache_occupancies_grouped(
    batch: MissCurveBatch,
    groups: Sequence[Sequence[int]],
    capacity: float | Sequence[float],
) -> np.ndarray:
    """Many independent sharing fixed points solved in lockstep -> (K,).

    *groups* partitions the batch's curve indices into independent caches
    (R-NUCA: one group of participants per bank).  *capacity* is one float
    shared by every group, or a per-group sequence — mixed capacities let
    the mega-batch path merge the sharing solves of *different* caches
    (S-NUCA's chip-wide LLC next to R-NUCA's per-bank pools, across many
    mixes) into one lockstep call.  Every group's nested bisection
    advances simultaneously — one batched curve evaluation covers every
    stream of every cache — and each group's probe sequence (expansion,
    branch decisions, final rescale) replicates running
    :func:`shared_cache_occupancies` on that group alone with that group's
    capacity, so the per-stream results are bitwise-identical to the
    scalar per-cache loop.
    """
    k = len(batch)
    index_lists = [np.asarray(list(g), dtype=np.int64) for g in groups]
    if np.isscalar(capacity) or isinstance(capacity, (int, float)):
        caps = [float(capacity)] * len(index_lists)
    else:
        caps = [float(c) for c in capacity]
        if len(caps) != len(index_lists):
            raise ValueError(
                f"need one capacity per group: {len(caps)} capacities "
                f"for {len(index_lists)} groups"
            )
    if all(c <= 0 for c in caps):
        return np.zeros(k)
    # Lanes of zero-capacity groups (and lanes outside every group) solve
    # against capacity 0 -> occupancy 0, matching the scalar early return.
    lane_cap = np.zeros(k)
    for idx, cap in zip(index_lists, caps):
        lane_cap[idx] = max(cap, 0.0)
    miss_at_zero = batch(0.0)
    miss_at_cap = batch(lane_cap)

    def solve(pressures: np.ndarray) -> np.ndarray:
        """Per-stream occupancies at per-stream pressures -> (K,)."""
        return _occupancies_at_pressure_batch(
            batch, pressures, lane_cap, miss_at_zero, miss_at_cap
        )

    def group_totals(occ: np.ndarray) -> list[float]:
        # Stream-order sequential sums, like the scalar per-cache sum().
        return [sum(occ[idx].tolist()) for idx in index_lists]

    unconstrained = solve(np.zeros(k))
    result = unconstrained.copy()
    pressured = [
        g for g, total in enumerate(group_totals(unconstrained))
        if caps[g] > 0 and total > caps[g]
    ]
    if not pressured:
        return result

    # Every probe from here on only reads pressured groups' lanes, so the
    # bisection iterates a row-subset batch of just those lanes.  Each
    # lane's arithmetic (and each group's stream-order total) is
    # element-for-element what the full-width solve computes — unpressured
    # lanes keep their unconstrained occupancies in *result* either way.
    lanes = np.concatenate([index_lists[g] for g in pressured])
    sub_batch = batch.take(lanes)
    sub_cap = lane_cap[lanes]
    sub_zero = miss_at_zero[lanes]
    sub_cap_miss = miss_at_cap[lanes]
    local: dict[int, np.ndarray] = {}
    pos = 0
    for g in pressured:
        n = len(index_lists[g])
        local[g] = np.arange(pos, pos + n)
        pos += n

    lane_pressure = np.zeros(len(lanes))

    def solve_sub(pressures: np.ndarray) -> np.ndarray:
        return _occupancies_at_pressure_batch(
            sub_batch, pressures, sub_cap, sub_zero, sub_cap_miss
        )

    lo_g = {g: 1e-12 for g in pressured}
    hi_g = {g: 1.0 for g in pressured}

    def probe(values: dict[int, float]) -> dict[int, float]:
        """Evaluate pressured groups' totals at per-group pressures."""
        for g, p in values.items():
            lane_pressure[local[g]] = p
        occ = solve_sub(lane_pressure)
        return {g: sum(occ[local[g]].tolist()) for g in values}

    # Bracket expansion, in lockstep (settled groups drop out but the
    # per-group hi sequence matches the scalar while-loop's).
    expanding = list(pressured)
    while expanding:
        totals = probe({g: hi_g[g] for g in expanding})
        still = []
        for g in expanding:
            if totals[g] > caps[g]:
                hi_g[g] *= 4.0
                if hi_g[g] <= 1e12:
                    still.append(g)
        expanding = still

    for _ in range(_BISECT_ITERS):
        mids = {g: 0.5 * (lo_g[g] + hi_g[g]) for g in pressured}
        totals = probe(mids)
        for g in pressured:
            if totals[g] > caps[g]:
                lo_g[g] = mids[g]
            else:
                hi_g[g] = mids[g]

    for g in pressured:
        lane_pressure[local[g]] = 0.5 * (lo_g[g] + hi_g[g])
    occ = solve_sub(lane_pressure)
    for g in pressured:
        rows = occ[local[g]]
        total = sum(rows.tolist())
        if total > caps[g] and total > 0:
            result[index_lists[g]] = rows * (caps[g] / total)
        else:
            result[index_lists[g]] = rows
    return result


# ---------------------------------------------------------------------------
# Cross-solve plan merging (the mega-batch kernel entry point)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharingPlan:
    """One scheme invocation's sharing fixed points, as data.

    A plan is everything :func:`shared_cache_occupancies_grouped` needs —
    the participant curves (with R-NUCA's slice transforms), how they
    partition into independent caches, and each cache's capacity — split
    from the scheme object so that *many* invocations (every scheme of
    every mix in a mega-batch) can be concatenated and solved as one
    lockstep call.  Indices in *groups* are local to this plan's curves.
    """

    curves: tuple
    groups: tuple[tuple[int, ...], ...]
    capacities: tuple[float, ...]
    arg_scale: tuple[float, ...] | None = None
    value_divisor: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.groups) != len(self.capacities):
            raise ValueError("need one capacity per group")


def solve_sharing_plans(plans: Sequence[SharingPlan]) -> list[np.ndarray]:
    """Solve every plan's sharing fixed points in one lockstep call.

    Concatenates all plans' curves into a single :class:`MissCurveBatch`
    (identity slice transforms where a plan has none), offsets each plan's
    groups into the merged index space, and runs one
    :func:`shared_cache_occupancies_grouped` solve over the union.  Each
    group's bisection decisions depend only on its own lanes, padding a
    curve batch wider never changes row results, and identity transforms
    (``x * 1.0``, ``x / 1.0``) are exact — so every returned slice is
    bitwise what solving that plan alone returns.
    """
    curves: list = []
    arg_scale: list[float] = []
    divisors: list[float] = []
    groups: list[tuple[int, ...]] = []
    caps: list[float] = []
    spans: list[tuple[int, int]] = []
    for plan in plans:
        offset = len(curves)
        n = len(plan.curves)
        curves.extend(plan.curves)
        arg_scale.extend(plan.arg_scale if plan.arg_scale is not None else [1.0] * n)
        divisors.extend(
            plan.value_divisor if plan.value_divisor is not None else [1.0] * n
        )
        groups.extend(
            tuple(offset + i for i in group) for group in plan.groups
        )
        caps.extend(plan.capacities)
        spans.append((offset, offset + n))
    if not curves:
        return [np.zeros(0) for _ in plans]
    batch = MissCurveBatch(curves, arg_scale=arg_scale, value_divisor=divisors)
    merged = shared_cache_occupancies_grouped(batch, groups, caps)
    return [merged[lo:hi] for lo, hi in spans]
