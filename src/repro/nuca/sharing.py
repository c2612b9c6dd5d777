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

:func:`shared_cache_occupancies_grouped` solves any number of
independent caches (one group of streams each) at once.  Its inner
solves run every stream in lockstep through
:meth:`~repro.cache.miss_curve.MissCurveBatch.balance_bisect`, each
stream's arithmetic its own, so a group's occupancies are bitwise what
solving that cache alone gives (``tests/oracles.py`` keeps the
one-stream-at-a-time solve they are checked against).  Its outer
pressure search makes an inner solve only for a probe that no earlier
exact result has decided: a group's exact total occupancy is
non-increasing in ``P``, so one exact answer settles every probe on one
side of it.  A closed-form estimate of each cache's root picks the
pressures worth solving; when it is right, one stacked lockstep call
decides every cache's search instead of one call per probe.  Totals
are ordered sums (:func:`repro.util.sums.ordered_sums`), so the result
is the same on every Python.

S-NUCA and R-NUCA reach the kernel through :func:`solve_sharing_plans`,
which merges many schemes' (and mixes') caches into one call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cache.miss_curve import MissCurveBatch
from repro.util.sums import ordered_sums

#: Bisection iterations (enough for double precision).
_BISECT_ITERS = 60


def _occupancies_at_pressure_batch(
    batch: MissCurveBatch,
    pressure: float | np.ndarray,
    capacity: float | np.ndarray,
    miss_at_zero: np.ndarray,
    miss_at_cap: np.ndarray,
) -> np.ndarray:
    """All streams' ``m(o) = P * o`` solutions at once -> (K,).

    Lockstep bisection: every iteration evaluates all K curves in one
    batched call; per-lane arithmetic is element-for-element the
    one-stream bisection's, so each lane lands on its one-stream result
    bitwise.  *pressure* is a scalar shared by every stream (one cache)
    or a ``(K,)`` vector of per-stream pressures (the grouped many-caches
    solve); *capacity* is
    likewise a scalar or a ``(K,)`` vector of per-stream cache capacities
    (lanes of different caches bisect over different brackets — each
    lane's arithmetic only ever sees its own capacity, so mixed-capacity
    solves stay bitwise equal to per-cache solves).
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


def _check_groups(groups: Iterable[Iterable[int]], k: int) -> None:
    """Raise ``ValueError`` unless *groups* hold disjoint lanes of ``range(k)``."""
    seen: set[int] = set()
    for group in groups:
        for lane in group:
            if not 0 <= lane < k:
                raise ValueError(f"group lane {lane} is outside range({k})")
            if lane in seen:
                raise ValueError(f"lane {lane} belongs to two groups")
            seen.add(lane)


def _pressure_search(
    count: int, above: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The one-cache outer pressure search for *count* groups -> (count,).

    ``above(which, pressures)`` answers, for each listed group, whether its
    total occupancy at that pressure exceeds its capacity.  The search
    expands each group's bracket ``[1e-12, 1]`` by ``hi *= 4.0`` while the
    answer is yes (at most past ``1e12``), then halves it
    ``_BISECT_ITERS`` times, with the one-cache loop's float expressions —
    so the same answers yield the same final pressures, bitwise.
    """
    lo = np.full(count, 1e-12)
    hi = np.ones(count)
    expanding = np.arange(count)
    while expanding.size:
        grow = expanding[above(expanding, hi[expanding])]
        hi[grow] *= 4.0
        expanding = grow[hi[grow] <= 1e12]
    every = np.arange(count)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        over = above(every, mid)
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    return 0.5 * (lo + hi)


class _ClosedFormRoots:
    """Closed-form estimates of whether pressured groups overflow.

    A lane's transformed curve ``h(o) = m(o * s) / d`` is linear between
    its query-space knots, so its balance root ``h(o) = P * o`` solves one
    linear equation on the segment that ends at the first knot below the
    line ``P * o`` (the flat start when that is the first knot, the flat
    end when no knot is below it).  For a non-increasing curve that is the
    only root; for others the bisection may settle on another one, and
    the estimate is wrong.  Lanes at capacity and inactive lanes follow
    the exact rules.  :meth:`above` sums a group's estimates and compares
    the total with the group's capacity.  The estimates only choose which
    pressures the exact solve checks, so their rounding (and the order of
    their sums) never reaches a result.
    """

    def __init__(
        self,
        batch: MissCurveBatch,
        sizes: np.ndarray,
        capacity: np.ndarray,
        lane_cap: np.ndarray,
        miss_at_zero: np.ndarray,
        miss_at_cap: np.ndarray,
    ):
        xs, ys = batch.query_knots()
        k, width = xs.shape
        real = np.arange(width) < batch.lengths[:, None]
        # Knot i lies on or above P * o exactly while P <= ys / xs; padded
        # knots and a sentinel column lie below every line.
        knot_p = np.divide(ys, xs, out=np.full((k, width), np.inf), where=xs > 0)
        self.knot_pressure = np.pad(
            np.where(real, knot_p, -np.inf), ((0, 0), (0, 1)),
            constant_values=-np.inf,
        )
        # On column c, h(o) = num + rate * o: column 0 is the flat start,
        # column c the segment (c - 1, c); padded segments and the extra
        # last column are the flat end.
        dx = np.diff(xs, axis=1)
        rate = np.divide(np.diff(ys, axis=1), dx, out=np.zeros_like(dx), where=dx > 0)
        num = np.empty((k, width + 1))
        num[:, 0] = ys[:, 0]
        num[:, 1:width] = ys[:, :-1] - rate * xs[:, :-1]
        num[:, width] = ys[:, -1]
        self.num = num.ravel()
        self.rate = np.pad(rate, ((0, 0), (1, 1))).ravel()
        self.base = np.arange(k) * (width + 1)
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.capacity = capacity
        self.lane_cap = lane_cap
        self.inactive = miss_at_zero <= 0.0
        self.miss_at_cap = miss_at_cap

    def occupancies(self, p: np.ndarray) -> np.ndarray:
        """Each lane's estimated occupancy at pressure *p* -> (K,)."""
        # The first knot below the line P * o ends the root's segment.
        below = self.knot_pressure < p[:, None]
        column = self.base + below.argmax(axis=1)
        denom = p - self.rate.take(column)
        occ = np.divide(
            self.num.take(column), denom, out=np.zeros(len(p)), where=denom > 0
        )
        cap = self.lane_cap
        occ = np.where(self.miss_at_cap >= p * cap, cap, np.clip(occ, 0.0, cap))
        occ[self.inactive] = 0.0
        return occ

    def above(self, which: np.ndarray, pressures: np.ndarray) -> np.ndarray:
        """Whether groups *which* overflow their capacities at *pressures*,
        by estimate -> (len(which),)."""
        p = np.ones(len(self.sizes))
        p[which] = pressures
        total = np.add.reduceat(
            self.occupancies(np.repeat(p, self.sizes)), self.starts
        )
        return total[which] > self.capacity[which]

    def seed_probes(self) -> np.ndarray:
        """The search run on estimates (the dry run) -> (G, 3): each group's
        largest "above" probe, its smallest "not above" probe (-inf and inf
        when it made none) and its final pressure."""
        count = len(self.sizes)
        last_over = np.full(count, -np.inf)
        first_under = np.full(count, np.inf)

        def estimated(which: np.ndarray, pressures: np.ndarray) -> np.ndarray:
            over = self.above(which, pressures)
            hit, miss = which[over], which[~over]
            last_over[hit] = np.maximum(last_over[hit], pressures[over])
            first_under[miss] = np.minimum(first_under[miss], pressures[~over])
            return over

        guess = _pressure_search(count, estimated)
        return np.stack([last_over, first_under, guess], axis=1)


def shared_cache_occupancies_grouped(
    batch: MissCurveBatch,
    groups: Sequence[Sequence[int]],
    capacity: float | Sequence[float],
) -> np.ndarray:
    """Many independent sharing fixed points solved in lockstep -> (K,).

    *groups* partitions the batch's curve indices into independent caches
    (R-NUCA: one group of participants per bank); lanes in no group solve
    to 0, and a lane outside the batch or in two groups raises
    ``ValueError``.  *capacity* is one float shared by every group, or a
    per-group sequence — mixed capacities let the mega-batch path merge
    the sharing solves of *different* caches (S-NUCA's chip-wide LLC next
    to R-NUCA's per-bank pools, across many mixes) into one call.  Each
    group's results are bitwise what solving that group alone at that
    capacity gives.

    The outer pressure search (:func:`_pressure_search`) asks, probe by
    probe, whether a group's total occupancy exceeds its capacity.  That
    answer is monotone in the pressure ``P``:

    * an inner bisection step keeps ``lo = mid`` when
      ``m(mid) >= fl(P * mid)``; ``m(mid)`` does not depend on ``P`` and
      ``fl(P * mid)`` does not fall as ``P`` grows, so each step's answer
      is non-increasing in ``P``;
    * so two inner paths at ``P1 < P2`` first differ where ``P1`` keeps
      ``lo = mid`` and ``P2`` keeps ``hi = mid``, and since a midpoint
      stays inside its bracket, ``occ(P1) >= mid >= occ(P2)``;
    * the at-capacity rule is non-increasing in ``P`` and yields the
      largest value, the capacity; the stream-order sum is monotone in
      each term.

    A group's exact total is therefore non-increasing in ``P``: one exact
    "above" at ``t`` answers every probe ``<= t`` and one exact "not
    above" at ``f`` every probe ``>= f``.  The solve first runs the search
    on :class:`_ClosedFormRoots` estimates (the dry run), then makes one
    lockstep :meth:`~repro.cache.miss_curve.MissCurveBatch.balance_bisect`
    call on each group's largest "above" probe, smallest "not above" probe
    and final pressure, stacked with
    :meth:`~repro.cache.miss_curve.MissCurveBatch.take`.  Those results
    seed each group's proven window ``(t, f)``; the real search answers a
    probe outside it for free and solves a probe inside it exactly (one
    lockstep call for every group that needs one), narrowing the window.
    When the dry run guessed right, no probe needs a solve and the final
    pressure's occupancies come from the stacked call.  A wrong guess
    costs extra exact probes, never a different answer.
    """
    k = len(batch)
    _check_groups(groups, k)
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
    # against capacity 0 -> occupancy 0, like a zero-capacity cache.
    lane_cap = np.zeros(k)
    for idx, cap in zip(index_lists, caps):
        lane_cap[idx] = max(cap, 0.0)
    miss_at_zero = batch(0.0)
    miss_at_cap = batch(lane_cap)

    unconstrained = _occupancies_at_pressure_batch(
        batch, np.zeros(k), lane_cap, miss_at_zero, miss_at_cap
    )
    result = unconstrained.copy()
    pressured = [
        g for g, idx in enumerate(index_lists)
        if caps[g] > 0 and ordered_sums(unconstrained[idx]) > caps[g]
    ]
    if not pressured:
        return result

    # From here on, group i is pressured group pressured[i], and its lanes
    # are rows local[i] of the pressured lanes' sub-batch.  Every lane's
    # arithmetic is its own, so solving any row subset of a batch (rows
    # repeated, too) gives each row bitwise its full-width result.
    members = [index_lists[g] for g in pressured]
    sizes = np.array([len(m) for m in members])
    group_cap = [caps[g] for g in pressured]
    lanes = np.concatenate(members)
    sub = batch.take(lanes)
    sub_cap = lane_cap[lanes]
    sub_zero = miss_at_zero[lanes]
    sub_at_cap = miss_at_cap[lanes]
    local = np.split(np.arange(len(lanes)), np.cumsum(sizes)[:-1])
    solved: dict[tuple[int, float], np.ndarray] = {}
    proven_over = np.full(len(members), -np.inf)  # t: "above" up to here
    proven_under = np.full(len(members), np.inf)  # f: "not above" from here

    def settle(which: np.ndarray, pressures: np.ndarray) -> np.ndarray:
        """Exact answers for groups *which* at *pressures*, in one call."""
        if np.array_equal(which, np.arange(len(members))):
            rows_batch, rows = sub, slice(None)
        else:
            rows = np.concatenate([local[i] for i in which])
            rows_batch = sub.take(rows)
        occ = _occupancies_at_pressure_batch(
            rows_batch,
            np.repeat(pressures, sizes[which]),
            sub_cap[rows],
            sub_zero[rows],
            sub_at_cap[rows],
        )
        parts = np.split(occ, np.cumsum(sizes[which])[:-1])
        over = []
        for i, p, part in zip(which.tolist(), pressures.tolist(), parts):
            solved[i, p] = part
            over.append(bool(ordered_sums(part) > group_cap[i]))
            if over[-1]:
                proven_over[i] = max(proven_over[i], p)
            else:
                proven_under[i] = min(proven_under[i], p)
        return np.array(over)

    seeds = _ClosedFormRoots(
        sub, sizes, np.array(group_cap), sub_cap, sub_zero, sub_at_cap
    ).seed_probes()
    finite = np.isfinite(seeds)
    settle(np.nonzero(finite)[0], seeds[finite])

    def proven(which: np.ndarray, pressures: np.ndarray) -> np.ndarray:
        over = pressures <= proven_over[which]
        unknown = ~over & (pressures < proven_under[which])
        if unknown.any():
            over[unknown] = settle(which[unknown], pressures[unknown])
        return over

    final = _pressure_search(len(members), proven).tolist()
    missing = [i for i, p in enumerate(final) if (i, p) not in solved]
    if missing:
        settle(np.array(missing), np.take(final, missing))
    for i, g in enumerate(pressured):
        rows = solved[i, final[i]]
        total = float(ordered_sums(rows))
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
        n = len(self.curves)
        for name in ("arg_scale", "value_divisor"):
            values = getattr(self, name)
            if values is not None and len(values) != n:
                raise ValueError(
                    f"{name} needs one entry per curve: {len(values)} for {n}"
                )
        _check_groups(self.groups, n)


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
