"""Latency-aware capacity allocation (Sec IV-C).

Divides LLC capacity among VCs to minimize the sum of their total-latency
curves (off-chip + optimistic on-chip, Fig 5).  The optimizer is the
convex-hull variant of Lookahead: walking each curve's convex minorant
yields, at every point, the best achievable marginal latency reduction per
quantum, so a best-first greedy over hull segments is optimal over the
hulls — the same result Peekahead [Jigsaw] computes, and the reason the
allocator runs in near-linear time instead of Lookahead's quadratic.

Two policies:

* :func:`allocate_latency_aware` (CDCS): allocates over total-latency
  curves and **stops when marginal benefit turns negative** — capacity may
  go unused (Sec IV-C: "it is sometimes better to leave cache capacity
  unused").
* :func:`allocate_miss_driven` (Jigsaw): allocates over off-chip-only
  curves and then distributes leftover capacity (a partitioned LLC leaves
  no bank idle), which is what makes Jigsaw over-allocate in
  under-committed systems (Fig 12b/14).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sched.cost_model import (
    latency_curves_batch,
    miss_only_curves_batch,
    vc_access_rates,
)
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem


def convex_hull_indices(values: np.ndarray) -> list[int]:
    """Indices of the lower convex hull vertices of ``(i, values[i])``.

    Monotone-chain over an already-sorted x axis: O(n).  The chain is
    inherently sequential (each vertex can pop earlier ones), so it stays
    a Python loop — but over plain floats: element-indexing a NumPy array
    builds a scalar object per access and dominates the walk's cost.
    """
    vals = values.tolist() if isinstance(values, np.ndarray) else values
    hull: list[int] = []
    for i in range(len(vals)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # Keep i1 only if it bends the chain downward-convex.
            lhs = (vals[i1] - vals[i0]) * (i - i1)
            rhs = (vals[i] - vals[i1]) * (i1 - i0)
            if lhs <= rhs + 1e-12:
                break
            hull.pop()
        hull.append(i)
    return hull


def _curve_key(values: np.ndarray) -> tuple[str, tuple[int, ...], bytes]:
    """Memo key of one curve array: dtype and shape with its bytes, so
    equal bytes read as a different array never share an entry."""
    return (values.dtype.str, values.shape, values.tobytes())


#: Content-keyed memo for :func:`convex_hull_indices`.  Sweeps recompute
#: hulls of identical curves constantly — duplicated app profiles within a
#: mix, and Jigsaw variants allocating over the same miss-only curves —
#: and the hull of a curve is pure data, stored as a tuple so no caller
#: can change a shared entry.  Bounded by wholesale clearing; keys are
#: :func:`_curve_key`.
_HULL_CACHE: dict[tuple, tuple[int, ...]] = {}
_HULL_CACHE_MAX = 4096


def _hull_of(values) -> tuple[int, ...] | list[int]:
    if not isinstance(values, np.ndarray):
        return convex_hull_indices(values)
    key = _curve_key(values)
    hull = _HULL_CACHE.get(key)
    if hull is None:
        if len(_HULL_CACHE) >= _HULL_CACHE_MAX:
            _HULL_CACHE.clear()
        hull = tuple(convex_hull_indices(values))
        _HULL_CACHE[key] = hull
    return hull


#: Memo for whole hull walks keyed by (budget, curve keys).  A sweep
#: runs several policies over identical curve sets (Jigsaw's clustered and
#: random variants allocate over the same miss-only curves), and the walk
#: is deterministic in its inputs.  The counter's op accounting is
#: replayed from the stored pop count — ``StepCounter.add`` aggregates, so
#: one bulk add is indistinguishable from the loop's unit adds.  Sizes are
#: stored as a tuple; each hit hands the caller a fresh list.
_WALK_CACHE: dict[tuple, tuple[tuple[int, ...], int]] = {}
_WALK_CACHE_MAX = 1024


def _greedy_hull_allocation(
    curves: list[np.ndarray],
    budget_quanta: int,
    counter: StepCounter,
    step_name: str,
) -> list[int]:
    """Best-first walk over hull segments; returns quanta per curve."""
    hulls = [_hull_of(c) for c in curves]
    for h in hulls:
        counter.add(step_name, len(h))
    walk_key = None
    if all(isinstance(c, np.ndarray) for c in curves):
        walk_key = (budget_quanta, tuple(_curve_key(c) for c in curves))
        cached = _WALK_CACHE.get(walk_key)
        if cached is not None:
            sizes, pops = cached
            if pops:
                counter.add(step_name, pops)
            return list(sizes)  # callers mutate the result
    sizes = [0] * len(curves)
    pops = 0
    cursor = [0] * len(curves)  # index into each hull's vertex list
    heap: list[tuple[float, int]] = []

    def push_next(d: int) -> None:
        h = hulls[d]
        if cursor[d] + 1 >= len(h):
            return
        i0, i1 = h[cursor[d]], h[cursor[d] + 1]
        benefit = (curves[d][i0] - curves[d][i1]) / (i1 - i0)
        heapq.heappush(heap, (-benefit, d))

    for d in range(len(curves)):
        push_next(d)

    remaining = budget_quanta
    while heap and remaining > 0:
        neg_benefit, d = heapq.heappop(heap)
        counter.add(step_name)
        pops += 1
        if -neg_benefit <= 1e-12:
            break  # further capacity only adds latency
        h = hulls[d]
        i0, i1 = h[cursor[d]], h[cursor[d] + 1]
        take = min(i1 - i0, remaining)
        sizes[d] += take
        remaining -= take
        if take == i1 - i0:
            cursor[d] += 1
            push_next(d)
        # Partial take: budget exhausted; loop exits via remaining == 0.
    if walk_key is not None:
        if len(_WALK_CACHE) >= _WALK_CACHE_MAX:
            _WALK_CACHE.clear()
        _WALK_CACHE[walk_key] = (tuple(sizes), pops)
    return sizes


def _ensure_minimum_quanta(
    problem: PlacementProblem,
    vcs: list,
    sizes: list[int],
    budget: int,
    curves: list[np.ndarray],
) -> None:
    """Every VC with live accessors needs >= 1 quantum: its descriptor must
    point at a real bank partition (Fig 3).  Spare budget covers it; if the
    budget is fully allocated, the quantum is taken from the donor whose
    curve loses the least by shrinking (never from the middle of a cliff).
    *vcs* are the VCs behind *sizes* and *curves*, so donors come only from
    the VCs being allocated.

    Donors come off a heap of ``(loss, index)``, built when the spare
    budget first runs out: it pops the lowest index among equal losses,
    as a ``min`` scan over the candidates would.  Only a donor's size and
    loss change, and a VC given its one quantum never becomes a donor,
    so a donor goes back on with its new loss while its size stays
    above 1 and every entry on the heap is current.
    """

    def loss(j: int):
        return curves[j][sizes[j] - 1] - curves[j][sizes[j]]

    spare = budget - sum(sizes)
    donors = None
    for i, vc in enumerate(vcs):
        if sizes[i] > 0:
            continue
        rate = sum(problem.accessors_of(vc.vc_id).values())
        if rate <= 0:
            continue
        if spare > 0:
            spare -= 1
        else:
            if donors is None:
                donors = [(loss(j), j) for j in range(len(sizes)) if sizes[j] > 1]
                heapq.heapify(donors)
            if not donors:
                continue  # nothing sensible to steal
            _, donor = heapq.heappop(donors)
            sizes[donor] -= 1
            if sizes[donor] > 1:
                heapq.heappush(donors, (loss(donor), donor))
        sizes[i] = 1


def allocate_latency_aware(
    problem: PlacementProblem,
    counter: StepCounter | None = None,
    vc_ids: set[int] | None = None,
    budget_quanta: int | None = None,
) -> dict[int, float]:
    """CDCS capacity allocation: vc_id -> bytes (may not use all capacity).

    *vc_ids*/*budget_quanta* are the warm start: only the named VCs are
    allocated, competing for *budget_quanta* (the capacity the caller's
    pinned VCs do not hold).  Curve rows are per-VC independent, so all
    VCs with the whole budget is exactly the default cold allocation.
    """
    counter = counter if counter is not None else StepCounter()
    indices = None
    vcs = problem.vcs
    if vc_ids is not None:
        indices = [i for i, vc in enumerate(vcs) if vc.vc_id in vc_ids]
        vcs = [vcs[i] for i in indices]
    if not vcs:
        return {}
    # One batched build: rows are bitwise the per-VC curves.
    curves = list(latency_curves_batch(problem, vc_indices=indices))
    if budget_quanta is None:
        budget = problem.total_bytes // problem.quantum
    else:
        budget = max(0, budget_quanta)
    sizes = _greedy_hull_allocation(curves, budget, counter, "allocation")
    _ensure_minimum_quanta(problem, vcs, sizes, budget, curves)
    return {vc.vc_id: sizes[i] * problem.quantum for i, vc in enumerate(vcs)}


def allocate_miss_driven(
    problem: PlacementProblem,
    counter: StepCounter | None = None,
    distribute_leftover: bool = True,
) -> dict[int, float]:
    """Jigsaw-style allocation: misses only, leftover handed out anyway.

    Leftover goes to VCs in proportion to their access rates (an LLC with
    partitioned banks has no reason to idle capacity if misses are already
    minimized — but the extra banks raise on-chip latency, which Jigsaw's
    allocator cannot see).
    """
    counter = counter if counter is not None else StepCounter()
    rates = vc_access_rates(problem)
    curves = list(miss_only_curves_batch(problem, rates))
    budget = problem.total_bytes // problem.quantum
    sizes = _greedy_hull_allocation(curves, budget, counter, "allocation")
    leftover = budget - sum(sizes)
    if distribute_leftover and leftover > 0:
        total_rate = sum(rates)
        if total_rate > 0:
            quotas = [leftover * r / total_rate for r in rates]
        else:
            quotas = [leftover / len(sizes)] * len(sizes)
        # Largest-remainder rounding of the leftover distribution.
        floors = [int(q) for q in quotas]
        residue = leftover - sum(floors)
        order = sorted(
            range(len(sizes)), key=lambda d: floors[d] - quotas[d]
        )
        for d in order[:residue]:
            floors[d] += 1
        max_quanta = budget
        for d in range(len(sizes)):
            sizes[d] = min(sizes[d] + floors[d], max_quanta)
    _ensure_minimum_quanta(problem, problem.vcs, sizes, budget, curves)
    return {
        vc.vc_id: sizes[i] * problem.quantum for i, vc in enumerate(problem.vcs)
    }
