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

Both read their VCs' curve rows (``Q+1`` points each) and the rows'
convex hulls through one process-wide, byte-bounded memo
(:class:`RowMemo`), keyed by everything a row reads: the miss curve's
points, the VC's rate and the chip's inputs.  Inputs recur across
calls: a sweep draws every mix from the paper's 16-app pool, a
profile's thread VCs share one curve, and a phased chip replays its
phases' curves.  So a call builds only its distinct missing rows, in
one batched build, and each row is bitwise the one a full build gives.
"""

from __future__ import annotations

import heapq
import threading

import numpy as np

from repro.sched.cost_model import (
    latency_curves_batch,
    miss_only_curves_batch,
    optimistic_table_key,
    round_trip_cycles_per_hop,
    vc_access_rates,
)
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem
from repro.util.guards import guarded_mapping
from repro.util.sums import ordered_sum


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


#: Byte budget of the row memo; past it the memo clears wholesale.  A
#: 256-tile row is 16 KiB, so it holds about 500 of them, where a sweep
#: or a phased chip recurs over a few dozen.
ROW_MEMO_BYTES = 8 << 20


#: One memo entry: a curve row, its hull's vertex indices and each hull
#: segment's benefit (:func:`_hull_segments`).
RowEntry = tuple[np.ndarray, tuple[int, ...], tuple[float, ...]]


class RowMemo:
    """Allocation curve rows with their hulls and hull benefits, keyed by
    every input a row reads (:func:`_curve_rows` builds the keys).

    Each value is a pure function of its key and every row is read-only,
    so any caller may share an entry.  Lookups, inserts and the byte
    count hold the memo's lock: the service solves two chips on two
    worker threads.  An entry costs its row's bytes and 16 per hull
    vertex (its index and its segment's benefit); an insert past
    *budget_bytes* clears the memo first, and an entry larger than the
    budget is not kept.
    """

    def __init__(self, budget_bytes: int = ROW_MEMO_BYTES):
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: dict[tuple, RowEntry] = (
            guarded_mapping(self._lock, "allocation row memo")
        )
        self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def get_many(self, keys: list[tuple]) -> list[RowEntry | None]:
        with self._lock:
            get = self._entries.get
            return [get(key) for key in keys]

    def put_many(self, entries: dict[tuple, RowEntry]) -> None:
        with self._lock:
            for key, entry in entries.items():
                row, hull, _ = entry
                size = row.nbytes + 16 * len(hull)
                if size > self.budget_bytes or key in self._entries:
                    continue
                if self._bytes + size > self.budget_bytes:
                    self._entries.clear()
                    self._bytes = 0
                self._entries[key] = entry
                self._bytes += size


#: The process's row memo.  ``tests/oracles.py``'s ``scalar_reference()``
#: swaps an empty one in for its block, so the oracles build every row.
_ROW_MEMO = RowMemo()


class _VcSubset:
    """*problem* as the curve builders read it, holding only *vcs*: a
    row reads its own VC, its rate and the chip, so a subset's rows are
    bitwise the full build's."""

    def __init__(self, problem: PlacementProblem, vcs: list):
        self._problem = problem
        self.vcs = vcs

    def __getattr__(self, name: str):
        return getattr(self._problem, name)


def _hull_segments(row: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """*row*'s hull vertices and each hull segment's benefit, the latency
    it saves per quantum, as Python floats: the same subtract and divide
    of the row's doubles as on NumPy scalars, done once per row."""
    values = row.tolist()
    hull = tuple(convex_hull_indices(values))
    return hull, tuple(
        (values[i0] - values[i1]) / (i1 - i0) for i0, i1 in zip(hull, hull[1:])
    )


def _curve_rows(
    problem: PlacementProblem, vcs: list, rates: list[float], latency: bool
) -> tuple[list[np.ndarray], list[tuple[int, ...]], list[tuple[float, ...]]]:
    """The allocation rows of *vcs* at *rates*, with their hulls and hull
    benefits (:func:`_hull_segments`), through the row memo:
    total-latency rows if *latency*, else off-chip-only.

    A key holds, by content, everything its row reads: the miss curve's
    points (dtype and bytes), the rate, and the chip inputs of its kind
    (memory latency, cycles per hop and the optimistic table's identity
    for latency rows; memory latency, quantum and total bytes for
    off-chip rows).  Each distinct missing key is built once, in one
    call of the batched builder over just those VCs, so every row is
    bitwise the row a full build gives its VC.
    """
    if latency:
        chip = (
            "latency",
            problem.mem_latency,
            round_trip_cycles_per_hop(problem),
            optimistic_table_key(problem),
        )
    else:
        chip = ("miss", problem.mem_latency, problem.quantum, problem.total_bytes)
    keys = []
    for vc, rate in zip(vcs, rates):
        sizes, values = vc.miss_curve.sizes, vc.miss_curve.values
        points = (sizes.dtype.str, sizes.tobytes(), values.dtype.str, values.tobytes())
        keys.append((chip, points, rate))
    memo = _ROW_MEMO
    entries = memo.get_many(keys)
    missing: dict[tuple, tuple] = {}
    for key, vc, rate, entry in zip(keys, vcs, rates, entries):
        if entry is None and key not in missing:
            missing[key] = (vc, rate)
    if missing:
        build = latency_curves_batch if latency else miss_only_curves_batch
        subset = _VcSubset(problem, [vc for vc, _ in missing.values()])
        matrix = build(subset, [rate for _, rate in missing.values()])
        matrix.setflags(write=False)
        built = {
            key: (row, *_hull_segments(row)) for key, row in zip(missing, matrix)
        }
        memo.put_many(built)
        entries = [
            built[key] if entry is None else entry
            for key, entry in zip(keys, entries)
        ]
    rows, hulls, benefits = zip(*entries) if entries else ((), (), ())
    return list(rows), list(hulls), list(benefits)


def _greedy_hull_allocation(
    curves: list[np.ndarray],
    budget_quanta: int,
    counter: StepCounter,
    step_name: str,
    hulls: list[tuple[int, ...]] | None = None,
    benefits: list[tuple[float, ...]] | None = None,
) -> list[int]:
    """Best-first walk over hull segments; returns quanta per curve.
    *hulls* and *benefits* are the curves' :func:`_hull_segments`, when
    the caller already has them; the walk reads no NumPy scalar."""
    if hulls is None:
        segments = [_hull_segments(c) for c in curves]
        hulls = [hull for hull, _ in segments]
        benefits = [gains for _, gains in segments]
    for h in hulls:
        counter.add(step_name, len(h))
    sizes = [0] * len(curves)
    cursor = [0] * len(curves)  # index into each hull's vertex list
    heap: list[tuple[float, int]] = []

    def push_next(d: int) -> None:
        if cursor[d] + 1 < len(hulls[d]):
            heapq.heappush(heap, (-benefits[d][cursor[d]], d))

    for d in range(len(curves)):
        push_next(d)

    remaining = budget_quanta
    while heap and remaining > 0:
        neg_benefit, d = heapq.heappop(heap)
        counter.add(step_name)
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
    return sizes


def _ensure_minimum_quanta(
    rates: list[float],
    sizes: list[int],
    budget: int,
    curves: list[np.ndarray],
) -> None:
    """Every VC with live accessors needs >= 1 quantum: its descriptor must
    point at a real bank partition (Fig 3).  Spare budget covers it; if the
    budget is fully allocated, the quantum is taken from the donor whose
    curve loses the least by shrinking (never from the middle of a cliff).
    *rates* are the access rates of the VCs behind *sizes* and *curves*
    (:func:`vc_access_rates`), so donors come only from the VCs being
    allocated.

    Donors come off a heap of ``(loss, index)``, built when the spare
    budget first runs out: it pops the lowest index among equal losses,
    as a ``min`` scan over the candidates would.  Only a donor's size and
    loss change, and a VC given its one quantum never becomes a donor,
    so a donor goes back on with its new loss while its size stays
    above 1 and every entry on the heap is current.
    """

    def loss(j: int) -> float:
        return curves[j].item(sizes[j] - 1) - curves[j].item(sizes[j])

    spare = budget - sum(sizes)
    donors = None
    for i, rate in enumerate(rates):
        if sizes[i] > 0 or rate <= 0:
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
    vcs = problem.vcs
    if vc_ids is not None:
        vcs = [vc for vc in vcs if vc.vc_id in vc_ids]
    if not vcs:
        return {}
    rates = vc_access_rates(problem, vcs)
    curves, hulls, benefits = _curve_rows(problem, vcs, rates, latency=True)
    if budget_quanta is None:
        budget = problem.total_bytes // problem.quantum
    else:
        budget = max(0, budget_quanta)
    sizes = _greedy_hull_allocation(
        curves, budget, counter, "allocation", hulls, benefits
    )
    _ensure_minimum_quanta(rates, sizes, budget, curves)
    return {vc.vc_id: sizes[i] * problem.quantum for i, vc in enumerate(vcs)}


def allocate_miss_driven(
    problem: PlacementProblem,
    counter: StepCounter | None = None,
) -> dict[int, float]:
    """Jigsaw-style allocation: misses only, leftover handed out anyway.

    Leftover goes to VCs in proportion to their access rates (an LLC with
    partitioned banks has no reason to idle capacity if misses are already
    minimized — but the extra banks raise on-chip latency, which Jigsaw's
    allocator cannot see).
    """
    counter = counter if counter is not None else StepCounter()
    rates = vc_access_rates(problem)
    curves, hulls, benefits = _curve_rows(problem, problem.vcs, rates, latency=False)
    budget = problem.total_bytes // problem.quantum
    sizes = _greedy_hull_allocation(
        curves, budget, counter, "allocation", hulls, benefits
    )
    leftover = budget - sum(sizes)
    if leftover > 0:
        total_rate = ordered_sum(rates)
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
    _ensure_minimum_quanta(rates, sizes, budget, curves)
    return {
        vc.vc_id: sizes[i] * problem.quantum for i, vc in enumerate(problem.vcs)
    }
