"""Refined VC placement: greedy seeding plus trade-based improvement
(Sec IV-F, Fig 8).

With thread locations fixed, data placement becomes concrete:

1. **Greedy round-robin** (Jigsaw's placer, reused as the seed): each VC
   is anchored at the access-weighted 1-median of its accessors' cores,
   and VCs take turns claiming everything they still want from the
   closest bank with free capacity.  Round-robin means every thread VC
   gets its local bank first — reasonable, but blind to intensity.
2. **Trades**: each VC spirals outward from its data's center of mass,
   keeping a list of *desirable banks* (banks it does not fully own) and
   trying to move its far data into closer desirable banks, either into
   free space or by **swapping capacity** with another VC.  A trade's value
   follows the paper's per-byte rule: ``Accesses/Capacity x (D(VC, from) -
   D(VC, to))`` summed over both parties; only net-negative (latency-
   reducing) trades execute.  Each VC trades once — the paper found a
   single pass discovers most beneficial trades.

Shape conventions
-----------------
Arrays build what reads no loop state; the loops run on Python floats
(``N = topology.tiles``):

* ``D(VC, b)``, the access-weighted mean hops from a VC's accessors to
  bank *b* (Sec IV-F), is ``coef * row[b]`` of the VC's
  :class:`DistanceTerms`.  A VC with one accessor (every thread VC)
  reads ``(rate / total, dist[core])``, the distance row a list shared
  by every such VC on that core; more accessors read ``(1.0, row)`` of
  an ``(accessors, N)`` row stack reduced with ``np.cumsum`` along the
  accessor axis.  Either way each value matches the scalar accumulation
  loop bitwise (a one-row cumsum is its row, and the loop adds it to
  zeros), so trade accept/reject decisions are identical between paths;
* ``used`` and the greedy seed's ``free`` — lists of ``N`` floats, bytes
  per bank; the seed keeps each VC's state in parallel lists;
* the greedy seed's anchors are the 1-medians of every seeded VC at once,
  ``(B, N)`` cost blocks from
  :func:`repro.geometry.placement_math.weighted_center_tiles`; each trade
  initiator's spiral center is one
  :func:`~repro.geometry.placement_math.weighted_center_tile`.

The trade scan itself (spiral walk, swap bookkeeping) stays sequential:
its decisions feed back into the very capacities it iterates over.  It
reads the initiator's ``dist[com]`` row as a list, prices a swap
counterparty from two entries of its distance terms, values the
initiator's side of a target once, recomputes the initiator's data
extent only after a trade moved its data, and counts its ops in a local
that reaches the counter once per initiator.  An initiator that holds
one bank skips its scan: that bank is its data's 1-median, so the
spiral would visit only the bank, which is never its own target, and
count no op (most thread VCs of a fig11 mix are such initiators).
Likewise the greedy seed anchors a VC whose accessors share one core at
that core without a cost row.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.geometry.placement_math import (
    weighted_center_tile,
    weighted_center_tiles,
)
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem
from repro.util.sums import ordered_sum


#: Accessor rows reduced per block when building one distance vector.
#: Chunking bounds the transient at ``(256, N)`` — a chip-wide VC (every
#: core an accessor) on a 16384-tile mesh would otherwise stack an
#: ``(N, N)`` float64 slab, exactly the dense build the lazy geometry
#: path exists to avoid.
_DVEC_ACCESSOR_CHUNK = 256


def _sequential_weighted_row_sum(
    dist, cores: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """``cumsum(coeffs[:, None] * dist[cores], axis=0)[-1]`` in chunks.

    ``cumsum`` is sequential addition, so seeding each chunk's reduction
    with the running vector keeps every add in the same order — bitwise
    the one-shot cumsum and the scalar ``vec += ...`` loop.
    """
    running: np.ndarray | None = None
    for lo in range(0, len(cores), _DVEC_ACCESSOR_CHUNK):
        hi = min(lo + _DVEC_ACCESSOR_CHUNK, len(cores))
        block = coeffs[lo:hi, None] * dist[cores[lo:hi]]
        if running is not None:
            block = np.vstack([running[None, :], block])
        running = np.cumsum(block, axis=0)[-1]
    return running


class DistanceTerms:
    """``D(VC, b)`` of every accessed, placed VC as ``coef * row[b]``
    over Python lists: ``terms(vc_id) -> (coef, row)``.

    Keys are fixed up front (every accessed, placed VC, in problem
    order); a VC's terms build on its first read and are cached for the
    call.  With restricted trade *initiators* (the incremental dirty set,
    a partitioned or hierarchical stitch's boundary VCs) most VCs are
    never an initiator or a swap counterparty, so their rows are never
    built.  A VC with one accessor (every thread VC) reads ``(rate /
    total, dist[core])``, the distance row a list from a per-call cache
    shared by every such VC on that core; ``coef * row[b]`` is bitwise
    the entry ``(rate / total) * dist[core]`` holds.  More accessors read
    ``(1.0, row)`` of their chunked ``cumsum`` row
    (:func:`_sequential_weighted_row_sum`) as a list, and ``1.0 * x`` is
    ``x``.  Nothing is cached on the topology: a lazy matrix is read as
    one-row stacks, which stay transient like the chunked path's blocks.
    """

    def __init__(
        self,
        topology,
        thread_cores: dict[int, int],
        eligible: dict[int, Mapping[int, float]],
    ):
        self._dist = topology.distance_matrix
        self._lazy = getattr(self._dist, "is_lazy", False)
        self._thread_cores = thread_cores
        self._eligible = eligible
        self._rows: dict[int, list] = {}
        self._terms: dict[int, tuple[float, list]] = {}

    def __iter__(self):
        return iter(self._eligible)

    def __call__(self, vc_id: int) -> tuple[float, list]:
        terms = self._terms.get(vc_id)
        if terms is None:
            terms = self._terms[vc_id] = self._compute(self._eligible[vc_id])
        return terms

    def row(self, core: int) -> list:
        """``dist[core]`` as a list, read once per call."""
        row = self._rows.get(core)
        if row is None:
            dist = self._dist
            row = dist[[core]][0] if self._lazy else dist[core]
            row = self._rows[core] = row.tolist()
        return row

    def _compute(self, accessors: Mapping[int, float]) -> tuple[float, list]:
        total_rate = ordered_sum(accessors.values())
        if len(accessors) == 1:
            ((thread_id, rate),) = accessors.items()
            return rate / total_rate, self.row(self._thread_cores[thread_id])
        cores = np.fromiter(
            (self._thread_cores[t] for t in accessors),
            dtype=np.int64,
            count=len(accessors),
        )
        coeffs = np.fromiter(
            ((rate / total_rate) for rate in accessors.values()),
            dtype=np.float64,
            count=len(accessors),
        )
        return 1.0, _sequential_weighted_row_sum(self._dist, cores, coeffs).tolist()


def access_distance_terms(
    problem: PlacementProblem,
    allocation: dict[int, dict[int, float]],
    thread_cores: dict[int, int],
) -> tuple[DistanceTerms, dict[int, float]]:
    """``(terms, rate_per_byte)`` for every accessed, placed VC.

    ``coef * row[b]`` of ``terms(vc_id)`` is the access-weighted mean
    distance from the VC's accessors to bank *b* (see
    :class:`DistanceTerms`); ``rate_per_byte`` is its access intensity.
    """
    eligible: dict[int, Mapping[int, float]] = {}
    rate_per_byte: dict[int, float] = {}
    for vc in problem.vcs:
        accessors = problem.accessor_rates(vc.vc_id)
        total_rate = ordered_sum(accessors.values())
        size = ordered_sum(allocation.get(vc.vc_id, {}).values())
        if total_rate <= 0 or size <= 0:
            continue
        eligible[vc.vc_id] = accessors
        rate_per_byte[vc.vc_id] = total_rate / size
    terms = DistanceTerms(problem.topology, thread_cores, eligible)
    return terms, rate_per_byte


def _data_extent(per_bank: dict[int, float], dist_com: list) -> int | None:
    """Distance from the spiral center to the VC's farthest data bank
    (``None`` when it holds no data): where the spiral may stop."""
    extent = None
    for bank, amount in per_bank.items():
        if amount > 1e-9 and (extent is None or dist_com[bank] > extent):
            extent = dist_com[bank]
    return extent


def greedy_placement(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    thread_cores: dict[int, int],
    counter: StepCounter | None = None,
    only_vcs: set[int] | None = None,
    preplaced: dict[int, dict[int, float]] | None = None,
) -> dict[int, dict[int, float]]:
    """Round-robin nearest-bank placement; returns vc_id -> {bank: bytes}.

    *only_vcs*/*preplaced* warm-start an incremental re-place: VCs in
    *preplaced* keep their banks (their capacity is subtracted from the
    free tally) and only *only_vcs* compete for what remains.
    """
    counter = counter if counter is not None else StepCounter()
    topo = problem.topology
    free = [float(problem.bank_bytes)] * topo.tiles
    allocation: dict[int, dict[int, float]] = {}
    for vc_id, per_bank in (preplaced or {}).items():
        allocation[vc_id] = dict(per_bank)
        for bank, amount in per_bank.items():
            free[bank] -= amount

    # Per seeded VC, in problem order: its id, the bytes it still wants
    # and its accessors' rates per core.
    vc_ids: list[int] = []
    remaining: list[float] = []
    core_weights: list[dict[int, float]] = []
    for vc in problem.vcs:
        if only_vcs is not None and vc.vc_id not in only_vcs:
            continue
        size = vc_sizes.get(vc.vc_id, 0.0)
        allocation[vc.vc_id] = {}
        if size <= 0:
            continue
        weights: dict[int, float] = {}
        for thread_id, rate in problem.accessor_rates(vc.vc_id).items():
            core = thread_cores[thread_id]
            weights[core] = weights.get(core, 0.0) + rate
        vc_ids.append(vc.vc_id)
        remaining.append(float(size))
        core_weights.append(weights)

    # A VC's data gravitates to the access-weighted 1-median of its
    # accessors' cores (a thread VC's anchor is simply its owner's core);
    # a VC nobody accesses anchors at the chip center.
    anchors = iter(weighted_center_tiles(topo, [w for w in core_weights if w]))
    orders = [
        topo.tiles_by_distance(next(anchors) if weights else topo.center_tile())
        for weights in core_weights
    ]
    ptrs = [0] * len(vc_ids)

    # Each turn a VC claims everything it still wants from its closest
    # non-full bank (not one quantum): Jigsaw's greedy is first-claimant-
    # wins at bank granularity, which is precisely why capacity contention
    # between neighboring big VCs hurts (Fig 1b) — a fairer interleaving
    # would mask the pathology CDCS exists to fix.
    active = [i for i, want in enumerate(remaining) if want > 0]
    takes = 0
    while active:
        still_active = []
        for i in active:
            # Advance past full banks; capacity checks guarantee progress.
            order, ptr = orders[i], ptrs[i]
            while ptr < len(order) and free[order[ptr]] <= 1e-9:
                ptr += 1
            ptrs[i] = ptr
            if ptr >= len(order):
                continue  # chip full: drop the tail of this VC's demand
            bank = order[ptr]
            take = min(remaining[i], free[bank])
            takes += 1
            free[bank] -= take
            remaining[i] -= take
            alloc = allocation[vc_ids[i]]
            alloc[bank] = alloc.get(bank, 0.0) + take
            if remaining[i] > 1e-9:
                still_active.append(i)
        active = still_active
    if takes:  # no take creates no key, as with one add per take
        counter.add("data_placement", takes)
    return allocation


def trade_refinement(
    problem: PlacementProblem,
    allocation: dict[int, dict[int, float]],
    thread_cores: dict[int, int],
    counter: StepCounter | None = None,
    initiators: set[int] | None = None,
    ops_budget: int | None = None,
) -> int:
    """Improve *allocation* in place via spiral trades; returns trades done.

    With *initiators*, only the named VCs start trades (the incremental
    dirty set, or a partitioned solve's boundary VCs); any VC can still be
    the counterparty of a swap — that is how displaced neighbors move.

    With *ops_budget*, the pass is anytime: initiators refine
    hottest-first (the existing order), and no new initiator starts a
    scan once the ops counted by this pass reach the budget.  The pass
    can overrun by at most the final initiator's scan — cutting off
    mid-scan would leave that VC's spiral half-applied for no modeled
    saving.  Budgets are how the partitioned/hierarchical stitch fits a
    fixed reconfiguration-interval slice at 4096+ tiles; passes that stay
    under the budget are bitwise unaffected by it.
    """
    counter = counter if counter is not None else StepCounter()
    ops_at_entry = sum(counter.ops.values())
    topo = problem.topology
    dist = topo.distance_matrix
    bank_bytes = float(problem.bank_bytes)

    # Access-weighted distances D(VC, b) of every accessed VC, as terms.
    terms, rate_per_byte = access_distance_terms(problem, allocation, thread_cores)

    used = [0.0] * topo.tiles
    holders: list[set[int]] = [set() for _ in range(topo.tiles)]
    for vc_id, per_bank in allocation.items():
        for bank, amount in per_bank.items():
            used[bank] += amount
            if amount > 1e-9:
                holders[bank].add(vc_id)

    trades = 0
    # Hot VCs (most accesses per byte) refine first: their data is the most
    # latency-sensitive and other VCs' data is cheap to displace.  The key
    # is a total order, so sorting just the initiators is the full order
    # filtered to them.
    order = sorted(
        (v for v in terms if initiators is None or v in initiators),
        key=lambda v: (-rate_per_byte[v], v),
    )
    for vc1 in order:
        if (ops_budget is not None
                and sum(counter.ops.values()) - ops_at_entry >= ops_budget):
            break
        per_bank1 = allocation[vc1]
        if not per_bank1:
            continue
        if len(per_bank1) == 1 and 0 < next(iter(per_bank1.values())) < math.inf:
            # One bank of finite, positive amount: above 1e-9 it is its
            # data's 1-median, so the spiral covers only that bank, never
            # its own target; at or below, the VC holds no data to move.
            # Either way the scan counts no op and moves nothing.
            continue
        com = weighted_center_tile(topo, per_bank1)
        dist_com = dist[com].tolist()
        coef1, row1 = terms(vc1)
        rate1 = rate_per_byte[vc1]
        # Only this VC's own trades move its data, so its extent changes
        # only after one of them (re-measured below, not every step).
        max_dist = _data_extent(per_bank1, dist_com)
        desirable: list[int] = []
        # This scan's data_placement ops, added to the counter once it
        # ends (before the next budget check reads the totals).
        ops = 0
        for bank in topo.tiles_by_distance(com):
            if max_dist is None:
                break
            if dist_com[bank] > max_dist:
                break  # spiral end: all of this VC's data has been seen
            here = per_bank1.get(bank, 0.0)
            if here < bank_bytes - 1e-9:
                desirable.append(bank)
            if here <= 1e-9:
                continue
            trades_before = trades
            d1_bank = coef1 * row1[bank]
            for target in desirable:
                if target == bank:
                    continue
                ops += 1
                gain1 = coef1 * row1[target] - d1_bank  # negative: closer
                if gain1 >= -1e-12:
                    continue
                # First use free capacity: a move with no counterparty.
                free_room = bank_bytes - used[target]
                if free_room > 1e-9:
                    amount = min(free_room, per_bank1.get(bank, 0.0))
                    left = per_bank1[bank] - amount
                    per_bank1[bank] = left
                    if left <= 1e-9:
                        del per_bank1[bank]
                        holders[bank].discard(vc1)
                    per_bank1[target] = per_bank1.get(target, 0.0) + amount
                    holders[target].add(vc1)
                    used[target] += amount
                    used[bank] -= amount
                    trades += 1
                    if per_bank1.get(bank, 0.0) <= 1e-9:
                        break
                # Then offer swaps to VCs holding capacity in the target.
                delta1 = rate1 * gain1
                for vc2 in list(holders[target]):
                    if vc2 == vc1:
                        continue
                    ops += 1
                    # Unaccessed VCs trade for free (no latency stake).
                    delta2 = 0.0
                    rate2 = rate_per_byte.get(vc2)
                    if rate2 is not None:
                        coef2, row2 = terms(vc2)
                        delta2 = rate2 * (coef2 * row2[bank] - coef2 * row2[target])
                    if delta1 + delta2 >= -1e-12:
                        continue
                    per_bank2 = allocation[vc2]
                    amount = min(per_bank1.get(bank, 0.0), per_bank2.get(target, 0.0))
                    if amount <= 1e-9:
                        continue
                    # vc1 moves *amount* from bank to target, vc2 back.
                    left = per_bank1[bank] - amount
                    per_bank1[bank] = left
                    if left <= 1e-9:
                        del per_bank1[bank]
                        holders[bank].discard(vc1)
                    per_bank1[target] = per_bank1.get(target, 0.0) + amount
                    holders[target].add(vc1)
                    left = per_bank2[target] - amount
                    per_bank2[target] = left
                    if left <= 1e-9:
                        del per_bank2[target]
                        holders[target].discard(vc2)
                    per_bank2[bank] = per_bank2.get(bank, 0.0) + amount
                    holders[bank].add(vc2)
                    trades += 1
                    if per_bank1.get(bank, 0.0) <= 1e-9:
                        break
                if per_bank1.get(bank, 0.0) <= 1e-9:
                    break
            if trades != trades_before:
                max_dist = _data_extent(per_bank1, dist_com)
        if ops:
            counter.add("data_placement", ops)
    return trades


def refined_placement(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    thread_cores: dict[int, int],
    counter: StepCounter | None = None,
    trades: bool = True,
    only_vcs: set[int] | None = None,
    preplaced: dict[int, dict[int, float]] | None = None,
) -> dict[int, dict[int, float]]:
    """Greedy seed + (optionally) one round of trades — the full Sec IV-F.

    With *only_vcs*/*preplaced* this is the incremental step 4: the named
    VCs are greedily seeded into the capacity left free by the preplaced
    ones, and only they initiate trades afterwards.
    """
    counter = counter if counter is not None else StepCounter()
    allocation = greedy_placement(
        problem, vc_sizes, thread_cores, counter,
        only_vcs=only_vcs, preplaced=preplaced,
    )
    if trades:
        trade_refinement(
            problem, allocation, thread_cores, counter, initiators=only_vcs
        )
    return allocation
