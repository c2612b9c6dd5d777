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
All trade valuation runs against per-VC arrays (``N = topology.tiles``):

* ``dvec[vc_id]`` — ``(N,) float64``; access-weighted mean hops from the
  VC's accessors to every bank (``D(VC, b)``, Sec IV-F).  A VC with one
  accessor (every thread VC) gets the single product ``(rate / total) *
  dist[core]``; more accessors build an ``(accessors, N)`` row stack of
  those products reduced with ``np.cumsum`` along the accessor axis.
  Either way each entry matches the scalar accumulation loop bitwise (a
  one-row cumsum is its row, and the loop adds it to zeros), so trade
  accept/reject decisions are identical between paths;
* ``used`` — ``(N,) float64`` bytes occupied per bank;
* the greedy seed's anchors are the 1-medians of every seeded VC at once,
  ``(B, N)`` cost blocks from
  :func:`repro.geometry.placement_math.weighted_center_tiles`; each trade
  initiator's spiral center is one
  :func:`~repro.geometry.placement_math.weighted_center_tile`.

The trade scan itself (spiral walk, swap bookkeeping) stays sequential:
its decisions feed back into the very capacities it iterates over.  It
reads the initiator's ``dist[com]`` row and ``dvec`` as Python lists
(one conversion per initiator, not a NumPy scalar per lookup),
recomputes the initiator's data extent only after a trade moved its
data, and counts its ops in a local that reaches the counter once per
initiator.  An initiator that holds one bank skips its scan: that bank
is its data's 1-median, so the spiral would visit only the bank, which
is never its own target, and count no op (most thread VCs of a fig11
mix are such initiators).  Likewise the greedy seed anchors a VC whose
accessors share one core at that core without a cost row.
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


class DistanceVectors:
    """Lazily materialized ``dvec`` mapping: vc_id -> ``(N,) float64``.

    Keys are fixed up front (every accessed, placed VC, in problem
    order); each vector builds on first read and is then cached.  With
    restricted trade *initiators* (the incremental dirty set, a
    partitioned/hierarchical stitch's boundary VCs) most VCs are never an
    initiator or a swap counterparty, so their vectors — the dominant
    allocation of a chip-level refinement at scale — are never built.
    Values are bitwise what the eager build produced, so trade decisions
    are unchanged.
    """

    def __init__(
        self,
        topology,
        thread_cores: dict[int, int],
        eligible: dict[int, Mapping[int, float]],
    ):
        self._topology = topology
        self._thread_cores = thread_cores
        self._eligible = eligible
        self._vecs: dict[int, np.ndarray] = {}

    def __iter__(self):
        return iter(self._eligible)

    def __len__(self) -> int:
        return len(self._eligible)

    def __contains__(self, vc_id) -> bool:
        return vc_id in self._eligible

    def __getitem__(self, vc_id: int) -> np.ndarray:
        vec = self.get(vc_id)
        if vec is None:
            raise KeyError(vc_id)
        return vec

    def get(self, vc_id: int, default=None):
        # One frame per lookup: a swap-counterparty probe is the
        # refinement's most frequent call.
        vec = self._vecs.get(vc_id)
        if vec is None:
            accessors = self._eligible.get(vc_id)
            if accessors is None:
                return default
            vec = self._vecs[vc_id] = self._compute(accessors)
        return vec

    def _compute(self, accessors: Mapping[int, float]) -> np.ndarray:
        total_rate = sum(accessors.values())
        dist = self._topology.distance_matrix
        if len(accessors) == 1:
            # One term: a one-row cumsum is its row, and adding it to
            # zeros gives it back, so this product is the chunked sum's
            # value (a new array, never a view of the shared geometry).  A lazy matrix
            # is read as a one-row stack, which stays transient like the
            # chunked path's blocks.
            ((thread_id, rate),) = accessors.items()
            core = self._thread_cores[thread_id]
            row = dist[[core]][0] if getattr(dist, "is_lazy", False) else dist[core]
            return (rate / total_rate) * row
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
        return _sequential_weighted_row_sum(dist, cores, coeffs)


def access_distance_vectors(
    problem: PlacementProblem,
    allocation: dict[int, dict[int, float]],
    thread_cores: dict[int, int],
) -> tuple[DistanceVectors, dict[int, float]]:
    """``(dvec, rate_per_byte)`` for every accessed, placed VC.

    ``dvec[vc_id][b]`` is the access-weighted mean distance from the VC's
    accessors to bank *b*; ``rate_per_byte`` is its access intensity.
    Vectors build as one ``(rate / total) * dist[core]`` row per accessor
    reduced with sequential ``cumsum`` adds — bitwise the scalar
    ``vec += ...`` loop — and only when a VC's vector is actually read
    (see :class:`DistanceVectors`).
    """
    eligible: dict[int, Mapping[int, float]] = {}
    rate_per_byte: dict[int, float] = {}
    for vc in problem.vcs:
        accessors = problem.accessor_rates(vc.vc_id)
        total_rate = sum(accessors.values())
        size = sum(allocation.get(vc.vc_id, {}).values())
        if total_rate <= 0 or size <= 0:
            continue
        eligible[vc.vc_id] = accessors
        rate_per_byte[vc.vc_id] = total_rate / size
    dvec = DistanceVectors(problem.topology, thread_cores, eligible)
    return dvec, rate_per_byte


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
    free = np.full(topo.tiles, float(problem.bank_bytes))
    allocation: dict[int, dict[int, float]] = {}
    for vc_id, per_bank in (preplaced or {}).items():
        allocation[vc_id] = dict(per_bank)
        for bank, amount in per_bank.items():
            free[bank] -= amount
    free = free.tolist()  # the same doubles, read without NumPy scalars

    states = []
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
        core_weights.append(weights)
        states.append({"vc_id": vc.vc_id, "ptr": 0, "remaining": float(size)})

    # A VC's data gravitates to the access-weighted 1-median of its
    # accessors' cores (a thread VC's anchor is simply its owner's core);
    # a VC nobody accesses anchors at the chip center.
    anchors = iter(weighted_center_tiles(topo, [w for w in core_weights if w]))
    for state, weights in zip(states, core_weights):
        anchor = next(anchors) if weights else topo.center_tile()
        state["order"] = topo.tiles_by_distance(anchor)

    # Each turn a VC claims everything it still wants from its closest
    # non-full bank (not one quantum): Jigsaw's greedy is first-claimant-
    # wins at bank granularity, which is precisely why capacity contention
    # between neighboring big VCs hurts (Fig 1b) — a fairer interleaving
    # would mask the pathology CDCS exists to fix.
    active = [s for s in states if s["remaining"] > 0]
    takes = 0
    while active:
        still_active = []
        for state in active:
            # Advance past full banks; capacity checks guarantee progress.
            while state["ptr"] < len(state["order"]) and free[
                state["order"][state["ptr"]]
            ] <= 1e-9:
                state["ptr"] += 1
            if state["ptr"] >= len(state["order"]):
                continue  # chip full: drop the tail of this VC's demand
            bank = state["order"][state["ptr"]]
            take = min(state["remaining"], free[bank])
            takes += 1
            free[bank] -= take
            state["remaining"] -= take
            alloc = allocation[state["vc_id"]]
            alloc[bank] = alloc.get(bank, 0.0) + take
            if state["remaining"] > 1e-9:
                still_active.append(state)
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

    # Access-weighted distance vector D(VC, b) for every accessed VC.
    dvec, rate_per_byte = access_distance_vectors(
        problem, allocation, thread_cores
    )

    used = np.zeros(topo.tiles, dtype=np.float64)
    holders: dict[int, set[int]] = {b: set() for b in range(topo.tiles)}
    for vc_id, per_bank in allocation.items():
        for bank, amount in per_bank.items():
            used[bank] += amount
            if amount > 1e-9:
                holders[bank].add(vc_id)

    def move(vc_id: int, src: int, dst: int, amount: float) -> None:
        per_bank = allocation[vc_id]
        per_bank[src] -= amount
        if per_bank[src] <= 1e-9:
            del per_bank[src]
            holders[src].discard(vc_id)
        per_bank[dst] = per_bank.get(dst, 0.0) + amount
        holders[dst].add(vc_id)

    trades = 0
    # Hot VCs (most accesses per byte) refine first: their data is the most
    # latency-sensitive and other VCs' data is cheap to displace.  The key
    # is a total order, so sorting just the initiators is the full order
    # filtered to them.
    order = sorted(
        (v for v in dvec if initiators is None or v in initiators),
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
        d1 = dvec[vc1].tolist()
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
            if per_bank1.get(bank, 0.0) < bank_bytes - 1e-9:
                desirable.append(bank)
            here = per_bank1.get(bank, 0.0)
            if here <= 1e-9:
                continue
            trades_before = trades
            for target in desirable:
                if target == bank:
                    continue
                ops += 1
                gain1 = d1[target] - d1[bank]  # negative: target is closer
                if gain1 >= -1e-12:
                    continue
                # First use free capacity: a move with no counterparty.
                free_room = bank_bytes - used[target]
                if free_room > 1e-9:
                    amount = min(free_room, per_bank1.get(bank, 0.0))
                    move(vc1, bank, target, amount)
                    used[target] += amount
                    used[bank] -= amount
                    trades += 1
                    if per_bank1.get(bank, 0.0) <= 1e-9:
                        break
                # Then offer swaps to VCs holding capacity in the target.
                for vc2 in list(holders[target]):
                    if vc2 == vc1:
                        continue
                    ops += 1
                    d2 = dvec.get(vc2)
                    # Unaccessed VCs trade for free (no latency stake).
                    delta2 = 0.0
                    if d2 is not None:
                        delta2 = rate_per_byte[vc2] * (d2[bank] - d2[target])
                    delta1 = rate_per_byte[vc1] * gain1
                    if delta1 + delta2 >= -1e-12:
                        continue
                    amount = min(
                        per_bank1.get(bank, 0.0),
                        allocation[vc2].get(target, 0.0),
                    )
                    if amount <= 1e-9:
                        continue
                    move(vc1, bank, target, amount)
                    move(vc2, target, bank, amount)
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
