"""Scalar oracles of the vectorized kernels, and a switch that runs the
pipeline on them.

Each kernel in ``src/`` has one implementation; the loop-at-a-time code
it replaced lives here, as the oracle the ``==`` suites and the
``make bench-kernels`` floors compare it against.  Every float sum is a
left-to-right loop (:func:`ordered_sum`), so an oracle means the same on
every Python: from 3.12 on, ``sum()`` compensates float additions.
:func:`scalar_reference` patches the oracles into the modules that call
the kernels, in this process only, and counts the calls each takes.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.geometry.placement_math import (
    center_of_mass,
    weighted_center_tile,
    weighted_center_tiles,
)
from repro.sched.cost_model import (
    latency_curve,
    miss_only_curve,
    round_trip_cycles_per_hop,
    vc_access_rates,
)
from repro.sched.opcount import StepCounter
from repro.sched.vc_placement import (
    OptimisticPlacement,
    _initial_claimed,
    _placement_order,
)

#: Relative tolerance at which a golden's floats must agree with a run on
#: another host; discrete decisions must be identical, and on one host
#: the oracles agree bitwise.
EQUIV_RTOL = 1e-9


def ordered_sum(values) -> float:
    """Left-to-right sum from ``0.0``: what ``sum()`` computes up to
    Python 3.11, on any interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


# -- cost model and allocation curves ------------------------------------------


def off_chip_latency(problem, solution) -> float:
    """Eq 1: one miss-curve probe per VC."""
    total = 0.0
    for vc, rate in zip(problem.vcs, vc_access_rates(problem)):
        if rate > 0:
            size = solution.vc_sizes.get(vc.vc_id, 0.0)
            miss_fraction = min(float(vc.miss_curve(size)), rate) / rate
            total += rate * miss_fraction * problem.mem_latency
    return total


def on_chip_latency(problem, solution) -> float:
    """Eq 2: Python loops over (VC, thread, bank)."""
    per_hop = round_trip_cycles_per_hop(problem)
    dist = problem.topology.distance_matrix
    total = 0.0
    for vc in problem.vcs:
        per_bank = solution.vc_allocation.get(vc.vc_id, {})
        size = ordered_sum(per_bank.values())
        if size <= 0:
            continue
        for thread_id, rate in problem.accessors_of(vc.vc_id).items():
            core = solution.thread_cores[thread_id]
            for bank, cap in per_bank.items():
                total += rate * (cap / size) * dist[core, bank] * per_hop
    return total


def latency_curves_batch(problem, rates=None, vc_indices=None) -> np.ndarray:
    """One ``latency_curve`` row per VC."""
    rates = vc_access_rates(problem) if rates is None else rates
    indices = range(len(problem.vcs)) if vc_indices is None else vc_indices
    return np.array([
        latency_curve(problem, problem.vcs[i].miss_curve, rates[i])
        for i in indices
    ])


def miss_only_curves_batch(problem, rates=None) -> np.ndarray:
    """One ``miss_only_curve`` row per VC."""
    rates = vc_access_rates(problem) if rates is None else rates
    return np.array([
        miss_only_curve(problem, vc.miss_curve, rate)
        for vc, rate in zip(problem.vcs, rates)
    ])


# -- placement: Sec IV-D windows, thread distances, distance vectors -----------


def compact_placement(topology, center: int, size_banks: float) -> dict[int, float]:
    """``{tile: fraction}`` of *size_banks* filled outward from *center*
    (Fig 6); the last bank may get a fraction."""
    if size_banks < 0:
        raise ValueError(f"size must be non-negative, got {size_banks}")
    remaining = min(float(size_banks), float(topology.tiles))
    placement: dict[int, float] = {}
    for tile in topology.tiles_by_distance(center):
        if remaining <= 1e-12:
            break
        placement[tile] = min(1.0, remaining)
        remaining -= placement[tile]
    return placement


def placement_mean_distance(topology, origin: int, placement) -> float:
    """Capacity-weighted mean distance from *origin* to a placement."""
    total = ordered_sum(placement.values())
    if total <= 0:
        return 0.0
    return ordered_sum(
        frac * topology.distance(origin, tile) for tile, frac in placement.items()
    ) / total


def window_contention(claimed, window) -> float:
    """Claimed capacity under a window, weighted by its coverage (Fig 7b)."""
    return ordered_sum(frac * claimed[tile] for tile, frac in window.items())


def place_optimistic(
    problem, vc_sizes, counter=None, vc_ids=None, claimed_init=None
) -> OptimisticPlacement:
    """Sec IV-D: one compact window built and scored per candidate."""
    counter = counter if counter is not None else StepCounter()
    topo = problem.topology
    claimed = _initial_claimed(topo, claimed_init)
    placed = OptimisticPlacement({}, {}, {}, claimed)
    for vc in _placement_order(problem, vc_sizes, vc_ids):
        size_banks = vc_sizes[vc.vc_id] / problem.bank_bytes
        best_bank, best_key = -1, None
        for candidate in range(topo.tiles):
            window = compact_placement(topo, candidate, size_banks)
            counter.add("vc_placement", len(window))
            # Python's round of a float: round() of an np.float64 is
            # NumPy's scale-and-rint, not correctly rounded, and can fall
            # on the other side of a 9th-decimal half-way point.
            key = (
                round(float(window_contention(claimed, window)), 9),
                placement_mean_distance(topo, candidate, window),
            )
            if best_key is None or key < best_key:
                best_bank, best_key = candidate, key
        window = compact_placement(topo, best_bank, size_banks)
        for t, frac in window.items():
            claimed[t] += frac
        placed.footprints[vc.vc_id] = {
            t: frac * problem.bank_bytes for t, frac in window.items()
        }
        placed.centers[vc.vc_id] = best_bank
        placed.centroids[vc.vc_id] = center_of_mass(topo, window)
    return placed


def point_distances(topology, point) -> np.ndarray:
    """Squared Euclidean distance from every tile to *point*, core by
    core.  Each square is a product, as NumPy squares: ``x ** 2`` on a
    float is C ``pow``, which can differ from ``x * x`` in the last bit."""
    return np.array([
        ordered_sum((c - p) * (c - p) for c, p in zip(topology.coords(core), point))
        for core in range(topology.tiles)
    ])


def squared_point_distances(topology, points) -> np.ndarray:
    """``(P, tiles)``: the per-point rows of *points*, stacked."""
    rows = [point_distances(topology, point) for point in points]
    return np.array(rows).reshape(len(rows), topology.tiles)


def place_threads(
    problem, vc_sizes, optimistic, counter=None, only_threads=None,
    taken_cores=None,
) -> dict[int, int]:
    """Sec IV-E: each thread's distance row built when its turn comes, by
    one call of thread placement's own ``squared_point_distances`` (the
    per-point oracle inside :func:`scalar_reference`), then the scan."""
    counter = counter if counter is not None else StepCounter()
    rows = importlib.import_module(
        "repro.sched.thread_placement"
    ).squared_point_distances
    topo = problem.topology
    chip_center = topo.coords(topo.center_tile())

    def ideal_point(thread) -> tuple[float, ...]:
        weight = 0.0
        acc = [0.0] * len(chip_center)
        for vc_id, rate in thread.vc_accesses.items():
            centroid = optimistic.centroids.get(vc_id)
            if centroid is None or rate <= 0:
                continue
            for i, c in enumerate(centroid):
                acc[i] += rate * c
            weight += rate
        if weight <= 0:
            return chip_center
        return tuple(a / weight for a in acc)

    def priority(thread) -> float:
        return ordered_sum(
            rate * vc_sizes.get(vc_id, 0.0)
            for vc_id, rate in thread.vc_accesses.items()
        )

    order = sorted(
        (
            t
            for t in problem.threads
            if only_threads is None or t.thread_id in only_threads
        ),
        key=lambda t: (-priority(t), t.thread_id),
    )
    if taken_cores:
        free = {c for c in range(topo.tiles) if c not in taken_cores}
    else:
        free = set(range(topo.tiles))
    assignment: dict[int, int] = {}
    for thread in order:
        distances = rows(topo, [ideal_point(thread)])[0].tolist()
        best_core = -1
        best_dist = float("inf")
        counter.add("thread_placement", len(free))
        for core in free:
            dist = distances[core]
            if dist < best_dist - 1e-12 or (
                abs(dist - best_dist) <= 1e-12 and core < best_core
            ):
                best_dist = dist
                best_core = core
        free.remove(best_core)
        assignment[thread.thread_id] = best_core
    return assignment


def sequential_weighted_row_sum(dist, cores, coeffs) -> np.ndarray:
    """``sum_i coeffs[i] * dist[cores[i]]`` as the ``vec +=`` loop."""
    vec = np.zeros(dist.shape[1], dtype=np.float64)
    for core, coeff in zip(cores.tolist(), coeffs.tolist()):
        vec += coeff * dist[core]
    return vec


# -- placement: Sec IV-F greedy seeding and trades -----------------------------


def greedy_placement(
    problem, vc_sizes, thread_cores, counter=None, only_vcs=None, preplaced=None,
) -> dict[int, dict[int, float]]:
    """Round-robin nearest-bank seeding over a NumPy ``free`` tally and
    per-VC state dicts."""
    counter = counter if counter is not None else StepCounter()
    topo = problem.topology
    free = np.full(topo.tiles, float(problem.bank_bytes))
    allocation: dict[int, dict[int, float]] = {}
    for vc_id, per_bank in (preplaced or {}).items():
        allocation[vc_id] = dict(per_bank)
        for bank, amount in per_bank.items():
            free[bank] -= amount
    free = free.tolist()

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

    anchors = iter(weighted_center_tiles(topo, [w for w in core_weights if w]))
    for state, weights in zip(states, core_weights):
        anchor = next(anchors) if weights else topo.center_tile()
        state["order"] = topo.tiles_by_distance(anchor)

    active = [s for s in states if s["remaining"] > 0]
    takes = 0
    while active:
        still_active = []
        for state in active:
            while state["ptr"] < len(state["order"]) and free[
                state["order"][state["ptr"]]
            ] <= 1e-9:
                state["ptr"] += 1
            if state["ptr"] >= len(state["order"]):
                continue
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
    if takes:
        counter.add("data_placement", takes)
    return allocation


class DistanceVectors:
    """vc_id -> ``(N,)`` distance row D(VC, b) of each accessed, placed
    VC, built on first read: ``(rate / total) * dist[core]`` for one
    accessor, else refinement's own ``_sequential_weighted_row_sum`` (the
    ``vec +=`` loop inside :func:`scalar_reference`)."""

    def __init__(self, topology, thread_cores, eligible):
        self._dist = topology.distance_matrix
        self._thread_cores = thread_cores
        self._eligible = eligible
        self._vecs: dict[int, np.ndarray] = {}

    def __iter__(self):
        return iter(self._eligible)

    def get(self, vc_id: int):
        vec = self._vecs.get(vc_id)
        if vec is None:
            accessors = self._eligible.get(vc_id)
            if accessors is None:
                return None
            total_rate = ordered_sum(accessors.values())
            cores = np.array([self._thread_cores[t] for t in accessors])
            coeffs = np.array([rate / total_rate for rate in accessors.values()])
            if len(accessors) == 1:
                vec = coeffs[0] * self._dist[[int(cores[0])]][0]
            else:
                vec = importlib.import_module(
                    "repro.sched.refinement"
                )._sequential_weighted_row_sum(self._dist, cores, coeffs)
            self._vecs[vc_id] = vec
        return vec

    __getitem__ = get


def access_distance_vectors(problem, allocation, thread_cores):
    """``(dvec, rate_per_byte)`` for every accessed, placed VC."""
    eligible, rate_per_byte = {}, {}
    for vc in problem.vcs:
        accessors = problem.accessor_rates(vc.vc_id)
        total_rate = ordered_sum(accessors.values())
        size = ordered_sum(allocation.get(vc.vc_id, {}).values())
        if total_rate <= 0 or size <= 0:
            continue
        eligible[vc.vc_id] = accessors
        rate_per_byte[vc.vc_id] = total_rate / size
    return DistanceVectors(problem.topology, thread_cores, eligible), rate_per_byte


def _data_extent(per_bank, dist_com):
    extent = None
    for bank, amount in per_bank.items():
        if amount > 1e-9 and (extent is None or dist_com[bank] > extent):
            extent = dist_com[bank]
    return extent


def trade_refinement(
    problem, allocation, thread_cores, counter=None, initiators=None,
    ops_budget=None,
) -> int:
    """Sec IV-F trades over a NumPy ``used`` tally, ``holders`` keyed by
    bank and each VC's ``(N,)`` distance row.  Free room is read as a
    Python float, so every amount a move gives is one (read as an
    ``np.float64`` it would type the amounts it sets)."""
    counter = counter if counter is not None else StepCounter()
    ops_at_entry = sum(counter.ops.values())
    topo = problem.topology
    dist = topo.distance_matrix
    bank_bytes = float(problem.bank_bytes)
    dvec, rate_per_byte = access_distance_vectors(problem, allocation, thread_cores)
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
            continue
        com = weighted_center_tile(topo, per_bank1)
        dist_com = dist[com].tolist()
        d1 = dvec[vc1].tolist()
        max_dist = _data_extent(per_bank1, dist_com)
        desirable: list[int] = []
        ops = 0
        for bank in topo.tiles_by_distance(com):
            if max_dist is None:
                break
            if dist_com[bank] > max_dist:
                break
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
                gain1 = d1[target] - d1[bank]
                if gain1 >= -1e-12:
                    continue
                free_room = bank_bytes - float(used[target])
                if free_room > 1e-9:
                    amount = min(free_room, per_bank1.get(bank, 0.0))
                    move(vc1, bank, target, amount)
                    used[target] += amount
                    used[bank] -= amount
                    trades += 1
                    if per_bank1.get(bank, 0.0) <= 1e-9:
                        break
                for vc2 in list(holders[target]):
                    if vc2 == vc1:
                        continue
                    ops += 1
                    d2 = dvec.get(vc2)
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


# -- the LRU-sharing fixed point -----------------------------------------------


def _occupancy_at_pressure(miss_fn, pressure: float, capacity: float) -> float:
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


def shared_cache_occupancies(miss_fns, capacity: float) -> list[float]:
    """Steady-state occupancy of each stream in one shared LRU cache."""
    if capacity <= 0:
        return [0.0] * len(miss_fns)

    def occupancies(pressure: float) -> list[float]:
        return [_occupancy_at_pressure(fn, pressure, capacity) for fn in miss_fns]

    unconstrained = occupancies(0.0)
    if ordered_sum(unconstrained) <= capacity:
        return unconstrained
    lo, hi = 1e-12, 1.0
    while ordered_sum(occupancies(hi)) > capacity:
        hi *= 4.0
        if hi > 1e12:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ordered_sum(occupancies(mid)) > capacity:
            lo = mid
        else:
            hi = mid
    occ = occupancies(0.5 * (lo + hi))
    total = ordered_sum(occ)
    if total > capacity and total > 0:
        occ = [o * (capacity / total) for o in occ]
    return occ


def plan_per_cache(plan) -> list[float]:
    """One sharing plan solved cache by cache, its slice transforms
    (R-NUCA's ``1/N`` slices) as closures."""
    n = len(plan.curves)
    scale = plan.arg_scale or (1.0,) * n
    divisor = plan.value_divisor or (1.0,) * n
    fns = [
        c.__call__ if s == d == 1.0
        else (lambda occ, c=c, s=s, d=d: float(c(occ * s)) / d)
        for c, s, d in zip(plan.curves, scale, divisor)
    ]
    out = [0.0] * n
    for group, capacity in zip(plan.groups, plan.capacities):
        occ = shared_cache_occupancies([fns[i] for i in group], capacity)
        for i, o in zip(group, occ):
            out[i] = o
    return out


def solve_sharing_plans(plans) -> list[np.ndarray]:
    """Every plan solved on its own, cache by cache."""
    return [np.array(plan_per_cache(plan), dtype=np.float64) for plan in plans]


# -- the switch ----------------------------------------------------------------

#: Every patch: each module and the kernels it calls, by the names it
#: calls them (an oracle has the kernel's name, less a leading ``_``).
#: S-NUCA and R-NUCA reach the sharing solve through ``repro.nuca.base``,
#: alone or merged (``run_schemes``, which a sweep's mega-batch and the
#: evaluation call).  No sweep calls Eq 1 or Eq 2; ``total_latency`` does.
PATCHES = {
    "repro.sched.allocation": ("latency_curves_batch", "miss_only_curves_batch"),
    "repro.sched.reconfigure": ("place_optimistic", "place_threads"),
    "repro.sched.thread_placement": ("squared_point_distances",),
    "repro.sched.refinement": (
        "_sequential_weighted_row_sum", "greedy_placement", "trade_refinement",
    ),
    "repro.nuca.base": ("solve_sharing_plans",),
    "repro.sched.cost_model": ("off_chip_latency", "on_chip_latency"),
}


@contextmanager
def empty_row_memo() -> Iterator[None]:
    """An empty allocation row memo stands in for the process's during
    the block, so the block builds every row it reads and none of its
    rows outlives it."""
    allocation = importlib.import_module("repro.sched.allocation")
    saved = allocation._ROW_MEMO
    allocation._ROW_MEMO = allocation.RowMemo()
    try:
        yield
    finally:
        allocation._ROW_MEMO = saved


@contextmanager
def scalar_reference() -> Iterator[Counter]:
    """Run every kernel call inside the block on its oracle, under an
    :func:`empty_row_memo`; yields the calls each patch target took,
    keyed ``"module.name"``.  A runner's worker processes keep the
    kernels."""
    calls: Counter = Counter()
    saved = []

    def counted(key, oracle):
        def call(*args, **kwargs):
            calls[key] += 1
            return oracle(*args, **kwargs)

        return call

    for module_name, names in PATCHES.items():
        module = importlib.import_module(module_name)
        for name in names:
            saved.append((module, name, getattr(module, name)))
            oracle = globals()[name.lstrip("_")]
            setattr(module, name, counted(f"{module_name}.{name}", oracle))
    try:
        with empty_row_memo():
            yield calls
    finally:
        for module, name, kernel in saved:
            setattr(module, name, kernel)


# -- service: the delta patch as one scan ---------------------------------------


def resolve_delta_scan(base, delta):
    """The problem ``CoSchedService._resolve_delta`` patches from *base*
    and an anchored, non-stationary *delta*, as one scan of every VC and
    thread (the anchor checks left out)."""
    from dataclasses import replace

    from repro.sched.problem import PlacementProblem
    from repro.vcache.virtual_cache import VirtualCache

    vcs = []
    for vc in base.vcs:
        curve = delta.dirty_curves.get(vc.vc_id)
        rates = delta.dirty_rates.get(vc.vc_id)
        if curve is None and rates is None:
            vcs.append(vc)
            continue
        vcs.append(VirtualCache(
            vc_id=vc.vc_id,
            kind=vc.kind,
            process_id=vc.process_id,
            miss_curve=curve if curve is not None else vc.miss_curve,
            accesses=dict(rates) if rates is not None else dict(vc.accesses),
            allocation=dict(vc.allocation),
            owner_thread=vc.owner_thread,
        ))
    threads = base.threads
    if delta.dirty_rates or delta.dirty_clusters:
        dirty_ids = sorted(delta.dirty_rates)
        threads = []
        for thread in base.threads:
            # A key changes only where a map names the thread: the
            # delta's, or the base's accessor map (a positive rate).
            accesses = {}
            for vc_id, rate in thread.vc_accesses.items():
                rates = delta.dirty_rates.get(vc_id)
                if rates is not None and (rate > 0 or thread.thread_id in rates):
                    rate = rates.get(thread.thread_id, 0.0)
                    if rate <= 0:
                        continue
                accesses[vc_id] = rate
            for vc_id in dirty_ids:
                if vc_id in thread.vc_accesses:
                    continue
                rate = delta.dirty_rates[vc_id].get(thread.thread_id, 0.0)
                if rate > 0:
                    accesses[vc_id] = rate
            cluster_key = delta.dirty_clusters.get(
                thread.thread_id, thread.cluster_key
            )
            if accesses == thread.vc_accesses and cluster_key == thread.cluster_key:
                threads.append(thread)
            else:
                threads.append(replace(
                    thread, vc_accesses=accesses, cluster_key=cluster_key
                ))
    return PlacementProblem(
        config=base.config,
        topology=base.topology,
        vcs=vcs,
        threads=list(threads),
        mem_latency=base.mem_latency,
    )
