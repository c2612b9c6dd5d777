"""The periodic reconfiguration pipeline (Fig 4).

``reconfigure(problem, policy)`` runs the four steps of Sec IV-B:

1. latency-aware capacity allocation          (Sec IV-C)
2. optimistic contention-aware VC placement   (Sec IV-D)
3. thread placement                           (Sec IV-E)
4. refined VC placement (greedy + trades)     (Sec IV-F)

The steps are written once, for this and for
:func:`reconfigure_schemes`, which solves several schemes of one problem
in one call and runs what depends on the allocator alone once.  Every
strategy of :mod:`repro.sched.engine` solves through ``reconfigure``:
cold, or warm-started with a *pinned* part of the previous solution that
keeps its place while the rest is solved around it (the periodic runtime
of Sec IV-G).  A policy that does not place threads never reads the
optimistic placement, so its solve only counts that step's ops.

:class:`ReconfigPolicy` toggles each CDCS ingredient independently, which
is exactly the factor analysis of Fig 12: Jigsaw+R is all toggles off with
random external thread placement; +L enables latency-aware allocation; +T
enables thread placement; +D enables trade refinement; +LTD is CDCS.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.cache.sketch import problem_sketch_bank
from repro.geometry.placement_math import center_of_mass
from repro.sched.allocation import allocate_latency_aware, allocate_miss_driven
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem, PlacementSolution
from repro.sched.refinement import refined_placement
from repro.sched.thread_placement import place_threads
from repro.sched.vc_placement import (
    OptimisticPlacement,
    count_optimistic_ops,
    place_optimistic,
)


@dataclass(frozen=True)
class ReconfigPolicy:
    """Which CDCS ingredients are active."""

    latency_aware_allocation: bool = True
    place_threads: bool = True
    trade_refinement: bool = True

    @staticmethod
    def cdcs() -> "ReconfigPolicy":
        return ReconfigPolicy(True, True, True)

    @staticmethod
    def jigsaw() -> "ReconfigPolicy":
        """Jigsaw's runtime: miss-driven sizing, external thread placement,
        greedy-only data placement (Sec IV: "Jigsaw uses a simple runtime
        that sizes VCs obliviously to their latency, places them greedily,
        and does not place threads")."""
        return ReconfigPolicy(False, False, False)

    def label(self) -> str:
        parts = []
        if self.latency_aware_allocation:
            parts.append("L")
        if self.place_threads:
            parts.append("T")
        if self.trade_refinement:
            parts.append("D")
        return "+" + "".join(parts) if parts else "base"


#: The canonical Fig 4 pipeline steps, in order.  Strategies may count
#: extra steps (e.g. the partitioned solve's ``stitch`` pass); these four
#: are always reported, present or not.
PIPELINE_STEPS = (
    "allocation", "vc_placement", "thread_placement", "data_placement",
)


@dataclass
class ReconfigResult:
    """A solution plus per-step accounting (Table 3).

    *strategy* names the :mod:`repro.sched.engine` strategy that produced
    the solution (``"full"`` for the classic single-shot pipeline).
    *critical_path_cycles*, when set, is the modeled runtime along the
    longest dependent chain — a partitioned solve runs its regions on
    separate cores, so its critical path is the slowest region plus the
    stitch pass, not the op-count total.
    """

    solution: PlacementSolution
    counter: StepCounter
    wall_seconds: dict[str, float] = field(default_factory=dict)
    strategy: str = "full"
    critical_path_cycles: float | None = None

    def step_cycles(self) -> dict[str, float]:
        """Modeled cycles per step: the four pipeline steps always, plus
        any strategy-specific steps the counter saw (e.g. ``stitch``)."""
        cycles = {step: self.counter.cycles(step) for step in PIPELINE_STEPS}
        for step in sorted(self.counter.ops):
            if step not in cycles:
                cycles[step] = self.counter.cycles(step)
        return cycles

    def modeled_cycles(self) -> float:
        """The runtime the reconfiguration interval must absorb: the
        critical path when the strategy solved in parallel, the op-count
        total otherwise."""
        if self.critical_path_cycles is not None:
            return self.critical_path_cycles
        return self.counter.total_cycles()


def _pinned_optimistic(
    problem: PlacementProblem,
    sizes: dict[int, float],
    counter: StepCounter,
    pinned_banks: dict[int, dict[int, float]],
    free_vcs: set[int],
    free_threads: set[int],
) -> OptimisticPlacement:
    """Step 2 of a pinned solve: the free VCs' optimistic placement,
    scored against the capacity the pinned VCs' banks already claim.

    Threads that re-place anchor on the pinned VCs they read at those
    VCs' actual center of mass, so only those VCs get a centroid.
    """
    topo = problem.topology
    bank_bytes = float(problem.bank_bytes)
    claimed = np.zeros(topo.tiles, dtype=np.float64)
    for per_bank in pinned_banks.values():
        for bank, amount in per_bank.items():
            claimed[bank] += amount / bank_bytes
    optimistic = place_optimistic(
        problem, sizes, counter, vc_ids=free_vcs, claimed_init=claimed
    )
    read_pinned = {
        vc_id
        for t in problem.threads
        if t.thread_id in free_threads
        for vc_id in t.vc_accesses
        if vc_id in pinned_banks
    }
    for vc_id in sorted(read_pinned):
        if pinned_banks[vc_id]:
            optimistic.centroids[vc_id] = center_of_mass(
                topo,
                {b: amt / bank_bytes for b, amt in pinned_banks[vc_id].items()},
            )
    return optimistic


def _private_copy(placement: OptimisticPlacement) -> OptimisticPlacement:
    return OptimisticPlacement(
        {vc: dict(banks) for vc, banks in placement.footprints.items()},
        dict(placement.centers),
        dict(placement.centroids),
        placement.claimed.copy(),
    )


def _once(memo: dict, key, counter: StepCounter, compute):
    """``compute(sub_counter)`` the first time a call asks for *key*;
    every asker adds the op counts it recorded to *counter*
    (``StepCounter.add`` aggregates, so the bulk adds equal the loop's
    unit adds, key order included)."""
    if key not in memo:
        sub = StepCounter()
        memo[key] = compute(sub), sub.ops
    value, ops = memo[key]
    for step, count in ops.items():
        counter.add(step, count)
    return value


def reconfigure(
    problem: PlacementProblem,
    policy: ReconfigPolicy | None = None,
    external_thread_cores: dict[int, int] | None = None,
    pinned: PlacementSolution | None = None,
) -> ReconfigResult:
    """Run one reconfiguration: the four steps.

    If the policy does not place threads, *external_thread_cores* must give
    the fixed assignment (Jigsaw's clustered/random schedulers).

    *pinned* warm-starts the solve from a partial solution of *problem*
    (the incremental strategy passes the clean part of the previous
    epoch's).  Its VCs keep their sizes, and their banks unless a trade
    of an unpinned VC swaps with them; its threads keep their cores.  The
    steps run over the rest only: allocation of the capacity the pinned
    VCs leave, optimistic placement scored against their banks, thread
    placement over the cores they leave, greedy seeding into the free
    capacity, and trades initiated by unpinned VCs.  An external thread
    placement still fixes every core.  Pinned solves allocate through the
    latency-aware allocator, so a policy without it raises
    ``ValueError``.  With nothing pinned this is the one-lane
    :func:`reconfigure_schemes` call.
    """
    return _solve_lanes(problem, [(policy, external_thread_cores)], pinned)[0]


def reconfigure_schemes(
    problem: PlacementProblem,
    lanes: Sequence[tuple[ReconfigPolicy | None, dict[int, int] | None]],
) -> list[ReconfigResult]:
    """Solve several schemes of one problem, nothing pinned: one result
    per ``(policy, external_thread_cores)`` lane, each equal to
    ``reconfigure(problem, policy, external_thread_cores)`` in solution,
    op counts and modeled cycles (only its wall times differ).

    What depends on the allocator alone runs once per call: each
    allocator, and the optimistic placement of its sizes when a lane
    places threads.  Later lanes add the recorded op counts to their own
    counters and get private copies.  Jigsaw+C and Jigsaw+R differ only
    in their external thread placement, so they share both.
    """
    return _solve_lanes(problem, lanes, None)


def _solve_lanes(
    problem: PlacementProblem,
    lanes: Sequence[tuple[ReconfigPolicy | None, dict[int, int] | None]],
    pinned: PlacementSolution | None,
) -> list[ReconfigResult]:
    """The four steps, the only place they are written, for every lane
    of one problem (see :func:`reconfigure` for *pinned*)."""
    free_vcs = free_threads = budget = None  # None: nothing is pinned
    if pinned is None:
        pinned = PlacementSolution()
    else:
        free_vcs = {vc.vc_id for vc in problem.vcs} - set(pinned.vc_sizes)
        free_threads = {
            t.thread_id for t in problem.threads
            if t.thread_id not in pinned.thread_cores
        }
        budget = problem.total_bytes // problem.quantum - sum(
            int(round(size / problem.quantum))
            for size in pinned.vc_sizes.values()
        )

    def allocate(latency_aware: bool, counter: StepCounter):
        if latency_aware:
            return {
                **pinned.vc_sizes,
                **allocate_latency_aware(problem, counter, free_vcs, budget),
            }
        return allocate_miss_driven(problem, counter)

    def place(sizes: dict[int, float], counter: StepCounter):
        if free_vcs is None:
            return place_optimistic(problem, sizes, counter)
        return _pinned_optimistic(
            problem, sizes, counter, pinned.vc_allocation, free_vcs,
            free_threads,
        )

    # Keyed by the allocator: within one call it fixes the sizes.
    allocations: dict[bool, tuple] = {}
    placements: dict[bool, tuple] = {}
    results = []
    for policy, external_thread_cores in lanes:
        policy = policy or ReconfigPolicy.cdcs()
        latency_aware = policy.latency_aware_allocation
        if free_vcs is not None and not latency_aware:
            raise ValueError(
                "pinned solves need latency-aware allocation; policy "
                f"{policy.label()} allocates miss-driven"
            )
        counter = StepCounter()
        wall: dict[str, float] = {}

        t0 = time.perf_counter()  # repro: allow[determinism] reported wall time, never a decision input
        sizes = dict(_once(
            allocations, latency_aware, counter, partial(allocate, latency_aware)
        ))
        wall["allocation"] = time.perf_counter() - t0  # repro: allow[determinism] reported wall time, never a decision input

        t0 = time.perf_counter()  # repro: allow[determinism] reported wall time, never a decision input
        if policy.place_threads:
            optimistic = _private_copy(_once(
                placements, latency_aware, counter, partial(place, sizes)
            ))
        else:
            # Only thread placement reads the optimistic placement.
            count_optimistic_ops(problem, sizes, counter, free_vcs)
        wall["vc_placement"] = time.perf_counter() - t0  # repro: allow[determinism] reported wall time, never a decision input

        t0 = time.perf_counter()  # repro: allow[determinism] reported wall time, never a decision input
        if policy.place_threads:
            placed = place_threads(
                problem, sizes, optimistic, counter,
                only_threads=free_threads,
                taken_cores=set(pinned.thread_cores.values()),
            )
            thread_cores = {**pinned.thread_cores, **placed}
        else:
            if external_thread_cores is None:
                raise ValueError(
                    "policy does not place threads; provide external_thread_cores"
                )
            missing = {t.thread_id for t in problem.threads} - set(
                external_thread_cores
            )
            if missing:
                raise ValueError(
                    f"external placement misses threads {sorted(missing)}"
                )
            thread_cores = dict(external_thread_cores)
        wall["thread_placement"] = time.perf_counter() - t0  # repro: allow[determinism] reported wall time, never a decision input

        t0 = time.perf_counter()  # repro: allow[determinism] reported wall time, never a decision input
        allocation = refined_placement(
            problem, sizes, thread_cores, counter,
            trades=policy.trade_refinement,
            only_vcs=free_vcs,
            preplaced=pinned.vc_allocation,  # greedy seeding copies each map
        )
        wall["data_placement"] = time.perf_counter() - t0  # repro: allow[determinism] reported wall time, never a decision input

        solution = PlacementSolution(
            vc_sizes={
                vc_id: sum(per.values()) for vc_id, per in allocation.items()
            },
            vc_allocation=allocation,
            thread_cores=thread_cores,
        )
        results.append(ReconfigResult(solution, counter, wall))
    return results


def reconfigure_epoch(
    mix,
    config,
    policy: ReconfigPolicy | None = None,
    external_thread_cores: dict[int, int] | None = None,
    topology=None,
    prior_problem: PlacementProblem | None = None,
    sketch_bytes: int | None = None,
) -> tuple[ReconfigResult, PlacementProblem]:
    """One epoch-boundary reconfiguration against the mix's *current* curves.

    The periodic runtime (Sec IV-G) does not solve a frozen problem: at
    every interval it re-reads the GMONs, whose sampled miss curves track
    whatever the applications are doing *now*.  With phased workloads
    (:class:`repro.workloads.phased.PhasedProfile`) that matters — the
    caller snapshots the mix at the current instruction count (e.g.
    ``EpochEngine.current_mix()``), and this helper rebuilds the placement
    problem from those active curves before solving, returning both the
    result and the rebuilt problem so evaluation and solution agree.

    For stationary mixes this is ``reconfigure(build_problem(mix, config))``
    — the classic single-shot pipeline.  Pass the previous epoch's problem
    as *prior_problem* and it is reused outright when the mix is stationary
    (its curves cannot have moved), skipping the per-epoch VC/thread/
    topology rebuild entirely; phased mixes always rebuild against the
    active snapshot, reusing only the prior problem's topology (whose
    geometry matrices are shared process-wide regardless).

    *sketch_bytes* feeds the sketch stream forward: the returned
    problem's telemetry bank (:func:`repro.cache.sketch.problem_sketch_bank`)
    is built at that budget and memoized on the problem object, so a
    sketch-driven engine consuming consecutive epochs never re-sketches a
    stationary epoch — the reused problem object carries its bank.
    """
    from repro.nuca.base import build_problem  # sched must not import nuca eagerly
    from repro.workloads.mixes import mix_is_phased

    if prior_problem is not None:
        if not mix_is_phased(mix):
            if sketch_bytes is not None:
                problem_sketch_bank(prior_problem, sketch_bytes)
            result = reconfigure(prior_problem, policy, external_thread_cores)
            return result, prior_problem
        if topology is None:
            topology = prior_problem.topology
    problem = build_problem(mix, config, topology)
    if sketch_bytes is not None:
        problem_sketch_bank(problem, sketch_bytes)
    result = reconfigure(problem, policy, external_thread_cores)
    return result, problem
