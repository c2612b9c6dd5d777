"""Common scheme interface and the mix -> placement-problem builder.

Every NUCA organization is expressed as: given a mix on a chip, produce a
:class:`PlacementSolution` (VC sizes, per-bank allocations, thread cores).
The analytic engine then evaluates any scheme through the same Eq 1/Eq 2
machinery — including S-NUCA and R-NUCA, whose "allocations" encode their
fixed hashing/classification policies rather than managed decisions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.config import SystemConfig
from repro.geometry.mesh import Mesh, Topology
from repro.nuca.sharing import SharingPlan, solve_sharing_plans
from repro.sched.problem import PlacementProblem, PlacementSolution, ThreadSpec
from repro.sched.reconfigure import reconfigure_schemes
from repro.vcache.virtual_cache import VCKind, VirtualCache
from repro.workloads.mixes import Mix, ProcessSpec

#: VC id layout: thread VCs use the thread id; process VCs and the global
#: VC live above this base so ids never collide.
PROCESS_VC_BASE = 1 << 20
GLOBAL_VC_ID = (1 << 21) + 1


def process_vc_id(process_id: int) -> int:
    return PROCESS_VC_BASE + process_id


def default_mem_latency(config: SystemConfig, topology: Mesh) -> float:
    """Eq 1's MemLatency constant: zero-load DRAM plus the round trip from
    an average bank to an average controller."""
    from repro.mem.controller import MemoryControllers

    mcs = MemoryControllers(topology, config.memory)
    per_hop = 2.0 * config.noc.hop_latency
    return config.memory.zero_load_latency + per_hop * mcs.chip_mean_distance()


def process_records(
    proc: ProcessSpec,
) -> tuple[list[VirtualCache], list[ThreadSpec]]:
    """*proc*'s Sec III records in problem order: its VCs (the process VC,
    if the profile has shared accesses, then one thread VC per thread)
    and its threads.  Every ``accesses`` dict is complete before its
    record is built; records are never mutated after construction."""
    profile = proc.profile
    process_id = proc.process_id
    vcs: list[VirtualCache] = []
    threads: list[ThreadSpec] = []
    shared_id: int | None = None
    if profile.shared_fraction > 0 and profile.shared_curve is not None:
        shared_id = process_vc_id(process_id)
        vcs.append(VirtualCache(
            vc_id=shared_id,
            kind=VCKind.PROCESS,
            process_id=process_id,
            miss_curve=profile.shared_curve.scaled(profile.threads),
            accesses={
                thread_id: profile.shared_apki for thread_id in proc.thread_ids
            },
        ))
    for thread_id in proc.thread_ids:
        vcs.append(VirtualCache(
            vc_id=thread_id,
            kind=VCKind.THREAD,
            process_id=process_id,
            miss_curve=profile.private_curve,
            accesses={thread_id: profile.private_apki},
            owner_thread=thread_id,
        ))
        accesses = {thread_id: profile.private_apki}
        if shared_id is not None:
            accesses[shared_id] = profile.shared_apki
        threads.append(ThreadSpec(
            thread_id=thread_id,
            process_id=process_id,
            vc_accesses=accesses,
            cluster_key=profile.name,
        ))
    return vcs, threads


def global_vc(config: SystemConfig) -> VirtualCache:
    """The chip's one global VC (zero-rate in these workloads, kept for
    interface fidelity)."""
    from repro.cache.miss_curve import flat_curve

    return VirtualCache(
        vc_id=GLOBAL_VC_ID,
        kind=VCKind.GLOBAL,
        process_id=-1,
        miss_curve=flat_curve(float(config.llc_bytes), 0.0),
    )


def assemble_problem(
    config: SystemConfig,
    topology: Topology,
    records: list[tuple[list[VirtualCache], list[ThreadSpec]]],
    global_record: VirtualCache,
    mem_latency: float,
    base: PlacementProblem | None = None,
) -> PlacementProblem:
    """The problem of a mix from its processes' :func:`process_records`
    (in mix order) and the :func:`global_vc` record, which goes last.
    The records are shared, not copied: callers that keep them across
    problems (:class:`~repro.sim.engine.EpochEngine`) get problems that
    share every record of an unchanged process, and pass the previous
    one as *base* to derive the new one from it in O(changed records)."""
    threads = [thread for _, proc_threads in records for thread in proc_threads]
    if len(threads) > topology.tiles:
        raise ValueError(
            f"mix needs {len(threads)} cores but chip has {topology.tiles}"
        )
    vcs = [vc for proc_vcs, _ in records for vc in proc_vcs]
    vcs.append(global_record)
    return PlacementProblem(
        config=config,
        topology=topology,
        vcs=vcs,
        threads=threads,
        mem_latency=mem_latency,
        base=base,
    )


def build_problem(
    mix: Mix,
    config: SystemConfig,
    topology: Topology | None = None,
) -> PlacementProblem:
    """Construct the co-scheduling problem for *mix* on *config*'s chip.

    Creates the Sec III VC structure: one thread VC per thread, one process
    VC per multithreaded process (single-threaded processes have no shared
    accesses, so their process VC would be empty and is omitted), plus one
    global VC (zero-rate in these workloads, kept for interface fidelity).
    """
    topo = topology or Mesh(config.mesh_width, config.mesh_height)
    return assemble_problem(
        config,
        topo,
        [process_records(proc) for proc in mix.processes],
        global_vc(config),
        default_mem_latency(config, topo),  # type: ignore[arg-type]
    )


@dataclass
class SchemeResult:
    """What a scheme hands the evaluation engine."""

    name: str
    solution: PlacementSolution
    #: Reconfiguration runtime accounting, if the scheme has a runtime.
    step_cycles: dict[str, float] | None = None


class NucaScheme(ABC):
    """A cache organization + (possibly trivial) thread scheduler."""

    name: str = "base"

    @abstractmethod
    def run(self, problem: PlacementProblem) -> SchemeResult:
        """Produce sizes, placements, and thread assignment for *problem*."""


class SharingScheme(NucaScheme):
    """A scheme whose capacity split is an LRU-sharing solve (S-NUCA,
    R-NUCA).

    :meth:`sharing_stage` states the solve as a :class:`SharingPlan`
    (``None`` when no stream takes part) and :meth:`finish_sharing`
    turns its occupancies into the solution; :func:`run_schemes` merges
    the plans of all its runs into one :func:`solve_sharing_plans` call
    between the two.
    """

    @abstractmethod
    def sharing_stage(
        self, problem: PlacementProblem
    ) -> tuple[SharingPlan | None, Any]: ...

    @abstractmethod
    def finish_sharing(
        self, problem: PlacementProblem, context: Any, occupancies: np.ndarray
    ) -> SchemeResult: ...

    def run(self, problem: PlacementProblem) -> SchemeResult:
        return run_schemes([(self, problem)])[0]


def run_schemes(
    runs: list[tuple[NucaScheme, PlacementProblem]],
) -> list[SchemeResult]:
    """``scheme.run(problem)`` for every (scheme, problem) pair, in
    order, with the work the schemes share merged: the LRU-sharing
    solves of every :class:`SharingScheme` run as one
    :func:`solve_sharing_plans` call, and the schemes of one problem
    that have a ``lane`` (Jigsaw+C, Jigsaw+R) as the lanes of one
    :func:`~repro.sched.reconfigure.reconfigure_schemes` call.  Each
    plan's slice and each lane is bitwise what the scheme's own run
    returns; a :class:`SharingScheme`'s ``run`` is the one-pair call."""
    results: list[SchemeResult | None] = [None] * len(runs)
    staged = []  # (result index, scheme, problem, context), one per plan
    plans = []
    lanes: dict[int, tuple[PlacementProblem, list]] = {}  # by id(problem)
    for i, (scheme, problem) in enumerate(runs):
        if isinstance(scheme, SharingScheme):
            plan, context = scheme.sharing_stage(problem)
            if plan is None:
                results[i] = scheme.finish_sharing(problem, context, np.zeros(0))
            else:
                staged.append((i, scheme, problem, context))
                plans.append(plan)
        elif hasattr(scheme, "lane"):
            lanes.setdefault(id(problem), (problem, []))[1].append(
                (i, scheme.name, scheme.lane(problem))
            )
        else:
            results[i] = scheme.run(problem)
    for problem, group in lanes.values():
        solved = reconfigure_schemes(problem, [lane for _, _, lane in group])
        for (i, name, _), result in zip(group, solved):
            results[i] = SchemeResult(name, result.solution, result.step_cycles())
    if plans:
        for (i, scheme, problem, context), occupancies in zip(
            staged, solve_sharing_plans(plans)
        ):
            results[i] = scheme.finish_sharing(problem, context, occupancies)
    return results  # type: ignore[return-value]
