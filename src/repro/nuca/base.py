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
from repro.vcache.virtual_cache import VCKind, VirtualCache
from repro.workloads.mixes import Mix

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
    if mix.total_threads > topo.tiles:
        raise ValueError(
            f"mix needs {mix.total_threads} cores but chip has {topo.tiles}"
        )
    vcs: list[VirtualCache] = []
    threads: list[ThreadSpec] = []
    for proc in mix.processes:
        profile = proc.profile
        shared_vc: VirtualCache | None = None
        if profile.shared_fraction > 0 and profile.shared_curve is not None:
            shared_vc = VirtualCache(
                vc_id=process_vc_id(proc.process_id),
                kind=VCKind.PROCESS,
                process_id=proc.process_id,
                miss_curve=profile.shared_curve.scaled(profile.threads),
            )
            vcs.append(shared_vc)
        for thread_id in proc.thread_ids:
            thread_vc = VirtualCache(
                vc_id=thread_id,
                kind=VCKind.THREAD,
                process_id=proc.process_id,
                miss_curve=profile.private_curve,
                owner_thread=thread_id,
            )
            thread_vc.accesses[thread_id] = profile.private_apki
            vcs.append(thread_vc)
            accesses = {thread_id: profile.private_apki}
            if shared_vc is not None:
                shared_vc.accesses[thread_id] = profile.shared_apki
                accesses[shared_vc.vc_id] = profile.shared_apki
            threads.append(
                ThreadSpec(
                    thread_id=thread_id,
                    process_id=proc.process_id,
                    vc_accesses=accesses,
                    cluster_key=profile.name,
                )
            )
    from repro.cache.miss_curve import flat_curve

    vcs.append(
        VirtualCache(
            vc_id=GLOBAL_VC_ID,
            kind=VCKind.GLOBAL,
            process_id=-1,
            miss_curve=flat_curve(float(config.llc_bytes), 0.0),
        )
    )
    return PlacementProblem(
        config=config,
        topology=topo,
        vcs=vcs,
        threads=threads,
        mem_latency=default_mem_latency(config, topo),  # type: ignore[arg-type]
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
    turns its occupancies into the solution; a sweep's mega-batch merges
    many mixes' plans into one :func:`solve_sharing_plans` call between
    the two.
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
        plan, context = self.sharing_stage(problem)
        occupancies = (
            np.zeros(0) if plan is None else solve_sharing_plans([plan])[0]
        )
        return self.finish_sharing(problem, context, occupancies)
