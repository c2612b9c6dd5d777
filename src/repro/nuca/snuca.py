"""S-NUCA: static line-to-bank interleaving (the paper's baseline).

Lines hash across all banks, so (a) every VC's data is spread uniformly over
the chip — every access travels the mean core-to-bank distance — and (b)
capacity is one big unmanaged pool, divided by the LRU-sharing fixed point.
Thread placement is irrelevant by construction (Sec VI-A measures <= 1%).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nuca.base import SchemeResult, SharingScheme
from repro.nuca.sharing import SharingPlan
from repro.sched.problem import PlacementProblem, PlacementSolution
from repro.sched.thread_placement import random_thread_placement


class SNuca(SharingScheme):
    name = "S-NUCA"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def sharing_stage(
        self, problem: PlacementProblem
    ) -> tuple[SharingPlan | None, Any]:
        """Stage this invocation's LRU-sharing solve as a plan.

        The whole LLC is one shared pool: one group holding every active
        VC's curve at the chip's total capacity.  Splitting the plan from
        :meth:`finish_sharing` lets the mega-batch runner merge many
        mixes' S-NUCA solves into one lockstep bisection.
        """
        active = [
            vc for vc in problem.vcs
            if sum(problem.accessors_of(vc.vc_id).values()) > 0
        ]
        plan = None
        if active:
            plan = SharingPlan(
                curves=tuple(vc.miss_curve for vc in active),
                groups=(tuple(range(len(active))),),
                capacities=(float(problem.total_bytes),),
            )
        return plan, active

    def finish_sharing(
        self,
        problem: PlacementProblem,
        context: Any,
        occupancies: np.ndarray,
    ) -> SchemeResult:
        """Turn solved occupancies into the S-NUCA placement solution."""
        tiles = problem.topology.tiles
        active = context
        vc_sizes: dict[int, float] = {}
        vc_allocation: dict[int, dict[int, float]] = {}
        for vc, occ in zip(active, occupancies):
            vc_sizes[vc.vc_id] = occ
            # Interleaving spreads both data and accesses uniformly.  The
            # allocation encodes the *access* spread for Eq 2; give spread
            # entries even when occupancy ~ 0 so latency stays mean-distance.
            share = max(occ, 1.0) / tiles
            vc_allocation[vc.vc_id] = {b: share for b in range(tiles)}
        thread_cores = random_thread_placement(problem, self.seed)
        solution = PlacementSolution(vc_sizes, vc_allocation, thread_cores)
        return SchemeResult(self.name, solution)
