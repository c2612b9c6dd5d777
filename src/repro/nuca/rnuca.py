"""R-NUCA: classification-based placement (Hardavellas et al. [20]).

Policies modeled (Sec II-A/II-B):

* **private data** -> the accessing core's local bank (zero network hops);
  each bank is shared, unpartitioned, between its local thread's private
  data and the chip-spread shared data, so occupancy within the bank comes
  from the LRU-sharing fixed point.
* **shared data** -> spread across all banks (R-NUCA interleaves shared
  pages chip-wide), so shared accesses travel the mean core-to-bank
  distance.  A VC spread over N banks behaves as N independent caches each
  receiving 1/N of the accesses over 1/N of the data.
* **instructions** -> rotational interleaving in the paper; our profiles
  have negligible code footprints (as in the paper's mixes, Sec II-B), so
  code gets no capacity.  :func:`rotational_cluster` models the 4-bank
  rotational interleaving for completeness/tests.

R-NUCA is thread-placement-insensitive (its private data never leaves the
local tile), so threads are pinned randomly as in the paper's evaluation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nuca.base import SchemeResult, SharingScheme
from repro.nuca.sharing import SharingPlan
from repro.sched.problem import PlacementProblem, PlacementSolution
from repro.sched.thread_placement import random_thread_placement
from repro.vcache.virtual_cache import VCKind


def rotational_cluster(tile: int, mesh_width: int, degree: int = 4) -> list[int]:
    """The R-NUCA rotational-interleaving cluster of *tile*: the 2x2 window
    anchored at the tile's even corner (degree 4), as used for code pages."""
    x, y = tile % mesh_width, tile // mesh_width
    bx, by = (x // 2) * 2, (y // 2) * 2
    cluster = []
    for dy in (0, 1):
        for dx in (0, 1):
            cluster.append((by + dy) * mesh_width + (bx + dx))
    return cluster[:degree]


class RNuca(SharingScheme):
    name = "R-NUCA"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def sharing_stage(
        self, problem: PlacementProblem
    ) -> tuple[SharingPlan | None, Any]:
        """Stage the per-bank LRU sharing solves as one plan.

        Each bank shares capacity between its local thread's private data
        and every shared VC's 1/N slice — one independent fixed point per
        bank, expressed as one plan group per bank at the bank capacity.
        The mega-batch runner merges these groups with every other staged
        solve (other mixes, other schemes) into one lockstep bisection.
        """
        topo = problem.topology
        tiles = topo.tiles
        thread_cores = random_thread_placement(problem, self.seed)

        thread_vcs = {
            vc.owner_thread: vc
            for vc in problem.vcs
            if vc.kind is VCKind.THREAD and vc.owner_thread is not None
        }
        shared_vcs = [
            vc
            for vc in problem.vcs
            if vc.kind is not VCKind.THREAD
            and sum(problem.accessors_of(vc.vc_id).values()) > 0
        ]
        thread_on_bank = {core: t for t, core in thread_cores.items()}

        curves, arg_scale, divisors, groups = [], [], [], []
        all_labels: list[tuple[str, int]] = []
        for bank in range(tiles):
            start = len(curves)
            local_thread = thread_on_bank.get(bank)
            if local_thread is not None and local_thread in thread_vcs:
                curves.append(thread_vcs[local_thread].miss_curve)
                arg_scale.append(1.0)
                divisors.append(1.0)
                all_labels.append(("private", local_thread))
            for vc in shared_vcs:
                curves.append(vc.miss_curve)
                arg_scale.append(float(tiles))
                divisors.append(float(tiles))
                all_labels.append(("shared", vc.vc_id))
            groups.append(tuple(range(start, len(curves))))
        context = {
            "thread_cores": thread_cores,
            "thread_vcs": thread_vcs,
            "shared_vcs": shared_vcs,
            "labels": all_labels,
        }
        plan = None
        if curves:
            plan = SharingPlan(
                curves=tuple(curves),
                groups=tuple(groups),
                capacities=(float(problem.bank_bytes),) * len(groups),
                arg_scale=tuple(arg_scale),
                value_divisor=tuple(divisors),
            )
        return plan, context

    def finish_sharing(
        self,
        problem: PlacementProblem,
        context: Any,
        occupancies: np.ndarray,
    ) -> SchemeResult:
        """Fold solved per-bank occupancies into the R-NUCA solution."""
        tiles = problem.topology.tiles
        thread_cores = context["thread_cores"]
        thread_vcs = context["thread_vcs"]
        shared_vcs = context["shared_vcs"]
        core_of = thread_cores
        private_occ: dict[int, float] = {}
        shared_occ: dict[int, float] = {vc.vc_id: 0.0 for vc in shared_vcs}
        for (kind, ident), o in zip(context["labels"], occupancies):
            if kind == "private":
                private_occ[ident] = o
            else:
                shared_occ[ident] += o

        vc_sizes: dict[int, float] = {}
        vc_allocation: dict[int, dict[int, float]] = {}
        for thread_id, vc in thread_vcs.items():
            occ = private_occ.get(thread_id, 0.0)
            vc_sizes[vc.vc_id] = occ
            # All private accesses go to the local bank regardless of how
            # much capacity survives there (R-NUCA's fixed mapping).
            vc_allocation[vc.vc_id] = {core_of[thread_id]: max(occ, 1.0)}
        for vc in shared_vcs:
            occ = shared_occ[vc.vc_id]
            vc_sizes[vc.vc_id] = occ
            share = max(occ, 1.0) / tiles
            vc_allocation[vc.vc_id] = {b: share for b in range(tiles)}

        solution = PlacementSolution(vc_sizes, vc_allocation, thread_cores)
        return SchemeResult(self.name, solution)
