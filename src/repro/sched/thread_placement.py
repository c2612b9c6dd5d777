"""Thread placement (Sec IV-E).

Given the optimistic data placement, each thread wants to sit at the
center of mass of its accesses: the access-weighted average of the
centroids of the VCs it touches.  Threads are placed in descending
**intensity-capacity product** (sum over accessed VCs of rate x size):
threads whose data is large and hot are hardest to serve from afar and
their VCs are hardest to move, so they pick cores first (omnet before
ilbdc before milc in the case study).

Multithreaded processes need no special casing: shared-heavy threads all
gravitate to their shared VC's centroid (clustering), private-heavy
threads follow their private VCs (spreading) — the behavior Fig 16b shows.

Shape conventions
-----------------
A thread's ideal point reads only the optimistic centroids and its own
rates, both fixed before the scan starts, so every thread's ``(N,)
float64`` row of squared Euclidean distances (``N = topology.tiles``)
comes from ``(256, N)`` blocks of
:func:`repro.geometry.placement_math.squared_point_distances`, each row
bitwise the one its point gets alone.  A block is built when the scan
reaches its first thread, and a row becomes a list when its thread's
turn comes, so the transient stays one block even at 1024 tiles.  The
greedy taken-core scan itself is sequential by design (each pick removes
a core from ``free``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.placement_math import _CENTER_BLOCK, squared_point_distances
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem
from repro.sched.vc_placement import OptimisticPlacement
from repro.util.sums import ordered_sum


def place_threads(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    optimistic: OptimisticPlacement,
    counter: StepCounter | None = None,
    only_threads: set[int] | None = None,
    taken_cores: set[int] | None = None,
) -> dict[int, int]:
    """Assign each thread a core; returns thread_id -> tile.

    *only_threads*/*taken_cores* are the incremental warm start: only the
    named threads are (re)placed, competing for the cores not already held
    by the threads staying put.  The returned dict covers only the placed
    threads in that mode.
    """
    counter = counter if counter is not None else StepCounter()
    topo = problem.topology
    chip_center = topo.coords(topo.center_tile())  # type: ignore[attr-defined]

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
            return chip_center  # no placed data: any core is as good
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
    # Build `free` exactly as before when nothing is pinned: the candidate
    # scan iterates this set, so even its construction order is part of the
    # pinned full-path behavior.
    if taken_cores:
        free = {c for c in range(topo.tiles) if c not in taken_cores}
    else:
        free = set(range(topo.tiles))
    points = [ideal_point(thread) for thread in order]

    def rows():
        # Each row becomes a list only at its thread's turn, and a block
        # is dropped before the next is built: one block is the transient.
        for lo in range(0, len(points), _CENTER_BLOCK):
            block = squared_point_distances(topo, points[lo:lo + _CENTER_BLOCK])
            yield from map(np.ndarray.tolist, block)
            del block

    assignment: dict[int, int] = {}
    # The scan indexes each thread's row instead of recomputing
    # coordinates core by core.
    for thread, distances in zip(order, rows()):
        best_core = -1
        best_dist = float("inf")
        # The scan visits every free core (it never exits early), so one
        # bulk add equals the per-core unit adds.
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


def clustered_thread_placement(problem: PlacementProblem) -> dict[int, int]:
    """The "clustered" external scheduler (Jigsaw+C, Sec VI): applications
    are grouped by type — instances of the same benchmark (and threads of
    the same process) occupy consecutive tiles in row-major order.  This is
    exactly the placement whose capacity contention Fig 1b exhibits:
    "different instances of the same benchmark are placed close by" (VI-A).
    """
    assignment: dict[int, int] = {}
    next_core = 0
    order = sorted(
        problem.threads,
        key=lambda t: (t.cluster_key, t.process_id, t.thread_id),
    )
    for thread in order:
        assignment[thread.thread_id] = next_core
        next_core += 1
    return assignment


def random_thread_placement(problem: PlacementProblem, seed: int = 0) -> dict[int, int]:
    """The "random" external scheduler (Jigsaw+R): threads pinned to random
    cores at initialization (Sec VI-A)."""
    from repro.util.rng import child_rng

    rng = child_rng(seed, 0xC0DE)
    cores = rng.permutation(problem.topology.tiles)
    return {
        thread.thread_id: int(cores[i])
        for i, thread in enumerate(
            sorted(problem.threads, key=lambda t: t.thread_id)
        )
    }
