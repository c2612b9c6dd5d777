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
Each thread's candidate scan indexes one ``(N,) float64`` vector of
squared Euclidean distances from every tile to the thread's ideal point
(``N = topology.tiles``), built by
:func:`repro.geometry.placement_math.squared_point_distances` with the
scalar per-coordinate accumulation order.  The greedy taken-core scan
itself is sequential by design (each pick removes a core from ``free``).
"""

from __future__ import annotations

from repro.geometry.placement_math import squared_point_distances
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem
from repro.sched.vc_placement import OptimisticPlacement


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
        return sum(
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
    assignment: dict[int, int] = {}
    for thread in order:
        # One (N,) distance vector per thread; the scan below indexes it
        # instead of recomputing coordinates core by core.
        distances = squared_point_distances(topo, ideal_point(thread)).tolist()
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
