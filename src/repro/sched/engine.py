"""The reconfiguration engine: interchangeable solve strategies (PR 5).

The paper's pitch is that co-scheduling runs in near-linear time so
reconfiguration stays cheap at hundreds of tiles (Sec IV, Table 3) — but a
single-shot :func:`repro.sched.reconfigure.reconfigure` of a fully
committed 256-tile mesh costs ~80 Mcycles of modeled runtime, overrunning
the 50 Mcycle interval.  This module runs that one pipeline through
interchangeable :class:`SolveStrategy` implementations, registered by name
in :data:`STRATEGIES`:

* :class:`IncrementalSolve` (``"incremental"``) — warm-starts from the
  previous epoch's solution.  VCs whose miss curves or access rates moved
  beyond ``dirty_threshold`` (plus new/removed VCs and their threads) are
  re-solved; everything else is passed to ``reconfigure`` as *pinned* and
  keeps its capacity, banks, and cores.  ``dirty_threshold=0`` means "no
  tolerance": every VC is dirty and the solve is exactly the full
  pipeline, which is the degenerate-equivalence contract the tests pin.
* :class:`HierarchicalSolve` (``"hierarchical"``, PR 7) — regions of
  regions: recursive splits by the smallest common divisor of the mesh
  axes down to paper-sized (~8x8) leaves, each region solved as an
  independent sub-problem (one runtime core per region, so the modeled
  critical path is the *slowest region*, not the sum), with a
  boundary-trade stitch at every level.  The critical path is the slowest
  leaf plus one stitch per level, each stitch an anytime pass capped at
  :data:`STITCH_OPS_BUDGET` ops — that is what keeps 4096-tile and larger
  meshes inside the 50 Mcycle interval.
* ``"full"`` and ``"partitioned"`` are presets of
  :class:`HierarchicalSolve`.  ``full`` fixes ``regions=1``: no split, so
  it is the classic 4-step pipeline, bitwise ``reconfigure()`` and the
  pinned equivalence reference for everything else.  ``partitioned``
  fixes ``depth=1``: one flat ``regions`` x ``regions`` split (default
  :func:`auto_regions`) of full-pipeline leaves plus one stitch.

:class:`ReconfigEngine` carries solver state (the previous problem and
solution) across epochs, which is what the periodic runtime of Sec IV-G
actually does — it never solves a frozen problem from scratch.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.cache.sketch import (
    DEFAULT_SKETCH_BYTES,
    problem_sketch_bank,
    record_sketch_pairs,
    sketch_deltas,
)
from repro.geometry.mesh import Mesh
from repro.sched.opcount import CYCLES_PER_OP, StepCounter
from repro.sched.problem import PlacementProblem, PlacementSolution, changed_records
from repro.sched.reconfigure import ReconfigPolicy, ReconfigResult, reconfigure
from repro.sched.refinement import trade_refinement


#: Default op budget for one stitch pass (10 Mcycles at CYCLES_PER_OP).
#: The stitch is an anytime pass — seam VCs refine hottest-first, and no
#: new scan starts past the budget — so the modeled critical path of a
#: split solve is bounded by construction: slowest leaf (~5 Mcyc for an
#: 8x8 region) plus one budget slice per level, which keeps even the
#: four-level 128x128 hierarchy inside the paper's 50 Mcycle interval.
#: Every stitch at 1024 tiles or below measures well under the budget
#: (~14 kops at the 32x32 flat split), so the budget only ever binds at
#: 4096+ tiles and the pre-budget behavior is preserved bitwise
#: everywhere the tests pin it.
STITCH_OPS_BUDGET = 20_000


@dataclass
class EngineState:
    """What a warm-started solve may assume about the previous epoch."""

    problem: PlacementProblem | None = None
    solution: PlacementSolution | None = None


class SolveStrategy(Protocol):
    """One way to turn a :class:`PlacementProblem` into a solution."""

    name: str

    def solve(
        self,
        problem: PlacementProblem,
        policy: ReconfigPolicy,
        external_thread_cores: dict[int, int] | None,
        state: EngineState,
    ) -> ReconfigResult:
        """Solve *problem*; *state* holds the previous epoch's outcome."""
        ...  # pragma: no cover - protocol


def _copy_solution(solution: PlacementSolution) -> PlacementSolution:
    """Deep-enough copy so reusing a solution never aliases engine state."""
    return solution.copy()


# ---------------------------------------------------------------------------
# Incremental
# ---------------------------------------------------------------------------


def curve_distance(a, b) -> float:
    """Relative L-inf distance between two miss curves, normalized by the
    larger curve peak.  0 means identical; 1 means a point moved by the
    full peak miss rate.  Identity is free (stationary mixes reuse the
    very same curve objects epoch to epoch).

    Edges: duck-typed inputs whose union grid is empty have no points to
    compare and count as identical, and a zero normalizer (two all-zero
    curves — no misses anywhere) is also distance 0 rather than a
    division blow-up.
    """
    if a is b:
        return 0.0
    sizes = np.union1d(a.sizes, b.sizes)
    if sizes.size == 0:
        return 0.0
    va = np.asarray(a(sizes), dtype=np.float64)
    vb = np.asarray(b(sizes), dtype=np.float64)
    peak = max(float(np.max(va)), float(np.max(vb)))
    if peak <= 0.0:
        return 0.0
    return float(np.max(np.abs(va - vb))) / max(peak, 1e-12)


def _rate_distance(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Relative change between two accessor-rate maps (union of threads).

    Equal maps (two empty ones included: a VC nobody accesses, before
    and after) are identical, which is also what the loop returns for
    them; a thread present on only one side counts as a full relative
    move of that thread's rate.
    """
    if a == b:
        return 0.0
    worst = 0.0
    # Pure max-reduction: the result is identical under any visit order,
    # so the unordered union cannot leak into placement decisions.
    for tid in set(a) | set(b):  # repro: allow[determinism]
        ra, rb = a.get(tid, 0.0), b.get(tid, 0.0)
        denom = max(abs(ra), abs(rb), 1e-12)
        worst = max(worst, abs(ra - rb) / denom)
    return worst


class IncrementalSolve:
    """Warm-start from the previous solution, re-solving only dirty VCs.

    A VC is dirty when its miss curve or accessor rates moved beyond
    *dirty_threshold* (relative), or it did not exist last epoch.  Dirty
    VCs release their capacity, banks, and their accessor threads' cores;
    everything else is the *pinned* part of the previous solution, and
    :func:`~repro.sched.reconfigure.reconfigure` runs the pipeline over
    just the released slice (see its *pinned* argument).

    ``dirty_threshold <= 0`` marks every VC dirty, reducing to the full
    pipeline — the pinned degenerate-equivalence case.  Cold starts
    (no previous solution), topology/thread-set changes, and policies
    without latency-aware allocation also fall back to the full pipeline.

    With ``use_sketches=True`` dirty detection runs on bounded-memory
    curve sketches (:mod:`repro.cache.sketch`) instead of exact curves:
    O(sketch points) per VC in one vectorized pass, with exact curves
    materialized only for the VCs the sketches flag.  Sketch deltas
    upper-bound :func:`curve_distance`, so the sketch-driven dirty set is
    always a superset of the exact one — the warm start never misses a
    moved VC, it only occasionally re-solves a clean one.
    """

    name = "incremental"

    def __init__(
        self,
        dirty_threshold: float = 0.05,
        use_sketches: bool = False,
        sketch_bytes: int = DEFAULT_SKETCH_BYTES,
    ):
        self.dirty_threshold = dirty_threshold
        self.use_sketches = use_sketches
        self.sketch_bytes = sketch_bytes

    # -- dirty detection ----------------------------------------------------

    def dirty_vcs(
        self, prev: PlacementProblem, problem: PlacementProblem
    ) -> set[int]:
        """Ids of VCs that must be re-solved against *prev*."""
        if self.dirty_threshold <= 0:
            return {vc.vc_id for vc in problem.vcs}
        dirty: set[int] = set()
        for vc, old in _candidate_pairs(prev, problem):
            if (
                old is None
                or curve_distance(old.miss_curve, vc.miss_curve)
                > self.dirty_threshold
                or _rate_distance(
                    prev.accessor_rates(vc.vc_id),
                    problem.accessor_rates(vc.vc_id),
                ) > self.dirty_threshold
            ):
                dirty.add(vc.vc_id)
        return dirty

    def dirty_vcs_from_sketches(
        self, prev: PlacementProblem, problem: PlacementProblem
    ) -> set[int]:
        """Sketch-driven dirty detection: O(sketch) per VC, superset of
        :meth:`dirty_vcs` at the same threshold, over the same candidate
        VCs.

        Curve movement is judged from sketch deltas: the candidates'
        sketches when the problems share records, else the per-problem
        sketch banks (one vectorized pass over all VCs; stationary
        problems reuse bank rows so their deltas are exactly zero).
        Accessor-rate movement uses the same exact :func:`_rate_distance`
        as the exact path — rates are scalars, there is nothing to
        sketch.  ``dirty_threshold <= 0`` degenerates bitwise to the full
        set, like the exact path.
        """
        if self.dirty_threshold <= 0:
            return {vc.vc_id for vc in problem.vcs}
        positions = _candidate_positions(prev, problem)
        try:
            if positions is None:
                candidates = problem.vcs
                deltas = problem_sketch_bank(problem, self.sketch_bytes).deltas_to(
                    problem_sketch_bank(prev, self.sketch_bytes)
                )
            else:
                candidates = [problem.vcs[i] for i in positions]
                deltas = dict(zip(
                    [vc.vc_id for vc in candidates],
                    sketch_deltas(record_sketch_pairs(
                        prev, problem, positions, self.sketch_bytes
                    )),
                ))
        except ValueError:
            # Grid mismatch (the chip's LLC size changed): every delta is
            # unbounded, so everything is conservatively dirty.
            return {vc.vc_id for vc in problem.vcs}
        dirty: set[int] = set()
        for vc in candidates:
            delta = deltas.get(vc.vc_id)
            if (
                delta is None
                or delta > self.dirty_threshold
                or _rate_distance(
                    prev.accessor_rates(vc.vc_id),
                    problem.accessor_rates(vc.vc_id),
                ) > self.dirty_threshold
            ):
                dirty.add(vc.vc_id)
        return dirty

    def _can_warm_start(self, problem, policy, state) -> bool:
        if state.problem is None or state.solution is None:
            return False
        if not policy.latency_aware_allocation:
            # Pinned solves re-allocate through the latency-aware
            # allocator; Jigsaw-style miss-driven policies take the full path.
            return False
        prev = state.problem
        if prev.topology.tiles != problem.topology.tiles:
            return False
        if {t.thread_id for t in prev.threads} != {
            t.thread_id for t in problem.threads
        }:
            return False
        return True

    # -- solve --------------------------------------------------------------

    def solve(self, problem, policy, external_thread_cores, state):
        pinned = None
        if self._can_warm_start(problem, policy, state):
            if self.use_sketches:
                dirty = self.dirty_vcs_from_sketches(state.problem, problem)
            else:
                dirty = self.dirty_vcs(state.problem, problem)
            all_ids = {vc.vc_id for vc in problem.vcs}
            if dirty != all_ids:
                prev_sol = state.solution
                if not dirty and not set(prev_sol.vc_allocation) - all_ids:
                    # Nothing moved: the previous placement is this
                    # epoch's answer.
                    return ReconfigResult(
                        _copy_solution(prev_sol), StepCounter(), {},
                        strategy=self.name,
                    )
                pinned = _clean_part(problem, prev_sol, all_ids - dirty, dirty)
        result = reconfigure(problem, policy, external_thread_cores, pinned)
        result.strategy = self.name
        return result


def _candidate_positions(
    prev: PlacementProblem, problem: PlacementProblem
) -> list[int] | None:
    """Positions of the VCs whose curve distance or rate distance to
    *prev* can be nonzero, or ``None`` when
    :func:`~repro.sched.problem.changed_records` cannot diff the pair.

    A VC whose record both problems share has the same curve object, so
    distance 0, and unless a changed thread names it, before or after,
    every thread keying it is shared too, so its accessor map is equal:
    the candidates are the changed VC records plus the VCs the changed
    threads name."""
    changes = changed_records(prev, problem)
    if changes is None:
        return None
    candidates, thread_changed = changes
    if thread_changed:
        positions = problem.vc_positions
        named = set(candidates)
        for i in thread_changed:
            for thread in (prev.threads[i], problem.threads[i]):
                named.update(
                    positions[vc_id] for vc_id in thread.vc_accesses
                    if vc_id in positions
                )
        candidates = sorted(named)
    return candidates


def _candidate_pairs(prev: PlacementProblem, problem: PlacementProblem):
    """``(vc, its record in prev or None)`` for every VC whose dirtiness
    must be checked: the candidates of :func:`_candidate_positions`, or
    every VC of a pair that cannot be diffed."""
    positions = _candidate_positions(prev, problem)
    if positions is None:
        prev_by_id = {vc.vc_id: vc for vc in prev.vcs}
        return [(vc, prev_by_id.get(vc.vc_id)) for vc in problem.vcs]
    return [(problem.vcs[i], prev.vcs[i]) for i in positions]


def _clean_part(
    problem: PlacementProblem,
    prev_sol: PlacementSolution,
    clean_ids: set[int],
    dirty: set[int],
) -> PlacementSolution:
    """What a warm solve pins of the previous solution: the clean VCs'
    sizes and banks, and the cores of threads that touch no dirty VC."""
    return PlacementSolution(
        vc_sizes={
            vc_id: prev_sol.vc_sizes.get(vc_id, 0.0) for vc_id in clean_ids
        },
        vc_allocation={
            vc_id: prev_sol.vc_allocation[vc_id]
            for vc_id in clean_ids
            if vc_id in prev_sol.vc_allocation
        },
        thread_cores={
            t.thread_id: prev_sol.thread_cores[t.thread_id]
            for t in problem.threads
            if t.thread_id in prev_sol.thread_cores
            and not any(vc_id in dirty for vc_id in t.vc_accesses)
        },
    )


# ---------------------------------------------------------------------------
# Region splits
# ---------------------------------------------------------------------------


def auto_regions(topology) -> int:
    """Split factor so each region is roughly the paper's 8x8 design
    point: the largest k <= min(W, H) // 8 that divides both axes
    (1 when the mesh is too small or indivisible — i.e. a full solve)."""
    width = getattr(topology, "width", None)
    height = getattr(topology, "height", None)
    if not width or not height:
        return 1
    for k in range(min(width, height) // 8, 1, -1):
        if width % k == 0 and height % k == 0:
            return k
    return 1


def _split_dims(topo: Mesh, k: int) -> tuple[int, int]:
    """Region (width, height) of a k x k split; validates the topology."""
    if type(topo) is not Mesh:
        raise ValueError(
            "partitioned solves need a plain Mesh topology "
            f"(got {type(topo).__name__})"
        )
    if topo.width % k or topo.height % k:
        raise ValueError(
            f"regions={k} does not divide the "
            f"{topo.width}x{topo.height} mesh"
        )
    return topo.width // k, topo.height // k


def _split_solve(
    problem: PlacementProblem,
    policy: ReconfigPolicy,
    external_thread_cores: dict[int, int] | None,
    k: int,
    strategy_name: str,
    solve_children,
    stitch_ops_budget: int | None = STITCH_OPS_BUDGET,
) -> ReconfigResult:
    """One level of a region split: partition, solve children, merge,
    stitch.

    The body of every :class:`HierarchicalSolve` level (children =
    full-pipeline region solves at the deepest level, recursive split
    solves above it).  *solve_children* maps ``(sub_problems, policy,
    sub_externals)`` to one :class:`ReconfigResult` per region.  The
    modeled critical path is the slowest child's ``modeled_cycles()``
    plus this level's stitch — for a leaf child that is its op count,
    for a nested split its own critical path, so the recursion yields
    slowest-leaf + per-level stitches, each stitch capped at
    *stitch_ops_budget* ops (see :data:`STITCH_OPS_BUDGET`).
    """
    topo = problem.topology
    rw, rh = _split_dims(topo, k)
    n_regions = k * k

    def region_of(tile: int) -> int:
        x, y = topo.coords(tile)
        return (y // rh) * k + (x // rw)

    def to_local(tile: int) -> int:
        x, y = topo.coords(tile)
        return (y % rh) * rw + (x % rw)

    def to_global(region: int, local: int) -> int:
        gx = (region % k) * rw + local % rw
        gy = (region // k) * rh + local // rw
        return topo.tile_at(gx, gy)

    # -- assign processes (and with them, threads + VCs) to regions ----
    region_threads: dict[int, list] = {r: [] for r in range(n_regions)}
    if external_thread_cores is not None:
        thread_region: dict[int, int] = {}
        for thread in problem.threads:
            core = external_thread_cores.get(thread.thread_id)
            if core is None:
                raise ValueError(
                    f"external placement misses thread {thread.thread_id}"
                )
            region = region_of(core)
            seen = thread_region.get(thread.process_id)
            if seen is not None and seen != region:
                # A process's shared VCs live in exactly one region;
                # threads scattered across regions would silently
                # under-allocate them.  Refuse rather than diverge.
                raise ValueError(
                    f"external placement splits process "
                    f"{thread.process_id} across regions; partitioned "
                    f"solves need region-local processes (use fewer "
                    f"regions or a region-aligned placement)"
                )
            thread_region[thread.process_id] = region
            region_threads[region].append(thread)
    else:
        by_process: dict[int, list] = {}
        for thread in problem.threads:
            by_process.setdefault(thread.process_id, []).append(thread)
        free = {r: rw * rh for r in range(n_regions)}
        order = sorted(
            by_process.items(), key=lambda kv: (-len(kv[1]), kv[0])
        )
        for process_id, threads in order:
            target = max(
                range(n_regions), key=lambda r: (free[r], -r)
            )
            if len(threads) > free[target]:
                raise ValueError(
                    f"process {process_id} has {len(threads)} threads "
                    f"but the largest region has {free[target]} free "
                    f"cores; use fewer regions"
                )
            region_threads[target].extend(threads)
            free[target] -= len(threads)

    process_region = {
        t.process_id: r
        for r, threads in region_threads.items()
        for t in threads
    }
    # Orphan VCs (the zero-rate global VC's process id maps nowhere) go
    # to the first region that actually has threads, so no region ends up
    # holding VCs it has no accessors for.
    default_region = next(
        (r for r in range(n_regions) if region_threads[r]), 0
    )
    region_vcs: dict[int, list] = {r: [] for r in range(n_regions)}
    for vc in problem.vcs:
        region_vcs[process_region.get(vc.process_id, default_region)].append(vc)

    # -- solve each region as an independent sub-problem ---------------
    sub_config = problem.config.with_mesh(rw, rh)
    sub_problems = []
    sub_externals = []
    for region in range(n_regions):
        sub_problems.append(
            PlacementProblem(
                config=sub_config,
                topology=Mesh(rw, rh),
                vcs=region_vcs[region],
                threads=region_threads[region],
                # The DRAM round trip is a chip-level constant; regions
                # see the same memory the whole mesh does.
                mem_latency=problem.mem_latency,
            )
        )
        if external_thread_cores is None:
            sub_externals.append(None)
        else:
            sub_externals.append(
                {
                    t.thread_id: to_local(
                        external_thread_cores[t.thread_id]
                    )
                    for t in region_threads[region]
                }
            )

    # Regions no process landed in (small meshes, forced splits) have
    # nothing to solve: give them an empty result instead of running the
    # pipeline on a degenerate zero-thread problem.
    live = [
        i for i, sub in enumerate(sub_problems) if sub.threads or sub.vcs
    ]
    live_results = dict(zip(live, solve_children(
        [sub_problems[i] for i in live],
        policy,
        [sub_externals[i] for i in live],
    )))
    region_results = [
        live_results[i] if i in live_results else ReconfigResult(
            PlacementSolution(
                vc_sizes={}, vc_allocation={}, thread_cores={}
            ),
            StepCounter(), {}, strategy=strategy_name,
        )
        for i in range(n_regions)
    ]

    # -- merge local solutions back into chip coordinates ---------------
    counter = StepCounter()
    wall: dict[str, float] = {}
    allocation: dict[int, dict[int, float]] = {}
    thread_cores: dict[int, int] = {}
    critical = 0.0
    for region, result in enumerate(region_results):
        counter = counter.merged(result.counter)
        # A leaf's modeled cycles are its op count; a nested split's are
        # its own critical path — identical for flat partitioned solves
        # (leaves carry no critical_path_cycles), recursive otherwise.
        critical = max(critical, result.modeled_cycles())
        for step, seconds in result.wall_seconds.items():
            wall[step] = wall.get(step, 0.0) + seconds
        for vc_id, per_bank in result.solution.vc_allocation.items():
            allocation[vc_id] = {
                to_global(region, bank): amount
                for bank, amount in per_bank.items()
            }
        for thread_id, core in result.solution.thread_cores.items():
            thread_cores[thread_id] = to_global(region, core)

    # -- stitch: boundary VCs trade across the seams --------------------
    if policy.trade_refinement:
        t0 = time.perf_counter()  # repro: allow[determinism] reported wall time, never a decision input
        boundary_banks = {
            tile
            for tile in range(topo.tiles)
            if any(
                region_of(n) != region_of(tile)
                for n in topo.neighbors(tile)
            )
        }
        boundary_vcs = {
            vc_id
            for vc_id, per_bank in allocation.items()
            if any(
                bank in boundary_banks and amount > 1e-9
                for bank, amount in per_bank.items()
            )
        }
        stitch_counter = StepCounter()
        trade_refinement(
            problem, allocation, thread_cores, stitch_counter,
            initiators=boundary_vcs, ops_budget=stitch_ops_budget,
        )
        stitch_ops = sum(stitch_counter.ops.values())
        if stitch_ops:
            counter.add("stitch", stitch_ops)
        critical += stitch_ops * CYCLES_PER_OP
        wall["stitch"] = time.perf_counter() - t0  # repro: allow[determinism] reported wall time, never a decision input

    solution = PlacementSolution(
        vc_sizes={
            vc_id: sum(per.values())
            for vc_id, per in allocation.items()
        },
        vc_allocation=allocation,
        thread_cores=thread_cores,
    )
    return ReconfigResult(
        solution, counter, wall,
        strategy=strategy_name, critical_path_cycles=critical,
    )


class HierarchicalSolve:
    """Regions of regions: recursive splits down to paper-sized leaves.

    A flat k x k split stops scaling once k² regions each still hold
    hundreds of tiles (or the stitch seam grows to a large fraction of
    the chip).  This strategy splits by the *smallest* common divisor
    k >= 2 of the mesh axes at every level, recursing until a region is
    at most *leaf_tiles* tiles (default 64 — the paper's 8x8 design
    point), then solves the leaves through the unchanged pipeline.  Every
    level merges its children with the shared :func:`_split_solve` body
    and runs the same boundary-trade stitch over its seams, so data still
    migrates across region borders at every scale.  The modeled critical
    path compounds as slowest-leaf + one stitch per level (regions at one
    level solve on parallel runtime cores; stitches are sequential), and
    each stitch is an anytime pass capped at ``stitch_ops_budget`` ops —
    that cap is what bounds the whole chain: leaf + levels x budget stays
    inside the 50 Mcycle interval even for the four-level 128x128 mesh.

    ``regions`` fixes the *top-level* split factor (deeper levels stay
    automatic); ``depth`` caps the number of split levels.  A one-level
    solve without ``regions`` splits by :func:`auto_regions` (~8x8
    regions), not by the smallest divisor.  The registered presets:
    ``"full"`` fixes ``regions=1`` (no seams, no stitch: bitwise
    ``reconfigure()``), and ``"partitioned"`` fixes ``depth=1`` (one flat
    split of full-pipeline leaves plus one stitch).  Threads follow their
    process into exactly one region (bin-packed largest-first; with
    external placements, the region owning the external core), and each
    process's VCs come along.  Leaves re-solve cold every epoch, one
    after another, in process — warm per-leaf engines would break the
    presets' bitwise contracts.
    """

    name = "hierarchical"

    def __init__(
        self,
        regions: int | None = None,
        depth: int | None = None,
        leaf_tiles: int = 64,
        stitch_ops_budget: int | None = STITCH_OPS_BUDGET,
    ):
        if regions is not None and regions < 1:
            raise ValueError(f"regions must be >= 1, got {regions}")
        if depth is not None and depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if leaf_tiles < 1:
            raise ValueError(f"leaf_tiles must be >= 1, got {leaf_tiles}")
        if stitch_ops_budget is not None and stitch_ops_budget < 1:
            raise ValueError(
                f"stitch_ops_budget must be >= 1, got {stitch_ops_budget}"
            )
        self.regions = regions
        self.depth = depth
        self.leaf_tiles = leaf_tiles
        self.stitch_ops_budget = stitch_ops_budget

    def _auto_k(self, topo) -> int:
        """Smallest common divisor >= 2 of the mesh axes (1 = leaf:
        the region is small enough, or the axes share no divisor)."""
        width = getattr(topo, "width", None)
        height = getattr(topo, "height", None)
        if not width or not height:
            return 1
        if topo.tiles <= self.leaf_tiles:
            return 1
        for k in range(2, min(width, height) + 1):
            if width % k == 0 and height % k == 0:
                return k
        return 1

    def _level_k(self, topo, remaining: int | None) -> int:
        if remaining is not None and remaining <= 0:
            return 1
        return self._auto_k(topo)

    def solve(self, problem, policy, external_thread_cores, state):
        topo = problem.topology
        if self.regions is not None:
            k = self.regions
        elif self.depth == 1:
            k = auto_regions(topo)
        else:
            k = self._auto_k(topo)
        if k <= 1:
            result = reconfigure(problem, policy, external_thread_cores)
            result.strategy = self.name
            return result
        remaining = None if self.depth is None else self.depth - 1
        return _split_solve(
            problem, policy, external_thread_cores, k, self.name,
            lambda subs, pol, exts: self._solve_children(
                subs, pol, exts, remaining
            ),
            stitch_ops_budget=self.stitch_ops_budget,
        )

    def _solve_children(self, subs, policy, exts, remaining):
        if not subs:
            return []
        # Regions at one level share dimensions, so one decision covers
        # them all: recurse deeper, or solve this level's regions as
        # leaves through the full pipeline (the flat strategy's path).
        child_k = self._level_k(subs[0].topology, remaining)
        if child_k <= 1:
            return [reconfigure(sub, policy, ext) for sub, ext in zip(subs, exts)]
        next_remaining = None if remaining is None else remaining - 1
        return [
            _split_solve(
                sub, policy, ext, child_k, self.name,
                lambda s, p, e: self._solve_children(
                    s, p, e, next_remaining
                ),
                stitch_ops_budget=self.stitch_ops_budget,
            )
            for sub, ext in zip(subs, exts)
        ]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: Registered strategy names (the scheme/CLI vocabulary) -> the class and
#: the constructor kwargs the name fixes.
STRATEGIES = {
    "full": (HierarchicalSolve, {"regions": 1}),
    "incremental": (IncrementalSolve, {}),
    "partitioned": (HierarchicalSolve, {"depth": 1}),
    "hierarchical": (HierarchicalSolve, {}),
}


def strategy_names() -> list[str]:
    return sorted(STRATEGIES)


def make_strategy(name: str, **kwargs) -> SolveStrategy:
    """Build a strategy from its registered name.

    *kwargs* pass through to the constructor, except the ones the name
    fixes (``ValueError``).  The instance's ``name`` is the registered
    name, so results carry it as their ``strategy`` tag.
    """
    try:
        cls, fixed = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown solve strategy {name!r} "
            f"(have: {', '.join(strategy_names())})"
        ) from None
    clash = sorted(set(kwargs) & set(fixed))
    if clash:
        raise ValueError(
            f"strategy {name!r} fixes "
            + ", ".join(f"{key}={fixed[key]!r}" for key in clash)
            + "; 'hierarchical' takes any of them"
        )
    strategy = cls(**fixed, **kwargs)
    strategy.name = name
    return strategy


class ReconfigEngine:
    """Carries solver state across epochs and applies one strategy.

    ``engine.solve(problem)`` runs the configured strategy against the
    previous epoch's (problem, solution) pair and records the new pair —
    exactly the warm state the periodic runtime of Sec IV-G keeps between
    intervals.  Construct with a registered name from :data:`STRATEGIES`
    (``"full"``, ``"incremental"``, ``"partitioned"``, ``"hierarchical"``)
    plus its kwargs, or a ready :class:`SolveStrategy` instance.
    """

    def __init__(
        self,
        strategy: str | SolveStrategy = "full",
        policy: ReconfigPolicy | None = None,
        external_thread_cores: dict[int, int] | None = None,
        **strategy_kwargs,
    ):
        if isinstance(strategy, str):
            strategy = make_strategy(strategy, **strategy_kwargs)
        elif strategy_kwargs:
            raise ValueError(
                "strategy kwargs only apply when the strategy is named"
            )
        self.strategy = strategy
        self.policy = policy or ReconfigPolicy.cdcs()
        self.external_thread_cores = external_thread_cores
        self.state = EngineState()

    def solve(self, problem: PlacementProblem) -> ReconfigResult:
        """Solve one epoch's problem and advance the engine state."""
        result = self.strategy.solve(
            problem, self.policy, self.external_thread_cores, self.state
        )
        # Snapshot the solution: callers own the returned object and may
        # mutate it without corrupting the next epoch's warm start.
        self.state = EngineState(
            problem=problem, solution=_copy_solution(result.solution)
        )
        return result

    def last_solution(self) -> PlacementSolution | None:
        """A copy of the most recent solution, or ``None`` before the
        first solve.  This is the "last good placement" a serving control
        plane degrades to when a fresh solve times out or fails — the
        copy means handing it to a client can never corrupt warm state."""
        if self.state.solution is None:
            return None
        return _copy_solution(self.state.solution)

    def reset(self) -> None:
        """Drop the warm state (the next solve is a cold start)."""
        self.state = EngineState()
