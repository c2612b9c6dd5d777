"""Kernel microbenchmarks: the vectorized epoch kernels vs their scalar
oracles (``tests/oracles.py``).

The claim that the inner epoch loop is array math is measured here, not
asserted in prose:

* **miss-curve batch**: all VCs' curves on the allocation grid in one
  :class:`MissCurveBatch` call vs one ``np.interp`` per curve;
* **placement scoring**: Sec IV-D candidate scoring as matrix passes vs
  per-candidate window loops;
* **sharing fixed point**: S-NUCA's chip-wide cache of the golden mix
  through ``solve_sharing_plans`` (the path ``SNuca.run`` takes) vs
  per-stream nested bisection, asserted ``==``;
* **mega-batch sharing**: one 4-mix fig11 ``solve_sharing_plans`` call
  (S-NUCA's chip-wide caches merged with R-NUCA's per-bank pools: 512
  lanes, 260 caches) vs the scalar per-cache loop, asserted ``==``;
* **seed anchors**: the greedy seed's 1-medians of the eight process
  VCs of the end-to-end fig15 mix, each read from eight cores, as
  ``(B, N)`` blocks through ``weighted_center_tiles`` vs one
  ``weighted_center_tile`` per VC, asserted ``==`` (reported, not
  floored);
* **evaluation batch**: the 20 (mix, scheme) items of the same 4-mix
  fig11 plan scored in one stacked ``evaluate_solutions_batch`` call vs
  20 one-item ``evaluate_solution`` calls, asserted ``==`` (reported,
  not floored);
* **thread rows**: ``place_threads`` on the golden problem, every
  thread's distance row from ``(256, N)`` blocks, vs the oracle's one
  row call per thread, asserted ``==`` (reported, not floored);
* **data placement**: ``refined_placement`` (greedy seeding and trades
  on Python floats) vs the oracle's NumPy tallies and distance rows, on
  the golden problem and on one warm pinned solve of a 256-tile
  ``build_chip`` chip, asserted ``==`` (reported, not floored);
* **end-to-end**: one fig11 (64-app) and one fig15 (multithreaded) sweep
  point with the oracles patched in (``scalar_reference``) vs the kernels,
  each timed run on an empty allocation row memo (``empty_row_memo``), so
  neither side reads rows an earlier repeat built.

The acceptance gates (>= 3x on batched miss-curve evaluation and placement
scoring, >= 80x on the mega-batch sharing call, > 1.5x on the end-to-end
points) are asserted.  Results are appended to
``benchmarks/benchmark_results.txt`` and recorded as a JSON entry in
``benchmarks/BENCH.json`` so the speedup history survives refactors.
"""

from __future__ import annotations

import importlib
import importlib.util
import time
from pathlib import Path

import numpy as np

from conftest import emit, record_bench_entry

from repro.cache.miss_curve import MissCurveBatch
from repro.config import default_config
from repro.experiments.sweeps import SweepResult, evaluate_mix
from repro.geometry.placement_math import (
    weighted_center_tile,
    weighted_center_tiles,
)
from repro.model.system import AnalyticSystem
from repro.nuca import standard_schemes
from repro.nuca.base import build_problem
from repro.nuca.sharing import solve_sharing_plans
from repro.nuca.snuca import SNuca
from repro.sched.allocation import allocate_latency_aware
from repro.sched.opcount import StepCounter
from repro.sched.refinement import greedy_placement, trade_refinement
from repro.sched.thread_placement import place_threads
from repro.sched.vc_placement import place_optimistic
from repro.testing import fig11_sharing_plans, golden_mix
from repro.vcache.virtual_cache import VCKind
from repro.workloads.mixes import (
    random_multithreaded_mix,
    random_single_threaded_mix,
)


# tests/oracles.py, loaded by path: putting tests/ on sys.path would let
# its conftest shadow this directory's.
_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of *repeats* runs (reduces scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _warm_data_placement_inputs() -> tuple:
    """``(problem, sizes, thread_cores, {"only_vcs", "preplaced"})`` of
    the data placement step of a 256-tile chip's first warm solve."""
    from repro.sched.engine import EngineState, IncrementalSolve
    from repro.sched.reconfigure import ReconfigPolicy
    from repro.service.load import LoadSpec, build_chip

    reconfigure_module = importlib.import_module("repro.sched.reconfigure")
    seen = []
    real = reconfigure_module.refined_placement

    def recording(problem, sizes, cores, counter, **kwargs):
        seen.append((problem, dict(sizes), dict(cores), {
            "only_vcs": kwargs["only_vcs"],
            "preplaced": {v: dict(b) for v, b in kwargs["preplaced"].items()},
        }))
        return real(problem, sizes, cores, counter, **kwargs)

    _, sim = build_chip(LoadSpec(chips=1, tiles=256, seed=1), 0)
    strategy, state = IncrementalSolve(use_sketches=True), EngineState()
    reconfigure_module.refined_placement = recording
    try:
        while not [case for case in seen if case[3]["only_vcs"] is not None]:
            problem = sim.current_problem()
            result = strategy.solve(problem, ReconfigPolicy.cdcs(), None, state)
            state = EngineState(problem, result.solution)
            sim.run_epoch(result.solution, 50e6)
    finally:
        reconfigure_module.refined_placement = real
    return next(case for case in seen if case[3]["only_vcs"] is not None)


def test_kernel_speedups(once):
    config = default_config()
    problem = build_problem(config=config, mix=golden_mix())
    curves = [vc.miss_curve for vc in problem.vcs]
    quanta = problem.total_bytes // problem.quantum
    grid = np.arange(quanta + 1, dtype=np.float64) * problem.quantum

    def run() -> dict:
        speedups: dict[str, float] = {}

        # 1. Batched miss-curve evaluation: all VCs' allocations probed in
        # one call vs the scalar loop (the Eq 1 / sharing inner step).
        # Repeat the probe 50x so the measurement isn't pure call overhead
        # (one bisection runs thousands of these).
        batch = MissCurveBatch(curves)
        rng = np.random.default_rng(0)
        allocations = rng.uniform(0.0, problem.total_bytes, len(curves))
        scalar_t = _best_of(
            lambda: [
                [float(c(x)) for c, x in zip(curves, allocations)]
                for _ in range(50)
            ]
        )
        batch_t = _best_of(lambda: [batch(allocations) for _ in range(50)])
        assert np.array_equal(
            batch(allocations),
            np.array([float(c(x)) for c, x in zip(curves, allocations)]),
        )
        speedups["miss_curve_batch"] = scalar_t / batch_t
        assert np.array_equal(
            batch.at_grid(grid), np.vstack([np.asarray(c(grid)) for c in curves])
        )

        # 2. Placement candidate scoring (Sec IV-D).
        vc_sizes = allocate_latency_aware(problem)
        scalar_t = _best_of(
            lambda: oracles.place_optimistic(problem, vc_sizes), repeats=2
        )
        vector_t = _best_of(
            lambda: place_optimistic(problem, vc_sizes), repeats=2
        )
        assert (
            place_optimistic(problem, vc_sizes).centers
            == oracles.place_optimistic(problem, vc_sizes).centers
        )
        speedups["placement_scoring"] = scalar_t / vector_t

        # 3. LRU-sharing fixed point: S-NUCA's one chip-wide cache, solved
        # through solve_sharing_plans as SNuca.run solves it.
        plan = SNuca(0).sharing_stage(problem)[0]
        scalar_t = _best_of(lambda: oracles.plan_per_cache(plan), repeats=2)
        batch_t = _best_of(lambda: solve_sharing_plans([plan]), repeats=2)
        assert solve_sharing_plans([plan])[0].tolist() == (
            oracles.plan_per_cache(plan)
        )
        speedups["sharing_fixed_point"] = scalar_t / batch_t

        # 4. Mega-batch sharing: every S-NUCA and R-NUCA fixed point of a
        # 4-mix fig11 request in one lockstep call.
        plans = fig11_sharing_plans()
        assert sum(len(p.curves) for p in plans) == 512
        assert sum(len(p.groups) for p in plans) == 260
        merged = solve_sharing_plans(plans)
        assert [m.tolist() for m in merged] == [
            oracles.plan_per_cache(p) for p in plans
        ]
        batch_t = _best_of(lambda: solve_sharing_plans(plans))
        scalar_t = _best_of(
            lambda: [oracles.plan_per_cache(p) for p in plans], repeats=1
        )
        speedups["sharing_mega_batch"] = scalar_t / batch_t

        # 5. Greedy-seed anchors: the 1-median of every process VC of
        # case 7's fig15 mix (eight 8-thread apps, thread t on core t),
        # batched vs one weighted_center_tile per VC.  A one-core map is
        # centered without a cost row, so only maps of two or more cores
        # time the block path.  Both sides repeat 50x so eight maps
        # aren't pure call overhead.
        fig15 = build_problem(random_multithreaded_mix(8, 7, 0), config)
        cores = {t.thread_id: i for i, t in enumerate(fig15.threads)}
        maps = []
        for vc in fig15.vcs:
            if vc.kind is not VCKind.PROCESS:
                continue
            weights: dict[int, float] = {}
            for thread_id, rate in fig15.accessor_rates(vc.vc_id).items():
                core = cores[thread_id]
                weights[core] = weights.get(core, 0.0) + rate
            maps.append(weights)
        assert len(maps) == 8 and all(len(w) >= 2 for w in maps)
        topology = fig15.topology
        assert weighted_center_tiles(topology, maps) == [
            weighted_center_tile(topology, w) for w in maps
        ]
        scalar_t = _best_of(
            lambda: [
                [weighted_center_tile(topology, w) for w in maps]
                for _ in range(50)
            ]
        )
        batch_t = _best_of(
            lambda: [weighted_center_tiles(topology, maps) for _ in range(50)]
        )
        speedups["seed_anchors"] = scalar_t / batch_t

        # 6. Evaluation: every (mix, scheme) item of the 4-mix fig11 plan
        # in one stacked call vs one call per item.
        items = []
        for mix_id in range(4):
            mix = random_single_threaded_mix(64, 42, mix_id)
            mix_problem = build_problem(mix, config)
            items += [
                (mix, mix_problem, scheme.run(mix_problem))
                for scheme in standard_schemes(mix_id)
            ]
        assert len(items) == 20
        system = AnalyticSystem(config)

        def one_by_one() -> list:
            return [system.evaluate_solution(*item) for item in items]

        for got, want in zip(system.evaluate_solutions_batch(items), one_by_one()):
            assert got == want and got.threads == want.threads
            assert got.traffic_per_instr() == want.traffic_per_instr()
            assert (
                got.mean_onchip_latency_per_access(),
                got.offchip_latency_per_kiloinstr(),
            ) == (
                want.mean_onchip_latency_per_access(),
                want.offchip_latency_per_kiloinstr(),
            )
        batch_t = _best_of(lambda: system.evaluate_solutions_batch(items), 5)
        single_t = _best_of(one_by_one, 5)
        speedups["evaluation_batch"] = single_t / batch_t

        # 7. Thread placement: block rows vs one row call per thread.
        optimistic = place_optimistic(problem, vc_sizes)
        assert place_threads(problem, vc_sizes, optimistic) == (
            oracles.place_threads(problem, vc_sizes, optimistic)
        )
        scalar_t = _best_of(
            lambda: oracles.place_threads(problem, vc_sizes, optimistic), 5
        )
        vector_t = _best_of(lambda: place_threads(problem, vc_sizes, optimistic), 5)
        speedups["thread_rows"] = scalar_t / vector_t

        # 8. Data placement: the golden problem's cold seeding and trades,
        # and one warm pinned solve's (a 256-tile chip's second epoch).
        cores = place_threads(problem, vc_sizes, optimistic)
        cases = [(problem, vc_sizes, cores, {})]
        cases.append(_warm_data_placement_inputs())

        def refine(greedy, trade):
            out = []
            for case_problem, sizes, case_cores, kwargs in cases:
                allocation = greedy(case_problem, sizes, case_cores, **kwargs)
                counter = StepCounter()
                trade(case_problem, allocation, case_cores, counter,
                      kwargs.get("only_vcs"))
                out.append((allocation, list(counter.ops.items())))
            return out

        def kernels():
            return refine(greedy_placement, trade_refinement)

        def scalar():
            return refine(oracles.greedy_placement, oracles.trade_refinement)

        assert kernels() == scalar()
        scalar_t = _best_of(scalar, 5)
        vector_t = _best_of(kernels, 5)
        speedups["data_placement"] = scalar_t / vector_t

        # 9. End-to-end sweep points (fig11 single-threaded, fig15 MT),
        # each run on a cold row memo, as the scalar side's always is.
        def point(multithreaded: bool) -> None:
            if multithreaded:
                mix = random_multithreaded_mix(8, 7, 0)
            else:
                mix = golden_mix()
            evaluate_mix(
                config, mix, SweepResult(n_apps=64, n_mixes=1), seed=0
            )

        def cold_point(multithreaded: bool) -> None:
            with oracles.empty_row_memo():
                point(multithreaded)

        for label, multithreaded in (("fig11_point", False), ("fig15_point", True)):
            vector_t = _best_of(lambda: cold_point(multithreaded), repeats=2)
            with oracles.scalar_reference() as calls:
                scalar_t = _best_of(lambda: point(multithreaded), repeats=1)
            assert calls["repro.sched.reconfigure.place_optimistic"] >= 1
            speedups[label] = scalar_t / vector_t
        return speedups

    speedups = once(run)
    rows = "\n".join(
        f"  {name:22s} {ratio:6.1f}x" for name, ratio in speedups.items()
    )
    emit(f"Kernel speedups (vectorized vs scalar reference):\n{rows}")

    record_bench_entry(
        {
            "bench": "bench_kernels",
            "chip": "64-tile mesh (default_config)",
            "speedups": {k: round(v, 2) for k, v in speedups.items()},
            "recorded": time.strftime("%Y-%m-%d"),
        }
    )

    # Acceptance gate: >= 3x on batched miss-curve eval + placement scoring.
    assert speedups["miss_curve_batch"] >= 3.0, speedups
    assert speedups["placement_scoring"] >= 3.0, speedups
    # One stacked exact bisection decides the merged call's pressure
    # searches; a solve per pressure probe (62 calls) reads about 21x.
    assert speedups["sharing_mega_batch"] >= 80.0, speedups
    # End-to-end sweep points must win too (smaller factor: they include
    # the still-sequential hull walks and trade scans).
    assert speedups["fig11_point"] > 1.5, speedups
    assert speedups["fig15_point"] > 1.5, speedups
