"""The reconfiguration engine (repro.sched.engine): strategy equivalence,
warm-start behavior, and the partitioned solve's geometry.

The load-bearing contracts (ISSUE 5 acceptance):

* ``full`` through the engine is bitwise-identical (``==``, not allclose)
  to the pre-refactor ``reconfigure()`` pipeline on the golden fig11 mix;
* ``incremental`` with ``dirty_threshold=0`` and ``partitioned`` with one
  region are bitwise-identical to ``full``;
* warm incremental/partitioned solves stay valid and strictly cheaper in
  modeled cycles than the full pipeline;
* ``reconfigure(pinned=...)`` keeps the pinned VCs' sizes and the pinned
  threads' cores and solves the rest around them.
"""

from dataclasses import replace

import pytest

from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched.engine import (
    HierarchicalSolve,
    IncrementalSolve,
    ReconfigEngine,
    auto_regions,
    make_strategy,
    strategy_names,
)
from repro.sched.problem import PlacementSolution
from repro.sched.reconfigure import ReconfigPolicy, reconfigure
from repro.sched.thread_placement import random_thread_placement
from repro.testing import (
    GOLDEN_MIX as GOLDEN,
    assert_bitwise_equal,
    golden_problem,
    small_problem,
)
from repro.workloads.mixes import random_single_threaded_mix


# -- degenerate equivalence (the pinned contracts) --------------------------


def test_full_strategy_bitwise_matches_prerefactor_pipeline():
    problem = golden_problem()
    reference = reconfigure(problem)
    result = ReconfigEngine("full").solve(problem)
    assert_bitwise_equal(result, reference)
    assert result.strategy == "full"
    assert result.modeled_cycles() == reference.counter.total_cycles()


def test_incremental_threshold_zero_bitwise_matches_full():
    problem = golden_problem()
    reference = reconfigure(problem)
    engine = ReconfigEngine("incremental", dirty_threshold=0.0)
    cold = engine.solve(problem)
    assert_bitwise_equal(cold, reference)
    # Threshold 0 marks every VC dirty: the warm solve is the full
    # pipeline again, not a warm start.
    warm = engine.solve(problem)
    assert_bitwise_equal(warm, reference)
    assert warm.strategy == "incremental"


def test_partitioned_single_region_bitwise_matches_full():
    problem = golden_problem()
    reference = reconfigure(problem)
    result = ReconfigEngine("partitioned", regions=1).solve(problem)
    assert_bitwise_equal(result, reference)
    assert result.strategy == "partitioned"


# -- incremental warm starts ------------------------------------------------


def test_incremental_reuses_solution_when_nothing_moved():
    problem, _ = small_problem()
    engine = ReconfigEngine("incremental")
    cold = engine.solve(problem)
    warm = engine.solve(problem)
    assert warm.counter.ops == {}
    assert warm.modeled_cycles() == 0.0
    assert warm.solution.vc_allocation == cold.solution.vc_allocation
    assert warm.solution.thread_cores == cold.solution.thread_cores
    # The reused solution must not alias engine state.
    warm.solution.thread_cores.clear()
    assert engine.state.solution.thread_cores


def test_incremental_resolves_only_the_dirty_slice():
    from repro.cache.miss_curve import MissCurve

    problem, config = small_problem()
    engine = ReconfigEngine("incremental", dirty_threshold=0.05)
    engine.solve(problem)

    moved = build_problem(random_single_threaded_mix(16, 42, 0), config)
    dirty_ids = {vc.vc_id for vc in moved.vcs[:3]}
    moved = replace(moved, vcs=[
        replace(vc, miss_curve=MissCurve(
            vc.miss_curve.sizes, vc.miss_curve.values * 1.5
        ))
        for vc in moved.vcs[:3]
    ] + moved.vcs[3:])
    warm = engine.solve(moved)
    full = reconfigure(moved)

    warm.solution.validate(moved)
    assert set(warm.solution.thread_cores) == {
        t.thread_id for t in moved.threads
    }
    # Only the dirty slice was re-solved: strictly fewer modeled cycles.
    assert 0 < warm.counter.total_cycles() < full.counter.total_cycles()
    # Threads not touching a dirty VC keep their cores.
    clean_threads = {
        t.thread_id
        for t in moved.threads
        if not any(vc_id in dirty_ids for vc_id in t.vc_accesses)
    }
    for thread_id in clean_threads:
        assert (
            warm.solution.thread_cores[thread_id]
            == engine.state.solution.thread_cores[thread_id]
        )


def test_incremental_dirty_detection_ignores_identical_curves():
    problem, config = small_problem()
    strategy = IncrementalSolve(dirty_threshold=0.05)
    rebuilt = build_problem(random_single_threaded_mix(16, 42, 0), config)
    # Same mix rebuilt: curves are the same objects, nothing is dirty.
    assert strategy.dirty_vcs(problem, rebuilt) == set()
    assert IncrementalSolve(dirty_threshold=0).dirty_vcs(
        problem, rebuilt
    ) == {vc.vc_id for vc in rebuilt.vcs}


# -- partitioned solves -----------------------------------------------------


def test_partitioned_regions_produce_valid_cheaper_solution():
    problem = golden_problem()
    full = reconfigure(problem)
    result = ReconfigEngine("partitioned", regions=2).solve(problem)
    result.solution.validate(problem)
    assert set(result.solution.thread_cores) == {
        t.thread_id for t in problem.threads
    }
    for vc in problem.vcs:
        if sum(problem.accessors_of(vc.vc_id).values()) > 0:
            assert sum(
                result.solution.vc_allocation.get(vc.vc_id, {}).values()
            ) > 0
    # Regions solve on separate cores: the interval sees the critical
    # path, which must beat the single-shot pipeline.
    assert result.critical_path_cycles is not None
    assert result.modeled_cycles() < full.counter.total_cycles()
    assert "stitch" in result.counter.ops


def test_partitioned_respects_external_thread_placement():
    problem = golden_problem()
    external = random_thread_placement(problem, seed=7)
    result = ReconfigEngine(
        "partitioned",
        policy=ReconfigPolicy.jigsaw(),
        external_thread_cores=external,
        regions=2,
    ).solve(problem)
    result.solution.validate(problem)
    assert result.solution.thread_cores == external


def test_partitioned_rejects_indivisible_meshes():
    problem, _ = small_problem()  # 4x4
    with pytest.raises(ValueError, match="does not divide"):
        ReconfigEngine("partitioned", regions=3).solve(problem)


def test_partitioned_rejects_processes_larger_than_a_region():
    from repro.workloads.mixes import make_mix

    config = small_test_config(4, 4)
    problem = build_problem(make_mix(["ilbdc", "milc"]), config)  # 8 threads
    with pytest.raises(ValueError, match="use fewer regions"):
        ReconfigEngine("partitioned", regions=2).solve(problem)


def test_partitioned_rejects_external_placement_splitting_a_process():
    from repro.workloads.mixes import make_mix

    config = small_test_config(4, 4)
    problem = build_problem(make_mix(["ilbdc"]), config)  # one 8-thread app
    # Clustered row-major placement puts the process's 8 threads across
    # both 2x4 half-mesh regions — its shared VC cannot live in one.
    external = {t.thread_id: t.thread_id for t in problem.threads}
    with pytest.raises(ValueError, match="splits process"):
        ReconfigEngine(
            "partitioned",
            policy=ReconfigPolicy.jigsaw(),
            external_thread_cores=external,
            regions=2,
        ).solve(problem)


def test_auto_regions_targets_8x8_regions():
    from repro.geometry.mesh import Mesh

    assert auto_regions(Mesh(4, 4)) == 1
    assert auto_regions(Mesh(8, 8)) == 1
    assert auto_regions(Mesh(16, 16)) == 2
    assert auto_regions(Mesh(32, 32)) == 4
    assert auto_regions(Mesh(24, 24)) == 3


# -- cross-path equivalence -------------------------------------------------


def test_strategies_identical_through_both_kernel_paths():
    from oracles import scalar_reference

    def run_all():
        problem, config = small_problem()
        out = {}
        part = ReconfigEngine("partitioned", regions=2).solve(problem)
        out["partitioned"] = part
        engine = ReconfigEngine("incremental")
        engine.solve(problem)
        moved = build_problem(
            random_single_threaded_mix(16, 42, 0), config
        )
        from repro.cache.miss_curve import MissCurve

        moved = replace(moved, vcs=[
            replace(vc, miss_curve=MissCurve(
                vc.miss_curve.sizes, vc.miss_curve.values * 2.0
            ))
            for vc in moved.vcs[:2]
        ] + moved.vcs[2:])
        out["incremental"] = engine.solve(moved)
        return out

    fast = run_all()
    with scalar_reference() as calls:
        slow = run_all()
    assert calls["repro.sched.reconfigure.place_optimistic"] >= 1
    for name in fast:
        assert fast[name].solution.vc_sizes == slow[name].solution.vc_sizes
        assert (
            fast[name].solution.vc_allocation
            == slow[name].solution.vc_allocation
        )
        assert (
            fast[name].solution.thread_cores
            == slow[name].solution.thread_cores
        )
        assert fast[name].counter.ops == slow[name].counter.ops


# -- engine plumbing --------------------------------------------------------


def test_make_strategy_vocabulary():
    assert strategy_names() == [
        "full", "hierarchical", "incremental", "partitioned"
    ]
    partitioned = make_strategy("partitioned")
    assert partitioned.name == "partitioned"
    assert partitioned.depth == 1
    with pytest.raises(ValueError, match="unknown solve strategy"):
        make_strategy("annealed")
    with pytest.raises(ValueError, match="strategy kwargs"):
        ReconfigEngine(HierarchicalSolve(), regions=2)


def test_presets_reject_the_kwargs_they_fix():
    with pytest.raises(ValueError, match="regions"):
        make_strategy("full", regions=2)
    with pytest.raises(ValueError, match="depth"):
        make_strategy("partitioned", depth=2)
    full = make_strategy("full")
    assert (full.name, full.regions) == ("full", 1)


# -- the pinned warm start --------------------------------------------------


def _pinned_half(problem, trades=True):
    """Every other VC of a solve around random thread cores (sizes and
    banks), and the cores of the threads that read none of the unpinned
    VCs: a placement a cold CDCS solve would not pick."""
    cold = reconfigure(
        problem,
        ReconfigPolicy(place_threads=False, trade_refinement=trades),
        external_thread_cores=random_thread_placement(problem, seed=3),
    ).solution
    vc_ids = [vc.vc_id for vc in problem.vcs][::2]
    free = {vc.vc_id for vc in problem.vcs} - set(vc_ids)
    return PlacementSolution(
        vc_sizes={vc_id: cold.vc_sizes[vc_id] for vc_id in vc_ids},
        vc_allocation={
            vc_id: dict(cold.vc_allocation[vc_id]) for vc_id in vc_ids
        },
        thread_cores={
            t.thread_id: cold.thread_cores[t.thread_id]
            for t in problem.threads
            if not free & set(t.vc_accesses)
        },
    )


@pytest.mark.parametrize("trades", (False, True))
@pytest.mark.parametrize("multithreaded", (False, True))
def test_reconfigure_keeps_what_is_pinned(multithreaded, trades):
    from repro.workloads.mixes import random_multithreaded_mix

    if multithreaded:
        problem = build_problem(
            random_multithreaded_mix(2, 7), small_test_config(4, 4)
        )
    else:
        problem, _ = small_problem()
    policy = ReconfigPolicy(trade_refinement=trades)
    pinned = _pinned_half(problem, trades)
    assert pinned.vc_sizes and pinned.thread_cores
    result = reconfigure(problem, policy, pinned=pinned)
    solution = result.solution
    solution.validate(problem)
    for vc_id, size in pinned.vc_sizes.items():
        assert solution.vc_sizes[vc_id] == size
        if not trades:
            # With trades on, a free VC may swap capacity with a pinned one.
            assert (solution.vc_allocation[vc_id]
                    == pinned.vc_allocation[vc_id])
    for thread_id, core in pinned.thread_cores.items():
        assert solution.thread_cores[thread_id] == core
    assert set(solution.thread_cores) == {
        t.thread_id for t in problem.threads
    }
    assert result.counter.ops["allocation"] < (
        reconfigure(problem, policy).counter.ops["allocation"]
    )


def test_pinned_solve_needs_latency_aware_allocation():
    problem, _ = small_problem()
    pinned = _pinned_half(problem)
    with pytest.raises(ValueError, match="latency-aware"):
        reconfigure(
            problem,
            ReconfigPolicy.jigsaw(),
            external_thread_cores=random_thread_placement(problem),
            pinned=pinned,
        )


def test_engine_threads_state_across_epochs():
    from repro.sim.engine import EpochEngine
    from repro.workloads.mixes import random_phased_mix

    config = small_test_config(4, 4)
    mix = random_phased_mix(8, 42, 0)
    sim = EpochEngine(mix, build_problem(mix, config))
    engine = ReconfigEngine("incremental")
    results = sim.run_reconfigured(engine, 2e8, 5)
    assert len(results) == 5
    assert len(sim.trace.results) == 5
    # The cold start pays the full pipeline; warm epochs re-solve only
    # what the phases moved.
    warm = [r.modeled_cycles() for r in results[1:]]
    assert max(warm) < results[0].modeled_cycles()


def test_reconfigure_epoch_reuses_prior_problem_for_stationary_mixes():
    from repro.sched.reconfigure import reconfigure_epoch
    from repro.workloads.mixes import random_phased_mix

    config = small_test_config(4, 4)
    mix = random_single_threaded_mix(8, 42, 0)
    first, problem = reconfigure_epoch(mix, config)
    again, reused = reconfigure_epoch(mix, config, prior_problem=problem)
    assert reused is problem
    assert again.solution.vc_allocation == first.solution.vc_allocation

    phased = random_phased_mix(4, 42, 0)
    _, p1 = reconfigure_epoch(phased, config)
    _, p2 = reconfigure_epoch(phased, config, prior_problem=p1)
    assert p2 is not p1  # phased curves move: the problem must rebuild
    assert p2.topology is p1.topology  # ... on the prior topology


def test_cdcs_scheme_strategy_selection():
    from repro.nuca.cdcs import Cdcs

    problem = golden_problem()
    result = Cdcs(strategy="partitioned", regions=2).run(problem)
    result.solution.validate(problem)
    assert "stitch" in result.step_cycles
    default = Cdcs().run(problem)
    reference = reconfigure(problem)
    assert default.solution.vc_allocation == reference.solution.vc_allocation


# -- dirty-detection distance edges -----------------------------------------


class _StubCurve:
    """Duck-typed curve with an empty knot grid (no points to compare)."""

    sizes = ()  # np.union1d of two empty grids is an empty grid

    def __call__(self, xs):
        return [0.0 for _ in xs]


def test_curve_distance_identity_is_free():
    from repro.cache.miss_curve import exponential_curve
    from repro.sched.engine import curve_distance
    from repro.util.units import mb

    curve = exponential_curve(mb(32), 40.0, 2.0, mb(2))
    assert curve_distance(curve, curve) == 0.0


def test_curve_distance_empty_union_grid_is_zero():
    from repro.sched.engine import curve_distance

    assert curve_distance(_StubCurve(), _StubCurve()) == 0.0


def test_curve_distance_zero_peak_is_zero_not_nan():
    from repro.cache.miss_curve import flat_curve
    from repro.sched.engine import curve_distance
    from repro.util.units import mb

    a, b = flat_curve(mb(32), 0.0), flat_curve(mb(32), 0.0)
    assert a is not b
    assert curve_distance(a, b) == 0.0


def test_curve_distance_relative_to_larger_peak():
    from repro.cache.miss_curve import flat_curve
    from repro.sched.engine import curve_distance
    from repro.util.units import mb

    assert curve_distance(
        flat_curve(mb(32), 10.0), flat_curve(mb(32), 5.0)
    ) == pytest.approx(0.5)


def test_rate_distance_edges():
    from repro.sched.engine import _rate_distance

    assert _rate_distance({}, {}) == 0.0
    assert _rate_distance({0: 10.0}, {0: 10.0}) == 0.0
    # A thread present on one side only is a full relative move.
    assert _rate_distance({0: 10.0}, {}) == pytest.approx(1.0)
    assert _rate_distance({}, {0: 10.0}) == pytest.approx(1.0)
    # Otherwise the worst per-thread relative change wins.
    assert _rate_distance(
        {0: 10.0, 1: 4.0}, {0: 15.0, 1: 4.0}
    ) == pytest.approx(5.0 / 15.0)
    # Zero-vs-zero rates do not divide by zero.
    assert _rate_distance({0: 0.0}, {0: 0.0}) == 0.0
