"""Property sweep pinning the hierarchical strategy's contracts.

``tests/test_engine.py`` pins the flat strategies on hand-picked points;
this module sweeps the PR 7 hierarchical contracts over 50 seeded random
(mesh, mix, dynamism) cases:

* ``hierarchical`` with ``depth=1`` is bitwise the flat ``partitioned``
  strategy with the same split factor — at *every* epoch of a warm
  drifting loop, not just cold (the recursion collapses to one level of
  full-pipeline leaves through the shared split body);
* ``depth=1, regions=1`` is bitwise ``full`` (no seams, no stitch);
* the anytime stitch budget (:data:`~repro.sched.engine.STITCH_OPS_BUDGET`)
  never binds at these scales, so passing ``stitch_ops_budget=None``
  changes nothing — while a tiny explicit budget provably truncates.

``full`` and ``partitioned`` are presets of ``HierarchicalSolve``, so the
first two sweeps compare the class with itself; the split-strategy
records of ``tests/golden/placement_steps.json`` are the frozen oracle.

The sweep is deterministic: cases are drawn once from a fixed master
seed, so a failure reproduces by its parametrize id.
"""

import random

import pytest

from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched.engine import ReconfigEngine
from repro.sim.engine import EpochEngine
from repro.testing import (
    assert_bitwise_equal,
    assert_solutions_equal,
    golden_problem,
)
from repro.workloads.mixes import (
    random_phased_mix,
    random_single_threaded_mix,
)

EPOCHS = 3
EPOCH_CYCLES = 200e6

#: Top-level split factor for the sweep: every drawn side is even, and
#: ``auto_regions`` degenerates to one region on meshes this small, so
#: the split (and its stitch) must be forced to be exercised at all.
REGIONS = 2


def _draw_cases(count: int, master_seed: int = 20260808):
    """*count* random (side, apps, seed, mix_id, phased) tuples."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        side = rng.choice((2, 4, 4, 4, 8))
        apps = rng.randint(2, side * side)
        cases.append((
            side,
            apps,
            rng.randint(0, 9999),
            rng.randint(0, 7),
            rng.random() < 0.5,
        ))
    return cases


CASES = _draw_cases(50)


def _case_id(case) -> str:
    side, apps, seed, mix_id, phased = case
    arm = "phased" if phased else "stationary"
    return f"{side}x{side}-{apps}a-s{seed}-m{mix_id}-{arm}"


def _mix(apps, seed, mix_id, phased):
    if phased:
        return random_phased_mix(apps, seed, mix_id)
    return random_single_threaded_mix(apps, seed, mix_id)


def _build_sim(side, apps, seed, mix_id, phased) -> EpochEngine:
    config = small_test_config(side, side)
    mix = _mix(apps, seed, mix_id, phased)
    return EpochEngine(mix, build_problem(mix, config))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_depth1_bitwise_equals_flat_partitioned(case):
    """One-level recursion == the flat split, at every warm epoch."""
    reference = _build_sim(*case).run_reconfigured(
        ReconfigEngine("partitioned", regions=REGIONS),
        EPOCH_CYCLES, EPOCHS,
    )
    results = _build_sim(*case).run_reconfigured(
        ReconfigEngine("hierarchical", depth=1, regions=REGIONS),
        EPOCH_CYCLES, EPOCHS,
    )
    assert len(results) == len(reference) == EPOCHS
    for got, want in zip(results, reference):
        # The strategy tag differs; placements AND op counts must not —
        # depth=1 runs the identical split body, stitch included.
        assert_bitwise_equal(got, want)
        assert got.modeled_cycles() == want.modeled_cycles()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_depth1_single_region_bitwise_equals_full(case):
    """``depth=1, regions=1``: no seams, no stitch — exactly ``full``."""
    side, apps, seed, mix_id, phased = case
    config = small_test_config(side, side)
    problem = build_problem(_mix(apps, seed, mix_id, phased), config)
    want = ReconfigEngine("full").solve(problem)
    got = ReconfigEngine(
        "hierarchical", depth=1, regions=1
    ).solve(problem)
    assert_bitwise_equal(got, want)
    assert "stitch" not in got.counter.ops


# -- recursion structure ----------------------------------------------------


def _deep_problem():
    """A 16x16 mesh that recurses twice with ``leaf_tiles=16``."""
    config = small_test_config(16, 16)
    return build_problem(random_single_threaded_mix(64, 7, 3), config)


def test_deep_recursion_produces_valid_bounded_solution():
    problem = _deep_problem()
    result = ReconfigEngine("hierarchical", leaf_tiles=16).solve(problem)
    result.solution.validate(problem)
    assert result.strategy == "hierarchical"
    assert "stitch" in result.counter.ops
    # The critical path (slowest leaf + per-level stitches) must beat
    # paying the whole op count on one runtime core.
    assert result.critical_path_cycles is not None
    assert result.modeled_cycles() < result.counter.total_cycles()


def test_depth_cap_matching_natural_depth_is_identity():
    """``depth=2`` on a mesh whose natural recursion is 2 levels deep
    equals the uncapped solve bitwise."""
    problem = _deep_problem()
    capped = ReconfigEngine(
        "hierarchical", depth=2, leaf_tiles=16
    ).solve(problem)
    natural = ReconfigEngine("hierarchical", leaf_tiles=16).solve(problem)
    assert_bitwise_equal(capped, natural)
    assert capped.modeled_cycles() == natural.modeled_cycles()


def test_deeper_recursion_shortens_critical_path():
    """Two levels of 2x2 splits beat one: leaves are smaller and every
    stitch is seam-local, so the modeled interval cost drops."""
    problem = _deep_problem()
    deep = ReconfigEngine("hierarchical", leaf_tiles=16).solve(problem)
    flat = ReconfigEngine("partitioned", regions=2).solve(problem)
    assert deep.modeled_cycles() < flat.modeled_cycles()


# -- the anytime stitch budget ----------------------------------------------


def test_default_budget_never_binds_at_paper_scale():
    """At 64 tiles the stitch measures far under the budget, so the
    default and an unlimited budget are bitwise identical."""
    want = ReconfigEngine(
        "partitioned", regions=2, stitch_ops_budget=None
    ).solve(golden_problem())
    got = ReconfigEngine("partitioned", regions=2).solve(golden_problem())
    assert_bitwise_equal(got, want)


def test_tiny_budget_truncates_the_stitch():
    """An explicit 1-op budget stops the pass after one initiator's scan;
    the solution stays valid and the stitch gets strictly cheaper."""
    problem = golden_problem()
    unbudgeted = ReconfigEngine(
        "partitioned", regions=2, stitch_ops_budget=None
    ).solve(problem)
    budgeted = ReconfigEngine(
        "partitioned", regions=2, stitch_ops_budget=1
    ).solve(problem)
    budgeted.solution.validate(problem)
    assert 0 < budgeted.counter.ops["stitch"] \
        < unbudgeted.counter.ops["stitch"]
    assert budgeted.modeled_cycles() < unbudgeted.modeled_cycles()


def test_budget_applies_at_every_hierarchy_level():
    problem = _deep_problem()
    unbudgeted = ReconfigEngine(
        "hierarchical", leaf_tiles=16, stitch_ops_budget=None
    ).solve(problem)
    budgeted = ReconfigEngine(
        "hierarchical", leaf_tiles=16, stitch_ops_budget=1
    ).solve(problem)
    budgeted.solution.validate(problem)
    assert budgeted.counter.ops["stitch"] \
        < unbudgeted.counter.ops["stitch"]


def test_budget_only_drops_trailing_cold_initiators():
    """The anytime pass is a prefix cut: with a budget covering the whole
    measured pass, results are bitwise unchanged."""
    problem = golden_problem()
    full_pass = ReconfigEngine(
        "partitioned", regions=2, stitch_ops_budget=None
    ).solve(problem)
    generous = ReconfigEngine(
        "partitioned", regions=2,
        stitch_ops_budget=full_pass.counter.ops["stitch"],
    ).solve(golden_problem())
    assert_bitwise_equal(generous, full_pass)


@pytest.mark.parametrize("strategy", ("partitioned", "hierarchical"))
def test_budget_validation(strategy):
    with pytest.raises(ValueError, match="stitch_ops_budget"):
        ReconfigEngine(strategy, stitch_ops_budget=0)


def test_external_placement_respected_through_hierarchy():
    """External thread pins survive the recursive split/merge path."""
    from repro.sched.reconfigure import ReconfigPolicy
    from repro.sched.thread_placement import random_thread_placement

    problem = _deep_problem()
    external = random_thread_placement(problem, seed=11)
    result = ReconfigEngine(
        "hierarchical", leaf_tiles=16,
        policy=ReconfigPolicy.jigsaw(),
        external_thread_cores=external,
    ).solve(problem)
    result.solution.validate(problem)
    assert result.solution.thread_cores == external


def test_solutions_equal_helper_detects_hierarchy_merge_drift():
    """The merged global solution re-validates against a flat solve of
    the same leaves: thread cores map into the right regions (a
    coordinate-translation regression canary)."""
    problem = _deep_problem()
    result = ReconfigEngine("hierarchical", leaf_tiles=16).solve(problem)
    again = ReconfigEngine("hierarchical", leaf_tiles=16).solve(problem)
    assert_solutions_equal(result.solution, again.solution)
