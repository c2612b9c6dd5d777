"""The 4-step pipeline (Fig 4) and the NUCA schemes (repro.nuca)."""

import pytest

from repro.config import small_test_config
from repro.nuca import (
    Cdcs,
    Jigsaw,
    PartitionedShared,
    RNuca,
    SNuca,
    build_problem,
    factor_variant,
    rotational_cluster,
    standard_schemes,
)
from repro.nuca.sharing import SharingPlan, solve_sharing_plans
from repro.sched.reconfigure import ReconfigPolicy, reconfigure
from repro.testing import assert_solutions_equal
from repro.util.units import kb, mb
from repro.workloads.mixes import make_mix

MIX = ["omnet", "milc", "gcc", "ilbdc"]


def setup_problem(names=None, side=4):
    config = small_test_config(side, side)
    problem = build_problem(make_mix(names or MIX), config)
    return config, problem


# -- reconfigure pipeline -------------------------------------------------------


def test_cdcs_pipeline_produces_valid_solution():
    _, problem = setup_problem()
    result = reconfigure(problem, ReconfigPolicy.cdcs())
    result.solution.validate(problem)
    assert set(result.solution.thread_cores) == {
        t.thread_id for t in problem.threads
    }


def test_jigsaw_policy_requires_external_cores():
    _, problem = setup_problem()
    with pytest.raises(ValueError):
        reconfigure(problem, ReconfigPolicy.jigsaw())


def test_jigsaw_policy_rejects_partial_external_cores():
    _, problem = setup_problem()
    with pytest.raises(ValueError, match="misses threads"):
        reconfigure(
            problem, ReconfigPolicy.jigsaw(), external_thread_cores={0: 0}
        )


def test_policy_labels():
    assert ReconfigPolicy.cdcs().label() == "+LTD"
    assert ReconfigPolicy.jigsaw().label() == "base"
    assert ReconfigPolicy(True, False, True).label() == "+LD"


def test_step_cycles_reported_for_all_steps():
    _, problem = setup_problem()
    result = reconfigure(problem, ReconfigPolicy.cdcs())
    cycles = result.step_cycles()
    for step in ("allocation", "vc_placement", "thread_placement",
                 "data_placement"):
        assert cycles[step] > 0


# -- schemes ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme",
    [SNuca(), RNuca(), Jigsaw("random"), Jigsaw("clustered"),
     Cdcs(), PartitionedShared()],
    ids=lambda s: s.name,
)
def test_every_scheme_produces_complete_solution(scheme):
    _, problem = setup_problem()
    result = scheme.run(problem)
    sol = result.solution
    assert set(sol.thread_cores) == {t.thread_id for t in problem.threads}
    cores = list(sol.thread_cores.values())
    assert len(set(cores)) == len(cores)
    # Every accessed VC routes somewhere.
    for vc in problem.vcs:
        if sum(problem.accessors_of(vc.vc_id).values()) > 0:
            assert sum(sol.vc_allocation.get(vc.vc_id, {}).values()) > 0


def test_snuca_spreads_data_uniformly():
    _, problem = setup_problem()
    sol = SNuca().run(problem).solution
    for per_bank in sol.vc_allocation.values():
        assert len(per_bank) == problem.topology.tiles
        values = list(per_bank.values())
        assert max(values) == pytest.approx(min(values))


def test_rnuca_private_data_is_local():
    _, problem = setup_problem(["gcc", "milc", "bzip2"])
    result = RNuca().run(problem)
    sol = result.solution
    for thread_id in range(3):
        banks = list(sol.vc_allocation[thread_id])
        assert banks == [sol.thread_cores[thread_id]]


def test_rnuca_shared_data_spread_chip_wide():
    _, problem = setup_problem(["ilbdc", "milc"])
    sol = RNuca().run(problem).solution
    from repro.nuca.base import process_vc_id

    shared_alloc = sol.vc_allocation[process_vc_id(0)]
    assert len(shared_alloc) == problem.topology.tiles


def test_jigsaw_scheduler_names():
    assert Jigsaw("random").name == "Jigsaw+R"
    assert Jigsaw("clustered").name == "Jigsaw+C"
    with pytest.raises(ValueError):
        Jigsaw("fancy")


def test_factor_variant_names():
    assert factor_variant(True, True, True).name == "CDCS"
    assert factor_variant(True, False, False).name == "Jigsaw+R+L"
    assert factor_variant(False, False, False).name == "Jigsaw+Rbase"


def test_standard_schemes_order():
    names = [s.name for s in standard_schemes()]
    assert names == ["S-NUCA", "R-NUCA", "Jigsaw+C", "Jigsaw+R", "CDCS"]


def test_rotational_cluster_degree4():
    cluster = rotational_cluster(5, mesh_width=4)
    assert len(cluster) == 4
    assert 5 in cluster


# -- LRU sharing fixed point -----------------------------------------------------


def one_cache(curves, capacity) -> list[float]:
    """Occupancies of one shared LRU cache of *capacity*, solved as the
    schemes solve it."""
    plan = SharingPlan(
        tuple(curves), (tuple(range(len(curves))),), (float(capacity),)
    )
    return solve_sharing_plans([plan])[0].tolist()


def test_sharing_everything_fits():
    from repro.cache.miss_curve import cliff_curve

    small = cliff_curve(kb(512), 10.0, kb(64), 0.0)
    occ = one_cache([small, small], kb(512))
    assert all(kb(60) <= o <= kb(70) for o in occ)


def test_sharing_streaming_expands():
    from repro.cache.miss_curve import cliff_curve, flat_curve

    fitting = cliff_curve(mb(4), 10.0, kb(256), 0.5)
    streaming = flat_curve(mb(4), 30.0)
    occ = one_cache([fitting, streaming], mb(1))
    assert sum(occ) <= mb(1) * 1.001
    assert occ[1] > occ[0]  # the stream crowds the fitting app


def test_sharing_occupancies_fill_capacity_under_pressure():
    from repro.cache.miss_curve import flat_curve

    streams = [flat_curve(mb(4), 20.0) for _ in range(4)]
    occ = one_cache(streams, mb(2))
    assert sum(occ) == pytest.approx(mb(2), rel=0.01)


def test_sharing_zero_capacity():
    from repro.cache.miss_curve import flat_curve

    occ = one_cache([flat_curve(mb(1), 5.0)], 0.0)
    assert occ == [0.0]


def test_sharing_schemes_run_is_stage_solve_finish():
    """S-NUCA and R-NUCA run as their plan, one solve and the finish; on
    a 4x4 chip with four single-threaded apps, R-NUCA stages an empty
    group for each of the twelve banks without a local thread, and
    those solve to nothing."""
    _, problem = setup_problem(["omnet", "milc", "gcc", "astar"])
    for scheme in (SNuca(3), RNuca(3)):
        plan, context = scheme.sharing_stage(problem)
        occupancies = solve_sharing_plans([plan])[0]
        want = scheme.finish_sharing(problem, context, occupancies).solution
        assert_solutions_equal(scheme.run(problem).solution, want)
    plan, _ = RNuca(3).sharing_stage(problem)
    assert sum(1 for group in plan.groups if not group) == 12
