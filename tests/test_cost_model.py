"""Eq 1 / Eq 2 cost model and latency curves (repro.sched.cost_model)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache.miss_curve import cliff_curve, flat_curve
from repro.config import small_test_config
from repro.geometry.mesh import Mesh
from repro.sched.cost_model import (
    latency_curve,
    miss_only_curve,
    off_chip_latency,
    on_chip_latency,
    optimistic_on_chip_curve,
    total_latency,
)
from repro.sched.problem import PlacementProblem, PlacementSolution, ThreadSpec
from repro.util.units import kb
from repro.vcache.virtual_cache import VCKind, VirtualCache


def tiny_problem():
    config = small_test_config(2, 2)
    topo = Mesh(2, 2)
    vc = VirtualCache(
        vc_id=0, kind=VCKind.THREAD, process_id=0,
        miss_curve=cliff_curve(kb(512), 10.0, kb(256), 2.0),
        accesses={0: 100.0}, owner_thread=0,
    )
    thread = ThreadSpec(0, 0, {0: 100.0})
    return PlacementProblem(
        config=config, topology=topo, vcs=[vc], threads=[thread],
        mem_latency=150.0,
    )


def test_off_chip_latency_eq1():
    problem = tiny_problem()
    solution = PlacementSolution(
        vc_sizes={0: kb(256)}, vc_allocation={0: {0: kb(256)}},
        thread_cores={0: 0},
    )
    # Eq 1: rate x miss_fraction x MemLatency = 100 x (2/100) x 150.
    assert off_chip_latency(problem, solution) == pytest.approx(
        100.0 * (2.0 / 100.0) * 150.0
    )


def test_on_chip_latency_eq2():
    problem = tiny_problem()
    # Half the capacity local, half one hop away.
    solution = PlacementSolution(
        vc_sizes={0: kb(256)},
        vc_allocation={0: {0: kb(128), 1: kb(128)}},
        thread_cores={0: 0},
    )
    per_hop = 2.0 * problem.config.noc.hop_latency
    # 100 accesses x (0.5 x 0 + 0.5 x 1 hop) x round trip.
    assert on_chip_latency(problem, solution) == pytest.approx(
        100.0 * 0.5 * per_hop
    )
    assert total_latency(problem, solution) == pytest.approx(
        on_chip_latency(problem, solution)
        + off_chip_latency(problem, solution)
    )


def test_optimistic_curve_monotone_nondecreasing():
    problem = tiny_problem()
    table = optimistic_on_chip_curve(problem)
    assert table[0] == 0.0
    assert np.all(np.diff(table) >= -1e-12)


def test_problems_of_one_chip_shape_share_one_distance_table():
    """Each problem builds its own mesh, yet every problem of one shape,
    bank size and quantum reads one read-only table; another bank size,
    quantum or mesh shape reads its own table."""
    first, second = tiny_problem(), tiny_problem()
    assert first.topology is not second.topology
    table = optimistic_on_chip_curve(first)
    assert optimistic_on_chip_curve(second) is table
    assert not table.flags.writeable
    config = first.config
    others = [
        replace(first, config=config.with_banks(kb(256), 64)),
        replace(first, config=replace(
            config, scheduler=replace(config.scheduler, allocation_quantum=kb(128))
        )),
        replace(first, config=small_test_config(4, 1), topology=Mesh(4, 1)),
    ]
    for other in others:
        assert optimistic_on_chip_curve(other) is not table


def test_latency_curve_has_sweet_spot():
    """Fig 5: off-chip falls then flattens, on-chip keeps rising, so the
    total-latency curve has an interior minimum for cliff apps."""
    problem = tiny_problem()
    curve = latency_curve(
        problem, cliff_curve(kb(2048), 50.0, kb(128), 1.0), access_rate=100.0
    )
    best = int(np.argmin(curve))
    assert 0 < best < len(curve) - 1
    assert curve[-1] > curve[best]  # more capacity is worse past the spot


def test_latency_curve_flat_app_prefers_zero():
    problem = tiny_problem()
    curve = latency_curve(problem, flat_curve(kb(2048), 20.0), access_rate=50.0)
    assert int(np.argmin(curve)) == 0  # streaming apps want no capacity


def test_miss_only_curve_monotone_decreasing():
    problem = tiny_problem()
    curve = miss_only_curve(
        problem, cliff_curve(kb(2048), 50.0, kb(128), 1.0), access_rate=100.0
    )
    assert np.all(np.diff(curve) <= 1e-9)


def test_latency_curve_rejects_negative_rate():
    problem = tiny_problem()
    with pytest.raises(ValueError):
        latency_curve(problem, flat_curve(kb(64), 1.0), access_rate=-1.0)


def test_problem_validation():
    config = small_test_config(2, 2)
    with pytest.raises(ValueError):
        PlacementProblem(
            config=config, topology=Mesh(3, 3), vcs=[], threads=[]
        )
    threads = [ThreadSpec(i, i, {}) for i in range(5)]
    with pytest.raises(ValueError):
        PlacementProblem(
            config=config, topology=Mesh(2, 2), vcs=[], threads=threads
        )


def test_solution_validate_catches_overcommit():
    problem = tiny_problem()
    bad = PlacementSolution(
        vc_sizes={0: kb(9999)},
        vc_allocation={0: {0: kb(9999)}},
        thread_cores={0: 0},
    )
    with pytest.raises(AssertionError):
        bad.validate(problem)


def test_solution_validate_catches_core_collision():
    problem = tiny_problem()
    sol = PlacementSolution(
        vc_sizes={}, vc_allocation={}, thread_cores={0: 1, 1: 1}
    )
    with pytest.raises(AssertionError):
        sol.validate(problem)
