"""End-to-end integration: the full CDCS loop of Fig 4 running against the
trace-driven substrate — monitors sample real access streams, the runtime
allocates and places from *monitored* curves, and the resulting placement
actually serves traffic.
"""

from dataclasses import replace

import pytest

from repro.cache.miss_curve import MissCurve
from repro.cache.monitor import GMon
from repro.config import small_test_config
from repro.model.system import AnalyticSystem
from repro.model.metrics import weighted_speedup
from repro.nuca import Cdcs, Jigsaw, SNuca, build_problem
from repro.sched.reconfigure import ReconfigPolicy, reconfigure
from repro.sim import BackgroundInvalidations, build_trace_simulation, scale_solution
from repro.util.units import kb
from repro.workloads.mixes import make_mix

SCALE = 16
MIX = ["omnet", "milc", "gcc", "astar"]


@pytest.mark.slow
def test_full_monitor_to_placement_loop():
    """Fig 4 end to end: run traffic, read GMONs, reconfigure from the
    monitored miss curves, and verify the cliff app still gets its working
    set — i.e. monitoring is good enough to drive allocation."""
    config = small_test_config(4, 4)
    mix = make_mix(MIX)
    problem = build_problem(mix, config)
    jig = Jigsaw("random", 3)
    initial = jig.run(problem).solution
    sim = build_trace_simulation(
        mix, config, initial, problem, capacity_scale=SCALE, seed=2
    )
    # Attach a GMON per thread VC (as CDCS does, Sec IV-G).
    monitors = {}
    for thread_id in range(len(MIX)):
        mon = GMon(
            first_way_capacity=kb(64) / SCALE,
            total_capacity=config.llc_bytes / SCALE,
            ways=32,
            seed=thread_id,
        )
        monitors[thread_id] = mon
        sim.attach_monitor(thread_id, mon)
    sim.run_until(400_000)

    # Rebuild the problem with monitored curves (scaled back up).
    built = build_problem(mix, config)
    vcs = []
    for vc in built.vcs:
        mon = monitors.get(vc.vc_id)
        if mon is not None:
            curve = mon.miss_curve()
            rate = sum(built.accessors_of(vc.vc_id).values())
            total = max(curve.values[0], 1.0)
            vc = replace(vc, miss_curve=MissCurve(
                curve.sizes * SCALE, curve.values / total * rate
            ))
        vcs.append(vc)
    monitored_problem = replace(built, vcs=vcs)
    result = reconfigure(monitored_problem, ReconfigPolicy.cdcs())
    result.solution.validate(monitored_problem)
    # omnet (thread 0) has the only big cliff; monitored allocation should
    # still hand it a multi-bank VC.
    assert result.solution.vc_sizes[0] > 4 * kb(64)

    # And the reconfiguration applies cleanly to the live cache.
    sim.schedule_reconfiguration(
        450_000,
        scale_solution(result.solution, SCALE),
        BackgroundInvalidations(grace_cycles=10_000, step_cycles=50),
    )
    sim.run_until(900_000)
    assert sim.llc.check_single_residency()
    assert sim.aggregate_ipc(600_000, 900_000) > 0


@pytest.mark.slow
def test_analytic_and_trace_models_agree_on_ordering():
    """The two evaluation engines must tell the same story: CDCS's
    placement yields at least Jigsaw-random's throughput in the trace
    simulator, as it does in the analytic model."""
    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "omnet", "milc", "milc", "astar", "gcc"])
    problem = build_problem(mix, config)
    system = AnalyticSystem(config)

    jig_scheme = Jigsaw("clustered", 1)
    cdcs_scheme = Cdcs(seed=1)
    jig = jig_scheme.run(problem)
    cdcs = cdcs_scheme.run(problem)

    analytic = {}
    base = system.evaluate(mix, SNuca(1))
    for result in (jig, cdcs):
        ev = system.evaluate_solution(mix, problem, result)
        analytic[result.name] = weighted_speedup(ev, base)

    trace_ipc = {}
    for result in (jig, cdcs):
        sim = build_trace_simulation(
            mix, config, result.solution, problem,
            capacity_scale=SCALE, seed=4,
        )
        sim.run_until(400_000)
        trace_ipc[result.name] = sim.aggregate_ipc(100_000, 400_000)

    assert analytic["CDCS"] >= analytic["Jigsaw+C"] - 0.02
    assert trace_ipc["CDCS"] >= trace_ipc["Jigsaw+C"] * 0.95
