"""Phased (time-varying) workloads: profiles, generator, snapshots, and
phase pickup in both simulation engines."""

from __future__ import annotations

import operator

import pytest

from repro.config import small_test_config
from repro.nuca.base import build_problem, process_vc_id
from repro.nuca.jigsaw import Jigsaw
from repro.sched.reconfigure import reconfigure_epoch
from repro.sim.engine import EpochEngine
from repro.sim.setup import build_trace_simulation, schedule_phase_updates
from repro.workloads import (
    PHASED_PROFILES,
    Phase,
    PhasedProfile,
    compose_phased,
    get_profile,
    get_static_profile,
    make_mix,
    mix_is_phased,
    random_phased_mix,
    random_phased_profile,
    snapshot_mix,
)


# ---------------------------------------------------------------------------
# PhasedProfile
# ---------------------------------------------------------------------------


def test_phase_lookup_walks_and_cycles():
    profile = compose_phased(
        "a", [("omnet", 100e6), ("milc", 50e6), ("gcc", 150e6)]
    )
    assert profile.total_instructions == 300e6
    assert profile.boundaries() == [100e6, 150e6, 300e6]
    assert profile.at_instructions(0).name == "omnet"
    assert profile.at_instructions(99e6).name == "omnet"
    # Boundaries belong to the next phase (half-open segments).
    assert profile.at_instructions(100e6).name == "milc"
    assert profile.at_instructions(149e6).name == "milc"
    assert profile.at_instructions(200e6).name == "gcc"
    # The schedule cycles.
    assert profile.at_instructions(300e6).name == "omnet"
    assert profile.at_instructions(760e6).name == "gcc"
    assert profile.phase_index(110e6) == 1


def test_phased_profile_delegates_initial_phase():
    profile = get_profile("omnet~milc")
    omnet = get_static_profile("omnet")
    assert isinstance(profile, PhasedProfile)
    assert profile.base_cpi == omnet.base_cpi
    assert profile.llc_apki == omnet.llc_apki
    assert profile.threads == 1
    assert not profile.multithreaded
    assert profile.private_curve is omnet.private_curve
    assert profile.write_fraction == omnet.write_fraction
    assert profile.total_mpki(0.0) == omnet.total_mpki(0.0)


def test_phased_profile_validation():
    omnet = get_static_profile("omnet")
    ilbdc = get_static_profile("ilbdc")
    with pytest.raises(ValueError):
        PhasedProfile("empty", ())
    with pytest.raises(ValueError):
        Phase(omnet, 0.0)
    with pytest.raises(ValueError):  # 1-thread and 8-thread phases
        PhasedProfile("bad", (Phase(omnet, 1e8), Phase(ilbdc, 1e8)))


def test_registry_names_phased_apps_like_static_ones():
    assert "omnet~milc" in PHASED_PROFILES
    mix = make_mix(["omnet~milc", "gcc"])
    assert mix_is_phased(mix)
    assert mix.total_threads == 2
    with pytest.raises(KeyError) as excinfo:
        get_profile("not-an-app")
    assert "omnet~milc" in str(excinfo.value)


def test_multithreaded_phased_profile_keeps_thread_count():
    profile = get_profile("ilbdc~mgrid")
    assert profile.threads == 8
    assert profile.at_instructions(0).name == "ilbdc"
    assert profile.at_instructions(250e6).name == "mgrid"


# ---------------------------------------------------------------------------
# Seeded random generator
# ---------------------------------------------------------------------------


def test_random_phased_profile_is_deterministic():
    a = random_phased_profile(7, 3)
    b = random_phased_profile(7, 3)
    assert a.name == b.name
    assert [p.profile.name for p in a.phases] == [
        p.profile.name for p in b.phases
    ]
    assert [p.instructions for p in a.phases] == [
        p.instructions for p in b.phases
    ]
    c = random_phased_profile(7, 4)
    assert (a.name, [p.instructions for p in a.phases]) != (
        c.name, [p.instructions for p in c.phases]
    )


def test_random_phased_profile_respects_bounds():
    for index in range(20):
        profile = random_phased_profile(11, index)
        assert 2 <= len(profile.phases) <= 4
        for phase in profile.phases:
            assert 150e6 <= phase.instructions <= 600e6
            assert phase.instructions % 1e6 == 0
        names = [p.profile.name for p in profile.phases]
        assert all(x != y for x, y in zip(names, names[1:]))
        # The schedule cycles, so the wrap boundary is adjacent too.
        assert names[-1] != names[0]


def test_random_phased_mix_reproducible_and_independent():
    mix = random_phased_mix(3, 42, 1)
    again = random_phased_mix(3, 42, 1)
    assert mix.names == again.names
    assert mix_is_phased(mix)
    other = random_phased_mix(3, 42, 2)
    assert mix.names != other.names


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_mix_materializes_active_phases():
    mix = make_mix(["omnet~milc", "gcc"])
    initial = snapshot_mix(mix, {})
    assert not mix_is_phased(initial)
    assert initial.processes[0].profile.name == "omnet"
    assert initial.processes[1].profile is mix.processes[1].profile
    later = snapshot_mix(mix, {0: 400e6})
    assert later.processes[0].profile.name == "milc"
    # Ids and thread layout survive snapshotting.
    assert later.processes[0].process_id == 0
    assert list(later.processes[0].thread_ids) == [0]
    assert later.total_threads == mix.total_threads
    # The same clock always materializes the same curves.
    phased = random_phased_mix(3, 7, 2)
    clock = {p.process_id: 3.3e8 for p in phased.processes}
    first, again = (snapshot_mix(phased, clock).processes for _ in range(2))
    for a, b in zip(first, again, strict=True):
        curve, same = a.profile.private_curve, b.profile.private_curve
        assert a.profile.name == b.profile.name
        assert curve.sizes.tobytes() == same.sizes.tobytes()
        assert curve.values.tobytes() == same.values.tobytes()


def test_snapshot_problem_drops_in_for_original():
    config = small_test_config(4, 4)
    mix = make_mix(["ilbdc~mgrid", "omnet"])
    base = build_problem(mix, config)
    snap = build_problem(snapshot_mix(mix, {}), config)
    assert [t.thread_id for t in base.threads] == [
        t.thread_id for t in snap.threads
    ]
    assert {v.vc_id for v in base.vcs} == {v.vc_id for v in snap.vcs}


# ---------------------------------------------------------------------------
# EpochEngine phase pickup
# ---------------------------------------------------------------------------


def test_epoch_engine_advances_phases_and_reconfigures():
    config = small_test_config(4, 4)
    mix = make_mix(["omnet~milc", "gcc", "astar"])
    engine = EpochEngine(mix, build_problem(mix, config))
    assert engine.current_phases() == {0: 0}
    assert engine.current_mix().processes[0].profile.name == "omnet"

    seen = []
    for _ in range(14):
        result, problem = reconfigure_epoch(
            engine.current_mix(), config, topology=engine.problem.topology
        )
        epoch = engine.run_epoch(result.solution, 100e6)
        seen.append(epoch.phases[0])
    # omnet~milc: 300M-instruction phases; at ~0.3-0.9 IPC the run crosses
    # at least one boundary and the engine must have seen both phases.
    assert set(seen) == {0, 1}
    # Phase flips are sticky (contiguous runs, no oscillation per epoch).
    flips = sum(1 for a, b in zip(seen, seen[1:]) if a != b)
    assert 1 <= flips <= 4
    # The evaluation really follows the active curve: find the first flip
    # and check the evaluated app identity switched with it.
    first_flip = next(i for i, p in enumerate(seen[1:], 1) if p != seen[0])
    before = engine.trace.results[first_flip - 1].evaluation
    after = engine.trace.results[first_flip].evaluation
    assert before.process_app[0] == "omnet"
    assert after.process_app[0] == "milc"


def test_epoch_engine_stationary_mix_unchanged():
    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "milc"])
    engine = EpochEngine(mix, build_problem(mix, config))
    assert engine.current_phases() == {}
    assert engine.current_mix() is mix
    assert engine.current_problem() is engine.problem
    solution = Jigsaw("random", 1).run(engine.problem).solution
    epoch = engine.run_epoch(solution, 1e5)
    assert epoch.phases == {}


def test_epoch_engine_phase_clock_is_fresh_after_every_epoch():
    """The phase clock is computed once per epoch; after each epoch the
    phases and the snapshot equal those of a clock computed afresh from
    the instruction counters, and callers get copies."""
    config = small_test_config(4, 4)
    mix = make_mix(["omnet~milc", "xalancbmk~gcc", "astar", "milc"])
    engine = EpochEngine(mix, build_problem(mix, config))
    index = {t.thread_id: i for i, t in enumerate(engine.problem.threads)}

    def fresh_clock() -> dict[int, float]:
        clock = {}
        for proc in mix.processes:
            total = 0.0
            for thread_id in proc.thread_ids:
                total += float(engine.instructions[index[thread_id]])
            clock[proc.process_id] = total / len(proc.thread_ids)
        return clock

    seen = []
    for _ in range(10):
        clock = fresh_clock()
        phases = {
            proc.process_id: proc.profile.phase_index(clock[proc.process_id])
            for proc in mix.processes
            if hasattr(proc.profile, "phase_index")
        }
        engine.process_instructions().clear()
        engine.current_phases().clear()
        assert engine.process_instructions() == clock
        assert engine.current_phases() == phases
        assert [p.profile.name for p in engine.current_mix().processes] == [
            p.profile.name for p in snapshot_mix(mix, clock).processes
        ]
        result, _ = reconfigure_epoch(
            engine.current_mix(), config, topology=engine.problem.topology
        )
        assert engine.run_epoch(result.solution, 250e6).phases == phases
        seen.append(phases)
    assert any(a != b for a, b in zip(seen, seen[1:]))


def test_epoch_engine_snapshot_reuse_across_cycling_phases():
    config = small_test_config(4, 4)
    mix = make_mix(["omnet~milc"])
    engine = EpochEngine(mix, build_problem(mix, config))
    solution = Jigsaw("random", 1).run(engine.current_problem()).solution
    first = {}  # phase -> the first snapshot problem of that phase
    revisits = 0
    for _ in range(30):
        problem = engine.current_problem()
        earlier = first.setdefault(engine.current_phases()[0], problem)
        if earlier is not problem:
            # The schedule cycles 0 -> 1 -> 0 ...: a revisited phase is a
            # new snapshot made of the very same record objects.
            revisits += 1
            assert all(map(operator.is_, problem.vcs, earlier.vcs))
            assert all(map(operator.is_, problem.threads, earlier.threads))
        engine.run_epoch(solution, 200e6)
    phases = [r.phases[0] for r in engine.trace.results]
    assert set(phases) == {0, 1}
    assert revisits
    # One memo entry per (process, phase) seen.
    assert sorted(engine._records) == [(0, 0), (0, 1)]


# ---------------------------------------------------------------------------
# TraceSimulator phase pickup
# ---------------------------------------------------------------------------


def test_set_thread_profile_validates_and_applies():
    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "gcc"])
    problem = build_problem(mix, config)
    solution = Jigsaw("random", 3).run(problem).solution
    sim = build_trace_simulation(mix, config, solution, problem,
                                 capacity_scale=16, seed=3)
    with pytest.raises(KeyError):
        sim.set_thread_profile(99, base_cpi=1.0)
    sim.set_thread_profile(0, base_cpi=0.5, apki=10.0, write_fraction=0.1)
    thread = next(t for t in sim.threads if t.thread_id == 0)
    assert thread.base_cpi == 0.5
    assert thread.apki == 10.0
    assert thread.write_fraction == 0.1


@pytest.mark.slow
def test_trace_simulator_picks_up_phases_at_boundaries():
    from repro.workloads.mixes import Mix, ProcessSpec

    config = small_test_config(4, 4)
    # A short omnet phase, then a milc phase far too long to complete
    # within the horizon: the thread must switch exactly once and stay
    # switched (trace-scale schedules use trace-scale phase lengths).
    phased = compose_phased(
        "omnet~milc-trace", [("omnet", 50_000.0), ("milc", 10e6)]
    )
    mix = Mix((
        ProcessSpec(0, phased, 0),
        ProcessSpec(1, get_static_profile("gcc"), 1),
    ))
    problem = build_problem(mix, config)
    solution = Jigsaw("random", 5).run(problem).solution
    sim = build_trace_simulation(mix, config, solution, problem,
                                 capacity_scale=16, seed=5)
    horizon = 600_000.0
    schedule_phase_updates(sim, mix, period=25_000.0, horizon=horizon,
                           capacity_scale=16, seed=5)
    sim.run_until(horizon)
    thread = next(t for t in sim.threads if t.thread_id == 0)
    # The phased thread switched to milc's model (apki 26, base CPI 0.9)
    # at a boundary; the stationary gcc thread is untouched.
    assert thread.apki == pytest.approx(26.0)
    assert thread.base_cpi == pytest.approx(0.90)
    assert process_vc_id(0) not in thread.streams  # single-threaded app
    gcc_thread = next(t for t in sim.threads if t.thread_id == 1)
    assert gcc_thread.apki == pytest.approx(9.0)


def test_schedule_length_is_kept_outside_the_fields():
    from dataclasses import fields, replace

    from repro.util.hashing import content_digest

    profile = next(iter(PHASED_PROFILES.values()))
    twin = replace(profile)
    before = content_digest(profile)
    assert profile.total_instructions == sum(
        phase.instructions for phase in profile.phases
    )
    assert "total_instructions" in vars(profile)
    assert "total_instructions" not in {f.name for f in fields(profile)}
    assert profile == twin
    assert content_digest(profile) == content_digest(twin) == before
