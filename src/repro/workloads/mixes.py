"""Workload mixes and the fixed-work (FIESTA-style) methodology.

The paper simulates 50 random mixes per experiment: N single-threaded apps
drawn from the 16-app pool (Sec VI-A), or N 8-thread apps from the
SPECOMP2012 pool (Sec VI-B).  A :class:`Mix` assigns process and thread ids
and knows how many threads it needs; mixes never exceed the chip's cores.

FIESTA equalizes samples by running each app for the instructions it
completes alone in 1 Gcycle; with a steady-state analytic model this
reduces to comparing per-app IPCs directly, but we keep the instruction
targets because the trace engine uses them for run lengths.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

from repro.util.rng import child_rng
from repro.workloads.phased import PhasedProfile
from repro.workloads.profiles import (
    MULTI_THREADED,
    SINGLE_THREADED,
    AppProfile,
    get_profile,
)

#: FIESTA reference window: instructions completed alone in 1 Gcycles.
REFERENCE_CYCLES = 1_000_000_000


@dataclass(frozen=True)
class ProcessSpec:
    """One process in a mix: a profile plus stable ids.

    ``process_id`` is unique within the mix; thread ids are assigned
    contiguously (``first_thread .. first_thread + profile.threads - 1``).
    """

    process_id: int
    profile: AppProfile
    first_thread: int

    @property
    def thread_ids(self) -> range:
        return range(self.first_thread, self.first_thread + self.profile.threads)


@dataclass(frozen=True)
class Mix:
    """A workload mix: an ordered list of processes."""

    processes: tuple[ProcessSpec, ...]

    @property
    def total_threads(self) -> int:
        return sum(p.profile.threads for p in self.processes)

    @property
    def names(self) -> list[str]:
        return [p.profile.name for p in self.processes]

    def fixed_work_instructions(self, reference_ipc: dict[str, float]) -> dict[int, int]:
        """FIESTA instruction targets per process: instructions the app
        retires alone in the reference window, given its solo IPC."""
        return {
            p.process_id: int(reference_ipc[p.profile.name] * REFERENCE_CYCLES)
            for p in self.processes
        }


def make_mix(names: list[str]) -> Mix:
    """Build a mix from profile names (repeats allowed)."""
    processes = []
    next_thread = 0
    for pid, name in enumerate(names):
        profile = get_profile(name)
        processes.append(ProcessSpec(pid, profile, next_thread))
        next_thread += profile.threads
    return Mix(tuple(processes))


def random_single_threaded_mix(n_apps: int, seed: int, mix_id: int = 0) -> Mix:
    """N single-threaded apps drawn uniformly (with replacement) from the
    16-app pool, as in Sec VI-A."""
    if n_apps < 1:
        raise ValueError("mix needs at least one app")
    rng = child_rng(seed, mix_id)
    pool = sorted(SINGLE_THREADED)
    names = [pool[i] for i in rng.integers(0, len(pool), size=n_apps)]
    return make_mix(names)


def random_multithreaded_mix(n_apps: int, seed: int, mix_id: int = 0) -> Mix:
    """N 8-thread apps from the SPECOMP-style pool, as in Sec VI-B."""
    if n_apps < 1:
        raise ValueError("mix needs at least one app")
    rng = child_rng(seed, mix_id + 10_000)
    pool = sorted(MULTI_THREADED)
    names = [pool[i] for i in rng.integers(0, len(pool), size=n_apps)]
    return make_mix(names)


def random_phased_mix(
    n_apps: int,
    seed: int,
    mix_id: int = 0,
    pool: list[str] | None = None,
) -> Mix:
    """N phased apps, each a seeded random phase schedule.

    Process ``i`` of mix ``mix_id`` gets the schedule generated by
    ``random_phased_profile(seed, mix_id * 1000 + i)``, so every process
    phases independently and the whole mix is reproducible from
    ``(seed, mix_id)`` — the content identity phased experiment jobs hash.
    """
    from repro.workloads.generator import random_phased_profile

    if n_apps < 1:
        raise ValueError("mix needs at least one app")
    processes = []
    next_thread = 0
    for pid in range(n_apps):
        profile = random_phased_profile(seed, mix_id * 1000 + pid, pool=pool)
        processes.append(ProcessSpec(pid, profile, next_thread))
        next_thread += profile.threads
    return Mix(tuple(processes))


def mix_is_phased(mix: Mix) -> bool:
    """True when any process carries a phased (time-varying) profile."""
    return any(isinstance(p.profile, PhasedProfile) for p in mix.processes)


def snapshot_mix(mix: Mix, instructions: Mapping[int, float]) -> Mix:
    """Materialize the mix's *active* stationary profiles.

    *instructions* maps process_id -> cumulative retired instructions (the
    phase clock); each phased process is replaced by the static profile of
    its active phase, static processes pass through untouched.  Ids and
    thread layout are preserved, so problems built from a snapshot are
    drop-in compatible with the original mix.  ``snapshot_mix(mix, {})``
    equals the mix's initial-phase view.
    """
    return Mix(tuple(
        snapshot_process(proc, instructions.get(proc.process_id, 0.0))
        for proc in mix.processes
    ))


def snapshot_process(proc: ProcessSpec, instructions: float) -> ProcessSpec:
    """*proc* with the static profile of its phase active at *instructions*
    (its phase clock); a static process as it is."""
    profile = proc.profile
    if isinstance(profile, PhasedProfile):
        return replace(proc, profile=profile.at_instructions(instructions))
    return proc


def case_study_mix() -> Mix:
    """The Sec II-B case-study mix: omnet x6, milc x14, ilbdc x2 (8 threads
    each) on the 36-tile chip — 20 + 16 = 36 threads."""
    return make_mix(["omnet"] * 6 + ["milc"] * 14 + ["ilbdc"] * 2)


def fig16_case_study_mix() -> Mix:
    """The Fig 16b mix: private-heavy mgrid plus shared-heavy md, ilbdc,
    nab (8 threads each, 32 threads total on 64 cores)."""
    return make_mix(["mgrid", "md", "ilbdc", "nab"])
