"""Phased application profiles: workloads whose demand changes over time.

Every profile in :mod:`repro.workloads.profiles` is *stationary* — one miss
curve, one APKI, one base CPI for the whole run.  Real applications move
through phases (compute-bound stretches, cache-fitting stretches, streaming
scans), and phase changes are exactly what the paper's periodic
reconfiguration reacts to: monitors re-read the miss curves every interval
and the runtime re-places data and threads.

A :class:`PhasedProfile` is a piecewise-stationary app: an ordered list of
:class:`Phase` segments, each a static :class:`AppProfile` active for a
fixed number of *instructions*.  The schedule cycles (after the last phase
the first starts again), so a phased app is defined for any instruction
count.  Phase position is a pure function of cumulative retired
instructions — the same clock the epoch engine and trace simulator already
carry per thread — which keeps phase lookups deterministic and
bitwise-identical between the vectorized and scalar kernel paths.

Anywhere static code touches a phased profile directly (``build_problem``
on a raw mix, the trace-simulation wiring), the profile behaves as its
*initial* phase: every ``AppProfile`` field is delegated to phase 0, so a
snapshot at 0 instructions and the raw profile are interchangeable.  The
dynamic behavior lives in :meth:`PhasedProfile.at_instructions` plus
:func:`repro.workloads.mixes.snapshot_mix`, which the epoch engine calls at
each epoch boundary.

Named phase schedules are registered in :data:`PHASED_PROFILES` so mixes
can name phased apps exactly like static ones
(``make_mix(["omnet~milc", "gcc"])``); seeded random schedules come from
:func:`repro.workloads.generator.random_phased_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.workloads.profiles import AppProfile, get_static_profile


@dataclass(frozen=True)
class Phase:
    """One stationary segment of a phased app.

    *profile* supplies the curves/intensities while the phase is active;
    *instructions* is the segment's length in retired instructions per
    thread (phases are per-app program regions, so every thread of a
    multithreaded app moves through them together).
    """

    profile: AppProfile
    instructions: float

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError(
                f"phase of {self.profile.name!r} needs a positive "
                f"instruction count, got {self.instructions}"
            )


@dataclass(frozen=True)
class PhasedProfile:
    """A piecewise-stationary application profile.

    The phase schedule cycles: an app that runs past its last phase wraps
    to the first.  All phases must agree on the thread count (phases change
    *demand*, not the process structure).
    """

    name: str
    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"{self.name}: needs at least one phase")
        threads = {p.profile.threads for p in self.phases}
        if len(threads) > 1:
            raise ValueError(
                f"{self.name}: phases disagree on thread count {sorted(threads)}"
            )

    # -- schedule geometry ---------------------------------------------------

    @cached_property
    def total_instructions(self) -> float:
        """Length of one full pass through the schedule (instructions).
        Computed once and kept in the instance dict, outside the fields,
        so ``==``, ``fields()`` and content digests never see it."""
        return sum(p.instructions for p in self.phases)

    def boundaries(self) -> list[float]:
        """Cumulative phase end-points within one schedule pass."""
        out, acc = [], 0.0
        for phase in self.phases:
            acc += phase.instructions
            out.append(acc)
        return out

    def phase_at(self, instructions: float) -> tuple[int, AppProfile]:
        """(phase index, active static profile) at a cumulative instruction
        count.  The schedule cycles; positions exactly on a boundary belong
        to the *next* phase (segments are half-open ``[start, end)``)."""
        position = float(instructions) % self.total_instructions
        acc = 0.0
        for i, phase in enumerate(self.phases):
            acc += phase.instructions
            if position < acc:
                return i, phase.profile
        return len(self.phases) - 1, self.phases[-1].profile

    def phase_index(self, instructions: float) -> int:
        return self.phase_at(instructions)[0]

    def at_instructions(self, instructions: float) -> AppProfile:
        """The active stationary profile — what monitors would report for
        the interval starting at *instructions*."""
        return self.phase_at(instructions)[1]

    # -- AppProfile-compatible face (phase 0) --------------------------------
    # Static consumers (problem building from a raw mix, trace wiring) see
    # the initial phase; snapshotting at 0 instructions is then a no-op.

    @property
    def _initial(self) -> AppProfile:
        return self.phases[0].profile

    @property
    def threads(self) -> int:
        return self._initial.threads

    @property
    def multithreaded(self) -> bool:
        return self._initial.multithreaded

    @property
    def base_cpi(self) -> float:
        return self._initial.base_cpi

    @property
    def llc_apki(self) -> float:
        return self._initial.llc_apki

    @property
    def private_curve(self):
        return self._initial.private_curve

    @property
    def shared_curve(self):
        return self._initial.shared_curve

    @property
    def shared_fraction(self) -> float:
        return self._initial.shared_fraction

    @property
    def write_fraction(self) -> float:
        return self._initial.write_fraction

    @property
    def private_apki(self) -> float:
        return self._initial.private_apki

    @property
    def shared_apki(self) -> float:
        return self._initial.shared_apki

    def total_mpki(self, private_bytes: float, shared_bytes: float = 0.0) -> float:
        return self._initial.total_mpki(private_bytes, shared_bytes)


def compose_phased(
    name: str, schedule: list[tuple[str, float]]
) -> PhasedProfile:
    """Build a phased profile from (static app name, instructions) pairs.

    The named apps come from the static registries; this is how the
    standard phased apps below are declared and the natural way to script
    custom schedules in experiments.
    """
    phases = tuple(
        Phase(get_static_profile(app), float(instructions))
        for app, instructions in schedule
    )
    return PhasedProfile(name=name, phases=phases)


def _standard_phased() -> dict[str, PhasedProfile]:
    """Named phase schedules covering the interesting dynamics.

    Phase lengths sit in the hundreds of millions of instructions — a few
    reconfiguration intervals each at the paper's 50 Mcycle period — so a
    well-tuned runtime re-places data several times per phase while a
    stale placement straddles phase changes.
    """
    m = 1e6
    return {
        # Fitting <-> streaming: the canonical reconfiguration adversary
        # (the placement that helps omnet is wasted capacity for milc).
        "omnet~milc": compose_phased(
            "omnet~milc", [("omnet", 300 * m), ("milc", 300 * m)]
        ),
        # Two different footprints: capacity should shift between phases.
        "xalancbmk~gcc": compose_phased(
            "xalancbmk~gcc", [("xalancbmk", 250 * m), ("gcc", 400 * m)]
        ),
        # Three-way rotation with a long streaming stretch in the middle.
        "mcf~libquantum~bzip2": compose_phased(
            "mcf~libquantum~bzip2",
            [("mcf", 200 * m), ("libquantum", 350 * m), ("bzip2", 250 * m)],
        ),
        # Multithreaded: shared-heavy clustering phase vs private-heavy
        # spreading phase (the Fig 16b tension, now time-varying).
        "ilbdc~mgrid": compose_phased(
            "ilbdc~mgrid", [("ilbdc", 240 * m), ("mgrid", 360 * m)]
        ),
    }


#: Registry of named phased profiles (same lookup path as static apps:
#: ``repro.workloads.get_profile`` consults this after the static pools).
PHASED_PROFILES: dict[str, PhasedProfile] = _standard_phased()
