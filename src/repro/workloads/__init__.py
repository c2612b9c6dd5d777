"""Workload model: app profiles (miss curves + intensities), phased
(time-varying) profiles, mix generation, and synthetic address streams
realizing a target miss curve."""

from repro.workloads.generator import (
    StackDistanceStream,
    random_phased_profile,
    suggested_footprint,
)
from repro.workloads.mixes import (
    Mix,
    ProcessSpec,
    case_study_mix,
    fig16_case_study_mix,
    make_mix,
    mix_is_phased,
    random_multithreaded_mix,
    random_phased_mix,
    random_single_threaded_mix,
    snapshot_mix,
)
from repro.workloads.phased import (
    PHASED_PROFILES,
    Phase,
    PhasedProfile,
    compose_phased,
)
from repro.workloads.profiles import (
    ALL_PROFILES,
    MULTI_THREADED,
    SINGLE_THREADED,
    AppProfile,
    get_profile,
    get_static_profile,
)

__all__ = [
    "ALL_PROFILES",
    "AppProfile",
    "MULTI_THREADED",
    "Mix",
    "PHASED_PROFILES",
    "Phase",
    "PhasedProfile",
    "ProcessSpec",
    "SINGLE_THREADED",
    "StackDistanceStream",
    "case_study_mix",
    "compose_phased",
    "fig16_case_study_mix",
    "get_profile",
    "get_static_profile",
    "make_mix",
    "mix_is_phased",
    "random_multithreaded_mix",
    "random_phased_mix",
    "random_phased_profile",
    "random_single_threaded_mix",
    "snapshot_mix",
    "suggested_footprint",
]
