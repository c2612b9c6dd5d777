"""Shared test/benchmark fixtures: the one import point.

``tests/`` and ``benchmarks/`` grew separate copies of the same
scaffolding — the golden fig11 mix, the small 4x4 problem, the bitwise
equality assertion, the env-configured session.  They live here now so
both conftests (and any module) import one definition; drift between the
suites was a real bug class (a "golden" mix that differed by seed would
silently pin two different chips).

Nothing here is imported by library code — ``repro.testing`` depends on
the library, never the reverse.
"""

from __future__ import annotations

import os

from repro.api import Session
from repro.config import default_config, small_test_config
from repro.nuca.base import build_problem
from repro.workloads.mixes import random_single_threaded_mix

#: The golden fig11 mix: 64 single-threaded apps on the paper's 64-tile
#: chip (the same point tests/golden/fig11_mix0.json pins).
GOLDEN_MIX = dict(n_apps=64, seed=42, mix_id=0)


def golden_mix():
    """The golden fig11 mix object (see :data:`GOLDEN_MIX`)."""
    return random_single_threaded_mix(**GOLDEN_MIX)


def golden_problem():
    """The golden mix as a built placement problem on the paper chip."""
    return build_problem(golden_mix(), default_config())


def fig11_sharing_plans() -> list:
    """The S-NUCA and R-NUCA sharing plans of the seed-42 4-mix fig11
    request (512 lanes in 260 caches), which a mega-batch merges."""
    from repro.nuca.rnuca import RNuca
    from repro.nuca.snuca import SNuca

    plans = []
    for mix_id in range(4):
        mix = random_single_threaded_mix(64, GOLDEN_MIX["seed"], mix_id)
        problem = build_problem(mix, default_config())
        for scheme in (SNuca(mix_id), RNuca(mix_id)):
            plans.append(scheme.sharing_stage(problem)[0])
    return plans


def small_problem(apps: int = 16, side: int = 4, seed: int = 42,
                  mix_id: int = 0):
    """(problem, config) on a ``side x side`` test mesh — the cheap
    workhorse point for engine/service tests."""
    config = small_test_config(side, side)
    return build_problem(
        random_single_threaded_mix(apps, seed, mix_id), config
    ), config


def assert_solutions_equal(result, reference) -> None:
    """Placement solutions exactly equal — the ``==`` contract."""
    assert result.vc_sizes == reference.vc_sizes
    assert result.vc_allocation == reference.vc_allocation
    assert result.thread_cores == reference.thread_cores


def assert_bitwise_equal(result, reference) -> None:
    """Reconfig results (solution + op counts) exactly equal."""
    assert_solutions_equal(result.solution, reference.solution)
    assert result.counter.ops == reference.counter.ops
    assert result.step_cycles() == reference.step_cycles()


def make_session() -> Session:
    """Build a :class:`~repro.api.Session` from ``REPRO_JOBS`` /
    ``REPRO_CACHE_DIR``.

    The benchmark suite's session: fan out over ``REPRO_JOBS`` worker
    processes (default 1; results identical at any N) and, when
    ``REPRO_CACHE_DIR`` is set, memoize points in the content-hashed
    result cache.
    """
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return Session(jobs=jobs, cache_dir=cache_dir)
