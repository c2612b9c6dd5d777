"""Shared pytest configuration: the `slow` marker for heavier end-to-end
tests (still run by default; deselect with `-m "not slow"`), and fixtures
shared across test modules."""

import asyncio

import pytest

from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.service import CoSchedService, ServiceClient
from repro.sim.engine import EpochEngine
from repro.workloads.mixes import random_phased_mix


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: heavier end-to-end tests (full case study, traces)"
    )


def _served_problems(mix_id=0, epochs=5):
    """(client problem, the service's problem) per epoch of a delta drive
    of one phased 16-tile chip.  After first contact every problem the
    service holds was rebuilt from a delta by ``_resolve_delta`` (or, on
    a stationary epoch, is the base itself)."""
    mix = random_phased_mix(8, 42, mix_id)
    sim = EpochEngine(mix, build_problem(mix, small_test_config(4, 4)))

    async def scenario():
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            pairs = []
            for _ in range(epochs):
                problem = sim.current_problem()
                reply = await client.place_delta(problem)
                served = service.pool.slot("chip-0").engine.state.problem
                pairs.append((problem, served))
                sim.run_epoch(reply.solution, 200e6)
            return pairs, client.telemetry_stats

    pairs, stats = asyncio.run(scenario())
    assert stats == {"delta": epochs - 1, "full": 1, "stale": 0}
    return pairs


@pytest.fixture
def served_problems():
    """Factory fixture: ``served_problems(mix_id=0, epochs=5)``."""
    return _served_problems
