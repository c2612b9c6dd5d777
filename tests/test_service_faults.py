"""Fault injection against the control plane (ISSUE 6 satellite).

Every failure mode must resolve to a typed error or a degraded
(last-good) reply — and the service must stay serviceable afterwards.
Faults are deterministic: timeouts are forced with
:class:`~repro.service.load.SlowStrategy` delays, never raced.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.sched.engine import make_strategy
from repro.sched.problem import PlacementProblem
from repro.service import (
    CoSchedService,
    MalformedTelemetryError,
    PlacementRequest,
    QueueFullError,
    ServiceClient,
    SlowStrategy,
    SolveFailedError,
    SolveTimeoutError,
    validate_telemetry,
)
from repro.testing import small_problem

#: The injected delay dwarfs the deadline, and the deadline dwarfs a
#: real small-problem solve (~1ms) — so the timeout tests stay
#: deterministic even on a badly loaded CI runner.
SLOW_S = 0.4
DEADLINE_S = 0.1


class FailingStrategy:
    """Raises on chosen call indices, delegates otherwise."""

    def __init__(self, fail_calls, inner="full"):
        self.inner = make_strategy(inner)
        self.name = self.inner.name
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def solve(self, problem, policy, external_thread_cores, state):
        call = self.calls
        self.calls += 1
        if call in self.fail_calls:
            raise RuntimeError(f"injected failure on call {call}")
        return self.inner.solve(
            problem, policy, external_thread_cores, state
        )


def test_cold_timeout_surfaces_typed_error_then_service_recovers():
    """A timeout with no last-good placement is a typed error; the same
    chip is served normally once the abandoned solve has drained."""
    problem, _ = small_problem(apps=4, side=2)
    slow = SlowStrategy("full", delay_s=SLOW_S, slow_calls=frozenset({0}))

    async def scenario():
        async with CoSchedService(
            strategy=slow, solve_timeout_s=DEADLINE_S
        ) as service:
            with pytest.raises(SolveTimeoutError) as err:
                await service.place("chip", problem)
            # The abandoned solve still holds the chip's lock; this
            # request queues behind it and then solves fresh (call 1 is
            # not slowed).
            reply = await service.place("chip", problem)
            return err.value, reply, service.stats.snapshot()

    error, reply, stats = asyncio.run(scenario())
    assert error.code == "solve_timeout"
    assert reply.ok and reply.status == "ok"
    assert stats["timeouts"] == 1
    assert stats["degraded"] == 0


def test_warm_timeout_degrades_to_last_good_placement():
    problem, _ = small_problem(apps=4, side=2)
    slow = SlowStrategy("full", delay_s=SLOW_S, slow_calls=frozenset({1}))

    async def scenario():
        async with CoSchedService(
            strategy=slow, solve_timeout_s=DEADLINE_S
        ) as service:
            fresh = await service.place("chip", problem)
            degraded = await service.place("chip", problem)
            after = await service.place("chip", problem)
            return fresh, degraded, after, service.stats.snapshot()

    fresh, degraded, after, stats = asyncio.run(scenario())
    assert fresh.ok
    assert degraded.status == "degraded" and not degraded.ok
    assert degraded.error == "solve_timeout"
    assert degraded.step_cycles == {}
    # The stale placement it fell back to is the last fresh answer.
    assert degraded.solution.vc_sizes == fresh.solution.vc_sizes
    assert degraded.solution.thread_cores == fresh.solution.thread_cores
    # ... and a private copy: scribbling on it can't corrupt the engine.
    degraded.solution.vc_sizes.clear()
    assert after.ok
    assert after.solution.vc_sizes == fresh.solution.vc_sizes
    assert stats["timeouts"] == 1 and stats["degraded"] == 1


def test_per_request_timeout_overrides_service_default():
    problem, _ = small_problem(apps=4, side=2)
    slow = SlowStrategy("full", delay_s=SLOW_S, slow_calls=frozenset({0}))

    async def scenario():
        # No service-wide deadline: only the per-request one bites.
        async with CoSchedService(strategy=slow) as service:
            with pytest.raises(SolveTimeoutError):
                await service.place("chip", problem,
                                    timeout_s=DEADLINE_S)
            return await service.place("chip", problem)

    reply = asyncio.run(scenario())
    assert reply.ok


def test_mid_solve_failure_is_typed_cold_and_degraded_warm():
    problem, _ = small_problem(apps=4, side=2)
    failing = FailingStrategy(fail_calls={0, 2})

    async def scenario():
        async with CoSchedService(strategy=failing) as service:
            with pytest.raises(SolveFailedError) as cold:
                await service.place("chip", problem)  # call 0 raises
            fresh = await service.place("chip", problem)  # call 1 ok
            degraded = await service.place("chip", problem)  # call 2
            return cold.value, fresh, degraded, service.stats.snapshot()

    error, fresh, degraded, stats = asyncio.run(scenario())
    assert error.code == "solve_failed"
    assert fresh.ok
    assert degraded.status == "degraded"
    assert degraded.error == "solve_failed"
    assert degraded.solution.vc_sizes == fresh.solution.vc_sizes
    assert stats["solve_errors"] == 2


def test_malformed_telemetry_is_rejected_and_service_stays_up():
    problem, _ = small_problem(apps=4, side=2)

    async def scenario():
        async with CoSchedService(strategy="full") as service:
            with pytest.raises(MalformedTelemetryError):
                service.submit(
                    PlacementRequest(chip_id="rogue", problem="junk")
                )
            reply = await service.place("honest", problem)
            return reply, service.stats.snapshot()

    reply, stats = asyncio.run(scenario())
    assert reply.ok
    assert stats["rejected"] == {"malformed_telemetry": 1}
    assert stats["submitted"] == 1  # the garbage was never queued


def test_repeated_thread_ids_are_rejected():
    # Two threads under one id would let the pipeline place one of them
    # and drop the other, and the solution would still validate.
    problem, _ = small_problem(apps=4)
    threads = list(problem.threads)
    threads[1] = replace(threads[1], thread_id=threads[0].thread_id)
    records = (problem.config, problem.topology, list(problem.vcs), threads)
    with pytest.raises(ValueError, match="duplicate thread ids"):
        PlacementProblem(*records, problem.mem_latency)
    with pytest.raises(ValueError, match="duplicate thread ids"):
        PlacementProblem(*records, problem.mem_latency, base=problem)
    # A payload's thread list can still change after construction.
    payload = replace(problem, threads=list(problem.threads))
    payload.threads[1] = threads[1]
    request = PlacementRequest(chip_id="rogue", problem=payload)
    with pytest.raises(MalformedTelemetryError, match="duplicate thread ids"):
        validate_telemetry(request)

    async def scenario():
        async with CoSchedService(strategy="full") as service:
            with pytest.raises(MalformedTelemetryError):
                service.submit(request)
            reply = await service.place("honest", problem)
            return reply, service.stats.snapshot()

    reply, stats = asyncio.run(scenario())
    assert reply.ok
    assert stats["rejected"] == {"malformed_telemetry": 1}
    assert stats["submitted"] == 1


def test_queue_full_rejection_is_typed_and_transient():
    """With the single worker pinned on a slow solve, the bounded queue
    fills; overflow raises QueueFullError and every accepted request is
    still answered once the worker catches up."""
    problem, _ = small_problem(apps=4, side=2)
    slow = SlowStrategy("full", delay_s=SLOW_S, slow_calls=frozenset({0}))

    async def scenario():
        async with CoSchedService(
            strategy=slow, workers=1, queue_limit=2
        ) as service:
            first = service.submit(
                PlacementRequest(chip_id="chip", problem=problem)
            )
            await asyncio.sleep(0.05)  # worker is now inside the slow solve
            accepted = [
                service.submit(PlacementRequest(
                    chip_id="chip", problem=problem, epoch=1 + i
                ))
                for i in range(2)  # fills the queue exactly
            ]
            with pytest.raises(QueueFullError) as err:
                service.submit(
                    PlacementRequest(chip_id="chip", problem=problem)
                )
            replies = await asyncio.gather(first, *accepted)
            return err.value, replies, service.stats.snapshot()

    error, replies, stats = asyncio.run(scenario())
    assert error.code == "queue_full"
    assert all(reply.ok for reply in replies)
    assert stats["rejected"] == {"queue_full": 1}
    assert stats["completed"] == 3


def test_client_retries_queue_full_until_admitted():
    problem, _ = small_problem(apps=4, side=2)
    slow = SlowStrategy("full", delay_s=SLOW_S, slow_calls=frozenset({0}))

    async def scenario():
        async with CoSchedService(
            strategy=slow, workers=1, queue_limit=1
        ) as service:
            pinned = service.submit(
                PlacementRequest(chip_id="chip", problem=problem)
            )
            await asyncio.sleep(0.02)
            filler = service.submit(
                PlacementRequest(chip_id="chip", problem=problem)
            )
            # Retries outlive the slow solve, so this must get through.
            client = ServiceClient(
                service, "chip", retries=100, retry_delay_s=0.01
            )
            reply = await client.place(problem)
            await asyncio.gather(pinned, filler)
            return reply, service.stats.snapshot()

    reply, stats = asyncio.run(scenario())
    assert reply.ok
    assert stats["rejected"].get("queue_full", 0) >= 1
    assert stats["completed"] == 3
