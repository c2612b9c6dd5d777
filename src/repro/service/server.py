"""The co-scheduling control plane: :class:`CoSchedService`.

A long-running asyncio service in the BCache brain/data-plane shape: the
"brain" (this module) owns admission control and warm engines, the "data
plane" (the chips' own epoch simulation) streams telemetry in and
applies the placements that come back.

Request lifecycle::

    submit() -- validate -> token bucket -> bounded queue   (admission)
    worker   -- per-chip lock -> engine.solve on thread pool (service)
    reply    -- fresh placement, or last-good on timeout/failure

Admission failures raise typed errors synchronously (nothing was
queued); service-side failures degrade to the chip's last-good placement
when one exists, so a chip that was ever served keeps running on a stale
— but valid — placement rather than crashing.  A timed-out solve is
abandoned, not raced: the worker keeps the chip's lock until the
abandoned solve actually finishes on the executor, so warm state stays
consistent and the chip is serviceable again afterwards.

Determinism: replies for one chip are produced by one warm engine in
telemetry order, so they are bitwise-identical to the same sequence
driven through ``EpochEngine.run_reconfigured`` — regardless of how many
other tenants interleave (pinned in ``tests/test_service.py``).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable

from repro.sched.engine import SolveStrategy
from repro.sched.problem import PlacementProblem, ThreadSpec
from repro.sched.reconfigure import ReconfigPolicy, ReconfigResult
from repro.service.budget import TokenBucket
from repro.util.guards import assert_lock_held
from repro.service.engines import ChipSlot, EnginePool
from repro.service.messages import (
    BudgetExceededError,
    DeltaTelemetry,
    MalformedTelemetryError,
    PlacementReply,
    PlacementRequest,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    SolveFailedError,
    SolveTimeoutError,
    StaleTelemetryError,
    problem_digest,
    validate_delta_telemetry,
    validate_telemetry,
)
from repro.vcache.virtual_cache import VirtualCache


@dataclass
class ServiceStats:
    """Service-lifetime counters plus per-reply latency samples."""

    submitted: int = 0
    completed: int = 0
    degraded: int = 0
    timeouts: int = 0
    solve_errors: int = 0
    #: Delta-telemetry requests that could not anchor (client falls back).
    stale_deltas: int = 0
    #: error code -> count of synchronous admission rejections.
    rejected: dict[str, int] = field(default_factory=dict)
    #: submit-to-reply wall latency of every completed request (seconds).
    latencies: list[float] = field(default_factory=list)

    def reject(self, code: str) -> None:
        self.rejected[code] = self.rejected.get(code, 0) + 1

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def latency_percentile(self, q: float) -> float:
        """The *q*-quantile (0 < q <= 1) of completed-request latency."""
        if not 0 < q <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
        return ordered[index]

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "timeouts": self.timeouts,
            "solve_errors": self.solve_errors,
            "stale_deltas": self.stale_deltas,
            "rejected": dict(self.rejected),
            "p50_latency_s": self.latency_percentile(0.50),
            "p99_latency_s": self.latency_percentile(0.99),
        }


#: One queued unit of work: (request, reply future, submit timestamp).
_Pending = tuple["PlacementRequest | DeltaTelemetry", asyncio.Future, float]


class CoSchedService:
    """Async control plane over a pool of warm reconfiguration engines.

    *strategy*/*policy*/*strategy_kwargs* configure every chip's engine
    (see :class:`~repro.service.engines.EnginePool`).  *queue_limit*
    bounds the request queue (admission rejects beyond it); *workers* is
    the number of concurrent worker tasks pulling from it, each solving
    on a shared thread pool.  *solve_timeout_s* is the default per-solve
    deadline (None = no deadline).  *tenant_rate*/*tenant_burst* enable
    per-tenant token buckets (requests per second / burst size); *clock*
    feeds the buckets and is injectable for deterministic tests.

    Use as an async context manager, or call :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        strategy: str | SolveStrategy = "incremental",
        policy: ReconfigPolicy | None = None,
        queue_limit: int = 64,
        workers: int = 2,
        solve_timeout_s: float | None = None,
        tenant_rate: float | None = None,
        tenant_burst: float | None = None,
        max_chips: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        **strategy_kwargs,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if solve_timeout_s is not None and solve_timeout_s <= 0:
            raise ValueError(
                f"solve_timeout_s must be positive, got {solve_timeout_s}"
            )
        if tenant_rate is not None and tenant_rate <= 0:
            raise ValueError(
                f"tenant_rate must be positive, got {tenant_rate}"
            )
        self.pool = EnginePool(
            strategy, policy=policy, max_chips=max_chips, **strategy_kwargs
        )
        self.queue_limit = queue_limit
        self.workers = workers
        self.solve_timeout_s = solve_timeout_s
        self.tenant_rate = tenant_rate
        self.tenant_burst = (
            tenant_burst if tenant_burst is not None
            else (tenant_rate or 1.0)
        )
        self._clock = clock
        self.stats = ServiceStats()
        self._buckets: dict[str, TokenBucket] = {}
        self._queue: asyncio.Queue[_Pending] | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: set[asyncio.Future] = set()
        self._running = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "CoSchedService":
        if self._running:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="cosched-solve",
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"cosched-worker-{i}")
            for i in range(self.workers)
        ]
        self._running = True
        return self

    async def stop(self) -> None:
        """Drain accepted requests, then shut everything down."""
        if not self._running:
            return
        self._running = False
        await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        # Abandoned (timed-out) solves may still be running on the
        # executor; wait them out so their lock-release callbacks fire
        # while the loop is alive.
        if self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
        self._executor.shutdown(wait=True)
        self._worker_tasks = []

    async def __aenter__(self) -> "CoSchedService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # -- admission -----------------------------------------------------------

    def _bucket(self, chip_id: str) -> TokenBucket | None:
        if self.tenant_rate is None:
            return None
        bucket = self._buckets.get(chip_id)
        if bucket is None:
            bucket = TokenBucket(
                capacity=self.tenant_burst,
                refill_per_s=self.tenant_rate,
                clock=self._clock,
            )
            self._buckets[chip_id] = bucket
        return bucket

    def submit(
        self, request: PlacementRequest | DeltaTelemetry
    ) -> asyncio.Future:
        """Admit *request*; returns the future resolving to its reply.

        Accepts full telemetry (:class:`PlacementRequest`) or a delta
        (:class:`DeltaTelemetry`).  Raises synchronously (and queues
        nothing) on admission failure: :class:`ServiceClosedError`,
        :class:`MalformedTelemetryError`, :class:`BudgetExceededError`,
        or :class:`QueueFullError`.  A delta that passes admission can
        still fail later with :class:`StaleTelemetryError` (resolved
        under the chip's lock, against the live engine state).
        """
        if not self._running:
            raise ServiceClosedError("service is not running")
        try:
            if isinstance(request, DeltaTelemetry):
                validate_delta_telemetry(request)
            else:
                validate_telemetry(request)
        except MalformedTelemetryError:
            self.stats.reject(MalformedTelemetryError.code)
            raise
        bucket = self._bucket(request.chip_id)
        if bucket is not None and not bucket.try_take():
            self.stats.reject(BudgetExceededError.code)
            raise BudgetExceededError(
                f"tenant {request.chip_id} is out of budget "
                f"(rate {self.tenant_rate}/s, burst {self.tenant_burst})"
            )
        future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request, future, time.perf_counter()))
        except asyncio.QueueFull:
            self.stats.reject(QueueFullError.code)
            raise QueueFullError(
                f"request queue at capacity ({self.queue_limit})"
            ) from None
        self.stats.submitted += 1
        return future

    async def place(
        self,
        chip_id: str,
        problem: PlacementProblem,
        epoch: int = 0,
        timeout_s: float | None = None,
    ) -> PlacementReply:
        """Submit one request and await its reply."""
        return await self.submit(PlacementRequest(
            chip_id=chip_id, problem=problem, epoch=epoch,
            timeout_s=timeout_s,
        ))

    # -- service -------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            pending = await self._queue.get()
            try:
                await self._handle(pending)
            finally:
                self._queue.task_done()

    @staticmethod
    def _solve_sync(slot: ChipSlot, problem: PlacementProblem):
        # Warm-engine access is only legal under the chip's slot lock
        # (one solve at a time per chip); REPRO_CHECK_LOCKS=1 turns that
        # convention into a runtime assertion on every solve.
        assert_lock_held(slot.lock, f"chip {slot.chip_id} engine")
        t0 = time.perf_counter()
        result = slot.engine.solve(problem)
        return result, time.perf_counter() - t0

    @staticmethod
    def _resolve_delta(
        slot: ChipSlot, delta: DeltaTelemetry
    ) -> PlacementProblem:
        """Patch the chip's last-good problem with *delta* (slot lock held).

        Raises :class:`StaleTelemetryError` when the delta cannot anchor:
        the engine has no last-good problem (first contact or evicted
        slot), the digest does not match it (the client and service
        disagree about the base), or the delta names VCs or threads the
        base does not have.  Anchored deltas rebuild only the dirty VCs
        and the threads whose rates or cluster keys moved, and the result
        is derived from the base (see
        :class:`~repro.sched.problem.PlacementProblem`): everything else
        keeps the base's objects, so the work is in proportion to the
        delta, and the engine's sketch memos see clean VCs as identical.
        """
        assert_lock_held(slot.lock, f"chip {slot.chip_id} engine")
        base = slot.engine.state.problem
        if base is None:
            raise StaleTelemetryError(
                f"chip {delta.chip_id}: no last-good problem to patch "
                f"(first contact); send full telemetry"
            )
        if problem_digest(base) != delta.base_digest:
            raise StaleTelemetryError(
                f"chip {delta.chip_id}: base digest mismatch; "
                f"send full telemetry"
            )
        vc_positions = base.vc_positions
        unknown = {
            vc_id for vc_id in chain(delta.sketches, delta.dirty_rates)
            if vc_id not in vc_positions
        }
        if unknown:
            raise StaleTelemetryError(
                f"chip {delta.chip_id}: delta names unknown VCs "
                f"{sorted(unknown)}; send full telemetry"
            )
        thread_positions = base.thread_positions
        unknown_threads = set(delta.dirty_clusters).difference(thread_positions)
        if unknown_threads:
            raise StaleTelemetryError(
                f"chip {delta.chip_id}: delta names unknown threads "
                f"{sorted(unknown_threads)}; send full telemetry"
            )
        dirty_rates = delta.dirty_rates
        if not delta.dirty_curves and not dirty_rates and not delta.dirty_clusters:
            # Stationary epoch: re-solve the very same problem object
            # (its memos ride along, and every record is the base's, so
            # a warm engine sees every VC clean without recomputing).
            return base
        vcs = list(base.vcs)
        for vc_id in {**delta.dirty_curves, **dirty_rates}:
            position = vc_positions[vc_id]
            vc = vcs[position]
            curve = delta.dirty_curves.get(vc_id)
            rates = dirty_rates.get(vc_id)
            vcs[position] = VirtualCache(
                vc_id=vc.vc_id,
                kind=vc.kind,
                process_id=vc.process_id,
                miss_curve=curve if curve is not None else vc.miss_curve,
                accesses=dict(rates) if rates is not None else dict(vc.accesses),
                allocation=dict(vc.allocation),
                owner_thread=vc.owner_thread,
            )
        threads = list(base.threads)
        # thread_id -> the dirty-rate VCs whose maps name it, in id order.
        named: dict[int, list[int]] = {}
        for vc_id in sorted(dirty_rates):
            for thread_id in dirty_rates[vc_id]:
                named.setdefault(thread_id, []).append(vc_id)
        # The threads to patch: those a rate map names, the base's
        # accessors of each dirty-rate VC, and those whose key changed.
        # Any other thread patches to itself.
        patch = set(named).union(delta.dirty_clusters)
        for vc_id in dirty_rates:
            patch.update(base.accessor_rates(vc_id))
        positions = sorted(
            thread_positions[t] for t in patch if t in thread_positions
        )
        for position in positions:
            thread = threads[position]
            thread_id = thread.thread_id
            # Preserve the base key order (placement reductions iterate
            # these dicts); rate updates replace in place, zero/absent
            # rates drop, newly-accessed VCs append.  A key changes only
            # where a map names the thread: the delta's, or the base's
            # accessor map, which holds the positive rates.
            accesses = {}
            for vc_id, rate in thread.vc_accesses.items():
                rates = dirty_rates.get(vc_id)
                if rates is not None and (rate > 0 or thread_id in rates):
                    rate = rates.get(thread_id, 0.0)
                    if rate <= 0:
                        continue
                accesses[vc_id] = rate
            for vc_id in named.get(thread_id, ()):
                rate = dirty_rates[vc_id][thread_id]
                if vc_id not in thread.vc_accesses and rate > 0:
                    accesses[vc_id] = rate
            cluster_key = delta.dirty_clusters.get(thread_id, thread.cluster_key)
            if accesses == thread.vc_accesses and cluster_key == thread.cluster_key:
                continue
            threads[position] = (
                ThreadSpec(thread_id, thread.process_id, accesses, cluster_key)
                if type(thread) is ThreadSpec
                else replace(thread, vc_accesses=accesses, cluster_key=cluster_key)
            )
        return PlacementProblem(
            config=base.config,
            topology=base.topology,
            vcs=vcs,
            threads=threads,
            mem_latency=base.mem_latency,
            base=base,
        )

    async def _handle(self, pending: _Pending) -> None:
        request, future, t_submit = pending
        slot = self.pool.slot(request.chip_id)
        loop = asyncio.get_running_loop()
        await slot.lock.acquire()
        lock_deferred = False
        try:
            if isinstance(request, DeltaTelemetry):
                try:
                    problem = self._resolve_delta(slot, request)
                except StaleTelemetryError as exc:
                    self.stats.stale_deltas += 1
                    if not future.done():
                        future.set_exception(exc)
                    return
            else:
                problem = request.problem
            inner = loop.run_in_executor(
                self._executor, self._solve_sync, slot, problem
            )
            self._inflight.add(inner)
            inner.add_done_callback(self._inflight.discard)
            timeout = (
                request.timeout_s if request.timeout_s is not None
                else self.solve_timeout_s
            )
            try:
                result, solve_s = await asyncio.wait_for(
                    asyncio.shield(inner), timeout
                )
            except TimeoutError:
                # The solve keeps running on its executor thread; the
                # chip's lock is released only when it finishes, so the
                # next request for this chip waits instead of racing it.
                self.stats.timeouts += 1
                lock_deferred = True
                inner.add_done_callback(lambda _f: slot.lock.release())
                self._finish_degraded(
                    slot, request, future, t_submit,
                    SolveTimeoutError(
                        f"chip {request.chip_id}: solve exceeded "
                        f"{timeout:g}s"
                    ),
                )
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self.stats.solve_errors += 1
                self._finish_degraded(
                    slot, request, future, t_submit,
                    SolveFailedError(
                        f"chip {request.chip_id}: solve failed: {exc}"
                    ),
                )
                return
            slot.epochs += 1
            self._finish_ok(slot, request, future, t_submit, result)
        finally:
            if not lock_deferred:
                slot.lock.release()

    def _finish_ok(
        self,
        slot: ChipSlot,
        request: PlacementRequest | DeltaTelemetry,
        future: asyncio.Future,
        t_submit: float,
        result: ReconfigResult,
    ) -> None:
        latency = time.perf_counter() - t_submit
        self.stats.completed += 1
        self.stats.latencies.append(latency)
        if future.done():
            return  # the client gave up waiting
        future.set_result(PlacementReply(
            chip_id=request.chip_id,
            epoch=request.epoch,
            status="ok",
            solution=result.solution,
            strategy=result.strategy,
            modeled_mcycles=result.modeled_cycles() / 1e6,
            latency_s=latency,
            step_cycles=result.step_cycles(),
        ))

    def _finish_degraded(
        self,
        slot: ChipSlot,
        request: PlacementRequest | DeltaTelemetry,
        future: asyncio.Future,
        t_submit: float,
        error: ServiceError,
    ) -> None:
        """Fall back to the last-good placement, or surface the error."""
        last_good = slot.last_good()
        if future.done():
            return
        if last_good is None:
            future.set_exception(error)
            return
        latency = time.perf_counter() - t_submit
        slot.degraded += 1
        self.stats.degraded += 1
        self.stats.completed += 1
        self.stats.latencies.append(latency)
        future.set_result(PlacementReply(
            chip_id=request.chip_id,
            epoch=request.epoch,
            status="degraded",
            solution=last_good,
            strategy=slot.engine.strategy.name,
            latency_s=latency,
            error=error.code,
        ))
