"""Deterministic load/fault harness for the control plane.

This is the serving-shaped benchmark the ROADMAP asked for: N simulated
chips (tenants), each a seeded :class:`~repro.sim.engine.EpochEngine`
over its own random mix, stream telemetry through one
:class:`~repro.service.server.CoSchedService` concurrently; the report
records requests/sec and p50/p99 placement latency.

Determinism: mixes come from ``(seed, chip index)``, per-chip placements
are produced by per-chip warm engines in telemetry order (so every
placement is bitwise-identical to the same chip running alone — the
isolation contract), and faults are injected at declared (chip, epoch)
coordinates via :class:`FaultPlan`, not by racing timers.  Only the wall
clock (and with it requests/sec and latency percentiles) varies run to
run.

:class:`SlowStrategy` is the timeout-fault tool: it wraps any solve
strategy and sleeps before delegating, so a test can force a mid-solve
deadline miss with a deterministic trigger.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.config import scaled_mesh_config
from repro.sched.engine import SolveStrategy, make_strategy
from repro.service.messages import (
    MalformedTelemetryError,
    PlacementRequest,
)
from repro.service.server import CoSchedService
from repro.service.transport import ServiceClient

#: Epoch length driven between reconfigurations, in modeled Mcycles —
#: long enough that the generator's phased profiles actually flip
#: between solves (matches the solver study's default period).
DEFAULT_EPOCH_MCYCLES = 200.0


class SlowStrategy:
    """Fault-injection wrapper: sleep *delay_s* before delegating.

    With *slow_calls* given, only those solve-call indices (counted
    across all chips sharing this instance) sleep; otherwise every call
    does.  The delegate's results are untouched, so a slow solve that
    beats its deadline is still bitwise-correct.
    """

    def __init__(
        self,
        inner: str | SolveStrategy = "full",
        delay_s: float = 0.05,
        slow_calls: frozenset[int] | None = None,
    ):
        if isinstance(inner, str):
            inner = make_strategy(inner)
        self.inner = inner
        self.name = inner.name
        self.delay_s = delay_s
        self.slow_calls = slow_calls
        self.calls = 0

    def solve(self, problem, policy, external_thread_cores, state):
        call = self.calls
        self.calls += 1
        if self.slow_calls is None or call in self.slow_calls:
            time.sleep(self.delay_s)
        return self.inner.solve(
            problem, policy, external_thread_cores, state
        )


def malformed_request(chip_id: str = "rogue") -> PlacementRequest:
    """Telemetry that must bounce off validation: the payload is not a
    placement problem at all (what a corrupted or hostile client sends)."""
    return PlacementRequest(chip_id=chip_id, problem="not telemetry")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injections for a load run.

    *malformed* lists ``(chip_index, epoch)`` coordinates; just before
    that chip's real telemetry for that epoch, it sends one garbage
    request and swallows the typed rejection (which the service counts).
    The real request still follows, so placement sequences — and the
    bitwise-isolation contract — are unaffected by injected faults.
    """

    malformed: tuple[tuple[int, int], ...] = ()

    def malformed_epochs(self, chip_index: int) -> frozenset[int]:
        return frozenset(
            epoch for chip, epoch in self.malformed if chip == chip_index
        )


@dataclass(frozen=True)
class LoadSpec:
    """One load run: the fleet, the chip shape, and the service knobs."""

    chips: int = 4
    epochs: int = 6
    tiles: int = 16
    #: Apps per chip; None = one per tile (fully committed).
    apps: int | None = None
    #: "phased" chips drift their curves between epochs (warm engines
    #: earn their keep); "stationary" chips re-send identical telemetry.
    dynamism: str = "phased"
    strategy: str = "incremental"
    workers: int = 2
    queue_limit: int = 32
    solve_timeout_s: float | None = None
    tenant_rate: float | None = None
    tenant_burst: float | None = None
    epoch_mcycles: float = DEFAULT_EPOCH_MCYCLES
    seed: int = 42
    #: Queue-full retries per request (clients back off and resubmit).
    retries: int = 16

    def __post_init__(self) -> None:
        if self.chips < 1:
            raise ValueError(f"need at least one chip, got {self.chips}")
        if self.epochs < 1:
            raise ValueError(f"need at least one epoch, got {self.epochs}")
        if self.dynamism not in ("phased", "stationary"):
            raise ValueError(
                f"unknown dynamism {self.dynamism!r} "
                f"(phased or stationary)"
            )


@dataclass(frozen=True)
class LoadReport:
    """What one load run measured (the ``service_load`` payload)."""

    spec: dict[str, Any]
    requests: int
    ok: int
    degraded: int
    timeouts: int
    rejected: dict[str, int]
    wall_seconds: float
    requests_per_sec: float
    p50_latency_ms: float
    p99_latency_ms: float
    mean_modeled_mcycles: float
    #: (chip_id, ok, degraded) per chip, in chip order.
    per_chip: tuple[tuple[str, int, int], ...] = field(default=())

    def table_rows(self) -> list[tuple]:
        return [
            (
                self.spec["chips"], self.spec["epochs"],
                self.spec["tiles"], self.spec["strategy"],
                self.spec["dynamism"], self.requests, self.ok,
                self.degraded, sum(self.rejected.values()),
                round(self.requests_per_sec, 1),
                round(self.p50_latency_ms, 2),
                round(self.p99_latency_ms, 2),
            )
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": dict(self.spec),
            "requests": self.requests,
            "ok": self.ok,
            "degraded": self.degraded,
            "timeouts": self.timeouts,
            "rejected": dict(self.rejected),
            "wall_seconds": self.wall_seconds,
            "requests_per_sec": self.requests_per_sec,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_modeled_mcycles": self.mean_modeled_mcycles,
            "per_chip": [list(row) for row in self.per_chip],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LoadReport":
        return cls(
            spec=dict(data["spec"]),
            requests=data["requests"],
            ok=data["ok"],
            degraded=data["degraded"],
            timeouts=data["timeouts"],
            rejected=dict(data["rejected"]),
            wall_seconds=data["wall_seconds"],
            requests_per_sec=data["requests_per_sec"],
            p50_latency_ms=data["p50_latency_ms"],
            p99_latency_ms=data["p99_latency_ms"],
            mean_modeled_mcycles=data["mean_modeled_mcycles"],
            per_chip=tuple(tuple(row) for row in data["per_chip"]),
        )


def build_chip(spec: LoadSpec, index: int):
    """(chip_id, EpochEngine) for chip *index* of the fleet — seeded, so
    the same spec always builds the same fleet."""
    # Local: the service itself never loads the epoch simulator.
    from repro.nuca.base import build_problem
    from repro.workloads.mixes import (
        random_phased_mix,
        random_single_threaded_mix,
    )
    from repro.sim.engine import EpochEngine

    config = scaled_mesh_config(spec.tiles)
    apps = spec.apps if spec.apps is not None else spec.tiles
    if spec.dynamism == "phased":
        mix = random_phased_mix(apps, spec.seed, mix_id=index)
    else:
        mix = random_single_threaded_mix(apps, spec.seed, mix_id=index)
    sim = EpochEngine(mix, build_problem(mix, config))
    return f"chip-{index}", sim


async def drive_chip(
    service: CoSchedService,
    chip_id: str,
    sim,
    epoch_cycles: float,
    n_epochs: int,
    retries: int = 16,
    malformed_epochs: frozenset[int] = frozenset(),
) -> ServiceClient:
    """One chip's serving loop: telemetry out, placement in, epoch run.

    Injected malformed telemetry (see :class:`FaultPlan`) precedes the
    real request of its epoch; its typed rejection is swallowed here and
    counted by the service.
    """
    client = ServiceClient(service, chip_id, retries=retries)
    for epoch in range(n_epochs):
        if epoch in malformed_epochs:
            try:
                service.submit(malformed_request(chip_id))
            except MalformedTelemetryError:
                pass
        reply = await client.place(sim.current_problem())
        # Harness-side tenant compute, run inline on purpose: the load
        # model wants each chip's epoch advance serialized with its own
        # placement replies, and the modeled epoch step is microseconds
        # of host work — not a service-path blocking hazard.
        sim.run_epoch(reply.solution, epoch_cycles)  # repro: allow[async-discipline]
    return client


async def run_load_async(
    spec: LoadSpec, faults: FaultPlan | None = None
) -> LoadReport:
    """Run one load session against a fresh service; returns the report."""
    faults = faults or FaultPlan()
    chips = [build_chip(spec, index) for index in range(spec.chips)]
    epoch_cycles = spec.epoch_mcycles * 1e6
    service = CoSchedService(
        strategy=spec.strategy,
        queue_limit=spec.queue_limit,
        workers=spec.workers,
        solve_timeout_s=spec.solve_timeout_s,
        tenant_rate=spec.tenant_rate,
        tenant_burst=spec.tenant_burst,
    )
    async with service:
        t0 = time.perf_counter()
        clients = await asyncio.gather(*[
            drive_chip(
                service, chip_id, sim, epoch_cycles, spec.epochs,
                retries=spec.retries,
                malformed_epochs=faults.malformed_epochs(index),
            )
            for index, (chip_id, sim) in enumerate(chips)
        ])
        wall = time.perf_counter() - t0
    stats = service.stats
    replies = [reply for client in clients for reply in client.replies]
    ok = sum(1 for r in replies if r.ok)
    modeled = [r.modeled_mcycles for r in replies if r.ok]
    per_chip = tuple(
        (
            client.chip_id,
            sum(1 for r in client.replies if r.ok),
            sum(1 for r in client.replies if not r.ok),
        )
        for client in clients
    )
    return LoadReport(
        spec={
            "chips": spec.chips,
            "epochs": spec.epochs,
            "tiles": spec.tiles,
            "apps": spec.apps,
            "dynamism": spec.dynamism,
            "strategy": spec.strategy,
            "workers": spec.workers,
            "queue_limit": spec.queue_limit,
            "seed": spec.seed,
        },
        requests=len(replies),
        ok=ok,
        degraded=len(replies) - ok,
        timeouts=stats.timeouts,
        rejected=dict(stats.rejected),
        wall_seconds=wall,
        requests_per_sec=len(replies) / wall if wall > 0 else 0.0,
        p50_latency_ms=1e3 * stats.latency_percentile(0.50),
        p99_latency_ms=1e3 * stats.latency_percentile(0.99),
        mean_modeled_mcycles=(
            sum(modeled) / len(modeled) if modeled else 0.0
        ),
        per_chip=per_chip,
    )


def run_load(spec: LoadSpec, faults: FaultPlan | None = None) -> LoadReport:
    """Synchronous entry point (the CLI/benchmark/job surface)."""
    return asyncio.run(run_load_async(spec, faults))
