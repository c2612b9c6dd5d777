"""The serve workload: simulated chips in a closed loop against one service.

Two phased 256-tile chips, each a seeded
:class:`~repro.sim.engine.EpochEngine` (:func:`repro.service.load.build_chip`),
stream delta telemetry (``ServiceClient.place_delta``) to one
:class:`~repro.service.CoSchedService` running the sketch-driven
incremental strategy.  A chip snapshots its active problem, sends it, and
simulates the epoch under the reply before it sends again, so a slow
service receives less load.  Both chips share one event loop, as in
:mod:`repro.service.load`, and take turns: a chip's epoch starts when the
other chip's epoch has ended, so one thing runs at a time.  The host's
two vCPUs give a second thread anywhere from no extra speed to a whole
core, varying by the hour; chips that overlapped made latency follow
that, where the host-speed reference cannot see it.

Deterministic outputs (modeled Mcycles, IPC, weighted speedup, telemetry
bytes, step Mcycles) are taken over the first ``window`` epochs of every
chip, which every run completes whatever its speed; timings cover every
request of the run.

Every ``SEGMENT_S`` of loop, between two turns, the host-speed kernel
(:mod:`hostspeed`) runs with nothing else in flight.  Latencies and the
loop's elapsed time are scaled to the reference speed by the readings
around them.

The traced run wraps the layers from outside ``repro``: a
:class:`TimingStrategy` around the solve strategy, a
:class:`TimingTransport` in place of ``InProcessTransport``, and a timed
``build_delta`` on the client side.  None of them changes a reply.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.model.metrics import gmean
from repro.sched.engine import IncrementalSolve, make_strategy
from repro.sched.problem import PlacementProblem
from repro.sched.reconfigure import PIPELINE_STEPS
from repro.service import CoSchedService, ServiceClient
from repro.service import transport as transport_module
from repro.service.load import DEFAULT_EPOCH_MCYCLES, LoadSpec, build_chip
from repro.service.messages import problem_digest, telemetry_bytes

from common import CheckFailed, mean, peak_rss_mib, percentile
from hostspeed import SpeedTrace


CHIPS = 2
#: Seconds of loop between two readings of the host's speed.
SEGMENT_S = 2.0
TILES = 256
#: Epochs per chip in the deterministic window.
WINDOW = 40
#: The self-test's scaled-down chips.
TOY_TILES = 16
TOY_WINDOW = 2
STRATEGY = "incremental"
STRATEGY_KWARGS = {"use_sketches": True}


class TimingStrategy:
    """Wraps a solve strategy and records each solve's wall time.

    Solves are filed per chip under the identity of the problem's
    topology (every problem of one chip shares its topology object), so
    the n-th solve of a chip pairs with that chip's n-th request.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.solves: dict[int, list[tuple[float, dict[str, float]]]] = {}
        self._lock = threading.Lock()

    def solve(self, problem, policy, external_thread_cores, state):
        t0 = time.perf_counter()
        result = self.inner.solve(
            problem, policy, external_thread_cores, state
        )
        wall = time.perf_counter() - t0
        with self._lock:
            self.solves.setdefault(id(problem.topology), []).append(
                (wall, dict(result.wall_seconds))
            )
        return result


class TimingTransport:
    """``InProcessTransport.request`` plus timing of admission.

    Records the time spent in ``CoSchedService.submit`` for every
    request, and the modeled wire size of the first *window* requests.
    """

    def __init__(self, service: CoSchedService, window: int):
        self.service = service
        self.window = window
        self.admit_s: list[float] = []
        self.bytes: list[int] = []

    async def request(self, request):
        t0 = time.perf_counter()
        future = self.service.submit(request)
        self.admit_s.append(time.perf_counter() - t0)
        if len(self.bytes) < self.window:
            self.bytes.append(telemetry_bytes(request))
        return await future


@contextmanager
def timed_build_delta(samples: list[float]):
    """Time every client-side ``build_delta`` call while active."""
    original = transport_module.build_delta

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t0)

    transport_module.build_delta = timed
    try:
        yield
    finally:
        transport_module.build_delta = original


@dataclass
class Chip:
    """One chip's loop state and what it observed."""

    chip_id: str
    sim: object
    client: ServiceClient
    transport: TimingTransport | None
    #: (send, reply) times of every request.
    spans: list[tuple[float, float]] = field(default_factory=list)
    replies: list = field(default_factory=list)
    current_problem_s: list[float] = field(default_factory=list)
    run_epoch_s: list[float] = field(default_factory=list)
    #: Per window epoch: (problem, mix, reply, EpochResult).
    window: list[tuple] = field(default_factory=list)
    #: Peak RSS when this chip finished its window.
    window_rss_mib: float = 0.0


def build_fleet(tiles: int, seed: int) -> list[tuple[str, object]]:
    spec = LoadSpec(chips=CHIPS, tiles=tiles, seed=seed)
    return [build_chip(spec, index) for index in range(CHIPS)]


def make_service(trace: bool) -> tuple[CoSchedService, TimingStrategy | None]:
    if trace:
        timing = TimingStrategy(make_strategy(STRATEGY, **STRATEGY_KWARGS))
        return CoSchedService(strategy=timing, workers=2), timing
    service = CoSchedService(strategy=STRATEGY, workers=2, **STRATEGY_KWARGS)
    return service, None


def check_solution(problem: PlacementProblem, solution) -> None:
    """A placement is usable: every thread on its own core of the chip,
    and no more capacity allocated than the LLC has."""
    thread_ids = {t.thread_id for t in problem.threads}
    if set(solution.thread_cores) != thread_ids:
        raise CheckFailed("placement does not cover the chip's threads")
    cores = list(solution.thread_cores.values())
    tiles = problem.topology.tiles
    if len(set(cores)) != len(cores) or not all(0 <= c < tiles for c in cores):
        raise CheckFailed("placement puts threads on shared or invalid cores")
    allocated = sum(
        amount
        for per_bank in solution.vc_allocation.values()
        for amount in per_bank.values()
    )
    if allocated > problem.total_bytes * (1 + 1e-9):
        raise CheckFailed(
            f"placement allocates {allocated} B of a "
            f"{problem.total_bytes} B LLC"
        )


async def _epoch(chip: Chip, window: int) -> None:
    """One turn of *chip*'s closed loop: telemetry, placement, epoch."""
    epoch_cycles = DEFAULT_EPOCH_MCYCLES * 1e6
    sim = chip.sim
    t0 = time.perf_counter()
    problem = sim.current_problem()
    t1 = time.perf_counter()
    reply = await chip.client.place_delta(problem)
    t2 = time.perf_counter()
    if not reply.ok:
        raise CheckFailed(
            f"{chip.chip_id} epoch {len(chip.replies)}: status "
            f"{reply.status} ({reply.error})"
        )
    check_solution(problem, reply.solution)
    in_window = len(chip.replies) < window
    mix = sim.current_mix() if in_window else None
    t3 = time.perf_counter()
    # The chip simulates the epoch under its reply before it sends again
    # (the closed loop).
    result = sim.run_epoch(reply.solution, epoch_cycles)
    t4 = time.perf_counter()
    chip.spans.append((t1, t2))
    chip.current_problem_s.append(t1 - t0)
    chip.run_epoch_s.append(t4 - t3)
    chip.replies.append(reply)
    if in_window:
        chip.window.append((problem, mix, reply, result))
        if len(chip.window) == window:
            chip.window_rss_mib = peak_rss_mib()


async def _loop(
    chips: list[Chip], window: int, seconds: float, speed: SpeedTrace
) -> list[tuple[float, float]]:
    """Chips take turns for *seconds*, and on until each has done its
    *window* epochs.  Returns the loop's segments between kernel
    readings."""
    segments = []
    deadline = time.perf_counter() + seconds
    speed.mark()
    t0 = time.perf_counter()
    while time.perf_counter() < deadline or len(chips[-1].replies) < window:
        for chip in chips:
            await _epoch(chip, window)
        now = time.perf_counter()
        if now - t0 >= SEGMENT_S:
            segments.append((t0, now))
            speed.mark()
            t0 = time.perf_counter()
    segments.append((t0, time.perf_counter()))
    speed.mark()
    return segments


async def serve(
    fleet: list[tuple[str, object]],
    window: int,
    seconds: float,
    trace: bool,
    on_ready,
) -> dict | None:
    """Run the closed loop for *seconds*; ``None`` when *seconds* < 0
    (set-up only: the service starts, reports ready and stops)."""
    service, timing = make_service(trace)
    async with service:
        chips = []
        for chip_id, sim in fleet:
            transport = (
                TimingTransport(service, window) if trace else None
            )
            client = ServiceClient(transport or service, chip_id)
            chips.append(Chip(chip_id, sim, client, transport))
        on_ready()
        if seconds < 0:
            return None
        delta_s: list[float] = []
        speed = SpeedTrace()
        with timed_build_delta(delta_s) if trace else nullcontext():
            segments = await _loop(chips, window, seconds, speed)
    check_service(service, chips)
    elapsed = math.fsum(speed.reference_s(*span) for span in segments)
    metrics = end_to_end(chips, elapsed, speed)
    if trace:
        metrics.update(layers(service, timing, chips, elapsed, delta_s))
        metrics["bench.host_scale"] = speed.host_scale()
    return {
        "metrics": metrics,
        "attempted": sum(len(c.replies) for c in chips),
        "failed": 0,
        "requests": sum(len(c.replies) for c in chips),
        "replies": [
            (c.chip_id, [reply_key(r) for r in c.replies]) for c in chips
        ],
    }


def reply_key(reply) -> tuple:
    """Everything a reply carries except its wall-clock latency."""
    sol = reply.solution
    return (
        reply.epoch, reply.status, reply.strategy, reply.modeled_mcycles,
        tuple(sorted(reply.step_cycles.items())),
        tuple(sorted(sol.vc_sizes.items())),
        tuple(sorted(
            (vc, tuple(sorted(banks.items())))
            for vc, banks in sol.vc_allocation.items()
        )),
        tuple(sorted(sol.thread_cores.items())),
    )


def check_service(service: CoSchedService, chips: list[Chip]) -> None:
    stats = service.stats
    bad = {
        "degraded": stats.degraded,
        "rejected": stats.rejected_total,
        "stale_deltas": stats.stale_deltas,
        "timeouts": stats.timeouts,
        "solve_errors": stats.solve_errors,
    }
    if any(bad.values()):
        raise CheckFailed(f"service misbehaved: {bad}")
    for chip in chips:
        sent = chip.client.telemetry_stats
        if sent["stale"]:
            raise CheckFailed(f"{chip.chip_id}: {sent['stale']} stale deltas")
        if sent["delta"] == 0:
            raise CheckFailed(f"{chip.chip_id}: no delta telemetry was sent")


def weighted_speedup_vs_alone(sim, mix, evaluation) -> float:
    """``(1/P) sum_p perf_p / alone_p``: the epoch's weighted speedup over
    every process running alone on the chip under S-NUCA."""
    alone = sim.system.alone_performance(mix)
    perf = evaluation.process_perf
    return sum(perf[pid] / alone[pid] for pid in sorted(perf)) / len(perf)


def end_to_end(
    chips: list[Chip], elapsed: float, speed: SpeedTrace
) -> dict[str, float]:
    """End-to-end metrics, plus the window's step Mcycles (every reply
    carries them, so traced and untraced runs both report them).
    *elapsed* and the latencies are at the reference host speed."""
    latencies_ms = [
        1e3 * speed.reference_s(*span) for c in chips for span in c.spans
    ]
    requests = len(latencies_ms)
    window = [w for c in chips for w in c.window]
    mcycles = [reply.modeled_mcycles for _, _, reply, _ in window]
    ws = [
        weighted_speedup_vs_alone(c.sim, mix, result.evaluation)
        for c in chips for _, mix, _, result in c.window
    ]
    metrics = {
        "req_p50_ms": percentile(latencies_ms, 0.50),
        "req_p90_ms": percentile(latencies_ms, 0.90),
        # Each chip-epoch evaluates the chip's active mix once.
        "epochs_per_s": requests / elapsed,
        "mixes_per_s": requests / elapsed,
        "ok_frac": sum(r.ok for c in chips for r in c.replies) / requests,
        "modeled_mcycles_mean": mean(mcycles),
        "modeled_mcycles_max": max(mcycles),
        "aggregate_ipc": mean([result.aggregate_ipc for *_, result in window]),
        "cdcs_gmean_ws": gmean(ws),
        # Read when the window ends: later epochs only grow the chips'
        # own epoch history, by as much as the run's speed allows.
        "peak_rss_mib": max(c.window_rss_mib for c in chips),
    }
    for step in PIPELINE_STEPS:
        metrics[f"sched.{step}_mcycles"] = mean(
            [r.step_cycles.get(step, 0.0) / 1e6 for _, _, r, _ in window]
        )
    return metrics


def layers(
    service: CoSchedService,
    timing: TimingStrategy,
    chips: list[Chip],
    elapsed: float,
    delta_s: list[float],
) -> dict[str, float]:
    """Per-layer metrics of a traced run (seconds reported as ms)."""
    solves = timing.solves
    overhead, solve_walls, step_walls = [], [], []
    for chip in chips:
        chip_solves = solves.get(id(chip.sim.problem.topology), [])
        if len(chip_solves) != len(chip.replies):
            raise CheckFailed(
                f"{chip.chip_id}: {len(chip_solves)} solves for "
                f"{len(chip.replies)} requests"
            )
        for reply, (wall, walls) in zip(chip.replies, chip_solves):
            # The service's own submit-to-reply time, less the solve.
            overhead.append(reply.latency_s - wall)
            solve_walls.append(wall)
            step_walls.append(walls)
    digest_s, detect_s, dirty_frac = probe_telemetry(chips)
    sent = [c.client.telemetry_stats for c in chips]
    requests = sum(len(c.spans) for c in chips)
    metrics = {
        "bench.requests": requests,
        "service.admit_ms": 1e3 * mean(
            [s for c in chips for s in c.transport.admit_s]
        ),
        "service.overhead_ms": 1e3 * mean(overhead),
        "service.degraded": service.stats.degraded,
        "service.rejected": service.stats.rejected_total,
        "service.stale_deltas": service.stats.stale_deltas,
        "telemetry.build_delta_ms": 1e3 * mean(delta_s),
        "telemetry.digest_ms": 1e3 * mean(digest_s),
        "telemetry.bytes_per_req": mean(
            [b for c in chips for b in c.transport.bytes]
        ),
        "telemetry.delta_frac": (
            sum(s["delta"] for s in sent)
            / sum(s["delta"] + s["full"] for s in sent)
        ),
        "sched.solve_ms": 1e3 * mean(solve_walls),
        "sched.dirty_detect_ms": 1e3 * mean(detect_s),
        "sched.dirty_vc_frac": mean(dirty_frac),
        "sim.current_problem_ms": 1e3 * mean(
            [s for c in chips for s in c.current_problem_s]
        ),
        "sim.run_epoch_ms": 1e3 * mean(
            [s for c in chips for s in c.run_epoch_s]
        ),
        "trace.epochs_per_s": requests / elapsed,
        "trace.mixes_per_s": requests / elapsed,
    }
    for step in PIPELINE_STEPS:
        metrics[f"sched.{step}_ms"] = 1e3 * mean(
            [walls.get(step, 0.0) for walls in step_walls]
        )
    return metrics


def fresh_copy(problem: PlacementProblem) -> PlacementProblem:
    """The same telemetry in a new problem object, so no memo rides along
    (what the service holds after patching a delta)."""
    return PlacementProblem(
        config=problem.config,
        topology=problem.topology,
        vcs=list(problem.vcs),
        threads=list(problem.threads),
        mem_latency=problem.mem_latency,
    )


def probe_telemetry(chips: list[Chip]):
    """Time ``problem_digest`` and sketch dirty detection on fresh copies
    of each chip's consecutive window problems, after the timed loop."""
    detector = IncrementalSolve(use_sketches=True)
    digest_s, detect_s, dirty_frac = [], [], []
    for chip in chips:
        prev = None
        for problem, *_ in chip.window:
            fresh = fresh_copy(problem)
            t0 = time.perf_counter()
            problem_digest(fresh)
            digest_s.append(time.perf_counter() - t0)
            if prev is not None:
                t0 = time.perf_counter()
                dirty = detector.dirty_vcs_from_sketches(prev, fresh)
                detect_s.append(time.perf_counter() - t0)
                dirty_frac.append(len(dirty) / len(fresh.vcs))
            prev = fresh
    return digest_s, detect_s, dirty_frac


def run(
    name: str, seed: int, seconds: float, trace: bool, toy: bool, on_ready
) -> dict | None:
    tiles, window = (TOY_TILES, TOY_WINDOW) if toy else (TILES, WINDOW)
    fleet = build_fleet(tiles, seed)
    return asyncio.run(serve(fleet, window, seconds, trace, on_ready))
