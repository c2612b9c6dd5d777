"""The simulation engines: event-driven traces and vectorized epochs.

**TraceSimulator** is event-driven at LLC-access granularity: each thread
alternates compute phases (instructions at base CPI) with LLC accesses
served by the :class:`~repro.sim.llc.DistributedLLC`; a heap orders
threads and timer callbacks (background-invalidation walker steps,
reconfigurations) by time.  Aggregate IPC is recorded in fixed windows —
the Fig 17 trace.  Reconfigurations are scheduled with a movement
protocol (sim.reconfig); bulk invalidations impose a global pause,
background invalidations run as timer callbacks while cores keep
executing.

**EpochEngine** is the vectorized alternative for epoch-granular studies
(steady-state behavior across reconfiguration intervals, Fig 18-style
sweeps): instead of stepping accesses one heap event at a time, each
epoch applies one placement solution and advances every thread and VC
analytically through the batched kernels, carrying state as arrays.

Both engines pick up **phased workloads**
(:class:`~repro.workloads.phased.PhasedProfile`) at epoch boundaries: the
epoch engine snapshots each process's active phase from its cumulative
retired instructions before evaluating an epoch
(:meth:`EpochEngine.current_mix`), and the trace simulator retunes thread
models through :meth:`TraceSimulator.set_thread_profile` (scheduled by
:func:`repro.sim.setup.schedule_phase_updates`).  Phase position is a pure
function of the instruction arrays, which are bitwise-identical between
the vectorized and scalar kernel paths — so phased runs inherit the PR 2
equivalence contract unchanged.

Shape conventions
-----------------
EpochEngine state, with ``T`` threads and ``K = len(problem.vcs)`` VCs
(all ``float64``, fixed across epochs):

* ``instructions``, ``cycles`` — ``(T,)`` cumulative per-thread totals;
* per epoch: ``ipc`` — ``(T,)``; ``vc_sizes`` — ``(K,)`` bytes allocated
  to each VC under that epoch's solution (``problem.vcs`` order);
* traffic accumulates into one :class:`~repro.noc.traffic.TrafficCounter`
  through its raw ``add_flit_hops`` accumulator — one ``(T,)`` dot per
  class of already-flit-priced ``traffic_pki`` values (hop expectations
  courtesy of the precomputed mesh distance matrices behind the
  evaluation's geometry step).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cache.monitor import UMon
from repro.config import SystemConfig
from repro.geometry.mesh import Topology
from repro.model.system import AnalyticSystem, MixEvaluation
from repro.noc.traffic import TrafficClass, TrafficCounter
from repro.nuca.base import (
    SchemeResult,
    assemble_problem,
    default_mem_latency,
    global_vc,
    process_records,
)
from repro.sched.problem import PlacementProblem, PlacementSolution, ThreadSpec
from repro.sim.llc import DistributedLLC
from repro.sim.reconfig import MovementProtocol
from repro.sim.stats import WindowedIpc
from repro.workloads.generator import StackDistanceStream
from repro.vcache.virtual_cache import VirtualCache
from repro.workloads.mixes import Mix, ProcessSpec, mix_is_phased, snapshot_process


def weighted_round_robin(weights: dict[int, float]) -> Callable[[], int]:
    """Deterministic weighted interleaving of VC ids (no RNG, so traces are
    exactly reproducible): classic largest-accumulated-credit scheduling."""
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("picker needs positive total weight")
    norm = {k: w / total for k, w in weights.items() if w > 0}
    credit = {k: 0.0 for k in norm}

    def pick() -> int:
        for k, w in norm.items():
            credit[k] += w
        best = max(sorted(credit), key=lambda k: credit[k])
        credit[best] -= 1.0
        return best

    return pick


@dataclass
class SimThread:
    """One running thread: compute/access alternation state."""

    thread_id: int
    core: int
    base_cpi: float
    apki: float
    streams: dict[int, StackDistanceStream]
    picker: Callable[[], int]
    write_fraction: float = 0.3
    time: float = 0.0
    instructions: float = 0.0
    accesses: int = 0

    @property
    def instructions_per_access(self) -> float:
        return 1000.0 / self.apki

    def ipc(self) -> float:
        return self.instructions / self.time if self.time > 0 else 0.0


class TraceSimulator:
    """Drives threads against a configured :class:`DistributedLLC`."""

    def __init__(
        self,
        config: SystemConfig,
        topology: Topology,
        llc: DistributedLLC,
        window_cycles: float = 10_000.0,
    ):
        self.config = config
        self.topology = topology
        self.llc = llc
        self.ipc_trace = WindowedIpc(window_cycles)
        self.threads: list[SimThread] = []
        self.pause_until = 0.0
        self._heap: list[tuple[float, int, int, Callable | None]] = []
        self._seq = itertools.count()
        self._monitors: dict[int, UMon] = {}
        self._write_credit: dict[int, float] = {}

    # -- setup ----------------------------------------------------------------

    def add_thread(
        self,
        thread_id: int,
        core: int,
        base_cpi: float,
        apki: float,
        streams: dict[int, StackDistanceStream],
        weights: dict[int, float],
        write_fraction: float = 0.3,
    ) -> SimThread:
        """Register a thread; *streams*/*weights* are keyed by VC id."""
        thread = SimThread(
            thread_id=thread_id,
            core=core,
            base_cpi=base_cpi,
            apki=apki,
            streams=streams,
            picker=weighted_round_robin(weights),
            write_fraction=write_fraction,
        )
        self.threads.append(thread)
        self._write_credit[thread_id] = 0.0
        heapq.heappush(self._heap, (0.0, next(self._seq), len(self.threads) - 1, None))
        return thread

    def attach_monitor(self, vc_id: int, monitor: UMon) -> None:
        """Sample this VC's accesses into a UMON/GMON (the Sec IV-G loop)."""
        self._monitors[vc_id] = monitor

    def set_thread_profile(
        self,
        thread_id: int,
        base_cpi: float | None = None,
        apki: float | None = None,
        write_fraction: float | None = None,
        streams: dict[int, StackDistanceStream] | None = None,
        weights: dict[int, float] | None = None,
    ) -> None:
        """Retune a running thread's demand model (a phase change).

        Only the given fields change; the thread keeps its core, clock, and
        cumulative counters, so a phased app's IPC trace is continuous
        through the switch.  Already-resident lines from the previous phase
        age out of the LLC naturally — exactly how a real phase change
        looks to the cache.
        """
        for thread in self.threads:
            if thread.thread_id == thread_id:
                break
        else:
            raise KeyError(f"no thread with id {thread_id}")
        if base_cpi is not None:
            thread.base_cpi = base_cpi
        if apki is not None:
            thread.apki = apki
        if write_fraction is not None:
            thread.write_fraction = write_fraction
        if streams is not None:
            thread.streams = streams
        if weights is not None:
            thread.picker = weighted_round_robin(weights)

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), -1, callback))

    def schedule_reconfiguration(
        self,
        time: float,
        solution: PlacementSolution,
        protocol: MovementProtocol,
    ) -> None:
        def fire() -> None:
            events = protocol.apply(self.llc, solution, time)
            if events.pause_until > self.pause_until:
                self.pause_until = events.pause_until
            for t, cb in events.timers:
                self.schedule(t, cb)

        self.schedule(time, fire)

    # -- run ------------------------------------------------------------------

    def _step_thread(self, idx: int) -> None:
        thread = self.threads[idx]
        if thread.time < self.pause_until:
            thread.time = self.pause_until  # bulk-invalidation stall
        # Compute phase.
        thread.time += thread.instructions_per_access * thread.base_cpi
        thread.instructions += thread.instructions_per_access
        self.ipc_trace.record(thread.time, thread.instructions_per_access)
        # Access phase.
        vc_id = thread.picker()
        addr = thread.streams[vc_id].next_address()
        monitor = self._monitors.get(vc_id)
        if monitor is not None:
            monitor.access(addr)
        self._write_credit[thread.thread_id] += thread.write_fraction
        write = self._write_credit[thread.thread_id] >= 1.0
        if write:
            self._write_credit[thread.thread_id] -= 1.0
        result = self.llc.access(thread.core, vc_id, addr, write)
        core_cfg = self.config.core
        exposed = (
            result.onchip_latency / core_cfg.mlp_onchip
            + result.offchip_latency / core_cfg.mlp_offchip
        )
        thread.time += exposed
        thread.accesses += 1
        heapq.heappush(
            self._heap, (thread.time, next(self._seq), idx, None)
        )

    def run_until(self, t_end: float) -> None:
        """Advance the simulation until every event before *t_end* ran."""
        while self._heap and self._heap[0][0] < t_end:
            time, _, idx, callback = heapq.heappop(self._heap)
            if callback is not None:
                callback()
            else:
                self._step_thread(idx)

    def aggregate_ipc(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        return self.ipc_trace.mean_ipc(t0, t1)


# ---------------------------------------------------------------------------
# Vectorized epoch engine
# ---------------------------------------------------------------------------


@dataclass
class EpochResult:
    """One epoch's outcome (arrays in ``problem`` thread/VC order)."""

    epoch: int
    cycles: float
    #: (T,) per-thread IPC during this epoch.
    ipc: np.ndarray
    #: (K,) bytes allocated per VC under this epoch's solution.
    vc_sizes: np.ndarray
    #: Aggregate chip IPC (sum of thread IPCs).
    aggregate_ipc: float
    #: The full analytic evaluation (latencies, energy, traffic classes).
    evaluation: MixEvaluation
    #: process_id -> active phase index at the epoch's start (phased
    #: processes only; empty for stationary mixes).
    phases: dict[int, int] = field(default_factory=dict)


@dataclass
class EpochTrace:
    """Accumulated multi-epoch outcome."""

    results: list[EpochResult] = field(default_factory=list)

    def aggregate_ipc_trace(self) -> list[tuple[float, float]]:
        """(epoch start cycle, aggregate IPC) pairs — the Fig 17-shaped
        series at epoch granularity."""
        out, t = [], 0.0
        for r in self.results:
            out.append((t, r.aggregate_ipc))
            t += r.cycles
        return out


class EpochEngine:
    """Epoch-granular co-scheduling simulation on array state.

    Where :class:`TraceSimulator` steps one heap event per LLC access,
    this engine treats a whole reconfiguration interval as one step: apply
    a :class:`PlacementSolution`, evaluate every thread's steady-state IPC
    through the vectorized analytic kernels (batched miss curves, matrix
    geometry, array bandwidth fixed point), and advance cumulative
    per-thread instruction/cycle arrays.  Use it for reconfiguration-
    period sweeps and long schedules where per-access simulation is
    intractable; use TraceSimulator when transient movement effects
    (Fig 17's notch) are the object of study.

    **Phased mixes:** when the mix contains
    :class:`~repro.workloads.phased.PhasedProfile` apps, every epoch is
    evaluated against the mix's *active* snapshot — each process's phase
    is read off its threads' cumulative retired instructions at the epoch
    boundary (:meth:`current_mix` / :meth:`current_problem`), which is
    also the problem a caller should hand to
    :func:`repro.sched.reconfigure.reconfigure` (or build via
    :func:`repro.sched.reconfigure.reconfigure_epoch`) to get that
    epoch's placement.  Stationary mixes take the original fast path
    untouched.
    """

    def __init__(
        self,
        mix: Mix,
        problem: PlacementProblem,
        system: AnalyticSystem | None = None,
    ):
        self.mix = mix
        self.problem = problem
        self.system = system or AnalyticSystem(problem.config)
        n_threads = len(problem.threads)
        self.instructions = np.zeros(n_threads)
        self.cycles = np.zeros(n_threads)
        self.traffic = TrafficCounter(problem.config.noc)
        self.trace = EpochTrace()
        self._thread_index = {
            t.thread_id: i for i, t in enumerate(problem.threads)
        }
        self._phased = mix_is_phased(mix)
        self._process_threads = {
            p.process_id: [self._thread_index[t] for t in p.thread_ids]
            for p in mix.processes
        }
        #: (process_id, phase index or None if static) -> (snapshot
        #: ProcessSpec, its VC records, its thread records).  A process's
        #: records depend only on its active phase, so every snapshot
        #: reuses the records, and the digests memoized on them, of each
        #: process whose phase did not change; one entry per (process,
        #: phase) ever seen.
        self._records: dict[
            tuple[int, int | None],
            tuple[ProcessSpec, list[VirtualCache], list[ThreadSpec]],
        ] = {}
        #: (global VC record, mem_latency) of every snapshot, built once.
        self._chip_records: tuple[VirtualCache, float] | None = None
        #: (phase key, (mix, problem)) of the latest snapshot: a
        #: stationary epoch returns the very same problem object.
        self._last_snapshot: tuple[tuple, tuple[Mix, PlacementProblem]] | None = None
        #: (phase clock, phases) at the coming epoch boundary, computed once:
        #: only :meth:`run_epoch` changes ``instructions``, and drops them.
        self._boundary: tuple[dict[int, float], dict[int, int]] | None = None

    # -- phase bookkeeping ---------------------------------------------------

    def _epoch_boundary(self) -> tuple[dict[int, float], dict[int, int]]:
        if self._boundary is None:
            instructions = self.instructions.tolist()
            clock = {}
            for pid, idxs in self._process_threads.items():
                total = 0.0
                for i in idxs:
                    total += instructions[i]
                clock[pid] = total / len(idxs)
            phases = {}
            for proc in self.mix.processes:
                phase_at = getattr(proc.profile, "phase_index", None)
                if phase_at is not None:
                    phases[proc.process_id] = phase_at(clock[proc.process_id])
            self._boundary = clock, phases
        return self._boundary

    def process_instructions(self) -> dict[int, float]:
        """process_id -> mean cumulative instructions of its threads (the
        phase clock).  The mean is an ordered sum over thread index, so it
        is bitwise-identical between kernel paths."""
        return dict(self._epoch_boundary()[0])

    def current_phases(self) -> dict[int, int]:
        """process_id -> active phase index, for phased processes only."""
        return dict(self._epoch_boundary()[1]) if self._phased else {}

    def _snapshot(self) -> tuple[Mix, PlacementProblem]:
        """The active (mix, problem) for the epoch about to run:
        content-identical to ``build_problem(snapshot_mix(mix, clock),
        config, topology)``, assembled from memoized per-process records
        and derived from the previous snapshot."""
        if not self._phased:
            return self.mix, self.problem
        clock, phases = self._epoch_boundary()
        key = tuple(sorted(phases.items()))
        if self._last_snapshot is None or self._last_snapshot[0] != key:
            config, topology = self.problem.config, self.problem.topology
            last = None if self._last_snapshot is None else self._last_snapshot[1][1]
            if self._chip_records is None:
                self._chip_records = (
                    global_vc(config),
                    default_mem_latency(config, topology),  # type: ignore[arg-type]
                )
            parts = []
            for proc in self.mix.processes:
                record_key = (proc.process_id, phases.get(proc.process_id))
                part = self._records.get(record_key)
                if part is None:
                    spec = snapshot_process(proc, clock[proc.process_id])
                    part = self._records[record_key] = (
                        spec, *process_records(spec)
                    )
                parts.append(part)
            mix = Mix(tuple(spec for spec, _, _ in parts))
            problem = assemble_problem(
                config,
                topology,
                [(vcs, threads) for _, vcs, threads in parts],
                *self._chip_records,
                base=last,
            )
            self._last_snapshot = key, (mix, problem)
        return self._last_snapshot[1]

    def current_mix(self) -> Mix:
        """The mix with every phased process at its active phase."""
        return self._snapshot()[0]

    def current_problem(self) -> PlacementProblem:
        """The placement problem of the active snapshot — what a
        reconfiguration at this epoch boundary solves (its curves are what
        hardware monitors would report for the coming interval)."""
        return self._snapshot()[1]

    # -- epochs --------------------------------------------------------------

    def run_epoch(self, solution: PlacementSolution, cycles: float) -> EpochResult:
        """Advance every thread *cycles* cycles under *solution*.

        For phased mixes the evaluation runs against the active phase
        snapshot; the solution should come from a reconfiguration of
        :meth:`current_problem` (a stale solution is legal — that is the
        "placement lags the phases" experiment)."""
        if cycles <= 0:
            raise ValueError("epoch length must be positive")
        phases = self.current_phases()
        mix, problem = self._snapshot()
        evaluation = self.system.evaluate_solution(
            mix, problem, SchemeResult("epoch", solution)
        )
        columns = evaluation.columns
        index = [self._thread_index[t] for t in columns["thread_id"].tolist()]
        ipc = np.zeros(len(self.instructions))
        ipc[index] = columns["ipc"]
        traffic_pki = np.zeros((len(TrafficClass), len(self.instructions)))
        traffic_pki[:, index] = columns["traffic_pki"]
        retired = ipc * cycles
        self.instructions += retired
        self._boundary = None
        self.cycles += cycles
        # Flit-hops this epoch: per-thread (flit-hops/kilo-instruction x
        # kilo-instructions retired), one dot per traffic class.  The
        # traffic_pki values are already flit-priced by the analytic
        # engine, so they go through the raw accumulator.
        for cls, row in zip(TrafficClass, traffic_pki):
            self.traffic.add_flit_hops(cls, float(row @ (retired / 1000.0)))
        vc_sizes = np.array(
            [solution.vc_sizes.get(vc.vc_id, 0.0) for vc in problem.vcs]
        )
        result = EpochResult(
            epoch=len(self.trace.results),
            cycles=cycles,
            ipc=ipc,
            vc_sizes=vc_sizes,
            aggregate_ipc=float(ipc.sum()),
            evaluation=evaluation,
            phases=phases,
        )
        self.trace.results.append(result)
        return result

    def run_schedule(
        self, schedule: Sequence[tuple[PlacementSolution, float]]
    ) -> EpochTrace:
        """Run a list of (solution, cycles) epochs; returns the trace."""
        for solution, cycles in schedule:
            self.run_epoch(solution, cycles)
        return self.trace

    def reconfigure(self, engine):
        """Solve this epoch's active problem through *engine* (a
        :class:`repro.sched.engine.ReconfigEngine`), threading warm solver
        state across epoch boundaries — the Sec IV-G runtime never solves a
        frozen problem from scratch.  Returns the
        :class:`~repro.sched.reconfigure.ReconfigResult`; run it with
        :meth:`run_epoch`."""
        return engine.solve(self.current_problem())

    def run_reconfigured(self, engine, cycles: float, n_epochs: int):
        """Drive *n_epochs* epochs of *cycles* each, reconfiguring through
        *engine* at every boundary.  Returns the list of
        :class:`~repro.sched.reconfigure.ReconfigResult` (one per epoch);
        the IPC trace accumulates in :attr:`trace` as usual."""
        results = []
        for _ in range(n_epochs):
            result = self.reconfigure(engine)
            self.run_epoch(result.solution, cycles)
            results.append(result)
        return results

    def mean_ipc_per_thread(self) -> np.ndarray:
        """(T,) cumulative instructions / cycles across all epochs run."""
        return np.divide(
            self.instructions,
            self.cycles,
            out=np.zeros_like(self.instructions),
            where=self.cycles > 0,
        )
