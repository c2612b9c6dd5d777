"""Reconfiguration-dynamics experiments (Figs 17 and 18).

**Fig 17** traces aggregate IPC through one reconfiguration under the
three movement protocols (instant / background invalidations / bulk
invalidations) on the trace-driven simulator.

**Fig 18** sweeps the reconfiguration period: each protocol's per-
reconfiguration penalty (instruction slots lost relative to instant moves,
measured on the trace) is amortized over the period and applied to the
steady-state CDCS weighted speedup from the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, small_test_config
from repro.experiments.results import ResultSeries, ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.nuca.base import build_problem
from repro.nuca.jigsaw import Jigsaw
from repro.sched.reconfigure import ReconfigPolicy, reconfigure
from repro.sim.engine import TraceSimulator
from repro.sim.reconfig import (
    BackgroundInvalidations,
    BulkInvalidations,
    InstantMoves,
    MovementProtocol,
)
from repro.runner import Job
from repro.sim.setup import build_trace_simulation, scale_solution
from repro.workloads.mixes import Mix, make_mix

PROTOCOLS = ("instant", "background-inv", "bulk-inv")


def default_trace_mix() -> Mix:
    """A small mixed workload exercising moves: fitting + streaming +
    friendly + one multithreaded app (13 threads on a 4x4 chip)."""
    return make_mix(["omnet", "milc", "gcc", "astar", "bzip2", "ilbdc"])


def make_protocol(name: str) -> MovementProtocol:
    if name == "instant":
        return InstantMoves()
    if name == "background-inv":
        return BackgroundInvalidations()
    if name == "bulk-inv":
        return BulkInvalidations()
    raise ValueError(f"unknown protocol {name!r}")


@dataclass
class ReconfigTrace:
    protocol: str
    #: (cycle, aggregate IPC) pairs, Fig 17's series.
    trace: list[tuple[float, float]]
    ipc_before: float
    ipc_during: float
    ipc_after: float
    demand_moves: int
    background_invalidations: int
    bulk_invalidations: int
    instructions: float


def _build_sim(
    config: SystemConfig,
    mix: Mix,
    capacity_scale: int,
    seed: int,
) -> tuple[TraceSimulator, object, object]:
    problem = build_problem(mix, config)
    jig = Jigsaw("random", seed)
    cores = jig.thread_cores(problem)
    initial = jig.run(problem).solution
    improved = reconfigure(
        problem,
        ReconfigPolicy(True, False, True),
        external_thread_cores=cores,
    ).solution
    sim = build_trace_simulation(
        mix, config, initial, problem, capacity_scale=capacity_scale, seed=seed
    )
    return sim, initial, improved


def run_reconfig_trace(
    protocol_name: str,
    config: SystemConfig | None = None,
    mix: Mix | None = None,
    reconfig_at: float = 400_000.0,
    horizon: float = 1_000_000.0,
    capacity_scale: int = 16,
    seed: int = 5,
) -> ReconfigTrace:
    """Fig 17: one protocol's IPC trace through a reconfiguration."""
    config = config or small_test_config(4, 4)
    mix = mix or default_trace_mix()
    sim, _, improved = _build_sim(config, mix, capacity_scale, seed)
    protocol = make_protocol(protocol_name)
    sim.schedule_reconfiguration(
        reconfig_at, scale_solution(improved, capacity_scale), protocol
    )
    sim.run_until(horizon)
    stats = sim.llc.stats
    window = 150_000.0
    return ReconfigTrace(
        protocol=protocol_name,
        trace=sim.ipc_trace.trace(),
        ipc_before=sim.aggregate_ipc(reconfig_at - window, reconfig_at),
        ipc_during=sim.aggregate_ipc(reconfig_at, reconfig_at + window),
        ipc_after=sim.aggregate_ipc(horizon - window, horizon),
        demand_moves=stats.demand_moves,
        background_invalidations=stats.background_invalidations,
        bulk_invalidations=stats.bulk_invalidations,
        instructions=sum(t.instructions for t in sim.threads),
    )


def reconfig_trace_jobs(
    config: SystemConfig | None = None,
    mix: Mix | None = None,
    reconfig_at: float = 400_000.0,
    horizon: float = 1_000_000.0,
    capacity_scale: int = 16,
    seed: int = 5,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> list[Job]:
    """One :class:`Job` per movement protocol (the Fig 17 fan-out).

    The trace simulations are independent across protocols, so they are
    the natural parallel/cacheable unit of Figs 17 and 18.
    """
    return [
        Job(
            fn=run_reconfig_trace,
            kwargs=dict(
                protocol_name=name,
                config=config,
                mix=mix,
                reconfig_at=reconfig_at,
                horizon=horizon,
                capacity_scale=capacity_scale,
                seed=seed,
            ),
            seed=seed,
            label=f"reconfig-trace-{name}",
        )
        for name in protocols
    ]


def reconfiguration_penalty_cycles(
    traces: dict[str, ReconfigTrace]
) -> dict[str, float]:
    """Per-reconfiguration penalty of each protocol vs instant moves,
    expressed as equivalent lost full-throughput cycles."""
    instant = traces["instant"]
    out = {}
    for name, trace in traces.items():
        lost_instr = instant.instructions - trace.instructions
        ipc = max(instant.ipc_after, 1e-9)
        out[name] = max(lost_instr / ipc, 0.0)
    return out


@dataclass
class PeriodSweepResult:
    #: period cycles -> protocol -> weighted speedup over S-NUCA.
    speedups: dict[int, dict[str, float]]
    penalties: dict[str, float]
    steady_ws: float


def period_sweep_from_traces(
    traces: dict[str, ReconfigTrace],
    steady_ws: float,
    periods: tuple[int, ...] = (
        10_000_000, 25_000_000, 50_000_000, 100_000_000
    ),
) -> PeriodSweepResult:
    """Fig 18: WS vs reconfiguration period for the three protocols.

    *steady_ws* is the CDCS weighted speedup with instant moves (from the
    analytic model, e.g. ~1.46 at 64 apps); each protocol's measured
    per-reconfiguration penalty in *traces* is amortized over *periods*.
    """
    penalties = reconfiguration_penalty_cycles(traces)
    speedups: dict[int, dict[str, float]] = {}
    for period in periods:
        speedups[period] = {
            name: steady_ws * (1.0 - min(penalties[name] / period, 0.9))
            for name in PROTOCOLS
        }
    return PeriodSweepResult(speedups, penalties, steady_ws)


# -- spec registry -----------------------------------------------------------


def _trace_jobs(params: dict) -> list[Job]:
    return reconfig_trace_jobs(capacity_scale=16, seed=params["seed"])


def _traces_reduce(records: list, params: dict) -> dict[str, ReconfigTrace]:
    return dict(zip(PROTOCOLS, records))


def _trace_series(trace: ReconfigTrace) -> ResultSeries:
    points = [
        (t / 1e6, v)
        for t, v in trace.trace[:: max(len(trace.trace) // 15, 1)]
    ]
    return ResultSeries.make(
        f"{trace.protocol} (Mcycle, IPC)", points, fmt="{:.2f}"
    )


def _fig17_present(
    result: dict[str, ReconfigTrace], params: dict
) -> RunRecord:
    return RunRecord(
        experiment="fig17",
        params=params,
        series=tuple(_trace_series(result[name]) for name in PROTOCOLS),
    )


register(ExperimentSpec(
    name="fig17",
    summary="aggregate IPC through one reconfiguration, per protocol",
    figure="Fig 17",
    params=(Param("seed", "int", 42, "trace-simulation RNG seed"),),
    build_jobs=_trace_jobs,
    reduce=_traces_reduce,
    present=_fig17_present,
))


def _fig18_reduce(records: list, params: dict) -> PeriodSweepResult:
    return period_sweep_from_traces(
        dict(zip(PROTOCOLS, records)), params["steady_ws"]
    )


def _fig18_present(result: PeriodSweepResult, params: dict) -> RunRecord:
    table = ResultTable.make(
        title=f"Fig 18: WS vs reconfiguration period "
              f"(steady WS {result.steady_ws:g})",
        headers=("period (Mcycles)", *PROTOCOLS),
        rows=[
            (f"{period / 1e6:g}", *(by_proto[p] for p in PROTOCOLS))
            for period, by_proto in sorted(result.speedups.items())
        ],
    )
    return RunRecord(experiment="fig18", params=params, tables=(table,))


register(ExperimentSpec(
    name="fig18",
    summary="weighted speedup vs reconfiguration period, per protocol",
    figure="Fig 18",
    params=(
        Param("steady_ws", "float", 1.46,
              "steady-state CDCS WS with instant moves"),
        Param("seed", "int", 42, "trace-simulation RNG seed"),
    ),
    build_jobs=_trace_jobs,
    reduce=_fig18_reduce,
    present=_fig18_present,
))
