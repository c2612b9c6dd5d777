"""Phase study: reconfiguration period vs workload phase length.

The paper's runtime re-places data and threads every 25 ms because demand
*moves*; this experiment makes it move.  Mixes of phased apps
(:func:`repro.workloads.mixes.random_phased_mix`) run on the epoch engine
under two runtimes:

* **adaptive** — every epoch re-reads the active phase's miss curves
  (solving :meth:`~repro.sim.engine.EpochEngine.current_problem`, the
  snapshot built from what the GMONs would report this interval; see also
  :func:`repro.sched.reconfigure.reconfigure_epoch` for the engine-less
  form) and re-solves, the paper's periodic pipeline;
* **stale** — one reconfiguration at time zero, never updated (the
  period -> infinity limit).

Sweeping the reconfiguration period against the generator's phase lengths
gives the Fig 18-shaped interaction: short periods track phases closely
and the adaptive/stale IPC ratio is largest; periods longer than a phase
leave placements stale for most of each phase and the gain collapses
toward 1.  Per-period epoch IPC traces (Fig 17-shaped, at epoch
granularity) come along for free from the engine's
:meth:`~repro.sim.engine.EpochTrace.aggregate_ipc_trace`.

Each (mix, period) pair is one :class:`repro.runner.Job`, so the study
parallelizes over ``--jobs`` and memoizes per-point results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, small_test_config
from repro.experiments.results import ResultSeries, ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.nuca.base import build_problem
from repro.runner import Job
from repro.sched.reconfigure import ReconfigPolicy, reconfigure
from repro.sim.engine import EpochEngine
from repro.workloads.mixes import random_phased_mix

#: Reconfiguration periods swept, in cycles: 1/4x, 1x, and 4x the paper's
#: 50 Mcycle (25 ms) interval.  Against the generator's 150M–600M
#: instruction phases, the short period re-solves several times per phase
#: while the long one straddles phase changes.
PERIODS = (12_500_000, 50_000_000, 200_000_000)

#: Default simulated horizon in cycles (enough for every process to move
#: through multiple phases at any swept period).
DEFAULT_HORIZON = 800_000_000.0

#: Phased apps per mix.
N_APPS = 6


def _mean_aggregate_ipc(engine: EpochEngine, horizon: float) -> float:
    """Chip instructions retired per cycle over the whole run (ordered
    reduction, so the value is bitwise path-independent)."""
    total = 0.0
    for value in engine.instructions.tolist():
        total += value
    return total / horizon


def phase_point(
    config: SystemConfig,
    n_apps: int,
    seed: int,
    mix_id: int,
    period: float,
    horizon: float = DEFAULT_HORIZON,
) -> dict:
    """Job body: one phased mix under one reconfiguration period.

    Runs the adaptive and stale arms over the same phased mix and returns
    a plain, picklable record: both mean aggregate IPCs, the adaptive
    arm's epoch IPC trace, and how many epochs saw a phase change.
    """
    mix = random_phased_mix(n_apps, seed, mix_id)
    policy = ReconfigPolicy.cdcs()
    n_epochs = int(horizon // period)

    # The engine's phase snapshot IS the problem a boundary reconfiguration
    # solves (active curves = what the GMONs report this interval), and the
    # engine caches it per phase tuple — so solve it directly instead of
    # rebuilding it through reconfigure_epoch each epoch.
    adaptive = EpochEngine(mix, build_problem(mix, config))
    previous_phases: dict[int, int] | None = None
    phase_changes = 0
    for _ in range(n_epochs):
        result = reconfigure(adaptive.current_problem(), policy)
        epoch = adaptive.run_epoch(result.solution, period)
        if previous_phases is not None and epoch.phases != previous_phases:
            phase_changes += 1
        previous_phases = epoch.phases

    stale = EpochEngine(mix, build_problem(mix, config))
    frozen = reconfigure(stale.current_problem(), policy)
    for _ in range(n_epochs):
        stale.run_epoch(frozen.solution, period)

    span = n_epochs * period
    return {
        "mix_id": mix_id,
        "period": float(period),
        "epochs": n_epochs,
        "phase_changes": phase_changes,
        "adaptive_ipc": _mean_aggregate_ipc(adaptive, span),
        "stale_ipc": _mean_aggregate_ipc(stale, span),
        "trace": adaptive.trace.aggregate_ipc_trace(),
    }


@dataclass
class PhaseStudyResult:
    """Aggregated phase-study outcome."""

    #: period -> one record per mix (see :func:`phase_point`).
    records: dict[float, list[dict]]

    def periods(self) -> list[float]:
        return sorted(self.records)

    def mean_gain(self, period: float) -> float:
        """Mean adaptive/stale IPC ratio at this period — how much the
        periodic runtime is worth against these phases."""
        rows = self.records[period]
        return sum(r["adaptive_ipc"] / r["stale_ipc"] for r in rows) / len(rows)

    def mean_phase_changes(self, period: float) -> float:
        rows = self.records[period]
        return sum(r["phase_changes"] for r in rows) / len(rows)

    def trace(self, period: float, mix_id: int = 0) -> list[tuple[float, float]]:
        """The adaptive arm's (cycle, aggregate IPC) epoch trace."""
        for record in self.records[period]:
            if record["mix_id"] == mix_id:
                return record["trace"]
        raise KeyError(f"no record for mix {mix_id} at period {period}")


# -- spec registry -----------------------------------------------------------


def _phase_jobs(params: dict) -> list[Job]:
    """One :class:`Job` per (reconfiguration period, mix) point.

    The study runs on the 4x4 test chip: the dynamics under study live in
    the interaction between period and phase length, not in chip size,
    and a small mesh keeps the per-epoch solves fast.
    """
    config, seed = small_test_config(4, 4), params["seed"]
    return [
        Job(
            fn=phase_point,
            kwargs=dict(
                config=config,
                n_apps=N_APPS,
                seed=seed,
                mix_id=mix_id,
                period=float(period),
                horizon=DEFAULT_HORIZON,
            ),
            seed=seed,
            label=f"phase-mix{mix_id}-period{period}",
        )
        for period in PERIODS
        for mix_id in range(params["mixes"])
    ]


def _phase_reduce(records: list, params: dict) -> PhaseStudyResult:
    """Group the per-(period, mix) payloads by period."""
    grouped: dict[float, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["period"], []).append(record)
    return PhaseStudyResult(grouped)


def _phase_present(result: PhaseStudyResult, params: dict) -> RunRecord:
    table = ResultTable.make(
        title=f"Phase study: reconfiguration period vs phase length "
              f"({params['mixes']} phased mixes)",
        headers=("period (cycles)", "adaptive/stale IPC", "phase changes"),
        rows=[
            (f"{period / 1e6:g}M", result.mean_gain(period),
             result.mean_phase_changes(period))
            for period in result.periods()
        ],
    )
    period = result.periods()[0]
    trace = result.trace(period, mix_id=0)
    series = ResultSeries.make(
        f"mix 0 epoch IPC at {period / 1e6:g}M period (Mcycle, IPC)",
        [(t / 1e6, v) for t, v in trace[:: max(len(trace) // 15, 1)]],
        fmt="{:.2f}",
    )
    return RunRecord(
        experiment="phase_study", params=params,
        tables=(table,), series=(series,),
    )


register(ExperimentSpec(
    name="phase_study",
    summary="adaptive vs frozen placement over phased workloads",
    figure="beyond paper",
    params=(
        Param("mixes", "int", 10, "phased mixes per period"),
        Param("seed", "int", 42, "mix RNG seed"),
    ),
    build_jobs=_phase_jobs,
    reduce=_phase_reduce,
    present=_phase_present,
))
