"""Solver study: solve strategy x mesh size x phase dynamism.

The scalability sweep showed the single-shot ``full`` solve overrunning
the paper's 50 Mcycle reconfiguration interval past ~144 tiles.  This
study measures what the :mod:`repro.sched.engine` strategies do about it
in the setting that actually matters — a periodic runtime re-solving
every interval while the workload drifts:

* each point runs an :class:`~repro.sim.engine.EpochEngine` for several
  epochs, reconfiguring at every boundary through one warm
  :class:`~repro.sched.engine.ReconfigEngine` (state threads across
  epochs, Sec IV-G style);
* **stationary** mixes never move their curves: ``incremental`` re-solves
  are free, ``full`` pays the whole pipeline every interval anyway;
* **phased** mixes (:func:`repro.workloads.mixes.random_phased_mix`)
  move a few processes' curves per interval: ``incremental`` re-solves
  only the dirty slice, ``partitioned`` caps the critical path at the
  slowest ~8x8 region regardless of dynamism, and ``hierarchical``
  keeps that cap at 4096+ tiles by nesting the splits.

The headline number per point is the worst warm re-solve in modeled
Mcycles (via :class:`~repro.sched.opcount.StepCounter`; critical path for
partitioned solves) against the 50 Mcycle interval, with the per-step
breakdown exposed so an overrun is attributable to a step, not just to
the aggregate.  Each (tiles, strategy, dynamism, mix) tuple is one
:class:`repro.runner.Job`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import mesh_width, scaled_mesh_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.nuca.base import build_problem
from repro.runner import Job, ProcessPoolRunner, run_jobs
from repro.sched.engine import ReconfigEngine, strategy_names
from repro.sim.engine import EpochEngine
from repro.workloads.mixes import (
    random_phased_mix,
    random_single_threaded_mix,
)

#: The paper's reconfiguration interval: 25 ms at 2 GHz = 50 Mcycles.
#: A solve that does not fit here delays the placement it computes.
INTERVAL_MCYCLES = 50.0

#: Default strategy sweep (every registered engine strategy).
STRATEGY_SWEEP = ("full", "incremental", "partitioned", "hierarchical")

#: Default dynamism arms.
DYNAMISM_SWEEP = ("stationary", "phased")

#: Default epoch length in Mcycles: 4x the paper's interval, long enough
#: that the 150M-600M-instruction phases of the generator actually flip
#: between solves within a short study.
DEFAULT_PERIOD_MCYCLES = 200.0


def solver_point(
    tiles: int,
    strategy: str,
    dynamism: str,
    seed: int,
    mix_id: int,
    epochs: int = 6,
    period_mcycles: float = DEFAULT_PERIOD_MCYCLES,
) -> dict:
    """Job body: one warm engine driven for *epochs* reconfigurations.

    Returns a plain, picklable record.  All reductions are ordered Python
    sums, so records are bitwise-identical between kernel paths; wall
    clock lives under ``solve_seconds*`` keys (excluded from the
    equivalence contract by convention).
    """
    if epochs < 2:
        raise ValueError("solver_point needs >= 2 epochs (cold + warm)")
    config = scaled_mesh_config(tiles)
    if dynamism == "phased":
        mix = random_phased_mix(tiles, seed, mix_id)
    elif dynamism == "stationary":
        mix = random_single_threaded_mix(tiles, seed, mix_id)
    else:
        raise ValueError(
            f"unknown dynamism {dynamism!r} (stationary or phased)"
        )
    problem = build_problem(mix, config)
    sim = EpochEngine(mix, problem)
    engine = ReconfigEngine(strategy)
    period = period_mcycles * 1e6
    results = sim.run_reconfigured(engine, period, epochs)

    epoch_mcycles = [r.modeled_cycles() / 1e6 for r in results]
    warm = epoch_mcycles[1:]
    warm_mean = 0.0
    for value in warm:
        warm_mean += value
    warm_mean /= len(warm)
    warm_max = max(warm)

    # Per-step warm breakdown (mean over warm epochs, ordered sums).
    step_mcycles: dict[str, float] = {}
    for result in results[1:]:
        for step, cycles in result.step_cycles().items():
            step_mcycles[step] = step_mcycles.get(step, 0.0) + cycles / 1e6
    step_mcycles = {
        step: total / len(warm) for step, total in step_mcycles.items()
    }

    solve_seconds: dict[str, float] = {}
    for result in results:
        for step, seconds in result.wall_seconds.items():
            solve_seconds[step] = solve_seconds.get(step, 0.0) + seconds

    ipc_mean = 0.0
    for epoch in sim.trace.results:
        ipc_mean += epoch.aggregate_ipc
    ipc_mean /= len(sim.trace.results)

    phase_changes = 0
    previous = None
    for epoch in sim.trace.results:
        if previous is not None and epoch.phases != previous:
            phase_changes += 1
        previous = epoch.phases

    return {
        "tiles": tiles,
        "strategy": strategy,
        "dynamism": dynamism,
        "mix_id": mix_id,
        "epochs": epochs,
        "period_mcycles": period_mcycles,
        "phase_changes": phase_changes,
        "cold_mcycles": epoch_mcycles[0],
        "warm_mean_mcycles": warm_mean,
        "warm_max_mcycles": warm_max,
        "within_interval": warm_max <= INTERVAL_MCYCLES,
        "step_mcycles": step_mcycles,
        "aggregate_ipc": ipc_mean,
        "solve_seconds": solve_seconds,
        "solve_seconds_total": sum(solve_seconds.values()),
    }


def parse_names(text: str, allowed: tuple[str, ...], what: str) -> tuple[str, ...]:
    """Parse a comma-separated sweep list against an allowed vocabulary."""
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise ValueError(f"{what} sweep needs at least one name")
    for name in names:
        if name not in allowed:
            raise ValueError(
                f"unknown {what} {name!r} (have: {', '.join(allowed)})"
            )
    return names


def solver_study_jobs(
    tiles: tuple[int, ...] = (16, 64),
    strategies: tuple[str, ...] = STRATEGY_SWEEP,
    dynamism: tuple[str, ...] = DYNAMISM_SWEEP,
    n_mixes: int = 2,
    seed: int = 42,
    epochs: int = 6,
    period_mcycles: float = DEFAULT_PERIOD_MCYCLES,
) -> list[Job]:
    """One :class:`Job` per (tiles, strategy, dynamism, mix) point."""
    for count in tiles:
        mesh_width(count)  # validate early
    for name in strategies:
        if name not in strategy_names():
            raise ValueError(
                f"unknown solve strategy {name!r} "
                f"(have: {', '.join(strategy_names())})"
            )
    return [
        Job(
            fn=solver_point,
            kwargs=dict(
                tiles=count, strategy=strategy, dynamism=arm, seed=seed,
                mix_id=mix_id, epochs=epochs,
                period_mcycles=period_mcycles,
            ),
            seed=seed,
            label=f"solver-{count}t-{strategy}-{arm}-mix{mix_id}",
        )
        for count in tiles
        for strategy in strategies
        for arm in dynamism
        for mix_id in range(n_mixes)
    ]


@dataclass
class SolverStudyResult:
    """Aggregated study outcome, keyed by (strategy, dynamism, tiles)."""

    #: (strategy, dynamism, tiles) -> one record per mix.
    records: dict[tuple[str, str, int], list[dict]]

    def points(self) -> list[tuple[str, str, int]]:
        return sorted(self.records)

    def mean(self, point: tuple[str, str, int], key: str) -> float:
        rows = self.records[point]
        total = 0.0
        for row in rows:
            total += row[key]
        return total / len(rows)

    def worst(self, point: tuple[str, str, int], key: str) -> float:
        return max(row[key] for row in self.records[point])

    def within_interval(self, point: tuple[str, str, int]) -> bool:
        """Every mix's worst warm re-solve fits the 50 Mcycle interval."""
        return all(row["within_interval"] for row in self.records[point])

    def mean_step_mcycles(
        self, point: tuple[str, str, int]
    ) -> dict[str, float]:
        rows = self.records[point]
        steps: dict[str, float] = {}
        for row in rows:
            for step, mcycles in row["step_mcycles"].items():
                steps[step] = steps.get(step, 0.0) + mcycles
        return {step: total / len(rows) for step, total in steps.items()}

    def table_rows(self) -> list[tuple]:
        return [
            (
                f"{tiles}",
                strategy,
                arm,
                self.mean((strategy, arm, tiles), "cold_mcycles"),
                self.mean((strategy, arm, tiles), "warm_mean_mcycles"),
                self.worst((strategy, arm, tiles), "warm_max_mcycles"),
                "yes" if self.within_interval((strategy, arm, tiles))
                else "NO",
                self.mean((strategy, arm, tiles), "aggregate_ipc"),
            )
            for strategy, arm, tiles in self.points()
        ]

    def breakdown_rows(self) -> list[tuple]:
        rows = []
        for strategy, arm, tiles in self.points():
            for step, mcycles in sorted(
                self.mean_step_mcycles((strategy, arm, tiles)).items()
            ):
                rows.append((f"{tiles}", strategy, arm, step, mcycles))
        return rows


def reduce_solver_records(records: list[dict]) -> SolverStudyResult:
    """Group per-point payloads by (strategy, dynamism, tiles)."""
    grouped: dict[tuple[str, str, int], list[dict]] = {}
    for record in records:
        key = (record["strategy"], record["dynamism"], record["tiles"])
        grouped.setdefault(key, []).append(record)
    return SolverStudyResult(grouped)


def run_solver_study(
    tiles: tuple[int, ...] = (16, 64),
    strategies: tuple[str, ...] = STRATEGY_SWEEP,
    dynamism: tuple[str, ...] = DYNAMISM_SWEEP,
    n_mixes: int = 2,
    seed: int = 42,
    epochs: int = 6,
    period_mcycles: float = DEFAULT_PERIOD_MCYCLES,
    runner: ProcessPoolRunner | None = None,
) -> SolverStudyResult:
    """Sweep strategies x dynamism x mesh sizes on warm engines."""
    jobs = solver_study_jobs(
        tiles=tiles, strategies=strategies, dynamism=dynamism,
        n_mixes=n_mixes, seed=seed, epochs=epochs,
        period_mcycles=period_mcycles,
    )
    return reduce_solver_records(run_jobs(jobs, runner))


# -- spec registry -----------------------------------------------------------


def _solver_jobs(params: dict) -> list[Job]:
    return solver_study_jobs(
        tiles=tuple(params["tiles"]),
        strategies=parse_names(
            params["strategies"], tuple(strategy_names()), "strategy"
        ),
        dynamism=parse_names(params["dynamism"], DYNAMISM_SWEEP, "dynamism"),
        n_mixes=params["mixes"],
        seed=params["seed"],
        epochs=params["epochs"],
        period_mcycles=params["period_mcycles"],
    )


def _solver_reduce(records: list, params: dict) -> SolverStudyResult:
    return reduce_solver_records(records)


def _solver_present(result: SolverStudyResult, params: dict) -> RunRecord:
    table = ResultTable.make(
        title=f"Solver study: warm re-solve cost vs the "
              f"{INTERVAL_MCYCLES:g} Mcycle interval "
              f"({params['mixes']} mixes/point, "
              f"{params['epochs']} epochs of "
              f"{params['period_mcycles']:g} Mcycles)",
        headers=("tiles", "strategy", "dynamism", "cold Mcyc",
                 "warm mean Mcyc", "warm max Mcyc", "fits 50M", "IPC"),
        rows=result.table_rows(),
    )
    breakdown = ResultTable.make(
        title="Warm re-solve breakdown per step (mean modeled Mcycles; "
              "'stitch' is the partitioned boundary-trade pass)",
        headers=("tiles", "strategy", "dynamism", "step", "step Mcyc"),
        rows=result.breakdown_rows(),
    )
    return RunRecord(
        experiment="solver_study", params=params,
        tables=(table, breakdown),
    )


register(ExperimentSpec(
    name="solver_study",
    summary="solve strategies vs the reconfiguration interval",
    figure="beyond paper",
    params=(
        Param("tiles", "tiles", (16, 64),
              "comma-separated square tile counts"),
        Param("strategies", "str", ",".join(STRATEGY_SWEEP),
              "comma-separated solve strategies to sweep"),
        Param("dynamism", "str", ",".join(DYNAMISM_SWEEP),
              "comma-separated workload arms (stationary, phased)"),
        Param("mixes", "int", 2, "random mixes per point"),
        Param("seed", "int", 42, "mix RNG seed"),
        Param("epochs", "int", 6, "reconfigurations per point (>= 2)"),
        Param("period_mcycles", "float", DEFAULT_PERIOD_MCYCLES,
              "epoch length in Mcycles"),
    ),
    build_jobs=_solver_jobs,
    reduce=_solver_reduce,
    present=_solver_present,
))
