"""Scalability study: CDCS beyond the paper's 64-tile design point.

The paper evaluates a 64-tile CMP; the headline of any distributed cache
layer is how it holds up as the fabric grows (DistCache-style scaling
arguments — see PAPERS.md).  This experiment sweeps square meshes from 16
to 256 tiles at **fixed per-tile load** (one single-threaded app per tile
by default, the fully-committed regime), runs one full CDCS
reconfiguration per point, and reports what the paper's Table 3 and
Fig 11 would show at each size:

* delivered performance — aggregate IPC and IPC per tile;
* locality — mean network hops per LLC access (access-weighted);
* runtime cost — wall-clock seconds of the epoch solve, per pipeline
  step, plus the modeled runtime in Mcycles (the Table 3 accounting).

Per-tile IPC degrading slowly while solve time grows is the scaling
story; solve time exploding would bound the usable mesh size.  Each
(tiles, mix) pair is one :class:`repro.runner.Job`.  Cached records
replay the solve times measured when the job actually executed (the
placer-study convention; see docs/REPRODUCING.md).

``--strategy`` selects the :mod:`repro.sched.engine` solve strategy
(``full``/``incremental``/``partitioned``/``hierarchical``); the
per-step solve breakdown (modeled Mcycles and wall) is exported
alongside the headline table.  The sweep accepts tile counts up to
16384 (a 128x128 mesh): 1024 is where only the flat partitioned
critical path still fits the reconfiguration interval, and the 4096+
points need ``--strategy hierarchical``, whose recursive splits and
lazy geometry keep both the critical path and memory bounded (see
``solver_study`` for the warm-engine measurements).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import mesh_width, scaled_mesh_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.model.system import AnalyticSystem
from repro.nuca.base import SchemeResult, build_problem
from repro.runner import Job, ProcessPoolRunner, run_jobs
from repro.sched.engine import ReconfigEngine, strategy_names
from repro.workloads.mixes import random_single_threaded_mix

#: Mesh sizes swept by default: the paper's 64-tile chip bracketed by a
#: quarter-size mesh and the 144- and 256-tile points beyond it.  1024
#: (a 32x32 mesh) is the partitioned-strategy stretch point — pass it via
#: ``--tiles`` / ``--param tiles=...`` rather than by default.
TILE_POINTS = (16, 64, 144, 256)


def scalability_point(
    tiles: int,
    seed: int,
    mix_id: int,
    occupancy: float = 1.0,
    strategy: str = "full",
) -> dict:
    """Job body: one mesh size, one random mix at fixed per-tile load.

    *strategy* selects the :mod:`repro.sched.engine` solve strategy for
    the single cold-start solve this point measures (``partitioned``
    splits the mesh into ~8x8 regions; ``incremental`` has no previous
    solution here, so its cold solve is the full pipeline — the
    ``solver_study`` experiment measures its warm epoch-over-epoch cost).
    """
    config = scaled_mesh_config(tiles)
    n_apps = max(1, int(round(tiles * occupancy)))
    mix = random_single_threaded_mix(n_apps, seed, mix_id)
    problem = build_problem(mix, config)
    result = ReconfigEngine(strategy).solve(problem)
    evaluation = AnalyticSystem(config).evaluate_solution(
        mix, problem, SchemeResult("CDCS", result.solution)
    )
    # Ordered reductions: records must be identical through both kernel
    # paths (and across --jobs values), so no np.sum here.
    aggregate_ipc = 0.0
    hop_num = 0.0
    hop_den = 0.0
    for thread in evaluation.threads:
        aggregate_ipc += thread.ipc
        hop_num += thread.apki * thread.mean_hops
        hop_den += thread.apki
    return {
        "tiles": tiles,
        "n_apps": n_apps,
        "strategy": strategy,
        "aggregate_ipc": aggregate_ipc,
        "ipc_per_tile": aggregate_ipc / tiles,
        "mean_hops": hop_num / hop_den if hop_den else 0.0,
        "onchip_latency": evaluation.mean_onchip_latency_per_access(),
        "dram_utilization": evaluation.dram_utilization,
        "model_mcycles": result.counter.total_cycles() / 1e6,
        # The cycles the reconfiguration interval must absorb: the critical
        # path for partitioned solves (regions run on separate cores), the
        # op-count total otherwise.
        "modeled_mcycles": result.modeled_cycles() / 1e6,
        # Per-step breakdown (Table 3 attribution), in Mcycles.
        "step_mcycles": {
            step: cycles / 1e6
            for step, cycles in result.step_cycles().items()
        },
        # Wall-clock is measurement, not simulation: excluded from the
        # equivalence contract, replayed as-measured from the cache.
        "solve_seconds": dict(result.wall_seconds),
        "solve_seconds_total": sum(result.wall_seconds.values()),
    }


def scalability_jobs(
    tiles: tuple[int, ...] = TILE_POINTS,
    n_mixes: int = 2,
    seed: int = 42,
    occupancy: float = 1.0,
    strategy: str = "full",
) -> list[Job]:
    """One :class:`Job` per (mesh size, mix) point."""
    for count in tiles:
        mesh_width(count)  # validate early, before any job runs
    if strategy not in strategy_names():
        raise ValueError(
            f"unknown solve strategy {strategy!r} "
            f"(have: {', '.join(strategy_names())})"
        )
    return [
        Job(
            fn=scalability_point,
            kwargs=dict(
                tiles=count, seed=seed, mix_id=mix_id, occupancy=occupancy,
                strategy=strategy,
            ),
            seed=seed,
            label=f"scalability-{count}t-mix{mix_id}-{strategy}",
        )
        for count in tiles
        for mix_id in range(n_mixes)
    ]


@dataclass
class ScalabilityResult:
    """Aggregated sweep outcome: records grouped by mesh size."""

    #: tiles -> one record per mix (see :func:`scalability_point`).
    records: dict[int, list[dict]]

    def tile_points(self) -> list[int]:
        return sorted(self.records)

    def mean(self, tiles: int, key: str) -> float:
        rows = self.records[tiles]
        return sum(r[key] for r in rows) / len(rows)

    def table_rows(self) -> list[tuple]:
        """Rows for the CLI/benchmark table, one per mesh size."""
        return [
            (
                f"{tiles}",
                f"{self.records[tiles][0]['n_apps']}",
                self.mean(tiles, "aggregate_ipc"),
                self.mean(tiles, "ipc_per_tile"),
                self.mean(tiles, "mean_hops"),
                self.mean(tiles, "model_mcycles"),
                1e3 * self.mean(tiles, "solve_seconds_total"),
            )
            for tiles in self.tile_points()
        ]

    def mean_step_mcycles(self, tiles: int) -> dict[str, float]:
        """Per-step modeled Mcycles, averaged over the mixes at *tiles*
        (ordered reductions, path-independent)."""
        rows = self.records[tiles]
        steps: dict[str, float] = {}
        for row in rows:
            for step, mcycles in row.get("step_mcycles", {}).items():
                steps[step] = steps.get(step, 0.0) + mcycles
        return {step: total / len(rows) for step, total in steps.items()}

    def mean_step_wall(self, tiles: int) -> dict[str, float]:
        """Per-step solve wall seconds, averaged over the mixes."""
        rows = self.records[tiles]
        steps: dict[str, float] = {}
        for row in rows:
            for step, seconds in row.get("solve_seconds", {}).items():
                steps[step] = steps.get(step, 0.0) + seconds
        return {step: total / len(rows) for step, total in steps.items()}

    def breakdown_rows(self) -> list[tuple]:
        """One row per (mesh size, pipeline step): modeled Mcycles and
        measured wall — the per-step view that shows *which* step overruns
        the reconfiguration interval, not just that the total does."""
        rows = []
        for tiles in self.tile_points():
            mcycles = self.mean_step_mcycles(tiles)
            wall = self.mean_step_wall(tiles)
            modeled = self.mean(tiles, "modeled_mcycles") if all(
                "modeled_mcycles" in r for r in self.records[tiles]
            ) else self.mean(tiles, "model_mcycles")
            for step in sorted(set(mcycles) | set(wall)):
                rows.append(
                    (
                        f"{tiles}",
                        step,
                        mcycles.get(step, 0.0),
                        1e3 * wall.get(step, 0.0),
                        modeled,
                    )
                )
        return rows


def run_scalability(
    tiles: tuple[int, ...] = TILE_POINTS,
    n_mixes: int = 2,
    seed: int = 42,
    occupancy: float = 1.0,
    strategy: str = "full",
    runner: ProcessPoolRunner | None = None,
) -> ScalabilityResult:
    """Sweep mesh sizes at fixed per-tile load."""
    jobs = scalability_jobs(
        tiles=tiles, n_mixes=n_mixes, seed=seed, occupancy=occupancy,
        strategy=strategy,
    )
    return reduce_scalability_records(run_jobs(jobs, runner))


def reduce_scalability_records(records: list[dict]) -> ScalabilityResult:
    """Group per-(tiles, mix) job payloads by mesh size — the reducer
    behind both the ``scalability`` spec and :func:`run_scalability`."""
    grouped: dict[int, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["tiles"], []).append(record)
    return ScalabilityResult(grouped)


# -- spec registry -----------------------------------------------------------


def _scalability_jobs(params: dict) -> list[Job]:
    return scalability_jobs(
        tiles=tuple(params["tiles"]), n_mixes=params["mixes"],
        seed=params["seed"], strategy=params["strategy"],
    )


def _scalability_reduce(records: list, params: dict) -> ScalabilityResult:
    return reduce_scalability_records(records)


def _scalability_present(
    result: ScalabilityResult, params: dict
) -> RunRecord:
    table = ResultTable.make(
        title=f"Scalability: mesh-size sweep at fixed per-tile load "
              f"({params['mixes']} mixes/point, "
              f"{params['strategy']} solves)",
        headers=("tiles", "apps", "IPC", "IPC/tile", "hops",
                 "runtime Mcyc", "solve ms"),
        rows=result.table_rows(),
    )
    breakdown = ResultTable.make(
        title="Solve breakdown per step (modeled Mcycles / measured wall; "
              "'interval Mcyc' is what the reconfiguration interval must "
              "absorb — the critical path for partitioned solves)",
        headers=("tiles", "step", "step Mcyc", "step wall ms",
                 "interval Mcyc"),
        rows=result.breakdown_rows(),
    )
    return RunRecord(
        experiment="scalability", params=params, tables=(table, breakdown)
    )


register(ExperimentSpec(
    name="scalability",
    summary="16-256-tile mesh sweep at fixed per-tile load",
    figure="beyond paper",
    params=(
        Param("tiles", "tiles", TILE_POINTS,
              "comma-separated square tile counts"),
        Param("mixes", "int", 10, "random mixes per mesh size"),
        Param("seed", "int", 42, "mix RNG seed"),
        Param("strategy", "str", "full",
              "solve strategy: full, incremental, partitioned, or "
              "hierarchical"),
    ),
    build_jobs=_scalability_jobs,
    reduce=_scalability_reduce,
    present=_scalability_present,
))
