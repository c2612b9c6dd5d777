"""Sketch study: telemetry budget vs exact-GMON fidelity.

The sketch telemetry stack (:mod:`repro.cache.sketch`,
``DeltaTelemetry``) replaces per-epoch full miss-curve dumps with
bounded-memory sketches and delta streaming.  That trade is only worth
making if the bounded telemetry does not move the placements.  This
study sweeps the per-VC sketch budget on phased mixes and answers, per
(tiles, budget) point:

* **IPC fidelity** — a sketch-driven incremental engine
  (``IncrementalSolve(use_sketches=True)``) drives one simulation, an
  exact-GMON engine drives an identical twin; the study reports both
  IPCs and their relative error (the acceptance bar is <1%).
* **Dirty-set quality** — at every warm epoch boundary the sketch dirty
  set is compared against the exact one on the *same* (prev, current)
  problem pair: precision (how many flagged VCs really moved), recall
  (must be 1.0 — sketch deltas upper-bound the exact distance, so the
  sketch set is a superset by construction), and whether the superset
  property held.
* **Bytes per epoch** — what a ``DeltaTelemetry`` stream against the
  previous epoch's problem costs versus shipping the full problem
  (:func:`repro.service.messages.telemetry_bytes` prices both shapes),
  as a mean over the schedule and a reduction factor.

Each (tiles, budget, mix) tuple is one picklable
:class:`repro.runner.Job`; all reductions are ordered Python sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import mesh_width, scaled_mesh_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.nuca.base import build_problem
from repro.runner import Job, ProcessPoolRunner, run_jobs
from repro.sched.engine import IncrementalSolve, ReconfigEngine
from repro.service.messages import (
    PlacementRequest,
    build_delta,
    telemetry_bytes,
)
from repro.sim.engine import EpochEngine
from repro.workloads.mixes import random_phased_mix

#: Default per-VC sketch budget sweep in bytes; 4096 is the "generous"
#: point where placements are pinned bitwise-identical to exact.
BUDGET_SWEEP = (256, 1024, 4096)

#: Default epoch length (matches the solver study: long enough that the
#: generator's phases flip between solves within a short schedule).
DEFAULT_PERIOD_MCYCLES = 200.0


def _solutions_equal(a, b) -> bool:
    return (
        a.vc_sizes == b.vc_sizes
        and a.vc_allocation == b.vc_allocation
        and a.thread_cores == b.thread_cores
    )


def sketch_point(
    tiles: int,
    budget_bytes: int,
    seed: int,
    mix_id: int,
    epochs: int = 6,
    period_mcycles: float = DEFAULT_PERIOD_MCYCLES,
    dirty_threshold: float = 0.05,
) -> dict:
    """Job body: twin warm engines (exact vs sketch) on one phased mix.

    The exact twin is driven epoch by epoch so each boundary's
    (prev, current) problem pair can also be probed for paired dirty-set
    and telemetry-bytes accounting; the sketch twin runs the identical
    schedule through ``run_reconfigured``.  Returns a plain, picklable
    record (ordered sums only).
    """
    if epochs < 2:
        raise ValueError("sketch_point needs >= 2 epochs (cold + warm)")
    config = scaled_mesh_config(tiles)
    mix = random_phased_mix(tiles, seed, mix_id)
    period = period_mcycles * 1e6

    # Exact twin, driven manually so boundaries can be probed.
    sim_exact = EpochEngine(mix, build_problem(mix, config))
    engine_exact = ReconfigEngine(
        "incremental", dirty_threshold=dirty_threshold
    )
    probe = IncrementalSolve(
        dirty_threshold=dirty_threshold,
        use_sketches=True,
        sketch_bytes=budget_bytes,
    )

    exact_solutions = []
    prev_problem = None
    base_problem = None
    full_bytes = 0
    delta_bytes = 0
    flagged = 0        # |sketch dirty| over all warm boundaries
    agreed = 0         # |sketch dirty & exact dirty|
    exact_total = 0    # |exact dirty|
    superset_ok = True
    for epoch in range(epochs):
        current = sim_exact.current_problem()
        if prev_problem is not None:
            exact_dirty = probe.dirty_vcs(prev_problem, current)
            sketch_dirty = probe.dirty_vcs_from_sketches(
                prev_problem, current
            )
            flagged += len(sketch_dirty)
            agreed += len(sketch_dirty & exact_dirty)
            exact_total += len(exact_dirty)
            if not exact_dirty <= sketch_dirty:
                superset_ok = False
        full_request = PlacementRequest(
            chip_id=f"sketch-study-{mix_id}", problem=current, epoch=epoch
        )
        full_bytes += telemetry_bytes(full_request)
        delta = None
        if base_problem is not None:
            delta = build_delta(
                base_problem,
                current,
                f"sketch-study-{mix_id}",
                epoch=epoch,
                sketch_bytes=budget_bytes,
            )
        if delta is None:
            delta_bytes += telemetry_bytes(full_request)
        else:
            delta_bytes += telemetry_bytes(delta)
        base_problem = current
        result = engine_exact.solve(current)
        exact_solutions.append(result.solution)
        sim_exact.run_epoch(result.solution, period)
        prev_problem = current

    # Sketch twin: same mix, same schedule, sketch-driven dirty detection.
    sim_sketch = EpochEngine(mix, build_problem(mix, config))
    engine_sketch = ReconfigEngine(
        "incremental",
        dirty_threshold=dirty_threshold,
        use_sketches=True,
        sketch_bytes=budget_bytes,
    )
    sketch_results = sim_sketch.run_reconfigured(engine_sketch, period, epochs)

    matches = 0
    for exact_solution, sketch_result in zip(
        exact_solutions, sketch_results
    ):
        if _solutions_equal(exact_solution, sketch_result.solution):
            matches += 1

    ipc_exact = 0.0
    for epoch_result in sim_exact.trace.results:
        ipc_exact += epoch_result.aggregate_ipc
    ipc_exact /= len(sim_exact.trace.results)
    ipc_sketch = 0.0
    for epoch_result in sim_sketch.trace.results:
        ipc_sketch += epoch_result.aggregate_ipc
    ipc_sketch /= len(sim_sketch.trace.results)

    phase_changes = 0
    previous = None
    for epoch_result in sim_exact.trace.results:
        if previous is not None and epoch_result.phases != previous:
            phase_changes += 1
        previous = epoch_result.phases

    return {
        "tiles": tiles,
        "budget_bytes": budget_bytes,
        "mix_id": mix_id,
        "epochs": epochs,
        "period_mcycles": period_mcycles,
        "dirty_threshold": dirty_threshold,
        "phase_changes": phase_changes,
        "ipc_exact": ipc_exact,
        "ipc_sketch": ipc_sketch,
        "ipc_rel_err": abs(ipc_sketch - ipc_exact) / ipc_exact
        if ipc_exact > 0
        else 0.0,
        "placement_matches": matches,
        "placement_match_frac": matches / epochs,
        "dirty_precision": agreed / flagged if flagged else 1.0,
        "dirty_recall": agreed / exact_total if exact_total else 1.0,
        "superset_ok": superset_ok,
        "full_bytes_per_epoch": full_bytes / epochs,
        "delta_bytes_per_epoch": delta_bytes / epochs,
        "bytes_reduction_x": full_bytes / delta_bytes
        if delta_bytes
        else float(epochs),
    }


def sketch_study_jobs(
    tiles: tuple[int, ...] = (16, 64),
    budgets: tuple[int, ...] = BUDGET_SWEEP,
    n_mixes: int = 2,
    seed: int = 42,
    epochs: int = 6,
    period_mcycles: float = DEFAULT_PERIOD_MCYCLES,
    dirty_threshold: float = 0.05,
) -> list[Job]:
    """One :class:`Job` per (tiles, budget, mix) point."""
    for count in tiles:
        mesh_width(count)  # validate early
    for budget in budgets:
        if budget < 128:
            raise ValueError(
                f"sketch budget {budget} too small (need >= 128 bytes)"
            )
    return [
        Job(
            fn=sketch_point,
            kwargs=dict(
                tiles=count, budget_bytes=budget, seed=seed, mix_id=mix_id,
                epochs=epochs, period_mcycles=period_mcycles,
                dirty_threshold=dirty_threshold,
            ),
            seed=seed,
            label=f"sketch-{count}t-{budget}B-mix{mix_id}",
        )
        for count in tiles
        for budget in budgets
        for mix_id in range(n_mixes)
    ]


@dataclass
class SketchStudyResult:
    """Aggregated study outcome, keyed by (tiles, budget_bytes)."""

    #: (tiles, budget_bytes) -> one record per mix.
    records: dict[tuple[int, int], list[dict]]

    def points(self) -> list[tuple[int, int]]:
        return sorted(self.records)

    def mean(self, point: tuple[int, int], key: str) -> float:
        rows = self.records[point]
        total = 0.0
        for row in rows:
            total += row[key]
        return total / len(rows)

    def worst_ipc_err(self, point: tuple[int, int]) -> float:
        return max(row["ipc_rel_err"] for row in self.records[point])

    def superset_ok(self, point: tuple[int, int]) -> bool:
        return all(row["superset_ok"] for row in self.records[point])

    def table_rows(self) -> list[tuple]:
        return [
            (
                f"{tiles}",
                f"{budget}",
                self.mean((tiles, budget), "ipc_exact"),
                self.mean((tiles, budget), "ipc_sketch"),
                100.0 * self.worst_ipc_err((tiles, budget)),
                self.mean((tiles, budget), "dirty_precision"),
                self.mean((tiles, budget), "dirty_recall"),
                "yes" if self.superset_ok((tiles, budget)) else "NO",
                self.mean((tiles, budget), "placement_match_frac"),
                self.mean((tiles, budget), "full_bytes_per_epoch"),
                self.mean((tiles, budget), "delta_bytes_per_epoch"),
                self.mean((tiles, budget), "bytes_reduction_x"),
            )
            for tiles, budget in self.points()
        ]


def reduce_sketch_records(records: list[dict]) -> SketchStudyResult:
    """Group per-point payloads by (tiles, budget_bytes)."""
    grouped: dict[tuple[int, int], list[dict]] = {}
    for record in records:
        key = (record["tiles"], record["budget_bytes"])
        grouped.setdefault(key, []).append(record)
    return SketchStudyResult(grouped)


def run_sketch_study(
    tiles: tuple[int, ...] = (16, 64),
    budgets: tuple[int, ...] = BUDGET_SWEEP,
    n_mixes: int = 2,
    seed: int = 42,
    epochs: int = 6,
    period_mcycles: float = DEFAULT_PERIOD_MCYCLES,
    dirty_threshold: float = 0.05,
    runner: ProcessPoolRunner | None = None,
) -> SketchStudyResult:
    """Sweep sketch budgets x mesh sizes on twin warm engines."""
    jobs = sketch_study_jobs(
        tiles=tiles, budgets=budgets, n_mixes=n_mixes, seed=seed,
        epochs=epochs, period_mcycles=period_mcycles,
        dirty_threshold=dirty_threshold,
    )
    return reduce_sketch_records(run_jobs(jobs, runner))


# -- spec registry -----------------------------------------------------------


def parse_budgets(text: str) -> tuple[int, ...]:
    """Parse comma-separated sketch budgets in bytes."""
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("budgets sweep needs at least one value")
    budgets = []
    for part in parts:
        try:
            budgets.append(int(part))
        except ValueError:
            raise ValueError(
                f"budgets expects comma-separated integers, got {part!r}"
            ) from None
    return tuple(budgets)


def _sketch_jobs(params: dict) -> list[Job]:
    return sketch_study_jobs(
        tiles=tuple(params["tiles"]),
        budgets=parse_budgets(params["budgets"]),
        n_mixes=params["mixes"],
        seed=params["seed"],
        epochs=params["epochs"],
        period_mcycles=params["period_mcycles"],
        dirty_threshold=params["threshold"],
    )


def _sketch_reduce(records: list, params: dict) -> SketchStudyResult:
    return reduce_sketch_records(records)


def _sketch_present(result: SketchStudyResult, params: dict) -> RunRecord:
    table = ResultTable.make(
        title=f"Sketch study: telemetry budget vs exact GMONs "
              f"({params['mixes']} mixes/point, {params['epochs']} epochs, "
              f"threshold {params['threshold']:g})",
        headers=("tiles", "budget B", "IPC exact", "IPC sketch",
                 "worst IPC err %", "precision", "recall", "superset",
                 "match frac", "full B/epoch", "delta B/epoch",
                 "reduction x"),
        rows=result.table_rows(),
    )
    return RunRecord(
        experiment="sketch_study", params=params, tables=(table,),
    )


register(ExperimentSpec(
    name="sketch_study",
    summary="sketch telemetry budgets vs exact-GMON placements",
    figure="beyond paper",
    params=(
        Param("tiles", "tiles", (16, 64),
              "comma-separated square tile counts"),
        Param("budgets", "str", ",".join(str(b) for b in BUDGET_SWEEP),
              "comma-separated per-VC sketch budgets in bytes"),
        Param("mixes", "int", 2, "random phased mixes per point"),
        Param("seed", "int", 42, "mix RNG seed"),
        Param("epochs", "int", 6, "reconfigurations per point (>= 2)"),
        Param("period_mcycles", "float", DEFAULT_PERIOD_MCYCLES,
              "epoch length in Mcycles"),
        Param("threshold", "float", 0.05, "dirty threshold (relative)"),
    ),
    build_jobs=_sketch_jobs,
    reduce=_sketch_reduce,
    present=_sketch_present,
))
