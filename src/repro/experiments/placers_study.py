"""Alternative-placer comparison (Sec VI-C).

Compares CDCS's constructive placement against the expensive comparators:
LP-optimal data placement (the ILP stand-in), a 5000-round simulated-
annealing thread placer, and recursive-bisection graph partitioning.
The paper's findings to reproduce: all three are within ~0-1% of CDCS on
quality while costing orders of magnitude more runtime.

Each comparator runs as its own :class:`repro.runner.Job` (re-deriving the
cheap CDCS starting point locally), so the expensive placers fan out
across workers and memoize independently.  Note that ``wall_seconds`` is
part of the cached payload: a cache hit replays the timing measured when
the job actually ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.config import SystemConfig, default_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.model.metrics import weighted_speedup
from repro.model.system import AnalyticSystem
from repro.nuca.base import SchemeResult, build_problem
from repro.nuca.cdcs import Cdcs
from repro.nuca.snuca import SNuca
from repro.placers.annealing import anneal_thread_placement
from repro.placers.graph_partition import graph_partition_placement
from repro.placers.linear_program import lp_data_placement
from repro.runner import Job
from repro.sched.cost_model import on_chip_latency
from repro.sched.problem import PlacementSolution
from repro.workloads.mixes import random_single_threaded_mix

#: The comparison's rows, in the paper's presentation order.
PLACERS = ("CDCS", "LP data placement", "Simulated annealing",
           "Graph partitioning")


@dataclass
class PlacerOutcome:
    name: str
    weighted_speedup: float
    onchip_cost: float
    wall_seconds: float


def _placer_point(
    config: SystemConfig,
    placer: str,
    n_apps: int,
    seed: int,
    mix_id: int,
    anneal_rounds: int,
) -> PlacerOutcome:
    """Job body: evaluate one placer on one mix.

    Every job recomputes CDCS's (cheap, deterministic) solution as the
    comparator's starting point; only the named placer's own runtime is
    reported as ``wall_seconds``.
    """
    system = AnalyticSystem(config)
    mix = random_single_threaded_mix(n_apps, seed, mix_id)
    problem = build_problem(mix, config)
    alone = system.alone_performance(mix)
    baseline = system.evaluate(mix, SNuca(mix_id))

    t0 = time.perf_counter()
    cdcs = Cdcs(seed=mix_id).run(problem)
    cdcs_wall = time.perf_counter() - t0

    if placer == "CDCS":
        solution, wall = cdcs.solution, cdcs_wall
    elif placer == "LP data placement":
        # LP-optimal data placement on CDCS's sizes and thread placement.
        t0 = time.perf_counter()
        lp_alloc = lp_data_placement(
            problem, cdcs.solution.vc_sizes, cdcs.solution.thread_cores
        )
        solution = PlacementSolution(
            vc_sizes={vc: sum(p.values()) for vc, p in lp_alloc.items()},
            vc_allocation=lp_alloc,
            thread_cores=dict(cdcs.solution.thread_cores),
        )
        wall = time.perf_counter() - t0
    elif placer == "Simulated annealing":
        # Annealed thread placement over CDCS's data placement.
        t0 = time.perf_counter()
        anneal = anneal_thread_placement(
            problem,
            cdcs.solution.vc_allocation,
            cdcs.solution.thread_cores,
            rounds=anneal_rounds,
            seed=seed,
        )
        solution = PlacementSolution(
            vc_sizes=dict(cdcs.solution.vc_sizes),
            vc_allocation={
                vc: dict(p) for vc, p in cdcs.solution.vc_allocation.items()
            },
            thread_cores=anneal.thread_cores,
        )
        wall = time.perf_counter() - t0
    elif placer == "Graph partitioning":
        # Joint graph partitioning from CDCS's sizes.
        t0 = time.perf_counter()
        graph_solution = graph_partition_placement(
            problem, cdcs.solution.vc_sizes, seed=seed
        )
        solution, wall = graph_solution, time.perf_counter() - t0
    else:
        raise ValueError(f"unknown placer {placer!r}")

    evaluation = system.evaluate_solution(
        mix, problem, SchemeResult(placer, solution)
    )
    return PlacerOutcome(
        name=placer,
        weighted_speedup=weighted_speedup(evaluation, baseline, alone),
        onchip_cost=on_chip_latency(problem, solution),
        wall_seconds=wall,
    )


# -- spec registry -----------------------------------------------------------


def _placers_jobs(params: dict) -> list[Job]:
    """One :class:`Job` per comparator in :data:`PLACERS`, all on mix 0."""
    config, seed = default_config(), params["seed"]
    return [
        Job(
            fn=_placer_point,
            kwargs=dict(
                config=config,
                placer=placer,
                n_apps=params["apps"],
                seed=seed,
                mix_id=0,
                anneal_rounds=params["anneal_rounds"],
            ),
            seed=seed,
            label=f"placer-{placer}",
        )
        for placer in PLACERS
    ]


def _placers_reduce(records: list, params: dict) -> list[PlacerOutcome]:
    return records


def _placers_present(
    result: list[PlacerOutcome], params: dict
) -> RunRecord:
    table = ResultTable.make(
        title=f"Placer comparators on one {params['apps']}-app mix "
              f"(Sec VI-C)",
        headers=("Placer", "WS", "on-chip cost", "wall s"),
        rows=[
            (o.name, o.weighted_speedup, o.onchip_cost, o.wall_seconds)
            for o in result
        ],
    )
    return RunRecord(experiment="placers", params=params, tables=(table,))


register(ExperimentSpec(
    name="placers",
    summary="CDCS vs LP / annealing / graph-partitioning comparators",
    figure="Sec VI-C",
    params=(
        Param("apps", "int", 16, "apps in the evaluated mix"),
        Param("anneal_rounds", "int", 5000, "simulated-annealing rounds"),
        Param("seed", "int", 42, "mix RNG seed"),
    ),
    build_jobs=_placers_jobs,
    reduce=_placers_reduce,
    present=_placers_present,
))
