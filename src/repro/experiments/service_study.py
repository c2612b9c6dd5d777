"""Service load study: the control plane under concurrent tenants.

The solver study priced one warm engine against the reconfiguration
interval; this study prices the *service* around it — N chips streaming
telemetry through one :class:`~repro.service.server.CoSchedService`
concurrently, per :mod:`repro.service.load`.  Each (strategy, dynamism)
arm is one :class:`repro.runner.Job` running a whole load session, and
the headline numbers are serving-shaped: requests/sec and p50/p99
placement latency, with degradations and typed rejections broken out.

Determinism caveat: placements and reply *counts* are seeded and exact;
requests/sec and latency percentiles are wall clock and vary run to run
(same convention as ``solve_seconds`` elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.solver_study import parse_names
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.runner import Job
from repro.sched.engine import strategy_names

#: Default strategy arms for the load sweep.
STRATEGY_SWEEP = ("full", "incremental")

#: Default dynamism arms (see :class:`repro.service.load.LoadSpec`).
DYNAMISM_SWEEP = ("stationary", "phased")


def service_load_point(
    chips: int,
    epochs: int,
    tiles: int,
    strategy: str,
    dynamism: str,
    workers: int,
    queue_limit: int,
    seed: int,
) -> dict:
    """Job body: one full load session; returns the report as a dict."""
    # Lazy: keeps experiments importable if the service layer is being
    # bisected, and mirrors service.load's lazy import back this way.
    from repro.service.load import LoadSpec, run_load

    spec = LoadSpec(
        chips=chips, epochs=epochs, tiles=tiles, strategy=strategy,
        dynamism=dynamism, workers=workers, queue_limit=queue_limit,
        seed=seed,
    )
    return run_load(spec).to_dict()


@dataclass
class ServiceStudyResult:
    """Load reports keyed by (strategy, dynamism)."""

    #: (strategy, dynamism) -> the session's report dict.
    records: dict[tuple[str, str], dict]

    def points(self) -> list[tuple[str, str]]:
        return sorted(self.records)

    def report(self, point: tuple[str, str]):
        from repro.service.load import LoadReport

        return LoadReport.from_dict(self.records[point])

    def table_rows(self) -> list[tuple]:
        rows = []
        for strategy, arm in self.points():
            record = self.records[(strategy, arm)]
            rows.append((
                strategy,
                arm,
                record["spec"]["chips"],
                record["requests"],
                record["ok"],
                record["degraded"],
                sum(record["rejected"].values()),
                round(record["requests_per_sec"], 1),
                round(record["p50_latency_ms"], 2),
                round(record["p99_latency_ms"], 2),
            ))
        return rows


# -- spec registry -----------------------------------------------------------


def _service_jobs(params: dict) -> list[Job]:
    """One :class:`Job` (= one load session) per (strategy, dynamism)."""
    strategies = parse_names(
        params["strategies"], tuple(strategy_names()), "strategy"
    )
    dynamism = parse_names(params["dynamism"], DYNAMISM_SWEEP, "dynamism")
    chips, tiles, seed = params["chips"], params["tiles"], params["seed"]
    return [
        Job(
            fn=service_load_point,
            kwargs=dict(
                chips=chips, epochs=params["epochs"], tiles=tiles,
                strategy=strategy, dynamism=arm, workers=params["workers"],
                queue_limit=params["queue_limit"], seed=seed,
            ),
            seed=seed,
            label=f"service-{chips}c-{tiles}t-{strategy}-{arm}",
        )
        for strategy in strategies
        for arm in dynamism
    ]


def _service_reduce(records: list, params: dict) -> ServiceStudyResult:
    """Key each session's report by its (strategy, dynamism) arm."""
    grouped: dict[tuple[str, str], dict] = {}
    for record in records:
        key = (record["spec"]["strategy"], record["spec"]["dynamism"])
        grouped[key] = record
    return ServiceStudyResult(grouped)


def _service_present(result: ServiceStudyResult, params: dict) -> RunRecord:
    table = ResultTable.make(
        title=f"Service load: {params['chips']} chips x "
              f"{params['epochs']} epochs on {params['tiles']} tiles "
              f"({params['workers']} workers, "
              f"queue {params['queue_limit']})",
        headers=("strategy", "dynamism", "chips", "requests", "ok",
                 "degraded", "rejected", "req/s", "p50 ms", "p99 ms"),
        rows=result.table_rows(),
    )
    return RunRecord(
        experiment="service_load", params=params, tables=(table,),
    )


register(ExperimentSpec(
    name="service_load",
    summary="async control plane under concurrent tenant load",
    figure="beyond paper",
    params=(
        Param("chips", "int", 4, "concurrent tenant chips"),
        Param("epochs", "int", 6, "reconfigurations per chip"),
        Param("tiles", "int", 16, "square tile count per chip"),
        Param("strategies", "str", ",".join(STRATEGY_SWEEP),
              "comma-separated solve strategies to sweep"),
        Param("dynamism", "str", ",".join(DYNAMISM_SWEEP),
              "comma-separated workload arms (stationary, phased)"),
        Param("workers", "int", 2, "service worker tasks / solve threads"),
        Param("queue_limit", "int", 32, "bounded request-queue depth"),
        Param("seed", "int", 42, "fleet RNG seed"),
    ),
    build_jobs=_service_jobs,
    reduce=_service_reduce,
    present=_service_present,
))
