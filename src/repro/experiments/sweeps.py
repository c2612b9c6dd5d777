"""Mix sweeps: the workhorse behind Figs 11, 13, 14, 15, 16.

The ``fig11``/``fig13``/``fig14``/``fig15``/``fig16`` specs evaluate
every scheme on N random mixes and collect weighted speedups plus the
latency / traffic / energy aggregates the paper's figure panels report.
Single- and multi-threaded pools share the same machinery.

Each mix is one :class:`repro.runner.Job` (:func:`sweep_jobs` builds the
job list, :func:`_mix_point` is the job body), so a sweep parallelizes
across ``--jobs`` workers and memoizes per-mix results in the runner's
cache.  :class:`repro.runner.MegaBatchRunner` runs a group of same-chip
jobs through :func:`_mix_points_batched` instead.  Both bodies, fig12's
job body and :func:`evaluate_mix` solve and score their mixes through
one helper, :func:`_score_mixes`, called with one mix or many, so every
path produces identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig, default_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.model.metrics import gmean, inverse_cdf, weighted_speedup
from repro.model.system import AnalyticSystem, MixEvaluation
from repro.nuca import SCHEMES, NucaScheme, SNuca, standard_schemes
from repro.runner import Job, register_batchable
from repro.util.hashing import content_digest
from repro.util.rng import reseed_global
from repro.util.sums import ordered_sums
from repro.workloads.mixes import (
    Mix,
    random_multithreaded_mix,
    random_single_threaded_mix,
)

BASELINE = "S-NUCA"


def _mean(values: list[float]) -> float:
    """Mean with an ordered sum, the same on every Python."""
    return float(ordered_sums(values)) / len(values)


@dataclass
class SweepResult:
    """Aggregated results of one sweep."""

    n_apps: int
    n_mixes: int
    #: scheme -> weighted speedups, one per mix (vs S-NUCA).
    speedups: dict[str, list[float]] = field(default_factory=dict)
    #: scheme -> mean on-chip network latency per LLC access (cycles).
    onchip_latency: dict[str, list[float]] = field(default_factory=dict)
    #: scheme -> off-chip latency per kilo-instruction.
    offchip_latency: dict[str, list[float]] = field(default_factory=dict)
    #: scheme -> traffic breakdown (flit-hops/instr) per mix.
    traffic: dict[str, list[dict[str, float]]] = field(default_factory=dict)
    #: scheme -> energy-per-instruction breakdown (nJ) per mix.
    energy: dict[str, list[dict[str, float]]] = field(default_factory=dict)

    def gmean_speedup(self, scheme: str) -> float:
        return gmean(self.speedups[scheme])

    def max_speedup(self, scheme: str) -> float:
        return max(self.speedups[scheme])

    def speedup_cdf(self, scheme: str) -> list[float]:
        """Fig 11a presentation: speedups sorted descending."""
        return inverse_cdf(self.speedups[scheme])

    def mean_onchip(self, scheme: str) -> float:
        return _mean(self.onchip_latency[scheme])

    def mean_offchip(self, scheme: str) -> float:
        return _mean(self.offchip_latency[scheme])

    def mean_traffic(self, scheme: str) -> dict[str, float]:
        rows = self.traffic[scheme]
        return {k: _mean([r[k] for r in rows]) for k in rows[0]}

    def mean_energy(self, scheme: str) -> dict[str, float]:
        rows = self.energy[scheme]
        return {k: _mean([r[k] for r in rows]) for k in rows[0]}

    def schemes(self) -> list[str]:
        return [s for s in self.speedups if s != BASELINE]


def mix_record(result: SweepResult, mix_index: int = 0) -> dict:
    """Extract one mix's rows from *result* as a plain, picklable dict.

    This is the payload a sweep job returns (and the cache persists):
    scheme-keyed scalars/breakdowns for exactly one evaluated mix.
    """
    return {
        "speedups": {s: v[mix_index] for s, v in result.speedups.items()},
        "onchip": {s: v[mix_index] for s, v in result.onchip_latency.items()},
        "offchip": {
            s: v[mix_index] for s, v in result.offchip_latency.items()
        },
        "traffic": {s: v[mix_index] for s, v in result.traffic.items()},
        "energy": {s: v[mix_index] for s, v in result.energy.items()},
    }


def merge_mix_record(result: SweepResult, record: dict) -> None:
    """Append one job's :func:`mix_record` payload onto *result*."""
    for scheme, value in record["speedups"].items():
        result.speedups.setdefault(scheme, []).append(value)
    for scheme, value in record["onchip"].items():
        result.onchip_latency.setdefault(scheme, []).append(value)
        result.offchip_latency.setdefault(scheme, []).append(
            record["offchip"][scheme]
        )
        result.traffic.setdefault(scheme, []).append(
            record["traffic"][scheme]
        )
        result.energy.setdefault(scheme, []).append(record["energy"][scheme])


_SYSTEM_CACHE: dict[str, AnalyticSystem] = {}


def _sweep_system(config: SystemConfig) -> AnalyticSystem:
    """Process-memoized :class:`AnalyticSystem` per chip config.

    Every sweep body reuses one system per config, so the
    alone-performance cache stays warm across jobs and batches instead
    of being re-derived per job.  Bitwise-safe: the system holds no
    mutable state beyond that cache, and cached alone values equal
    freshly computed ones (the alone evaluation is fully explicitly
    seeded).
    """
    key = content_digest(config)
    system = _SYSTEM_CACHE.get(key)
    if system is None:
        system = _SYSTEM_CACHE[key] = AnalyticSystem(config)
    return system


def _score_mixes(
    config: SystemConfig,
    runs: list[tuple[Mix, list[NucaScheme]]],
    system: AnalyticSystem | None = None,
) -> list[tuple[dict[str, MixEvaluation], dict]]:
    """Solve and score every ``(mix, schemes)`` run, whose schemes must
    include the :data:`BASELINE`; per run, its evaluations by scheme
    name and its :func:`mix_record` payload.

    One :meth:`AnalyticSystem.evaluate_schemes` call, through *system*
    or the process's memoized one, covers every run: each mix's schemes
    share one problem, :func:`~repro.nuca.base.run_schemes` merges their
    LRU-sharing solves and Jigsaw lanes across the call, and one stacked
    pass scores every placement.  No value crosses from one run to
    another, so a run's payload is the same whatever else shares the
    call.
    """
    system = system or _sweep_system(config)
    alones = [system.alone_performance(mix) for mix, _ in runs]
    scored = iter(system.evaluate_schemes(
        [(mix, scheme) for mix, schemes in runs for scheme in schemes]
    ))
    out = []
    for (_, schemes), alone in zip(runs, alones):
        evaluations = {scheme.name: next(scored) for scheme in schemes}
        baseline = evaluations[BASELINE]
        record: dict[str, dict] = {
            "speedups": {}, "onchip": {}, "offchip": {}, "traffic": {}, "energy": {},
        }
        for name, evaluation in evaluations.items():
            if name != BASELINE:
                record["speedups"][name] = weighted_speedup(
                    evaluation, baseline, alone
                )
            # Fig 11b reports *network* latency: subtract the bank lookup.
            record["onchip"][name] = (
                evaluation.mean_onchip_latency_per_access()
                - config.cache.bank_latency
            )
            record["offchip"][name] = evaluation.offchip_latency_per_kiloinstr()
            record["traffic"][name] = evaluation.traffic_per_instr()
            record["energy"][name] = evaluation.energy.as_dict()
        out.append((evaluations, record))
    return out


def _sweep_mix(n_apps: int, seed: int, mix_id: int, multithreaded: bool) -> Mix:
    """Random mix *mix_id* of the sweep."""
    if multithreaded:
        return random_multithreaded_mix(n_apps, seed, mix_id)
    return random_single_threaded_mix(n_apps, seed, mix_id)


def _mix_point(
    config: SystemConfig,
    n_apps: int,
    seed: int,
    mix_id: int,
    multithreaded: bool,
) -> dict:
    """Job body: evaluate all standard schemes on one random mix."""
    mix = _sweep_mix(n_apps, seed, mix_id, multithreaded)
    ((_, record),) = _score_mixes(config, [(mix, standard_schemes(mix_id))])
    return record


def _mix_points_batched(
    slices: list[int],
    digests: list[str],
    *,
    config: SystemConfig,
    n_apps: int,
    seed: int,
    multithreaded: bool,
) -> list[dict]:
    """Mega-batch body for :func:`_mix_point`: each slice's mix built
    after reseeding the global RNGs as ``Job.execute`` would, then one
    :func:`_score_mixes` call over every slice (no scheme reads the
    global RNGs, so running them after the last reseed moves nothing)."""
    runs = []
    for mix_id, digest in zip(slices, digests):
        reseed_global(digest, seed)
        mix = _sweep_mix(n_apps, seed, mix_id, multithreaded)
        runs.append((mix, standard_schemes(mix_id)))
    return [record for _, record in _score_mixes(config, runs)]


register_batchable(_mix_point, batch_fn=_mix_points_batched, slice_param="mix_id")


def sweep_jobs(
    config: SystemConfig,
    n_apps: int,
    n_mixes: int = 50,
    seed: int = 42,
    multithreaded: bool = False,
) -> list[Job]:
    """One :class:`Job` per mix of the standard-scheme sweep."""
    kind = "mt" if multithreaded else "st"
    return [
        Job(
            fn=_mix_point,
            kwargs=dict(
                config=config,
                n_apps=n_apps,
                seed=seed,
                mix_id=mix_id,
                multithreaded=multithreaded,
            ),
            seed=seed,
            label=f"sweep-{kind}-{n_apps}apps-mix{mix_id}",
        )
        for mix_id in range(n_mixes)
    ]


def reduce_sweep_records(
    records: list[dict], n_apps: int, n_mixes: int
) -> SweepResult:
    """Fold per-mix :func:`mix_record` payloads into one
    :class:`SweepResult`."""
    result = SweepResult(n_apps=n_apps, n_mixes=n_mixes)
    for record in records:
        merge_mix_record(result, record)
    return result


def evaluate_mix(
    config: SystemConfig,
    mix: Mix,
    result: SweepResult,
    seed: int = 0,
    schemes: list[NucaScheme] | None = None,
    system: AnalyticSystem | None = None,
) -> dict[str, MixEvaluation]:
    """Evaluate one mix under every scheme (``SNuca(seed)`` added as the
    baseline when *schemes* has none), recording into *result*; through
    *system*, or a fresh :class:`AnalyticSystem`."""
    scheme_list = schemes if schemes is not None else standard_schemes(seed)
    if not any(scheme.name == BASELINE for scheme in scheme_list):
        scheme_list = [*scheme_list, SNuca(seed)]
    ((evaluations, record),) = _score_mixes(
        config, [(mix, scheme_list)], system or AnalyticSystem(config)
    )
    merge_mix_record(result, record)
    return evaluations


# -- spec registry -----------------------------------------------------------

#: Occupancy points of the Fig 13 sweep.
FIG13_APP_COUNTS = (1, 2, 4, 8, 16, 32, 64)

_SWEEP_PARAMS = (
    Param("mixes", "int", 10, "random mixes per data point"),
    Param("seed", "int", 42, "base RNG seed"),
)


def _sweep_table(result: SweepResult, title: str) -> ResultTable:
    return ResultTable.make(
        title=title,
        headers=("Scheme", "gmean WS", "max WS"),
        rows=[
            (s, result.gmean_speedup(s), result.max_speedup(s))
            for s in SCHEMES
        ],
    )


def _register_sweep_spec(
    name: str, figure: str, n_apps: int, multithreaded: bool
) -> None:
    kind = "8-thread" if multithreaded else "single-threaded"

    def build_jobs(params: dict) -> list[Job]:
        return sweep_jobs(
            default_config(), n_apps, params["mixes"], params["seed"],
            multithreaded,
        )

    def reduce(records: list, params: dict) -> SweepResult:
        return reduce_sweep_records(records, n_apps, params["mixes"])

    def present(result: SweepResult, params: dict) -> RunRecord:
        title = f"{params['mixes']} mixes of {n_apps} {kind} apps"
        return RunRecord(
            experiment=name,
            params=params,
            tables=(_sweep_table(result, title),),
        )

    register(ExperimentSpec(
        name=name,
        summary=f"weighted speedups over {kind} {n_apps}-app mixes",
        figure=figure,
        params=_SWEEP_PARAMS,
        build_jobs=build_jobs,
        reduce=reduce,
        present=present,
    ))


_register_sweep_spec("fig11", "Fig 11", n_apps=64, multithreaded=False)
_register_sweep_spec("fig14", "Fig 14", n_apps=4, multithreaded=False)
_register_sweep_spec("fig15", "Fig 15", n_apps=8, multithreaded=True)
_register_sweep_spec("fig16", "Fig 16", n_apps=4, multithreaded=True)


def _fig13_jobs(params: dict) -> list[Job]:
    jobs: list[Job] = []
    for n_apps in FIG13_APP_COUNTS:
        jobs += sweep_jobs(
            default_config(), n_apps, params["mixes"], params["seed"]
        )
    return jobs


def _fig13_reduce(records: list, params: dict) -> dict[int, SweepResult]:
    n_mixes = params["mixes"]
    out: dict[int, SweepResult] = {}
    for i, n_apps in enumerate(FIG13_APP_COUNTS):
        chunk = records[i * n_mixes:(i + 1) * n_mixes]
        out[n_apps] = reduce_sweep_records(chunk, n_apps, n_mixes)
    return out


def _fig13_present(result: dict[int, SweepResult], params: dict) -> RunRecord:
    rows = [
        (f"{n_apps}", *(result[n_apps].gmean_speedup(s) for s in SCHEMES))
        for n_apps in FIG13_APP_COUNTS
    ]
    table = ResultTable.make(
        title="Fig 13: gmean WS vs occupancy",
        headers=("apps", *SCHEMES),
        rows=rows,
    )
    return RunRecord(experiment="fig13", params=params, tables=(table,))


register(ExperimentSpec(
    name="fig13",
    summary="gmean weighted speedup vs chip occupancy (1-64 apps)",
    figure="Fig 13",
    params=_SWEEP_PARAMS,
    build_jobs=_fig13_jobs,
    reduce=_fig13_reduce,
    present=_fig13_present,
))
