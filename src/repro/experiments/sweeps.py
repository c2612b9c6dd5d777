"""Mix sweeps: the workhorse behind Figs 11, 13, 14, 15, 16.

``run_sweep`` evaluates every scheme on N random mixes and collects
weighted speedups plus the latency / traffic / energy aggregates the
paper's figure panels report.  Single- and multi-threaded pools share the
same machinery.

Each mix is one :class:`repro.runner.Job` (:func:`sweep_jobs` builds the
job list, :func:`_mix_point` is the job body), so a sweep parallelizes
across ``--jobs`` workers and memoizes per-mix results in the runner's
cache; pass ``runner=`` to exploit that, or call ``run_sweep`` without one
for the classic serial in-process path — both produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.config import SystemConfig, default_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.geometry.mesh import Mesh, seed_shared_geometry
from repro.model.metrics import gmean, inverse_cdf, weighted_speedup
from repro.model.system import AnalyticSystem, MixEvaluation
from repro.nuca import SCHEMES, standard_schemes
from repro.nuca.base import NucaScheme, SchemeResult, build_problem
from repro.nuca.sharing import solve_sharing_plans
from repro.runner import Job, ProcessPoolRunner, register_batchable, run_jobs
from repro.sched.reconfigure import reconfigure_schemes
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


def _record(
    result: SweepResult,
    name: str,
    evaluation: MixEvaluation,
    bank_latency: float,
) -> None:
    # Fig 11b reports *network* latency: subtract the bank lookup.
    result.onchip_latency.setdefault(name, []).append(
        evaluation.mean_onchip_latency_per_access() - bank_latency
    )
    result.offchip_latency.setdefault(name, []).append(
        evaluation.offchip_latency_per_kiloinstr()
    )
    result.traffic.setdefault(name, []).append(evaluation.traffic_per_instr())
    result.energy.setdefault(name, []).append(evaluation.energy.as_dict())


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


def _mix_point(
    config: SystemConfig,
    n_apps: int,
    seed: int,
    mix_id: int,
    multithreaded: bool,
) -> dict:
    """Job body: evaluate all standard schemes on one random mix."""
    if multithreaded:
        mix = random_multithreaded_mix(n_apps, seed, mix_id)
    else:
        mix = random_single_threaded_mix(n_apps, seed, mix_id)
    single = SweepResult(n_apps=n_apps, n_mixes=1)
    evaluate_mix(config, mix, single, seed=mix_id)
    return mix_record(single)


# -- mega-batch job body ------------------------------------------------------

_SYSTEM_CACHE: dict[str, AnalyticSystem] = {}


def _sweep_system(config: SystemConfig) -> AnalyticSystem:
    """Process-memoized :class:`AnalyticSystem` per chip config.

    Batched sweeps reuse one system per config so the alone-performance
    cache stays warm across batches instead of being re-derived per job.
    Bitwise-safe: the system holds no mutable state beyond that cache,
    and cached alone values equal freshly computed ones (the alone
    evaluation is fully explicitly seeded).
    """
    key = content_digest(config)
    system = _SYSTEM_CACHE.get(key)
    if system is None:
        system = _SYSTEM_CACHE[key] = AnalyticSystem(config)
    return system


def _reseed_slice(digest: str, seed: int) -> None:
    """Reproduce :meth:`repro.runner.Job.execute`'s global reseeding for
    one slice of a batch, so per-slice RNG state matches the per-job path
    exactly (the deferred merged stages afterwards consume no RNG).
    Both paths share :func:`repro.util.rng.reseed_global` — the one
    sanctioned global-reseed site."""
    reseed_global(digest, seed)


def _mix_points_batched(
    slices: list[int],
    digests: list[str],
    *,
    config: SystemConfig,
    n_apps: int,
    seed: int,
    multithreaded: bool,
) -> list[dict]:
    """Mega-batch body for :func:`_mix_point`: many mix_ids in stacked passes.

    Three phases, each preserving the per-job float trajectory:

    1. per slice (reseeded like ``Job.execute``): build the mix, warm the
       alone cache, run each scheme up to its sharing solve — S-NUCA and
       R-NUCA *stage* their solves as :class:`SharingPlan`s, Jigsaw+C
       and Jigsaw+R solve as the two lanes of one
       :func:`~repro.sched.reconfigure.reconfigure_schemes` call (one
       miss-driven allocation between them), CDCS runs fully;
    2. one :func:`solve_sharing_plans` call merges every staged solve
       into a single lockstep bisection, then each scheme's
       ``finish_sharing`` folds its occupancy slice back in;
    3. one :meth:`AnalyticSystem.evaluate_solutions_batch` call scores
       every (mix, scheme) placement, and the per-slice records assemble
       exactly as :func:`evaluate_mix` would.
    """
    system = _sweep_system(config)
    per_slice = []  # (mix, alone, entries); entry = [scheme, problem, result]
    staged = []     # (slice_idx, entry_idx, scheme, problem, context)
    plans = []
    for mix_id, digest in zip(slices, digests):
        _reseed_slice(digest, seed)
        if multithreaded:
            mix = random_multithreaded_mix(n_apps, seed, mix_id)
        else:
            mix = random_single_threaded_mix(n_apps, seed, mix_id)
        alone = system.alone_performance(mix)
        entries = []
        # One problem per slice: building it is deterministic in
        # (mix, config) and schemes treat it as read-only, so sharing the
        # object across the five schemes changes no values — only spares
        # four redundant constructions (and lets the evaluator group all
        # five solutions under one geometry object).
        problem = build_problem(mix, config)
        lanes = []  # (entry_idx, scheme name, reconfigure_schemes lane)
        for scheme in standard_schemes(mix_id):
            stage = getattr(scheme, "sharing_stage", None)
            lane = getattr(scheme, "lane", None)
            if stage is not None:
                plan, context = stage(problem)
                if plan is None:
                    entries.append([
                        scheme, problem,
                        scheme.finish_sharing(problem, context, np.zeros(0)),
                    ])
                else:
                    entries.append([scheme, problem, None])
                    staged.append(
                        (len(per_slice), len(entries) - 1, scheme, problem,
                         context)
                    )
                    plans.append(plan)
            elif lane is not None:
                entries.append([scheme, problem, None])
                lanes.append((len(entries) - 1, scheme.name, lane(problem)))
            else:
                entries.append([scheme, problem, scheme.run(problem)])
        solved = reconfigure_schemes(problem, [lane for _, _, lane in lanes])
        for (e, name, _), result in zip(lanes, solved):
            entries[e][2] = SchemeResult(
                name, result.solution, result.step_cycles()
            )
        per_slice.append((mix, alone, entries))

    for (s, e, scheme, problem, context), occupancies in zip(
        staged, solve_sharing_plans(plans)
    ):
        per_slice[s][2][e][2] = scheme.finish_sharing(
            problem, context, occupancies
        )

    items = [
        (mix, problem, result)
        for mix, _, entries in per_slice
        for _, problem, result in entries
    ]
    evaluations = iter(system.evaluate_solutions_batch(items))

    records = []
    for mix, alone, entries in per_slice:
        single = SweepResult(n_apps=n_apps, n_mixes=1)
        by_name = {scheme.name: next(evaluations) for scheme, _, _ in entries}
        baseline = by_name[BASELINE]
        for name, evaluation in by_name.items():
            if name != BASELINE:
                single.speedups.setdefault(name, []).append(
                    weighted_speedup(evaluation, baseline, alone)
                )
            _record(single, name, evaluation, config.cache.bank_latency)
        records.append(mix_record(single))
    return records


def _sweep_geometry_bank(shared_kwargs: Mapping) -> dict[str, np.ndarray]:
    """The sweep's hot read-only arrays: the chip's dense geometry
    matrices, published once per group instead of rebuilt per worker."""
    config = shared_kwargs["config"]
    topo = Mesh(config.mesh_width, config.mesh_height)
    if topo._shared_cache_key() is None or topo._geometry_is_lazy():
        return {}
    return {
        "distance": np.asarray(topo.distance_matrix),
        "order": np.asarray(topo.order_matrix),
        "sorted_distance": np.asarray(topo.sorted_distance_matrix),
    }


def _sweep_install_bank(
    shared_kwargs: Mapping, views: Mapping[str, np.ndarray]
) -> None:
    """Worker side: adopt the attached geometry views into the
    process-wide memo so nothing rebuilds them."""
    config = shared_kwargs["config"]
    topo = Mesh(config.mesh_width, config.mesh_height)
    key = topo._shared_cache_key()
    if key is not None:
        seed_shared_geometry(key, dict(views))


register_batchable(
    _mix_point,
    batch_fn=_mix_points_batched,
    slice_param="mix_id",
    array_bank=_sweep_geometry_bank,
    install_bank=_sweep_install_bank,
)


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
    :class:`SweepResult` — the reducer behind both the spec registry and
    the legacy :func:`run_sweep`."""
    result = SweepResult(n_apps=n_apps, n_mixes=n_mixes)
    for record in records:
        merge_mix_record(result, record)
    return result


def run_sweep(
    config: SystemConfig,
    n_apps: int,
    n_mixes: int = 50,
    seed: int = 42,
    multithreaded: bool = False,
    schemes: list[NucaScheme] | None = None,
    system: AnalyticSystem | None = None,
    runner: ProcessPoolRunner | None = None,
) -> SweepResult:
    """Evaluate schemes over random mixes; returns aggregated results.

    Legacy entry point, kept for backward compatibility — the same sweep
    is registered as the ``fig11``/``fig13``/``fig14``/``fig15``/``fig16``
    specs (see :mod:`repro.experiments.spec` and :class:`repro.api.Session`),
    which share this function's job builder and reducer bitwise.

    With the default (standard) schemes, each mix runs as a runner job —
    pass *runner* for parallelism and caching.  Supplying custom *schemes*
    or a pre-built *system* keeps the legacy inline loop, since arbitrary
    scheme objects are not content-hashable job inputs.
    """
    if schemes is None and system is None:
        jobs = sweep_jobs(config, n_apps, n_mixes, seed, multithreaded)
        return reduce_sweep_records(run_jobs(jobs, runner), n_apps, n_mixes)
    result = SweepResult(n_apps=n_apps, n_mixes=n_mixes)
    system = system or AnalyticSystem(config)
    for mix_id in range(n_mixes):
        if multithreaded:
            mix = random_multithreaded_mix(n_apps, seed, mix_id)
        else:
            mix = random_single_threaded_mix(n_apps, seed, mix_id)
        evaluate_mix(config, mix, result, seed=mix_id, schemes=schemes,
                     system=system)
    return result


def evaluate_mix(
    config: SystemConfig,
    mix: Mix,
    result: SweepResult,
    seed: int = 0,
    schemes: list[NucaScheme] | None = None,
    system: AnalyticSystem | None = None,
) -> dict[str, MixEvaluation]:
    """Evaluate one mix under every scheme, recording into *result*."""
    system = system or AnalyticSystem(config)
    scheme_list = schemes if schemes is not None else standard_schemes(seed)
    alone = system.alone_performance(mix)
    if not any(scheme.name == BASELINE for scheme in scheme_list):
        from repro.nuca.snuca import SNuca

        scheme_list = [*scheme_list, SNuca(seed)]
    scored = system.evaluate_schemes([(mix, scheme) for scheme in scheme_list])
    evaluations: dict[str, MixEvaluation] = {
        scheme.name: evaluation for scheme, evaluation in zip(scheme_list, scored)
    }
    baseline = evaluations[BASELINE]
    for name, evaluation in evaluations.items():
        if name != BASELINE:
            result.speedups.setdefault(name, []).append(
                weighted_speedup(evaluation, baseline, alone)
            )
        _record(result, name, evaluation, config.cache.bank_latency)
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
