"""Factor analysis of CDCS's techniques (Fig 12).

Starting from Jigsaw+R, enable latency-aware allocation (+L), thread
placement (+T), and trade-refined data placement (+D) individually and
together (+LTD = CDCS); run at 64 apps (capacity-scarce: T and D dominate)
and 4 apps (capacity-plentiful: L dominates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, default_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.experiments.sweeps import (
    SweepResult,
    _score_mixes,
    reduce_sweep_records,
)
from repro.nuca import SNuca, factor_variant
from repro.runner import Job
from repro.workloads.mixes import random_single_threaded_mix

VARIANTS: list[tuple[str, tuple[bool, bool, bool]]] = [
    ("Jigsaw+R", (False, False, False)),
    ("+L", (True, False, False)),
    ("+T", (False, True, False)),
    ("+D", (False, False, True)),
    ("+LTD", (True, True, True)),
]


@dataclass
class FactorResult:
    n_apps: int
    sweep: SweepResult

    def gmeans(self) -> dict[str, float]:
        out = {}
        for label, _ in VARIANTS:
            name = _variant_name(label)
            out[label] = self.sweep.gmean_speedup(name)
        return out


def _variant_name(label: str) -> str:
    if label == "Jigsaw+R":
        return "Jigsaw+Rbase"
    return f"Jigsaw+R{label}"


def _factor_point(
    config: SystemConfig, n_apps: int, seed: int, mix_id: int
) -> dict:
    """Job body: evaluate all Fig 12 variants on one random mix."""
    mix = random_single_threaded_mix(n_apps, seed, mix_id)
    schemes = []
    for label, (lat, thr, dat) in VARIANTS:
        scheme = factor_variant(lat, thr, dat, seed=mix_id)
        scheme.name = _variant_name(label)
        schemes.append(scheme)
    ((_, record),) = _score_mixes(config, [(mix, [*schemes, SNuca(mix_id)])])
    return record


# -- spec registry -----------------------------------------------------------

#: Chip occupancies the Fig 12 ladder runs at (capacity-scarce, -plentiful).
FIG12_APP_COUNTS = (64, 4)


def _fig12_jobs(params: dict) -> list[Job]:
    """One :class:`Job` per (app count, mix) of the variant ladder."""
    config, seed = default_config(), params["seed"]
    return [
        Job(
            fn=_factor_point,
            kwargs=dict(
                config=config, n_apps=n_apps, seed=seed, mix_id=mix_id
            ),
            seed=seed,
            label=f"factor-{n_apps}apps-mix{mix_id}",
        )
        for n_apps in FIG12_APP_COUNTS
        for mix_id in range(params["mixes"])
    ]


def _fig12_reduce(records: list, params: dict) -> dict[int, FactorResult]:
    n_mixes = params["mixes"]
    out: dict[int, FactorResult] = {}
    for i, n_apps in enumerate(FIG12_APP_COUNTS):
        chunk = records[i * n_mixes:(i + 1) * n_mixes]
        out[n_apps] = FactorResult(
            n_apps=n_apps,
            sweep=reduce_sweep_records(chunk, n_apps, n_mixes),
        )
    return out


def _fig12_present(result: dict[int, FactorResult], params: dict) -> RunRecord:
    tables = tuple(
        ResultTable.make(
            title=f"Fig 12 factor analysis at {n_apps} apps",
            headers=("Variant", "gmean WS"),
            rows=list(result[n_apps].gmeans().items()),
        )
        for n_apps in FIG12_APP_COUNTS
    )
    return RunRecord(experiment="fig12", params=params, tables=tables)


register(ExperimentSpec(
    name="fig12",
    summary="factor analysis of CDCS's techniques (+L/+T/+D ladder)",
    figure="Fig 12",
    params=(
        Param("mixes", "int", 10, "random mixes per app count"),
        Param("seed", "int", 42, "base RNG seed"),
    ),
    build_jobs=_fig12_jobs,
    reduce=_fig12_reduce,
    present=_fig12_present,
))
