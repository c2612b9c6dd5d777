"""The Sec II-B case study: Table 1 and the Fig 1 chip maps.

36-tile chip, omnet x6 + milc x14 + ilbdc x2(8t); compares R-NUCA,
Jigsaw+C, Jigsaw+R and CDCS against S-NUCA, and renders thread/data maps
like Fig 1's tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, case_study_config
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.model.metrics import per_app_speedups, weighted_speedup
from repro.model.system import AnalyticSystem, MixEvaluation
from repro.nuca import SCHEMES, standard_schemes
from repro.nuca.base import build_problem, run_schemes
from repro.runner import Job
from repro.sched.problem import PlacementSolution
from repro.workloads.mixes import Mix, case_study_mix


@dataclass
class CaseStudyResult:
    mix: Mix
    #: scheme -> per-app speedups over S-NUCA ({'omnet': ..., ...}).
    app_speedups: dict[str, dict[str, float]]
    #: scheme -> weighted speedup over S-NUCA (alone-normalized).
    weighted: dict[str, float]
    evaluations: dict[str, MixEvaluation]
    solutions: dict[str, PlacementSolution]
    config: SystemConfig

    def table1(self) -> list[tuple[str, float, float, float, float]]:
        """Rows in Table 1's layout: scheme, omnet, ilbdc, milc, WS."""
        rows = []
        for scheme in SCHEMES:
            apps = self.app_speedups[scheme]
            rows.append(
                (
                    scheme,
                    apps["omnet"],
                    apps["ilbdc"],
                    apps["milc"],
                    self.weighted[scheme],
                )
            )
        return rows


def run_case_study(
    config: SystemConfig | None = None,
    mix: Mix | None = None,
    seed: int = 1,
) -> CaseStudyResult:
    config = config or case_study_config()
    mix = mix or case_study_mix()
    system = AnalyticSystem(config)
    alone = system.alone_performance(mix)
    problem = build_problem(mix, config)
    outcomes = run_schemes([(s, problem) for s in standard_schemes(seed)])
    evaluations: dict[str, MixEvaluation] = dict(zip(
        [outcome.name for outcome in outcomes],
        system.evaluate_solutions_batch(
            [(mix, problem, outcome) for outcome in outcomes]
        ),
    ))
    solutions: dict[str, PlacementSolution] = {
        outcome.name: outcome.solution for outcome in outcomes
    }
    baseline = evaluations["S-NUCA"]
    app_speedups = {}
    weighted = {}
    for name, evaluation in evaluations.items():
        if name == "S-NUCA":
            continue
        app_speedups[name] = per_app_speedups(evaluation, baseline)
        weighted[name] = weighted_speedup(evaluation, baseline, alone)
    return CaseStudyResult(
        mix, app_speedups, weighted, evaluations, solutions, config
    )


def render_chip_map(
    result: CaseStudyResult, scheme: str
) -> str:
    """ASCII rendition of a Fig 1 panel: per tile, the thread running there
    and the process owning the most bytes in the tile's bank."""
    config = result.config
    solution = result.solutions[scheme]
    evaluation = result.evaluations[scheme]
    width = config.mesh_width
    label_of_process = {}
    counters: dict[str, int] = {}
    for proc in result.mix.processes:
        letter = proc.profile.name[0].upper()
        counters[letter] = counters.get(letter, 0) + 1
        label_of_process[proc.process_id] = f"{letter}{counters[letter]}"

    thread_at: dict[int, str] = {}
    for t in evaluation.threads:
        thread_at[t.core] = label_of_process[t.process_id]
    # Dominant data owner per bank.
    process_of_vc = {}
    from repro.nuca.base import GLOBAL_VC_ID

    for proc in result.mix.processes:
        for tid in proc.thread_ids:
            process_of_vc[tid] = proc.process_id
        from repro.nuca.base import process_vc_id

        process_of_vc[process_vc_id(proc.process_id)] = proc.process_id
    bank_owner_bytes: dict[int, dict[int, float]] = {}
    for vc_id, per_bank in solution.vc_allocation.items():
        pid = process_of_vc.get(vc_id)
        if pid is None or vc_id == GLOBAL_VC_ID:
            continue
        for bank, amount in per_bank.items():
            bank_owner_bytes.setdefault(bank, {})[pid] = (
                bank_owner_bytes.setdefault(bank, {}).get(pid, 0.0) + amount
            )
    lines = [f"{scheme}: thread/dominant-data per tile"]
    for y in range(config.mesh_height):
        row = []
        for x in range(width):
            tile = y * width + x
            thread = thread_at.get(tile, "--")
            owners = bank_owner_bytes.get(tile, {})
            data = (
                label_of_process[max(owners, key=owners.get)] if owners else "--"
            )
            row.append(f"{thread:>3}/{data:<3}")
        lines.append(" ".join(row))
    return "\n".join(lines)


# -- spec registry -----------------------------------------------------------


def _case_study_rows(seed: int) -> list[tuple[str, float, float, float, float]]:
    """Job body: Table 1's rows as a plain, picklable payload."""
    return run_case_study(seed=seed).table1()


def _table1_jobs(params: dict) -> list[Job]:
    return [Job(fn=_case_study_rows, kwargs=dict(seed=params["seed"]),
                seed=params["seed"], label="table1-case-study")]


def _table1_reduce(records: list, params: dict) -> list[tuple]:
    return records[0]


def _table1_present(result: list[tuple], params: dict) -> RunRecord:
    table = ResultTable.make(
        title="Table 1: case-study speedups over S-NUCA",
        headers=("Scheme", "omnet", "ilbdc", "milc", "WS"),
        rows=result,
    )
    return RunRecord(experiment="table1", params=params, tables=(table,))


register(ExperimentSpec(
    name="table1",
    summary="the 36-tile Sec II-B case study (omnet + milc + ilbdc)",
    figure="Table 1",
    params=(Param("seed", "int", 1, "scheme RNG seed"),),
    build_jobs=_table1_jobs,
    reduce=_table1_reduce,
    present=_table1_present,
))
