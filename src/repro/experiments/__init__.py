"""Per-experiment harnesses: one module per paper table/figure (see the
experiment registry index in docs/REPRODUCING.md).

Every experiment module registers an :class:`~repro.experiments.spec.ExperimentSpec`
into the process-wide registry (:mod:`repro.experiments.spec`) when it
is imported.  The registry declares each spec name with its module, so
it imports a module only when one of its specs is asked for.  The
registry drives the CLI (``python -m repro run <name>``),
:class:`repro.api.Session`, and the docs cross-checks; specs produce
typed, serializable :class:`~repro.experiments.results.RunRecord`
results.

Importing this package imports no experiment module: each name below
resolves on first access, by importing the module that defines it.

The legacy ``run_*`` entry points (taking an optional ``runner=``) and
``*_jobs`` builders remain as compatibility shims over the same job
builders and reducers, so callers can still compose fan-outs across
experiments by hand before handing them to one runner — or use
:meth:`repro.api.Session.run_batch`, which does exactly that.
"""

import importlib

#: Submodule -> the names this package re-exports from it.
_EXPORTS = {
    "results": ("FORMATS", "ResultSeries", "ResultTable", "RunRecord", "render"),
    "spec": (
        "ExperimentSpec", "Param", "all_specs", "get_spec", "register",
        "spec_names",
    ),
    "case_study": ("CaseStudyResult", "render_chip_map", "run_case_study"),
    "factor_analysis": (
        "VARIANTS", "FactorResult", "factor_jobs", "run_factor_analysis",
    ),
    "monitors_study": (
        "GEOMETRIES", "MonitorAccuracy", "curve_error", "monitor_jobs",
        "monitored_curve", "run_monitor_comparison",
    ),
    "phase_study": (
        "PERIODS", "PhaseStudyResult", "phase_point", "phase_study_jobs",
        "run_phase_study",
    ),
    "placers_study": (
        "PLACERS", "PlacerOutcome", "placer_jobs", "run_placer_comparison",
    ),
    "scalability": (
        "TILE_POINTS", "ScalabilityResult", "run_scalability",
        "scalability_jobs", "scalability_point",
    ),
    "solver_study": (
        "DYNAMISM_SWEEP", "INTERVAL_MCYCLES", "STRATEGY_SWEEP",
        "SolverStudyResult", "run_solver_study", "solver_point",
        "solver_study_jobs",
    ),
    "sketch_study": (
        "BUDGET_SWEEP", "SketchStudyResult", "run_sketch_study",
        "sketch_point", "sketch_study_jobs",
    ),
    "service_study": (
        "ServiceStudyResult", "run_service_study", "service_load_point",
        "service_study_jobs",
    ),
    "reconfig_study": (
        "PROTOCOLS", "PeriodSweepResult", "ReconfigTrace",
        "default_trace_mix", "period_sweep_from_traces",
        "reconfig_trace_jobs", "reconfiguration_penalty_cycles",
        "run_period_sweep", "run_reconfig_trace",
    ),
    "report": ("format_breakdown", "format_series", "format_table"),
    "sweeps": (
        "SweepResult", "evaluate_mix", "merge_mix_record", "mix_record",
        "reduce_sweep_records", "run_sweep", "sweep_jobs",
    ),
    "table3": ("OPERATING_POINTS", "RuntimeRow", "run_table3"),
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
