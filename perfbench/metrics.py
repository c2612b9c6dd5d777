"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

One table drives everything that names a metric: ``run.py`` emits
exactly these names, and ``python3 perfbench/metrics.py`` renders
``BENCHMARK.json`` from it, so the manifest and the output cannot drift
apart (``selftest.py`` checks the committed manifest).
"""

from __future__ import annotations

import json
from pathlib import Path

#: How long one run measures, in seconds (the manifest's ``run_seconds``).
RUN_SECONDS = 45

#: (name, why) — the reason each workload exists, one line each.
WORKLOADS = (
    ("serve-delta-256",
     "two phased 256-tile chips taking turns to stream delta telemetry to "
     "a warm incremental service: admission, delta resolve, sketches, "
     "digests, subset solves"),
    ("sweep-fig11",
     "offline fig11 sweep through Session and MegaBatchRunner: runner, "
     "batch kernels, nuca schemes and evaluation; no service code"),
)

#: (name, unit, better, bound) of every end-to-end metric.  Each is
#: emitted on every workload; README.md gives the per-workload meaning.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("epochs_per_s", "1/s", "higher", 0.25),
    ("mixes_per_s", "1/s", "higher", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("modeled_mcycles_mean", "Mcycles", "lower", 0.15),
    ("modeled_mcycles_max", "Mcycles", "lower", 0.05),
    ("aggregate_ipc", "IPC", "higher", 0.15),
    ("cdcs_gmean_ws", "x", "higher", 0.1),
    ("peak_rss_mib", "MiB", "lower", 0.2),
)

#: (name, unit, better) of every per-layer metric (traced runs only).
PER_LAYER = (
    ("bench.requests", "count", "higher"),
    # The run's median host speed against the reference (hostspeed.py):
    # layer times are raw wall time, so read them against it.
    ("bench.host_scale", "ratio", "higher"),
    # Tail latency follows contention on a shared host too closely to
    # gate, so it is reported here, without a bound.
    ("req_p90_ms", "ms", "lower"),
    ("service.admit_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.degraded", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.stale_deltas", "count", "lower"),
    ("telemetry.build_delta_ms", "ms", "lower"),
    ("telemetry.digest_ms", "ms", "lower"),
    ("telemetry.bytes_per_req", "B", "lower"),
    ("telemetry.delta_frac", "ratio", "higher"),
    ("sched.solve_ms", "ms", "lower"),
    ("sched.allocation_ms", "ms", "lower"),
    ("sched.vc_placement_ms", "ms", "lower"),
    ("sched.thread_placement_ms", "ms", "lower"),
    ("sched.data_placement_ms", "ms", "lower"),
    ("sched.allocation_mcycles", "Mcycles", "lower"),
    ("sched.vc_placement_mcycles", "Mcycles", "lower"),
    ("sched.thread_placement_mcycles", "Mcycles", "lower"),
    ("sched.data_placement_mcycles", "Mcycles", "lower"),
    ("sched.dirty_detect_ms", "ms", "lower"),
    ("sched.dirty_vc_frac", "ratio", "lower"),
    ("sim.current_problem_ms", "ms", "lower"),
    ("sim.run_epoch_ms", "ms", "lower"),
    ("geometry.cached_mib", "MiB", "lower"),
    ("runner.build_jobs_s", "s", "lower"),
    ("runner.map_s", "s", "lower"),
    ("runner.reduce_s", "s", "lower"),
    ("runner.executed", "count", "higher"),
    ("runner.cached", "count", "higher"),
    ("nuca.snuca_ms", "ms", "lower"),
    ("nuca.rnuca_ms", "ms", "lower"),
    ("nuca.jigsaw_c_ms", "ms", "lower"),
    ("nuca.jigsaw_r_ms", "ms", "lower"),
    ("nuca.cdcs_ms", "ms", "lower"),
    ("model.evaluate_ms", "ms", "lower"),
    ("import.repro_main_s", "s", "lower"),
    ("import.heavy_modules", "count", "lower"),
    ("trace.epochs_per_s", "1/s", "higher"),
    ("trace.mixes_per_s", "1/s", "higher"),
)

#: Metrics that must read bitwise identical across repeated runs of one
#: seed and between the traced and untraced runs of it.
DETERMINISTIC = (
    "modeled_mcycles_mean",
    "modeled_mcycles_max",
    "aggregate_ipc",
    "cdcs_gmean_ws",
    "telemetry.bytes_per_req",
    "sched.allocation_mcycles",
    "sched.vc_placement_mcycles",
    "sched.thread_placement_mcycles",
    "sched.data_placement_mcycles",
)

#: workload -> (the workload whose toy-size traced run measures the
#: layers this one never crosses, the metric prefixes of those layers).
PROBED = {
    "serve-delta-256": ("sweep-fig11", ("runner.", "nuca.", "model.")),
    "sweep-fig11": (
        "serve-delta-256", ("service.", "telemetry.", "sched.", "sim."),
    ),
}

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def expected_metrics(trace: bool) -> tuple[str, ...]:
    """The metric names one run must emit."""
    table = PER_LAYER if trace else END_TO_END
    return tuple(row[0] for row in table)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")


if __name__ == "__main__":
    write_manifest(Path(__file__).resolve().parent.parent / "BENCHMARK.json")
