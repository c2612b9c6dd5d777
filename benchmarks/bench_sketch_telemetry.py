"""Sketch-telemetry benchmark: bytes per epoch and warm dirty detection.

Beyond-the-paper evidence for the sketch telemetry stack
(:mod:`repro.cache.sketch` + ``DeltaTelemetry``) at the 1024-tile scale
point:

* **bytes per epoch** — an 8-epoch schedule with one phase flip, priced
  through :func:`repro.service.messages.telemetry_bytes`: full telemetry
  ships every curve every epoch; the delta stream ships one full problem
  at first contact, ~128-byte digests on the seven stationary
  boundaries, and only the flipped VCs at the flip.  The acceptance bar
  is a >= 5x reduction.
* **warm dirty detection** — `IncrementalSolve.dirty_vcs` (exact curves)
  vs `dirty_vcs_from_sketches` (one vectorized pass over the memoized
  sketch banks) on the same (prev, current) problem pair, both warm.
  The pair is rebuilt with fresh curve objects first — telemetry that
  crossed a wire never shares object identity with the previous epoch,
  so neither detector gets same-object shortcuts.  The acceptance bar
  is >= 3x faster.

Appends a ``bench_sketch_telemetry`` entry to ``benchmarks/BENCH.json``:
the ``*_bytes_per_epoch`` leaves gate unconditionally (deterministic
message sizes, lower is better) and the ``*_seconds`` leaves gate on
matching hosts, both via ``tools/bench_compare.py``.
"""

import os
import platform
import time
from dataclasses import replace
from datetime import date

from conftest import emit, record_bench_entry

from repro.cache.miss_curve import MissCurve
from repro.cache.sketch import problem_sketch_bank
from repro.config import scaled_mesh_config
from repro.experiments import format_table
from repro.nuca.base import build_problem
from repro.sched.engine import IncrementalSolve
from repro.service.messages import (
    PlacementRequest,
    build_delta,
    telemetry_bytes,
)
from repro.workloads.mixes import random_phased_mix, snapshot_mix

TILES = 1024
SEED = 42
EPOCHS = 8
DETECTION_REPS = 3


def _problem_pair():
    """The epoch problems A (base) and B (after a phase flip) at scale.

    B comes from snapshotting the same phased mix with one in eight
    processes advanced deep into its schedule — the epoch boundary the
    incremental engine is built for, where a slice of the chip flips
    phase and the rest holds still.
    """
    config = scaled_mesh_config(TILES)
    mix = random_phased_mix(TILES, SEED, mix_id=0)
    problem_a = build_problem(mix, config)
    flipped = snapshot_mix(
        mix,
        {
            proc.process_id: (
                1.0e9 + 1.7e8 * proc.process_id
                if proc.process_id % 8 == 0
                else 0.0
            )
            for proc in mix.processes
        },
    )
    problem_b = build_problem(flipped, config, problem_a.topology)
    return problem_a, problem_b


def _fresh_curve_twin(problem):
    """A content-identical problem whose curves are fresh objects.

    Deserialized telemetry never shares curve objects with the previous
    epoch's problem, so detection timing must not benefit from
    same-object fast paths on either side.
    """
    vcs = [
        replace(
            vc,
            miss_curve=MissCurve(
                vc.miss_curve.sizes.copy(), vc.miss_curve.values.copy()
            ),
        )
        for vc in problem.vcs
    ]
    return replace(problem, vcs=vcs)


def test_sketch_telemetry(once):
    problem_a, problem_b = once(_problem_pair)

    # -- bytes per epoch over an 8-epoch schedule (one flip) -----------------
    schedule = [problem_a] * (EPOCHS // 2) + [problem_b] * (EPOCHS // 2)
    full_bytes = 0
    delta_bytes = 0
    base = None
    for epoch, problem in enumerate(schedule):
        full_request = PlacementRequest(
            chip_id="bench", problem=problem, epoch=epoch
        )
        full_bytes += telemetry_bytes(full_request)
        delta = (
            build_delta(base, problem, "bench", epoch=epoch)
            if base is not None
            else None
        )
        delta_bytes += telemetry_bytes(
            delta if delta is not None else full_request
        )
        base = problem
    full_per_epoch = full_bytes / EPOCHS
    delta_per_epoch = delta_bytes / EPOCHS
    reduction = full_bytes / delta_bytes

    # -- warm dirty detection: exact curves vs sketch banks ------------------
    fresh_a = _fresh_curve_twin(problem_a)
    fresh_b = _fresh_curve_twin(problem_b)
    strategy = IncrementalSolve(dirty_threshold=0.05, use_sketches=True)
    problem_sketch_bank(fresh_a, strategy.sketch_bytes)  # warm the banks
    problem_sketch_bank(fresh_b, strategy.sketch_bytes)
    strategy.dirty_vcs(fresh_a, fresh_b)  # warm both code paths
    strategy.dirty_vcs_from_sketches(fresh_a, fresh_b)

    start = time.perf_counter()
    for _ in range(DETECTION_REPS):
        exact_dirty = strategy.dirty_vcs(fresh_a, fresh_b)
    exact_seconds = (time.perf_counter() - start) / DETECTION_REPS
    start = time.perf_counter()
    for _ in range(DETECTION_REPS):
        sketch_dirty = strategy.dirty_vcs_from_sketches(fresh_a, fresh_b)
    sketch_seconds = (time.perf_counter() - start) / DETECTION_REPS
    speedup = exact_seconds / sketch_seconds

    emit(format_table(
        ["metric", "full/exact", "delta/sketch", "ratio"],
        [
            ("telemetry B/epoch", full_per_epoch, delta_per_epoch,
             f"{reduction:.1f}x smaller"),
            ("dirty detection s", exact_seconds, sketch_seconds,
             f"{speedup:.1f}x faster"),
            ("dirty VCs at flip", len(exact_dirty), len(sketch_dirty),
             "superset" if exact_dirty <= sketch_dirty else "BROKEN"),
        ],
        title=f"Sketch telemetry at {TILES} tiles "
              f"({EPOCHS}-epoch schedule, one phase flip)",
    ))

    # Acceptance bars (ISSUE 10): the delta stream must cut telemetry
    # bytes >= 5x and warm dirty detection must be >= 3x faster.
    assert reduction >= 5.0
    assert speedup >= 3.0
    # Soundness: the sketch dirty set never misses a moved VC.
    assert exact_dirty <= sketch_dirty

    record_bench_entry({
        "bench": "bench_sketch_telemetry",
        "chip": f"{TILES}-tile mesh (scaled_mesh_config)",
        "recorded": date.today().isoformat(),
        "host": f"{platform.system()}-{platform.machine()}"
                f"-{os.cpu_count()}cpu",
        "metrics": {
            # Deterministic message sizes: gate unconditionally, lower is
            # better (tools/bench_compare.py telemetry_metrics).
            "full_bytes_per_epoch": round(full_per_epoch, 1),
            "delta_bytes_per_epoch": round(delta_per_epoch, 1),
            "bytes_reduction_x": round(reduction, 2),
        },
        "detection_wall_seconds": {
            "exact_dirty_seconds": round(exact_seconds, 5),
            "sketch_dirty_seconds": round(sketch_seconds, 5),
        },
        "detection_speedup_x": round(speedup, 2),
    })
