"""Hierarchical scale points: the PR 7 acceptance gate as a benchmark.

One end-to-end ``scalability_point`` per mesh size with the
``hierarchical`` strategy, plus the lazy-geometry allocation account for
that solve.  Asserted here and recorded as a ``bench_solver_scale_points``
entry in ``benchmarks/BENCH.json``:

* the modeled critical path (slowest leaf + per-level anytime stitches)
  fits the paper's 50 Mcycle reconfiguration interval at 4096 tiles —
  where the flat full solve measured 1201.6 Mcyc at 1024 already;
* no dense O(N²) geometry block is ever allocated — the peak single
  allocation stays a fraction of one dense int32 matrix.

The 16384-tile point (the ≤ ~10%-of-dense memory target) takes ~40 s of
solve wall, so it only runs with ``REPRO_BENCH_XL=1``; CI measures the
4096-tile point per run and ``tools/bench_compare.py`` gates the
``*_mcycles`` and ``*_mib`` metrics (machine-independent) everywhere and
the ``*_seconds`` metrics on matching hosts.
"""

import os
import platform
from datetime import date

from conftest import emit, record_bench_entry

from repro.config import scaled_mesh_config
from repro.experiments import format_table
from repro.experiments.scalability import scalability_point
from repro.geometry import (
    dense_geometry_bytes,
    geometry_allocation_stats,
    reset_geometry_allocation_stats,
)

TILES = 4096
XL_TILES = 16384
RUN_XL = os.environ.get("REPRO_BENCH_XL") == "1"


def _measure(tiles: int) -> dict:
    """One hierarchical point + the geometry allocations it caused.

    The allocation reset keeps already-built caches warm (and uncounted),
    so a warm re-run under-reports — fine for the gate, which is an
    upper bound; the committed entry comes from a cold process.
    """
    reset_geometry_allocation_stats()
    record = scalability_point(tiles, seed=42, mix_id=0,
                               strategy="hierarchical")
    stats = geometry_allocation_stats()
    dense_ref = dense_geometry_bytes(tiles)
    return {
        "record": record,
        "stats": stats,
        "cached_mib": stats.cached_mib(),
        "peak_block_mib": stats.peak_block_bytes / 2**20,
        "dense_ref_mib": dense_ref / 2**20,
        "dense_ratio": stats.cached_bytes / dense_ref,
    }


def _assert_point(tiles: int, measured: dict, interval_mcycles: float):
    record, stats = measured["record"], measured["stats"]
    assert record["strategy"] == "hierarchical"
    # The acceptance gate: modeled critical path inside the interval.
    assert record["modeled_mcycles"] < interval_mcycles
    assert record["step_mcycles"]["stitch"] > 0.0
    # No dense O(N²) block anywhere: the largest single allocation
    # (transients included) is a fraction of one dense int32 matrix.
    assert stats.peak_block_bytes < tiles * tiles * 4 // 2


def test_hierarchical_scale_points(once):
    interval = (scaled_mesh_config(TILES).scheduler
                .reconfigure_interval_cycles / 1e6)
    points = {TILES: once(_measure, TILES)}
    if RUN_XL:
        points[XL_TILES] = _measure(XL_TILES)

    rows = []
    metrics = {"interval_mcycles": interval}
    for tiles, measured in points.items():
        _assert_point(tiles, measured, interval)
        record, stats = measured["record"], measured["stats"]
        rows.append((
            tiles, record["n_apps"],
            round(record["modeled_mcycles"], 2),
            round(record["step_mcycles"]["stitch"], 2),
            round(record["solve_seconds_total"], 2),
            round(measured["cached_mib"], 1),
            round(measured["peak_block_mib"], 1),
            f"{measured['dense_ratio']:.1%}",
        ))
        prefix = f"hierarchical_{tiles}t"
        metrics[f"{prefix}_critical_path_mcycles"] = round(
            record["modeled_mcycles"], 3)
        metrics[f"{prefix}_stitch_mcycles"] = round(
            record["step_mcycles"]["stitch"], 3)
        metrics[f"{prefix}_solve_wall_seconds"] = round(
            record["solve_seconds_total"], 2)
        metrics[f"geometry_{tiles}t_cached_mib"] = round(
            measured["cached_mib"], 1)
        metrics[f"geometry_{tiles}t_peak_block_mib"] = round(
            measured["peak_block_mib"], 1)
        metrics[f"geometry_{tiles}t_dense_matrices"] = stats.dense_matrices
        metrics[f"geometry_{tiles}t_lazy_rows"] = stats.lazy_rows

    if RUN_XL:
        # The headline memory target: what the 16384-tile solve retains
        # is at most ~10% of the dense matrix trio it replaced.
        assert points[XL_TILES]["dense_ratio"] <= 0.10

    emit(format_table(
        ["tiles", "apps", "critical Mcyc", "stitch Mcyc", "solve s",
         "cached MiB", "peak block MiB", "of dense"],
        rows,
        title=f"Hierarchical scale points "
              f"(interval {interval:.0f} Mcyc"
              f"{'' if RUN_XL else '; REPRO_BENCH_XL=1 adds 16384t'})",
    ))

    record_bench_entry({
        "bench": "bench_solver_scale_points",
        "chip": "4096-tile (64x64)"
                + (" and 16384-tile (128x128)" if RUN_XL else "")
                + " meshes, scaled_mesh_config, hierarchical strategy",
        "recorded": date.today().isoformat(),
        "host": f"{platform.system()}-{platform.machine()}"
                f"-{os.cpu_count()}cpu",
        "metrics": metrics,
        "notes": "PR 7 acceptance record: hierarchical critical path "
                 "(slowest leaf + per-level anytime stitches, "
                 "STITCH_OPS_BUDGET capped) vs the 50 Mcycle interval, "
                 "with the lazy-geometry allocation account for the same "
                 "solve. *_mcycles and *_mib metrics are deterministic "
                 "and gate on any machine; *_seconds gate on matching "
                 "hosts only.",
    })
