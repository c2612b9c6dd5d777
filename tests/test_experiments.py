"""Experiment harnesses (repro.experiments) — smoke + shape checks.

Off-registry inputs (the 4x4 chip, shorter monitor streams, a coarser
trace scale) go through the public job builders and a plain runner.
"""

import pytest

from repro.api import Session
from repro.config import small_test_config
from repro.experiments import (
    PROTOCOLS,
    format_breakdown,
    format_series,
    format_table,
    monitor_jobs,
    period_sweep_from_traces,
    reconfig_trace_jobs,
    reduce_sweep_records,
    run_case_study,
    run_reconfig_trace,
    run_table3,
    sweep_jobs,
)
from repro.runner import ProcessPoolRunner
from repro.util.units import mb
from repro.workloads.profiles import get_profile


@pytest.mark.slow
def test_case_study_table1_shape():
    result = run_case_study()
    rows = result.table1()
    assert [r[0] for r in rows] == ["R-NUCA", "Jigsaw+C", "Jigsaw+R", "CDCS"]
    ws = {r[0]: r[4] for r in rows}
    assert ws["CDCS"] > ws["Jigsaw+R"] > ws["R-NUCA"]
    omnet = {r[0]: r[1] for r in rows}
    assert omnet["CDCS"] > 3.0  # paper: 4.00x
    assert omnet["CDCS"] >= omnet["Jigsaw+C"]


@pytest.mark.slow
def test_case_study_chip_map_renders():
    from repro.experiments import render_chip_map

    result = run_case_study()
    art = render_chip_map(result, "CDCS")
    assert "CDCS" in art
    assert art.count("\n") == result.config.mesh_height


def _small_sweep(n_apps, n_mixes, multithreaded=False):
    jobs = sweep_jobs(
        small_test_config(4, 4), n_apps, n_mixes, seed=7,
        multithreaded=multithreaded,
    )
    return reduce_sweep_records(ProcessPoolRunner().map(jobs), n_apps, n_mixes)


def test_sweep_small():
    result = _small_sweep(n_apps=4, n_mixes=3)
    assert result.n_mixes == 3
    for scheme in ("CDCS", "Jigsaw+R", "Jigsaw+C", "R-NUCA"):
        assert len(result.speedups[scheme]) == 3
        assert result.gmean_speedup(scheme) > 0
    cdf = result.speedup_cdf("CDCS")
    assert cdf == sorted(cdf, reverse=True)
    assert set(result.mean_traffic("CDCS")) == {"L2-LLC", "LLC-Mem", "Other"}
    assert result.mean_energy("CDCS")["Static"] > 0


def test_sweep_multithreaded_small():
    result = _small_sweep(n_apps=2, n_mixes=2, multithreaded=True)
    assert len(result.speedups["CDCS"]) == 2


def test_factor_analysis_labels_and_values():
    result = Session().run("fig12", mixes=1).result
    assert set(result) == {64, 4}
    for n_apps, ladder in result.items():
        assert ladder.n_apps == n_apps
        gmeans = ladder.gmeans()
        assert set(gmeans) == {"Jigsaw+R", "+L", "+T", "+D", "+LTD"}
        assert all(v > 0 for v in gmeans.values())


def test_table3_scaling_shape():
    rows = run_table3(seed=3, repeats=1)
    by_point = {(r.threads, r.cores): r for r in rows}
    assert set(by_point) == {(16, 16), (16, 64), (64, 64)}
    # Table 3: runtime grows with both thread count and tile count.
    assert (
        by_point[(64, 64)].total_mcycles > by_point[(16, 64)].total_mcycles
    )
    assert (
        by_point[(16, 64)].total_mcycles > by_point[(16, 16)].total_mcycles
    )
    # Overhead at 25 ms stays small (paper: 0.2% at 64/64).
    assert by_point[(64, 64)].overhead_percent(25.0) < 5.0


def test_monitor_comparison_gmon_competitive():
    results = ProcessPoolRunner().map(
        monitor_jobs(get_profile("astar"), llc_bytes=mb(32), accesses=30_000)
    )
    by_kind = {(r.monitor_kind, r.ways): r for r in results}
    gmon = by_kind[("GMON", 64)]
    umon_256 = by_kind[("UMON", 256)]
    umon_64 = by_kind[("UMON", 64)]
    # GMON-64 should be close to UMON-256 at small sizes and much better
    # than UMON-64 overall resolution-wise (Sec VI-C).
    assert gmon.small_size_error <= umon_64.small_size_error + 0.05
    assert gmon.mean_abs_error <= umon_256.mean_abs_error + 0.15


@pytest.mark.slow
def test_reconfig_trace_fig17_shape():
    traces = {
        name: run_reconfig_trace(
            name, reconfig_at=200_000, horizon=500_000, capacity_scale=32
        )
        for name in ("instant", "bulk-inv", "background-inv")
    }
    bulk = traces["bulk-inv"]
    background = traces["background-inv"]
    instant = traces["instant"]
    # Fig 17: bulk pauses the chip; background and instant stay smooth.
    assert bulk.ipc_during < 0.7 * bulk.ipc_before
    assert background.ipc_during > 0.75 * background.ipc_before
    assert instant.ipc_during > 0.75 * instant.ipc_before


@pytest.mark.slow
def test_period_sweep_fig18_shape():
    traces = ProcessPoolRunner().map(reconfig_trace_jobs(capacity_scale=32))
    result = period_sweep_from_traces(dict(zip(PROTOCOLS, traces)), 1.46)
    for period, by_proto in result.speedups.items():
        # Instant is the ceiling; bulk pays the most (Fig 18).
        assert by_proto["instant"] >= by_proto["background-inv"] - 1e-9
        assert by_proto["background-inv"] >= by_proto["bulk-inv"] - 1e-9
    periods = sorted(result.speedups)
    # Penalties amortize away as the period grows.
    assert (
        result.speedups[periods[-1]]["bulk-inv"]
        >= result.speedups[periods[0]]["bulk-inv"]
    )


def test_report_formatting():
    table = format_table(["a", "b"], [["x", 1.5]], title="T")
    assert "T" in table and "x" in table and "1.500" in table
    series = format_series("s", [(1, 2.0), (2, 3.0)])
    assert series.startswith("s:")
    assert "1=2.000" in series
    assert "Static" in format_breakdown("e", {"Static": 1.0})
