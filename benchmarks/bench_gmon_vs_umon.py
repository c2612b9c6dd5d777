"""Sec IV-G / VI-C: GMON vs UMON monitoring quality.

Paper claims: a conventional UMON needs 512 ways for 64 KB grain on 32 MB;
1K-line 64-way GMONs match the performance of 256-way UMONs; 64-way UMONs
lose ~3% from poor resolution.
"""

from conftest import emit

from repro.cache.monitor import required_umon_ways
from repro.experiments import format_table, monitor_jobs
from repro.util.units import kb, mb
from repro.workloads import get_profile

APPS = ("astar", "omnet", "gcc")


def run(session):
    # The gmon spec drives 60,000 accesses per stream; this driver's
    # shorter streams go through the public builder.
    return {
        app: session.runner.map(
            monitor_jobs(get_profile(app), llc_bytes=mb(32), accesses=40_000)
        )
        for app in APPS
    }


def test_gmon_vs_umon(once, session):
    assert required_umon_ways(mb(32), kb(64)) == 512  # the Sec IV-G example
    results = once(run, session)
    rows = []
    for app, accs in results.items():
        for acc in accs:
            rows.append(
                (app, f"{acc.monitor_kind}-{acc.ways}",
                 acc.mean_abs_error, acc.small_size_error)
            )
    emit(format_table(
        ["App", "Monitor", "miss-ratio MAE", "small-size MAE"], rows,
        title="GMON vs UMON: monitored-curve error vs ground truth",
    ))
    for app, accs in results.items():
        by = {f"{a.monitor_kind}-{a.ways}": a for a in accs}
        gmon = by["GMON-64"]
        umon64 = by["UMON-64"]
        umon256 = by["UMON-256"]
        # GMON-64 matches UMON-256-class accuracy at small sizes, where
        # allocation decisions live, and beats UMON-64's resolution there.
        assert gmon.small_size_error <= umon64.small_size_error + 0.05, app
        assert gmon.small_size_error <= umon256.small_size_error + 0.10, app
