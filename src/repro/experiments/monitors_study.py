"""GMON vs UMON study (Sec IV-G / VI-C).

Feeds synthetic address streams (with known ground-truth miss curves) to
monitors of different geometries and reports (a) curve accuracy and (b)
the capacity-allocation quality when the runtime allocates from monitored
curves instead of true ones.  The paper's claims to reproduce:

* a conventional UMON needs ~512 ways for 64 KB grain over a 32 MB LLC;
* 64-way GMONs match 256-way UMONs; 64-way UMONs lose ~3%;
* huge (1K-way) UMONs beat 64-way GMONs by only ~1%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.miss_curve import MissCurve
from repro.cache.monitor import GMon, UMon
from repro.experiments.results import ResultTable, RunRecord
from repro.experiments.spec import ExperimentSpec, Param, register
from repro.runner import Job
from repro.workloads.generator import StackDistanceStream
from repro.workloads.profiles import AppProfile


@dataclass
class MonitorAccuracy:
    monitor_kind: str
    ways: int
    #: Mean absolute miss-ratio error against ground truth, over the
    #: capacity range [0, coverage].
    mean_abs_error: float
    #: Error at small sizes only (the first 1/8th) — where fine resolution
    #: matters for allocation.
    small_size_error: float


def monitored_curve(
    monitor: UMon, stream: StackDistanceStream, accesses: int
) -> MissCurve:
    """Drive *accesses* addresses through *monitor* and extract its curve,
    normalized to miss ratio (misses per access)."""
    for _ in range(accesses):
        monitor.access(stream.next_address())
    curve = monitor.miss_curve()
    total = max(curve.values[0], 1e-9)
    return MissCurve(curve.sizes, curve.values / total)


def curve_error(
    monitored: MissCurve, truth: MissCurve, truth_apki: float, max_size: float,
    points: int = 64,
) -> tuple[float, float]:
    """(overall, small-size) mean absolute miss-ratio error."""
    sizes = np.linspace(0.0, max_size, points + 1)[1:]
    true_ratio = np.minimum(np.asarray(truth(sizes)) / truth_apki, 1.0)
    mon_ratio = np.asarray(monitored(sizes))
    err = np.abs(true_ratio - mon_ratio)
    small = max(points // 8, 1)
    return float(err.mean()), float(err[:small].mean())


#: The geometries every comparison measures: (kind, ways).
GEOMETRIES: tuple[tuple[str, int], ...] = (
    ("UMON", 64),
    ("UMON", 256),
    ("GMON", 64),
)


def _monitor_point(
    profile: AppProfile,
    llc_bytes: float,
    kind: str,
    ways: int,
    accesses: int,
    footprint_scale: int,
    seed: int,
) -> MonitorAccuracy:
    """Job body: drive one monitor geometry over one app's stream."""
    scale = footprint_scale
    curve = profile.private_curve.scaled_sizes(1.0 / scale)
    coverage = llc_bytes / scale
    first_way = coverage / 512  # the 64 KB-grain requirement, scaled
    if kind == "GMON":
        monitor: UMon = GMon(first_way, coverage, ways=ways, seed=7)
    else:
        monitor = UMon(coverage, ways=ways, seed=7)
    stream = StackDistanceStream(curve, apki=profile.llc_apki, seed=seed)
    mon_curve = monitored_curve(monitor, stream, accesses)
    overall, small = curve_error(mon_curve, curve, profile.llc_apki, coverage)
    return MonitorAccuracy(
        monitor_kind=kind,
        ways=monitor.ways,
        mean_abs_error=overall,
        small_size_error=small,
    )


def monitor_jobs(
    profile: AppProfile,
    llc_bytes: float,
    accesses: int = 60_000,
    footprint_scale: int = 16,
    seed: int = 3,
) -> list[Job]:
    """One :class:`Job` per monitor geometry in :data:`GEOMETRIES`."""
    return [
        Job(
            fn=_monitor_point,
            kwargs=dict(
                profile=profile,
                llc_bytes=llc_bytes,
                kind=kind,
                ways=ways,
                accesses=accesses,
                footprint_scale=footprint_scale,
                seed=seed,
            ),
            seed=seed,
            label=f"monitor-{profile.name}-{kind}-{ways}",
        )
        for kind, ways in GEOMETRIES
    ]


# -- spec registry -----------------------------------------------------------


def _gmon_jobs(params: dict) -> list[Job]:
    from repro.util.units import mb
    from repro.workloads.profiles import get_profile

    return monitor_jobs(
        get_profile(params["app"]), mb(params["llc_mb"]),
        seed=params["seed"],
    )


def _gmon_reduce(records: list, params: dict) -> list[MonitorAccuracy]:
    return records


def _gmon_present(result: list[MonitorAccuracy], params: dict) -> RunRecord:
    table = ResultTable.make(
        title=f"GMON vs UMON curve accuracy ({params['app']}, "
              f"{params['llc_mb']} MB LLC)",
        headers=("monitor", "MAE", "small-size MAE"),
        rows=[
            (f"{acc.monitor_kind}-{acc.ways}", acc.mean_abs_error,
             acc.small_size_error)
            for acc in result
        ],
    )
    return RunRecord(experiment="gmon", params=params, tables=(table,))


register(ExperimentSpec(
    name="gmon",
    summary="GMON vs UMON monitor-geometry accuracy",
    figure="Sec IV-G/VI-C",
    params=(
        Param("app", "str", "astar", "profile whose stream is monitored"),
        Param("llc_mb", "int", 32, "LLC capacity in MB"),
        Param("seed", "int", 3, "address-stream RNG seed"),
    ),
    build_jobs=_gmon_jobs,
    reduce=_gmon_reduce,
    present=_gmon_present,
))
