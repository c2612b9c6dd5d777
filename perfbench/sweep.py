"""The sweep workload: repeated ``fig11`` requests through one Session.

A request is ``Session(jobs=1).run("fig11", mixes=MIXES, seed=s)`` with
the result store off: ``MIXES`` random 64-app single-threaded mixes on
the 64-tile paper chip, every mix under all five schemes through the
mega-batch runner.  Each request gets its own seed, so no process-wide
memo sees an input twice.

Deterministic outputs come from the first ``WINDOW`` requests: the CDCS
gmean weighted speedup from the sweep itself, and CDCS's modeled
reconfiguration Mcycles and aggregate IPC from re-running its per-mix
path (``Cdcs.run`` + ``AnalyticSystem.evaluate_solution``) on the same
mixes after the timed loop.  The traced run times the runner's three
phases separately and every scheme's per-mix path.

The host-speed kernel (:mod:`hostspeed`) runs between requests, and
each request's latency is scaled to the reference speed by the readings
on either side of it; ``mixes_per_s`` divides by the sum of those
scaled latencies.
"""

from __future__ import annotations

import math
import time

import repro.__main__  # noqa: F401  (the CLI import is part of set-up)
from repro.api import Session
from repro.config import default_config
from repro.experiments.spec import get_spec
from repro.model.metrics import gmean
from repro.model.system import AnalyticSystem
from repro.nuca import SCHEMES, build_problem, standard_schemes
from repro.workloads.mixes import random_single_threaded_mix

from common import CheckFailed, mean, peak_rss_mib, percentile
from hostspeed import SpeedTrace

EXPERIMENT = "fig11"
APPS = 64
MIXES = 4
WINDOW = 4
#: The self-test's scaled-down requests.
TOY_MIXES = 2
TOY_WINDOW = 1

#: Scheme name -> per-layer metric key.
SCHEME_KEYS = {
    "S-NUCA": "snuca",
    "R-NUCA": "rnuca",
    "Jigsaw+C": "jigsaw_c",
    "Jigsaw+R": "jigsaw_r",
    "CDCS": "cdcs",
}


def request_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def traced_request(session: Session, params: dict, phases: dict):
    """``Session.run`` with its three runner phases timed apart."""
    spec = get_spec(EXPERIMENT)
    params = spec.resolve(params)
    t0 = time.perf_counter()
    jobs = spec.build_jobs(params)
    t1 = time.perf_counter()
    payloads = session.runner.map(jobs)
    t2 = time.perf_counter()
    result = spec.reduce(payloads, params)
    t3 = time.perf_counter()
    spec.present(result, params)
    phases["build_jobs"].append(t1 - t0)
    phases["map"].append(t2 - t1)
    phases["reduce"].append(t3 - t2)
    return result


def check_ordering(pooled: dict[str, list[float]]) -> None:
    """The paper's ordering of gmean weighted speedups."""
    gmeans = [gmean(pooled[name]) for name in SCHEMES]
    if not all(a < b for a, b in zip(gmeans, gmeans[1:])):
        raise CheckFailed(
            "gmean weighted speedups break CDCS > Jigsaw+R > Jigsaw+C > "
            f"R-NUCA: {dict(zip(SCHEMES, gmeans))}"
        )


def per_mix_path(seeds: list[int], mixes: int, trace: bool):
    """Re-run the window's mixes through the per-mix path.

    Returns CDCS's (modeled Mcycles, aggregate IPC) per mix and, when
    traced, the wall time of every scheme's ``run`` and of each
    evaluation.
    """
    config = default_config()
    system = AnalyticSystem(config)
    cdcs, scheme_s, evaluate_s = [], {k: [] for k in SCHEME_KEYS}, []
    for seed in seeds:
        for mix_id in range(mixes):
            mix = random_single_threaded_mix(APPS, seed, mix_id)
            problem = build_problem(mix, config)
            for scheme in standard_schemes(mix_id):
                if not trace and scheme.name != "CDCS":
                    continue
                t0 = time.perf_counter()
                result = scheme.run(problem)
                t1 = time.perf_counter()
                evaluation = system.evaluate_solution(mix, problem, result)
                t2 = time.perf_counter()
                scheme_s[scheme.name].append(t1 - t0)
                evaluate_s.append(t2 - t1)
                if scheme.name == "CDCS":
                    cdcs.append((
                        sum(result.step_cycles.values()) / 1e6,
                        sum(t.ipc for t in evaluation.threads),
                    ))
    return cdcs, scheme_s, evaluate_s


def run(
    name: str, seed: int, seconds: float, trace: bool, toy: bool, on_ready
) -> dict | None:
    mixes, window = (TOY_MIXES, TOY_WINDOW) if toy else (MIXES, WINDOW)
    session = Session(jobs=1)
    try:
        on_ready()
        if seconds < 0:
            return None
        phases = {"build_jobs": [], "map": [], "reduce": []}
        intervals, results = [], []
        speed = SpeedTrace()
        deadline = time.perf_counter() + seconds
        while len(results) < window or time.perf_counter() < deadline:
            params = {
                "mixes": mixes, "seed": request_seed(seed, len(results)),
            }
            # Every request sits between two readings of the host's speed.
            speed.mark()
            t0 = time.perf_counter()
            if trace:
                result = traced_request(session, params, phases)
            else:
                result = session.run(EXPERIMENT, **params).result
            intervals.append((t0, time.perf_counter()))
            for scheme in SCHEMES:
                if len(result.speedups.get(scheme, ())) != mixes:
                    raise CheckFailed(
                        f"request {len(results)}: {scheme} has "
                        f"{len(result.speedups.get(scheme, ()))} of "
                        f"{mixes} mixes"
                    )
            results.append(result)
            if len(results) == window:
                window_rss_mib = peak_rss_mib()
        speed.mark()
        stats = session.stats
    finally:
        session.close()
    if stats.completed != stats.submitted:
        raise CheckFailed(
            f"{stats.completed} of {stats.submitted} jobs completed"
        )
    pooled = {
        scheme: [ws for r in results[:window] for ws in r.speedups[scheme]]
        for scheme in SCHEMES
    }
    check_ordering(pooled)
    seeds = [request_seed(seed, i) for i in range(window)]
    cdcs, scheme_s, evaluate_s = per_mix_path(seeds, mixes, trace)
    latencies_ms = [1e3 * speed.reference_s(*span) for span in intervals]
    mixes_per_s = mixes * len(results) / (1e-3 * math.fsum(latencies_ms))
    metrics = {
        "req_p50_ms": percentile(latencies_ms, 0.50),
        "req_p90_ms": percentile(latencies_ms, 0.90),
        # One (mix, scheme) placement and evaluation is one epoch.
        "epochs_per_s": len(SCHEME_KEYS) * mixes_per_s,
        "mixes_per_s": mixes_per_s,
        "ok_frac": stats.completed / stats.submitted,
        "modeled_mcycles_mean": mean([m for m, _ in cdcs]),
        "modeled_mcycles_max": max(m for m, _ in cdcs),
        "aggregate_ipc": mean([ipc for _, ipc in cdcs]),
        "cdcs_gmean_ws": gmean(pooled["CDCS"]),
        "peak_rss_mib": window_rss_mib,
    }
    if trace:
        metrics.update({
            "bench.requests": len(results),
            "bench.host_scale": speed.host_scale(),
            "runner.build_jobs_s": mean(phases["build_jobs"]),
            "runner.map_s": mean(phases["map"]),
            "runner.reduce_s": mean(phases["reduce"]),
            "runner.executed": stats.executed,
            "runner.cached": stats.cached,
            "model.evaluate_ms": 1e3 * mean(evaluate_s),
            "trace.epochs_per_s": metrics["epochs_per_s"],
            "trace.mixes_per_s": mixes_per_s,
        })
        for scheme, key in SCHEME_KEYS.items():
            metrics[f"nuca.{key}_ms"] = 1e3 * mean(scheme_s[scheme])
    return {
        "metrics": metrics,
        "attempted": stats.submitted,
        "failed": stats.submitted - stats.completed,
        "requests": len(results),
        "replies": [[r.speedups[s] for s in SCHEMES] for r in results],
    }
