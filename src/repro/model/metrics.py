"""Cross-scheme metrics: weighted speedup, gmeans, normalized aggregates.

The paper reports weighted speedup over the S-NUCA baseline
(``WS = (1/P) sum_p perf_p / perf_p^S-NUCA``, Sec V) and normalizes latency,
traffic and energy aggregates to CDCS (Fig 11).  These helpers operate on
:class:`MixEvaluation` objects from the analytic engine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.model.system import MixEvaluation
from repro.util.sums import ordered_sums


def weighted_speedup(
    evaluation: MixEvaluation,
    baseline: MixEvaluation,
    alone_perf: dict[int, float] | None = None,
) -> float:
    """Weighted speedup over the baseline evaluation (same mix).

    The paper follows UCP [52] / Snavely-Tullsen [55]: a scheme's weighted
    speedup is ``(1/P) sum_p perf_p / perf_p^alone`` (each process
    normalized by its *alone* performance on the chip), and the reported
    number is the scheme's WS divided by S-NUCA's WS.  *alone_perf* maps
    process_id -> alone performance; without it this degrades to the plain
    mean of per-process ratios (equal weighting).
    """
    if evaluation.process_perf.keys() != baseline.process_perf.keys():
        raise ValueError("evaluations are not for the same mix")
    if alone_perf is None:
        ratios = [
            evaluation.process_perf[pid] / baseline.process_perf[pid]
            for pid in evaluation.process_perf
        ]
        return float(ordered_sums(ratios)) / len(ratios)
    ws_eval = ordered_sums([
        evaluation.process_perf[pid] / alone_perf[pid]
        for pid in evaluation.process_perf
    ])
    ws_base = ordered_sums([
        baseline.process_perf[pid] / alone_perf[pid]
        for pid in baseline.process_perf
    ])
    return float(ws_eval / ws_base)


def per_process_speedups(
    evaluation: MixEvaluation, baseline: MixEvaluation
) -> dict[int, float]:
    return {
        pid: evaluation.process_perf[pid] / baseline.process_perf[pid]
        for pid in evaluation.process_perf
    }


def per_app_speedups(
    evaluation: MixEvaluation, baseline: MixEvaluation
) -> dict[str, float]:
    """Geometric-mean speedup per distinct app name in the mix."""
    groups: dict[str, list[float]] = {}
    speedups = per_process_speedups(evaluation, baseline)
    for pid, ratio in speedups.items():
        groups.setdefault(evaluation.process_app[pid], []).append(ratio)
    return {app: gmean(vals) for app, vals in groups.items()}


def gmean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        raise ValueError("gmean of no values")
    if any(v <= 0 for v in vals):
        raise ValueError("gmean requires positive values")
    return math.exp(float(ordered_sums([math.log(v) for v in vals])) / len(vals))


def inverse_cdf(values: Sequence[float]) -> list[float]:
    """Values sorted descending — the paper's Fig 11a presentation (each
    scheme's speedups sorted along the x axis by improvement)."""
    return sorted(values, reverse=True)


def normalize_to(
    per_scheme: dict[str, float], reference: str
) -> dict[str, float]:
    """Normalize a {scheme: value} dict to the reference scheme's value."""
    ref = per_scheme[reference]
    if ref == 0:
        raise ValueError(f"reference {reference} has zero value")
    return {scheme: v / ref for scheme, v in per_scheme.items()}
