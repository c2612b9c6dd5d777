"""Diff a BENCH.json against a baseline; fail on perf/memory regressions.

``benchmarks/BENCH.json`` is an append-only history of benchmark entries
(each with a ``bench`` name and nested numeric metrics).  CI runs the
solver benchmark (``make bench-solver``), which appends a fresh entry,
then calls this tool to compare it against the committed baseline::

    cp benchmarks/BENCH.json /tmp/baseline.json   # before the bench run
    make bench-solver
    python tools/bench_compare.py --baseline /tmp/baseline.json

Without ``--baseline``, the candidate file is compared against itself:
the latest entry per bench name vs the previous entry of the same name
(useful locally, where the committed entry is still in the file).

Five metric classes gate, all at ``--max-regression`` (default 25%):

* **wall-clock** — numeric leaves whose key path contains ``second``
  (e.g. ``solve_wall_seconds.full_phased``).  Wall time is machine
  relative, so these only gate when both entries carry the same ``host``
  fingerprint (recorded by the bench); a baseline from a different
  machine is reported, not gated — otherwise a slower CI runner would
  fail builds with zero code change.  Values below ``--min-seconds`` are
  ignored (timer noise dominates sub-10ms measurements).
* **modeled cycles** — leaves whose path contains ``mcycles``.  These
  are deterministic op counts, identical on any machine, so they gate
  unconditionally: a >25% growth is an algorithmic regression, not skew.
* **peak memory** — leaves whose path contains ``mib`` (the lazy-geometry
  allocation account, e.g. ``geometry_16384t_cached_mib``).  Allocation
  sizes are as deterministic as op counts, so these also gate
  unconditionally: a growing footprint means some path started
  materializing geometry it previously left lazy.
* **throughput** — leaves whose path contains ``jobs_per_sec`` (the
  runner throughput bench).  Higher is better, so the gate is inverted:
  a candidate *below* ``baseline * (1 - max_regression)`` fails.  Like
  wall clock, throughput is machine relative and only gates on a
  matching ``host`` fingerprint.
* **telemetry bytes** — leaves whose path contains ``bytes_per_epoch``
  (the sketch-telemetry bench).  Message sizes are deterministic
  functions of the workload, so these gate unconditionally, lower is
  better: growth means the delta stream started shipping payloads it
  previously elided.

Metrics absent from either side are reported but never fail (benches
grow metrics over time).  Every other numeric leaf (speedup ratios,
IPCs, hop counts, ...) is not gated; one ``ungated:`` line per compared
bench names them, so a metric no gate covers is visible, not silent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_CANDIDATE = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH.json"


def numeric_leaves(obj, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to {dotted.path: value} for numeric leaves."""
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(numeric_leaves(value, path))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def latest_entries(path: Path) -> dict[str, list[dict]]:
    """bench name -> entries in file order (oldest first)."""
    data = json.loads(path.read_text())
    grouped: dict[str, list[dict]] = {}
    for entry in data.get("entries", []):
        name = entry.get("bench")
        if name:
            grouped.setdefault(name, []).append(entry)
    return grouped


def wall_metrics(entry: dict) -> dict[str, float]:
    """Machine-relative wall time: leaves whose path mentions seconds."""
    return {
        path: value
        for path, value in numeric_leaves(entry).items()
        if "second" in path.lower()
    }


def throughput_metrics(entry: dict) -> dict[str, float]:
    """Machine-relative throughput: leaves mentioning jobs_per_sec."""
    return {
        path: value
        for path, value in numeric_leaves(entry).items()
        if "jobs_per_sec" in path.lower()
    }


def mcycle_metrics(entry: dict) -> dict[str, float]:
    """Machine-independent modeled cycles: leaves mentioning mcycles."""
    return {
        path: value
        for path, value in numeric_leaves(entry).items()
        if "mcycle" in path.lower()
    }


def telemetry_metrics(entry: dict) -> dict[str, float]:
    """Machine-independent message sizes: leaves mentioning bytes_per_epoch."""
    return {
        path: value
        for path, value in numeric_leaves(entry).items()
        if "bytes_per_epoch" in path.lower()
    }


def memory_metrics(entry: dict) -> dict[str, float]:
    """Machine-independent allocation sizes: leaves mentioning mib."""
    return {
        path: value
        for path, value in numeric_leaves(entry).items()
        if "mib" in path.lower()
    }


def ungated_metrics(entry: dict) -> list[str]:
    """Numeric leaves that none of the five metric classes gates."""
    gated: set[str] = set()
    for metrics in (
        wall_metrics, throughput_metrics, mcycle_metrics,
        telemetry_metrics, memory_metrics,
    ):
        gated.update(metrics(entry))
    return sorted(set(numeric_leaves(entry)) - gated)


def _gate(
    candidate: dict[str, float],
    baseline: dict[str, float],
    max_regression: float,
    unit: str,
    noise_floor: float = 0.0,
    higher_is_better: bool = False,
) -> list[str]:
    problems = []
    for path, value in sorted(candidate.items()):
        reference = baseline.get(path)
        if reference is None:
            print(f"  new metric {path} = {value:.4f}{unit} (no baseline)")
            continue
        if reference < noise_floor and value < noise_floor:
            continue  # both under the noise floor
        if higher_is_better:
            limit = reference * (1.0 - max_regression)
            failed = value < limit
            limit_text = f"-{max_regression:.0%}"
        else:
            limit = reference * (1.0 + max_regression)
            failed = value > limit
            limit_text = f"+{max_regression:.0%}"
        ratio = value / reference if reference > 0 else float("inf")
        status = "FAIL" if failed else "ok"
        print(
            f"  {path}: {reference:.4f}{unit} -> {value:.4f}{unit} "
            f"({ratio:.0%} of baseline) [{status}]"
        )
        if failed:
            problems.append(
                f"{path} regressed {ratio - 1.0:+.0%} "
                f"({reference:.4f}{unit} -> {value:.4f}{unit}, limit "
                f"{limit_text})"
            )
    return problems


def compare(
    candidate: dict,
    baseline: dict,
    max_regression: float,
    min_seconds: float,
) -> list[str]:
    """Regression messages for one (candidate, baseline) entry pair."""
    problems = _gate(
        mcycle_metrics(candidate), mcycle_metrics(baseline),
        max_regression, " Mcyc",
    )
    problems += _gate(
        memory_metrics(candidate), memory_metrics(baseline),
        max_regression, " MiB",
    )
    problems += _gate(
        telemetry_metrics(candidate), telemetry_metrics(baseline),
        max_regression, " B/epoch",
    )
    base_host = baseline.get("host")
    cand_host = candidate.get("host")
    if base_host == cand_host:
        problems += _gate(
            wall_metrics(candidate), wall_metrics(baseline),
            max_regression, "s", noise_floor=min_seconds,
        )
        problems += _gate(
            throughput_metrics(candidate), throughput_metrics(baseline),
            max_regression, " jobs/s", higher_is_better=True,
        )
    else:
        print(
            f"  host differs ({base_host!r} -> {cand_host!r}): "
            f"wall-clock/throughput metrics reported, not gated"
        )
        _gate(
            wall_metrics(candidate), wall_metrics(baseline),
            float("inf"), "s", noise_floor=min_seconds,
        )
        _gate(
            throughput_metrics(candidate), throughput_metrics(baseline),
            float("inf"), " jobs/s", higher_is_better=True,
        )
    print(f"  ungated: {', '.join(ungated_metrics(candidate)) or 'none'}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on >N%% wall-clock, modeled-cycle, or "
                    "peak-memory regressions between BENCH.json entries.",
    )
    parser.add_argument(
        "--candidate", type=Path, default=DEFAULT_CANDIDATE,
        help="BENCH.json holding the fresh entries (default: the repo's)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline BENCH.json; omitted = previous entry of the same "
             "bench inside the candidate file",
    )
    parser.add_argument(
        "--bench", default=None,
        help="only gate this bench name (default: every name present)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional wall-clock growth (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.01,
        help="ignore metrics where both sides are below this (noise floor)",
    )
    args = parser.parse_args(argv)

    candidate_groups = latest_entries(args.candidate)
    if args.bench is not None:
        candidate_groups = {
            name: entries
            for name, entries in candidate_groups.items()
            if name == args.bench
        }
        if not candidate_groups:
            print(f"bench-compare: no entries named {args.bench!r} in "
                  f"{args.candidate}", file=sys.stderr)
            return 1

    baseline_groups = (
        latest_entries(args.baseline) if args.baseline is not None else None
    )
    problems: list[str] = []
    compared = 0
    for name, entries in sorted(candidate_groups.items()):
        if baseline_groups is not None:
            base_entries = baseline_groups.get(name, [])
            if not base_entries:
                print(f"{name}: no baseline entry — skipping")
                continue
            baseline_entry = base_entries[-1]
            candidate_entry = entries[-1]
            if baseline_entry == candidate_entry:
                # The bench did not run since the baseline was copied;
                # nothing new to gate.
                print(f"{name}: candidate identical to baseline — skipping")
                continue
        else:
            if len(entries) < 2:
                print(f"{name}: only one entry — skipping")
                continue
            baseline_entry, candidate_entry = entries[-2], entries[-1]
        print(f"{name} ({baseline_entry.get('recorded', '?')} -> "
              f"{candidate_entry.get('recorded', '?')}):")
        problems += compare(
            candidate_entry, baseline_entry,
            args.max_regression, args.min_seconds,
        )
        compared += 1

    if problems:
        print(f"bench-compare: {len(problems)} regression(s)",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"bench-compare: OK ({compared} bench(es) gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
