"""Self-test of the benchmark at toy size (about two minutes on 2 cores).

    python3 perfbench/selftest.py

Checks, for every workload:

* a run prints every named metric of its kind, with its unit, in the
  fixed result-line format;
* the deterministic metrics read bitwise the same on a repeated run in a
  fresh interpreter, and between the traced and untraced runs;
* the timing wrappers (solve strategy, transport, runner phases) leave
  every reply bitwise equal to an unwrapped run;
* ``BENCHMARK.json`` is what ``metrics.manifest()`` renders.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from metrics import DETERMINISTIC, UNITS, WORKLOAD_NAMES, expected_metrics, manifest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--toy",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict) -> None:
    label = f"{workload} trace={trace}"
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result line has exactly its four keys",
    )
    check(
        result["correct"] is True and result["attempted"] >= 1
        and result["failed"] == 0,
        f"{label}: correct, attempted >= 1, failed == 0",
    )
    metrics = result["metrics"]
    check(
        list(metrics) == list(expected_metrics(bool(trace))),
        f"{label}: every {'per-layer' if trace else 'end-to-end'} metric",
    )
    check(
        all(m["unit"] == UNITS[name] for name, m in metrics.items()),
        f"{label}: every metric carries its unit",
    )
    check(
        all(
            isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            for m in metrics.values()
        ),
        f"{label}: every value is a finite number",
    )


def deterministic(metrics: dict) -> dict:
    return {
        name: metrics[name]["value"]
        for name in DETERMINISTIC if name in metrics
    }


def check_emission() -> None:
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            first = run_bench(workload, trace)
            check_result(workload, trace, first)
            again = run_bench(workload, trace)
            check(
                deterministic(first["metrics"])
                == deterministic(again["metrics"]),
                f"{workload} trace={trace}: deterministic metrics repeat "
                f"bitwise in a fresh interpreter",
            )


def check_wrappers() -> None:
    """Traced and untraced runs in one process: same replies, same
    deterministic metrics (the traced run computes them too)."""
    import serve
    import sweep

    for workload in WORKLOAD_NAMES:
        family = serve if workload.startswith("serve-") else sweep
        plain, traced = (
            family.run(workload, 3, 0.0, trace, True, lambda: None)
            for trace in (False, True)
        )
        check(
            plain["replies"] == traced["replies"],
            f"{workload}: timing wrappers leave every reply bitwise equal",
        )
        shared = [n for n in DETERMINISTIC if n in plain["metrics"]]
        check(
            bool(shared) and all(
                plain["metrics"][n] == traced["metrics"][n] for n in shared
            ),
            f"{workload}: deterministic metrics equal traced vs untraced "
            f"({', '.join(shared)})",
        )


def check_manifest() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(on_disk == manifest(), "BENCHMARK.json matches metrics.manifest()")


def main() -> int:
    check_manifest()
    check_wrappers()
    check_emission()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
