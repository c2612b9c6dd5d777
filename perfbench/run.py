"""End-to-end benchmark of the CDCS placement service and the sweep path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh interpreter
(``perfbench/workload.py``), so no process-wide cache is warm when it
starts.  With ``--trace 0`` the run prints every end-to-end metric; set-up
time is the median of several fresh interpreters set up back to back.
Every end-to-end time is scaled to a reference host speed, read from a
fixed kernel timed between units of work (``perfbench/hostspeed.py``).
With ``--trace 1`` the workload runs with timing wrappers around each
layer and the run prints every per-layer metric instead.  A failed output
check exits non-zero and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SpeedTrace
from metrics import UNITS, WORKLOAD_NAMES, expected_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Set-up-only interpreters per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Fresh interpreters timing ``import repro.__main__`` per traced run.
IMPORT_PROBES = 3
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150

IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import repro.__main__\n"
    "elapsed = time.perf_counter() - t0\n"
    "print(elapsed, sum(m in sys.modules for m in ('scipy', 'networkx')))\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Two solver threads already share the two cores; keep BLAS serial.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], timeout: float) -> tuple[float, str]:
    """Run a fresh interpreter; returns (spawn time, last stdout line)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} exceeded {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}")
    return t_spawn, lines[-1]


def run_workload(args, extra: list[str], timeout: float) -> tuple[float, dict]:
    argv = [
        str(BENCH_DIR / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *(["--toy"] if args.toy else []),
        *extra,
    ]
    t_spawn, line = run_child(argv, timeout)
    out = json.loads(line)
    return out["ready_at"] - t_spawn, out


def setup_probes(args) -> float:
    """Median set-up time of fresh interpreters, each scaled to the
    reference host speed by kernel readings taken just before and after
    it (this process is idle while the child runs)."""
    speed = SpeedTrace()
    setups = []
    for _ in range(SETUP_PROBES):
        speed.mark()
        setup_s, _ = run_workload(args, ["--setup-only"], SETUP_TIMEOUT_S)
        t_ready = time.perf_counter()
        speed.mark()
        setups.append(setup_s * speed.scale(t_ready - setup_s, t_ready))
    return statistics.median(setups)


def import_probes() -> dict[str, float]:
    times, heavy = [], []
    for _ in range(IMPORT_PROBES):
        _, line = run_child(["-c", IMPORT_PROBE], SETUP_TIMEOUT_S)
        elapsed, count = line.split()
        times.append(float(elapsed))
        heavy.append(int(count))
    return {
        "import.repro_main_s": statistics.median(times),
        "import.heavy_modules": max(heavy),
    }


def complete(metrics: dict, workload: str, trace: bool) -> dict:
    """The run's metric set, in manifest order; a gap is an error."""
    expected = expected_metrics(trace)
    missing = [name for name in expected if name not in metrics]
    if missing:
        raise BenchError(f"{workload} did not report {missing}")
    return {name: metrics[name] for name in expected}


def measure(args) -> tuple[int, dict, dict]:
    """Run the workload; returns (requests timed, result line, and the
    measured metrics of the other kind, which the result line omits)."""
    if args.trace:
        _, out = run_workload(args, [], RUN_TIMEOUT_S)
        metrics = {**out["metrics"], **import_probes()}
    else:
        metrics = {"setup_s": setup_probes(args)}
        _, out = run_workload(args, [], RUN_TIMEOUT_S)
        metrics.update(out["metrics"])
    emitted = complete(metrics, args.workload, bool(args.trace))
    others = {
        name: value for name, value in metrics.items()
        if name in UNITS and name not in emitted
    }
    return out["requests"], {
        "correct": True,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in emitted.items()
        },
    }, others


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="scaled-down chips and requests (the self-test's size)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        requests, result, others = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"# workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"requests={requests} attempted={result['attempted']}"
    )
    for name, metric in result["metrics"].items():
        print(f"#   {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in others.items():
        print(f"#   {name:32s} {value:>14.6g} {UNITS[name]} (not in the result)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
