"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and prints
the same rows/series the paper reports (values are from our simulated
substrate — see docs/REPRODUCING.md for the paper-vs-measured record).
Heavy experiments run once per benchmark (`pedantic`, one round).

Sweep-shaped benchmarks run their experiments through a
``repro.api.Session`` (the ``session`` fixture): ``session.run(name,
**params)`` for a registered experiment, ``session.runner.map(jobs)``
for a public job builder's off-registry inputs.  Two environment
variables control it:

* ``REPRO_JOBS=N`` — fan jobs out over N worker processes (default 1;
  results are identical at any N, only the wall clock changes);
* ``REPRO_CACHE_DIR=path`` — enable the content-hashed result cache, so a
  re-run recomputes only changed points.  Off by default: a cached
  benchmark's timing measures pickle loads, not simulation.

Emitted tables go to stderr *and* are appended to
``benchmarks/benchmark_results.txt`` so the regenerated figures survive
pytest's output capture.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.testing import make_session

__all__ = ["emit", "make_session", "record_bench_entry"]

RESULTS_PATH = Path(__file__).parent / "benchmark_results.txt"
BENCH_JSON = Path(__file__).parent / "BENCH.json"


def pytest_sessionstart(session):
    RESULTS_PATH.write_text("")


def emit(text: str) -> None:
    """Record one block of regenerated figure/table output."""
    print(text, file=sys.stderr)
    with RESULTS_PATH.open("a") as fh:
        fh.write(text + "\n")


def record_bench_entry(entry: dict) -> None:
    """Append *entry* to the BENCH.json history (latest last).

    Entries need a ``bench`` name; ``tools/bench_compare.py`` gates the
    latest entry per name against the baseline (``*second*`` leaves on
    matching hosts, ``*mcycle*`` leaves everywhere).
    """
    history = {"entries": []}
    if BENCH_JSON.exists():
        try:
            history = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            pass
    history.setdefault("entries", []).append(entry)
    BENCH_JSON.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def session():
    """A fresh session per benchmark (stats stay per-figure), closed at
    teardown so its worker pool does not outlive the benchmark."""
    with make_session() as session:
        yield session


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under timing."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
