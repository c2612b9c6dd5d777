"""Programmatic facade over the experiment registry: :class:`Session`.

A session owns one configured :class:`repro.runner.ProcessPoolRunner`
(worker count, content-hashed result cache, progress callback) and runs
any registered :class:`~repro.experiments.spec.ExperimentSpec` through
it, returning typed :class:`~repro.experiments.results.RunRecord`
results.  This is the entry point external tooling — and any future
service endpoint — builds on; the CLI (``python -m repro run <name>``)
is a thin shell around it.

Example::

    from repro.api import Session

    session = Session(jobs=4, cache_dir=".repro-cache")
    record = session.run("fig14", mixes=2)
    print(record.tables[0].rows)          # typed rows, not print-only
    sweep = record.result                 # the rich SweepResult object

Cross-experiment batches share the session's runner, so their combined
job lists fan out (and cache) together::

    fig14, gmon = session.run_batch([
        ("fig14", {"mixes": 2}),
        ("gmon", {}),
    ])
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.results import RunRecord
from repro.experiments.spec import ExperimentSpec, get_spec
from repro.runner import MegaBatchRunner, NullStore, ResultStore, RunnerStats


class Session:
    """Runs registered experiments through one shared runner/cache.

    *jobs* is the worker-process count (1 = in-process, still cached);
    *cache_dir* enables the content-hashed result cache (``None`` — the
    default — disables caching); *progress* is forwarded to the runner
    and called with cumulative :class:`~repro.runner.RunnerStats` after
    every job.

    The session's runner is a :class:`~repro.runner.MegaBatchRunner`:
    sweep jobs that share a chip digest are stacked into mega-batch
    kernel passes (bitwise-identical per mix) over a persistent worker
    pool.  Call :meth:`close` (or use the session as a context manager)
    to release the pool; one left open is reaped at exit.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        progress: Callable[[RunnerStats], None] | None = None,
    ):
        store = NullStore() if cache_dir is None else ResultStore(cache_dir)
        self.runner = MegaBatchRunner(
            jobs=jobs, store=store, progress=progress
        )

    @property
    def stats(self) -> RunnerStats:
        """Cumulative job counters over the session's lifetime."""
        return self.runner.stats

    def close(self) -> None:
        """Release the persistent worker pool."""
        self.runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, name: str, /, **overrides: Any) -> RunRecord:
        """Run one registered experiment; returns its typed record.

        *overrides* are the spec's parameters (``mixes=2``, ``seed=7``,
        ...); unknown names raise ``ValueError``.  The record's
        ``result`` attribute holds the experiment's rich result object
        (e.g. a :class:`~repro.experiments.sweeps.SweepResult`).
        """
        return self.run_batch([(name, overrides)])[0]

    def run_batch(
        self, requests: Sequence[tuple[str, Mapping[str, Any]]]
    ) -> list[RunRecord]:
        """Run several experiments as one combined job fan-out.

        All requests' jobs are submitted through the session's runner in
        a single ``map`` call, so they parallelize across experiments
        (not just within one) and share the cache; each request is then
        reduced and presented independently, in request order.
        """
        resolved: list[tuple[ExperimentSpec, dict[str, Any], int]] = []
        all_jobs = []
        for name, overrides in requests:
            spec = get_spec(name)
            params = spec.resolve(overrides)
            jobs = spec.build_jobs(params)
            resolved.append((spec, params, len(jobs)))
            all_jobs.extend(jobs)
        payloads = self.runner.map(all_jobs)
        records: list[RunRecord] = []
        start = 0
        for spec, params, n_jobs in resolved:
            chunk = payloads[start:start + n_jobs]
            start += n_jobs
            result = spec.reduce(chunk, params)
            records.append(
                replace(spec.present(result, params), result=result)
            )
        return records
