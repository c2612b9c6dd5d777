"""Fans jobs out across processes, with cache short-circuiting.

:class:`ProcessPoolRunner` is the execution engine behind every sweep and
figure driver: it consults its :class:`~repro.runner.store.ResultStore`
first, dispatches only the missing points (serially for ``jobs=1``,
through a ``concurrent.futures.ProcessPoolExecutor`` otherwise), persists
completed results, and reports progress after every job.  Results come back
in submission order regardless of completion order, and every job reseeds
deterministically (:meth:`repro.runner.job.Job.execute`), so worker count
never changes the numbers — only the wall clock.
"""

from __future__ import annotations

import random
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.runner.job import Job
from repro.runner.store import MISS, NullStore, ResultStore


@dataclass
class RunnerStats:
    """Cumulative counters over a runner's lifetime (all ``map`` calls)."""

    submitted: int = 0
    completed: int = 0
    executed: int = 0
    cached: int = 0

    def summary(self) -> str:
        return (
            f"{self.completed}/{self.submitted} jobs done, "
            f"{self.cached} cache hits"
        )


def _execute(job: Job) -> Any:
    """Worker entry point (module-level so it pickles by reference)."""
    return job.execute()


def _collect(
    futures: Mapping[Future, Any], finish: Callable[[Any, Any], None]
) -> None:
    """Wait for *futures*, calling ``finish(key, result)`` per success.

    At the first failure, futures that have not started are cancelled
    and running ones are waited for.  Every completed result is finished
    (persisted) before the first error in submission order re-raises, so
    a rerun after fixing one bad point does not recompute the points
    that already succeeded.
    """
    wait(futures, return_when=FIRST_EXCEPTION)
    for future in futures:
        future.cancel()  # a no-op once a future runs or is done
    first_error: BaseException | None = None
    for future, key in futures.items():
        if future.cancelled():
            continue
        # Blocks until a running future completes, so its result is
        # persisted rather than dropped.
        error = future.exception()
        if error is not None:
            first_error = first_error or error
            continue
        finish(key, future.result())
    if first_error is not None:
        raise first_error


@contextmanager
def _preserved_global_rng():
    """Save/restore the global RNG streams around in-process execution.

    ``Job.execute`` reseeds the global RNGs for determinism; when jobs run
    in the caller's process (``jobs=1``), that must not clobber whatever
    seed the caller established for their own code.
    """
    # Pure save/restore of the caller's streams — it draws nothing and
    # leaves the global state bitwise as found, so it cannot perturb
    # results; reviewed exceptions to the determinism rule.
    py_state = random.getstate()  # repro: allow[determinism]
    np_state = np.random.get_state()  # repro: allow[determinism]
    try:
        yield
    finally:
        random.setstate(py_state)  # repro: allow[determinism]
        np.random.set_state(np_state)  # repro: allow[determinism]


class ProcessPoolRunner:
    """Runs jobs across *jobs* worker processes with result memoization.

    ``jobs=1`` (the default) executes in-process with zero multiprocessing
    overhead; any higher value fans uncached jobs out to a process pool.
    *store* defaults to a :class:`NullStore` (no caching); pass a
    :class:`ResultStore` to memoize results on disk.  *progress*, if given,
    is called with the cumulative :class:`RunnerStats` after every job
    completes (from cache or from execution).
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | NullStore | None = None,
        progress: Callable[[RunnerStats], None] | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self.store = store if store is not None else NullStore()
        self.progress = progress
        self.stats = RunnerStats()

    # -- public API ----------------------------------------------------------

    def run(self, job: Job) -> Any:
        """Run a single job (through the cache)."""
        return self.map([job])[0]

    def map(self, jobs: Sequence[Job]) -> list[Any]:
        """Run *jobs*, returning their results in submission order."""
        jobs = list(jobs)
        self.stats.submitted += len(jobs)
        results: list[Any] = [None] * len(jobs)
        pending: list[int] = []
        for i, job in enumerate(jobs):
            value = self.store.load(job.digest())
            if value is not MISS:
                results[i] = value
                self._advance(cached=True)
            else:
                pending.append(i)
        if not pending:
            return results
        self._execute_pending(jobs, pending, results)
        return results

    def _execute_pending(
        self, jobs: list[Job], pending: list[int], results: list[Any]
    ) -> None:
        """Execute the cache-missing *pending* indices into *results*.

        The override point for batching runners: everything above this
        (cache probing, ordering, stats) is shared; everything below is
        how the missing work actually runs.
        """
        if self.jobs == 1 or len(pending) == 1:
            with _preserved_global_rng():
                for i in pending:
                    results[i] = self._finish(jobs[i], _execute(jobs[i]))
        else:
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(_execute, jobs[i]): i for i in pending}

                def finish(i: int, value: Any) -> None:
                    results[i] = self._finish(jobs[i], value)

                _collect(futures, finish)

    # -- internals -----------------------------------------------------------

    def _finish(self, job: Job, value: Any) -> Any:
        self.store.store(job.digest(), value)
        self._advance(cached=False)
        return value

    def _advance(self, cached: bool) -> None:
        self.stats.completed += 1
        if cached:
            self.stats.cached += 1
        else:
            self.stats.executed += 1
        if self.progress is not None:
            self.progress(self.stats)
