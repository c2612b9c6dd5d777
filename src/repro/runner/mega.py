"""Cross-job mega-batching: stack compatible jobs into one kernel pass.

:class:`~repro.runner.pool.ProcessPoolRunner` executes one
:class:`~repro.runner.job.Job` at a time, so a warm fig11–18 sweep pays
per-job pickling, per-job process-pool spin-up, and per-mix kernel
dispatch.  :class:`MegaBatchRunner` removes all three:

* job bodies registered with :func:`register_batchable` declare which
  kwarg varies per job (the *slice*) and a ``batch_fn`` that evaluates
  many slices in one call, stacking them on a leading batch axis inside
  the kernels (bitwise-identical per slice — each slice reseeds exactly
  as :meth:`Job.execute` would);
* jobs are grouped by *chip digest* — the content hash of everything
  except the slice — so only genuinely same-chip jobs ever share a
  batch;
* groups are chunked contiguously across a **persistent** process pool
  (no per-``map`` executor churn); a chunk ships only its job arguments,
  and each worker builds what they name (the chip's geometry, its
  alone-performance cache) through its process-wide memos on first use.

Results are still persisted under each original job's digest, so the
cache stays interchangeable with the per-job path.  The per-job
reference is the base class, :class:`ProcessPoolRunner`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from repro.runner.job import Job
from repro.runner.pool import ProcessPoolRunner, _collect, _preserved_global_rng
from repro.runner.store import NullStore, ResultStore
from repro.util.hashing import content_digest


@dataclass(frozen=True)
class BatchableSpec:
    """How to stack jobs of one registered function.

    ``batch_fn(slices, digests, **shared_kwargs)`` must return one
    payload per slice, each bitwise-identical to running the original
    function on that slice alone under :meth:`Job.execute`'s reseeding
    (the per-slice digest is passed so the batch body can reproduce it).
    """

    batch_fn: Callable[..., list]
    slice_param: str


_BATCHABLE: dict[Callable, BatchableSpec] = {}


def register_batchable(
    fn: Callable,
    *,
    batch_fn: Callable[..., list],
    slice_param: str,
) -> None:
    """Declare *fn* mega-batchable (see :class:`BatchableSpec`)."""
    _BATCHABLE[fn] = BatchableSpec(batch_fn=batch_fn, slice_param=slice_param)


def _run_mega_chunk(
    fn: Callable, slices: list, digests: list[str], shared_kwargs: dict
) -> list:
    """Worker entry point for one contiguous chunk of a group."""
    payloads = _BATCHABLE[fn].batch_fn(slices, digests, **shared_kwargs)
    if len(payloads) != len(slices):
        raise RuntimeError(
            f"batch body for {fn.__name__} returned {len(payloads)} payloads "
            f"for {len(slices)} slices"
        )
    return payloads


class MegaBatchRunner(ProcessPoolRunner):
    """A :class:`ProcessPoolRunner` that stacks compatible jobs.

    Drop-in compatible: unregistered jobs (and singleton groups) run
    exactly as the base runner would.  Registered jobs that share a chip
    digest are dispatched as stacked batches over a persistent worker
    pool.  Call :meth:`close` (or use the runner as a context manager)
    to shut the pool down; one left open is reaped at exit by
    :mod:`concurrent.futures`.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | NullStore | None = None,
        progress: Callable | None = None,
    ):
        super().__init__(jobs=jobs, store=store, progress=progress)
        self._executor: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "MegaBatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _executor_or_spawn(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- execution -----------------------------------------------------------

    def _execute_pending(
        self, jobs: list[Job], pending: list[int], results: list[Any]
    ) -> None:
        groups, singles = self._group_pending(jobs, pending)
        for idxs in groups:
            self._run_group(jobs, idxs, results)
        if singles:
            super()._execute_pending(jobs, singles, results)

    def _group_pending(
        self, jobs: list[Job], pending: list[int]
    ) -> tuple[list[list[int]], list[int]]:
        """Split pending indices into same-chip groups and leftovers."""
        buckets: dict[tuple, list[int]] = {}
        singles: list[int] = []
        for i in pending:
            job = jobs[i]
            spec = _BATCHABLE.get(job.fn)
            if spec is None or spec.slice_param not in job.kwargs:
                singles.append(i)
                continue
            shared = {
                k: v for k, v in job.kwargs.items() if k != spec.slice_param
            }
            key = (job.fn, job.seed, content_digest(shared))
            buckets.setdefault(key, []).append(i)
        groups = []
        for idxs in buckets.values():
            if len(idxs) > 1:
                groups.append(idxs)
            else:
                singles.extend(idxs)
        singles.sort()
        return groups, singles

    def _run_group(
        self, jobs: list[Job], idxs: list[int], results: list[Any]
    ) -> None:
        job0 = jobs[idxs[0]]
        spec = _BATCHABLE[job0.fn]
        shared = {
            k: v for k, v in job0.kwargs.items() if k != spec.slice_param
        }
        slices = [jobs[i].kwargs[spec.slice_param] for i in idxs]
        digests = [jobs[i].digest() for i in idxs]

        def finish(chunk: list[int], payloads: list) -> None:
            for i, payload in zip(chunk, payloads):
                results[i] = self._finish(jobs[i], payload)

        if self.jobs == 1:
            with _preserved_global_rng():
                payloads = _run_mega_chunk(job0.fn, slices, digests, shared)
            finish(idxs, payloads)
            return

        n_chunks = min(self.jobs, len(idxs))
        base, extra = divmod(len(idxs), n_chunks)
        executor = self._executor_or_spawn()
        try:
            futures = {}
            start = 0
            for c in range(n_chunks):
                stop = start + base + (1 if c < extra else 0)
                future = executor.submit(
                    _run_mega_chunk,
                    job0.fn,
                    slices[start:stop],
                    digests[start:stop],
                    shared,
                )
                futures[future] = idxs[start:stop]
                start = stop
            _collect(futures, finish)
        except BrokenProcessPool:
            # A worker died mid-batch; drop the poisoned pool so the next
            # map() starts clean, then surface the failure.
            self._discard_executor()
            raise
