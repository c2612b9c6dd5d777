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
  (no per-``map`` executor churn), and each group's hot read-only
  arrays travel once through the :class:`SharedArrayPool` instead of
  being pickled per job.

Results are still persisted under each original job's digest, so the
cache stays interchangeable with the per-job path.  The per-job
reference is the base class, :class:`ProcessPoolRunner`.
"""

from __future__ import annotations

import atexit
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.runner.job import Job
from repro.runner.pool import ProcessPoolRunner, _preserved_global_rng
from repro.runner.shm import SegmentHandle, SharedArrayPool, attach
from repro.runner.store import NullStore, ResultStore
from repro.util.hashing import content_digest


@dataclass(frozen=True)
class BatchableSpec:
    """How to stack jobs of one registered function.

    ``batch_fn(slices, digests, **shared_kwargs)`` must return one
    payload per slice, each bitwise-identical to running the original
    function on that slice alone under :meth:`Job.execute`'s reseeding
    (the per-slice digest is passed so the batch body can reproduce it).
    *array_bank* (optional) extracts the group's hot read-only arrays
    for shared-memory publication; *install_bank* installs the attached
    views into worker-process caches before the batch body runs.
    """

    batch_fn: Callable[..., list]
    slice_param: str
    array_bank: Callable[[Mapping[str, Any]], Mapping[str, np.ndarray]] | None = None
    install_bank: Callable[[Mapping[str, Any], Mapping[str, np.ndarray]], None] | None = None


_BATCHABLE: dict[Callable, BatchableSpec] = {}


def register_batchable(
    fn: Callable,
    *,
    batch_fn: Callable[..., list],
    slice_param: str,
    array_bank: Callable[..., Mapping[str, np.ndarray]] | None = None,
    install_bank: Callable[..., None] | None = None,
) -> None:
    """Declare *fn* mega-batchable (see :class:`BatchableSpec`)."""
    _BATCHABLE[fn] = BatchableSpec(
        batch_fn=batch_fn,
        slice_param=slice_param,
        array_bank=array_bank,
        install_bank=install_bank,
    )


def _run_mega_chunk(
    fn: Callable,
    slices: list,
    digests: list[str],
    shared_kwargs: dict,
    bank_handle: SegmentHandle | None,
) -> list:
    """Worker entry point for one contiguous chunk of a group."""
    spec = _BATCHABLE[fn]
    if bank_handle is not None and spec.install_bank is not None:
        # Views are installed into process-lifetime caches, so the
        # attachment is deliberately never detached here; the worker's
        # atexit hook closes the mapping.
        spec.install_bank(shared_kwargs, attach(bank_handle))
    payloads = spec.batch_fn(slices, digests, **shared_kwargs)
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
    pool, with group-shared arrays published once to shared memory.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | NullStore | None = None,
        progress: Callable | None = None,
    ):
        super().__init__(jobs=jobs, store=store, progress=progress)
        self._executor: ProcessPoolExecutor | None = None
        self.shm = SharedArrayPool()
        atexit.register(self.close)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the persistent pool down and reclaim shared segments."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self.shm.close()

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
        if self.jobs == 1:
            with _preserved_global_rng():
                payloads = _run_mega_chunk(
                    job0.fn, slices, digests, shared, None
                )
            for i, payload in zip(idxs, payloads):
                results[i] = self._finish(jobs[i], payload)
            return

        bank_handle = None
        if spec.array_bank is not None:
            bank = dict(spec.array_bank(shared))
            if bank:
                bank_handle = self.shm.publish(
                    content_digest("array-bank", job0.fn, shared), bank
                )
        n_chunks = min(self.jobs, len(idxs))
        base, extra = divmod(len(idxs), n_chunks)
        chunks: list[list[int]] = []
        start = 0
        for c in range(n_chunks):
            stop = start + base + (1 if c < extra else 0)
            chunks.append(idxs[start:stop])
            start = stop
        executor = self._executor_or_spawn()
        try:
            futures = {
                executor.submit(
                    _run_mega_chunk,
                    job0.fn,
                    [jobs[i].kwargs[spec.slice_param] for i in chunk],
                    [jobs[i].digest() for i in chunk],
                    shared,
                    bank_handle,
                ): chunk
                for chunk in chunks
            }
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            in_flight = [f for f in not_done if not f.cancelled()]
            if in_flight:
                done |= wait(in_flight)[0]
            first_error: BaseException | None = None
            for future in done:
                error = future.exception()
                if error is not None:
                    first_error = first_error or error
                    continue
                for i, payload in zip(futures[future], future.result()):
                    results[i] = self._finish(jobs[i], payload)
            if first_error is not None:
                raise first_error
        except BrokenProcessPool:
            # A worker died mid-batch; drop the poisoned pool so the next
            # map() starts clean, then surface the failure.
            self._discard_executor()
            raise
