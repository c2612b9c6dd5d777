"""Kernel dispatch: vectorized fast path vs scalar reference path.

Every hot inner loop of the epoch pipeline (miss-curve evaluation, the
LRU-sharing fixed point, candidate scoring in VC placement, the Eq 1/Eq 2
cost model) exists in two implementations (the analytic evaluation has
one, its per-thread oracle kept in ``tests/test_evaluation_exactness.py``):

* the **vectorized** kernels — NumPy array math, the default;
* the **scalar reference** kernels — the original, loop-at-a-time code,
  kept verbatim as the trusted baseline.

Both paths produce identical discrete decisions (placements, allocations,
trades) and metrics equal to within the documented tolerance
(``EQUIV_RTOL``; see docs/PERFORMANCE.md).  The golden equivalence tests
in ``tests/test_kernels_equivalence.py`` enforce this, and
``benchmarks/bench_kernels.py`` measures the speedup.

Use :func:`scalar_reference` to force a whole pipeline through the scalar
path (for equivalence tests and honest before/after benchmarks)::

    from repro.kernels import scalar_reference

    with scalar_reference():
        slow_result = run_sweep(config, n_apps=64, n_mixes=1)
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

#: Relative tolerance at which vectorized metrics must agree with the
#: scalar reference (continuous outputs only — discrete decisions are
#: required to be identical, not merely close).
EQUIV_RTOL = 1e-9

#: Environment flag mirroring the in-process switch, so runner worker
#: processes (forked or spawned inside a ``scalar_reference`` block)
#: inherit the selected path instead of silently running vectorized.
_ENV_FLAG = "REPRO_SCALAR_KERNELS"

_VECTORIZED = os.environ.get(_ENV_FLAG, "") != "1"

#: Environment flag for the cross-job mega-batch path (``=0`` disables).
#: Mirrors the in-process switch the same way ``REPRO_SCALAR_KERNELS``
#: does, so worker processes inherit the caller's choice.
_MEGA_ENV_FLAG = "REPRO_MEGA_BATCH"

_MEGA_BATCH = os.environ.get(_MEGA_ENV_FLAG, "") != "0"

#: Serializes toggles of the process-wide kernel-path flags.  The
#: co-scheduling service solves on a thread pool, so two tests flipping
#: paths concurrently must not interleave their save/restore pairs.
#: Reads stay lock-free through the registered accessors
#: (:func:`use_vectorized` / :func:`use_mega_batch`): a single bool load
#: is atomic under the GIL, and the lock makes every *transition*
#: well-ordered.  Registered in ``tools/analyze``'s lock-discipline
#: state registry.
_KERNEL_STATE_LOCK = threading.Lock()


def use_vectorized() -> bool:
    """True when the vectorized kernels are active (the default)."""
    return _VECTORIZED


def use_mega_batch() -> bool:
    """True when cross-job mega-batch kernels are active (the default).

    Mega-batching stacks many same-chip jobs into one leading batch axis
    (see :mod:`repro.runner.mega`); it builds on the vectorized kernels,
    so forcing :func:`scalar_reference` also disables it.
    """
    return _MEGA_BATCH and _VECTORIZED


@contextmanager
def scalar_reference() -> Iterator[None]:
    """Run everything inside the block through the scalar reference path.

    Also exported via the ``REPRO_SCALAR_KERNELS`` environment variable so
    worker processes a runner starts inside the block pick the same path.
    (Runner cache entries need no path tag: the equivalence contract makes
    both paths' results interchangeable.)
    """
    global _VECTORIZED
    with _KERNEL_STATE_LOCK:
        previous = _VECTORIZED
        _VECTORIZED = False
    previous_env = os.environ.get(_ENV_FLAG)
    os.environ[_ENV_FLAG] = "1"
    try:
        yield
    finally:
        with _KERNEL_STATE_LOCK:
            _VECTORIZED = previous
        if previous_env is None:
            os.environ.pop(_ENV_FLAG, None)
        else:
            os.environ[_ENV_FLAG] = previous_env


@contextmanager
def per_mix_reference() -> Iterator[None]:
    """Run sweeps through the per-mix (one job at a time) kernel path.

    Disables only the cross-job mega-batching — the vectorized per-mix
    kernels stay active — which is the trusted reference the mega-batch
    equivalence tests pin against and the honest baseline for the runner
    throughput benchmark.  Exported via ``REPRO_MEGA_BATCH=0`` so worker
    processes started inside the block pick the same path.
    """
    global _MEGA_BATCH
    with _KERNEL_STATE_LOCK:
        previous = _MEGA_BATCH
        _MEGA_BATCH = False
    previous_env = os.environ.get(_MEGA_ENV_FLAG)
    os.environ[_MEGA_ENV_FLAG] = "0"
    try:
        yield
    finally:
        with _KERNEL_STATE_LOCK:
            _MEGA_BATCH = previous
        if previous_env is None:
            os.environ.pop(_MEGA_ENV_FLAG, None)
        else:
            os.environ[_MEGA_ENV_FLAG] = previous_env
