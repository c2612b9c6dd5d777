"""Parallel experiment runner with content-hashed result caching.

The sweep structure of every figure reproduction is embarrassingly
parallel: N mixes x M schemes, each point fully determined by
``(SystemConfig, workload mix, scheme, seed)``.  This package exploits
that:

* :class:`Job` — one simulation/experiment point (a picklable module-level
  callable + kwargs + seed), content-hashed for identity;
* :class:`ResultStore` — an on-disk cache of completed job outputs keyed by
  that hash, with atomic writes and corrupted-entry recovery;
* :class:`ProcessPoolRunner` — fans uncached jobs out across
  ``multiprocessing`` workers with deterministic per-job RNG seeding, so
  ``--jobs 4`` is bitwise identical to ``--jobs 1`` and a warm cache
  executes zero jobs;
* :class:`MegaBatchRunner` — stacks same-chip jobs of a registered body
  into one batch call per worker chunk, over a persistent pool; a chunk
  ships only its job arguments.

See docs/ARCHITECTURE.md for how a sweep flows through the runner.
"""

from repro.runner.job import Job
from repro.runner.mega import (
    BatchableSpec,
    MegaBatchRunner,
    register_batchable,
)
from repro.runner.pool import ProcessPoolRunner, RunnerStats
from repro.runner.store import (
    DEFAULT_CACHE_DIR,
    MISS,
    NullStore,
    ResultStore,
    StoreStats,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "BatchableSpec",
    "Job",
    "MISS",
    "MegaBatchRunner",
    "NullStore",
    "ProcessPoolRunner",
    "ResultStore",
    "RunnerStats",
    "StoreStats",
    "register_batchable",
]
