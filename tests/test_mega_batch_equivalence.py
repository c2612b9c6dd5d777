"""Mega-batch kernels are bitwise the per-mix path, slice for slice.

The contract (see :mod:`repro.runner.mega`): stacking many same-chip
mixes on one leading batch axis must change *nothing* about any
individual mix's results — every payload compares ``==`` against the
classic one-job-at-a-time runner, for single- and multi-threaded sweeps,
regardless of batch membership or submission order.  These tests pin
that contract the same way the PR 2 kernel-equivalence suite pins
vectorized-vs-scalar.
"""

import random

import pytest

from repro.config import default_config
from repro.experiments.sweeps import sweep_jobs
from repro.runner import MegaBatchRunner, ProcessPoolRunner


def _reference(jobs):
    """Per-mix payloads through the classic one-job-at-a-time runner."""
    return ProcessPoolRunner(jobs=1).map(jobs)


def _mega(jobs, workers=1):
    runner = MegaBatchRunner(jobs=workers)
    try:
        return runner.map(jobs)
    finally:
        runner.close()


@pytest.mark.parametrize(
    "n_apps,n_mixes,multithreaded",
    [
        pytest.param(64, 2, False, id="fig11-shape-64app-st"),
        pytest.param(8, 4, True, id="fig15-shape-8app-mt"),
    ],
)
def test_mega_batch_slices_bitwise_equal_per_mix(n_apps, n_mixes,
                                                 multithreaded):
    jobs = sweep_jobs(default_config(), n_apps=n_apps, n_mixes=n_mixes,
                      seed=7, multithreaded=multithreaded)
    ref = _reference(jobs)
    got = _mega(jobs)
    assert got == ref


def test_mega_batch_membership_and_order_invariant():
    """A mix's payload does not depend on which batch it rides in.

    The full map, a shuffled map, and a subset map must all produce the
    identical payload for any given mix — otherwise batch composition
    would leak into results and caching by per-job digest would be
    unsound.
    """
    jobs = sweep_jobs(default_config(), n_apps=4, n_mixes=6, seed=11)
    full = dict(zip([j.digest() for j in jobs], _mega(jobs)))

    shuffled = list(jobs)
    random.Random(3).shuffle(shuffled)
    for job, payload in zip(shuffled, _mega(shuffled)):
        assert payload == full[job.digest()]

    subset = jobs[1::2]
    for job, payload in zip(subset, _mega(subset)):
        assert payload == full[job.digest()]


def test_mega_batch_worker_pool_matches_in_process():
    """jobs=2 chunks each of two groups (two app counts in one map)
    across the persistent pool, which receives only the job arguments;
    payloads still compare ``==`` against the in-process reference."""
    jobs = sweep_jobs(default_config(), n_apps=4, n_mixes=5, seed=13)
    jobs += sweep_jobs(default_config(), n_apps=2, n_mixes=3, seed=13)
    ref = _reference(jobs)
    assert _mega(jobs, workers=2) == ref


def test_mixed_registered_and_plain_jobs():
    """Unregistered jobs fall through to the base runner untouched."""
    from repro.runner.job import Job

    def plain(x):
        return x * 3

    jobs = sweep_jobs(default_config(), n_apps=4, n_mixes=2, seed=5)
    mixed = [jobs[0], Job(fn=plain, kwargs=dict(x=14)), jobs[1]]
    ref = _reference(jobs)
    got = _mega(mixed)
    assert got[0] == ref[0]
    assert got[1] == 42
    assert got[2] == ref[1]
