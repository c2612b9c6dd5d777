"""The experiment runner: jobs, the content-hashed store, the pool.

Covers the PR's acceptance criteria directly: a warm cache executes zero
jobs, ``jobs=4`` is bitwise identical to ``jobs=1``, and corrupted cache
entries are evicted and recomputed rather than crashing a sweep.
"""

import gc
import multiprocessing
import pickle
import time
import weakref

import pytest

from repro.api import Session
from repro.config import small_test_config
from repro.experiments import sweep_jobs
from repro.runner import (
    MISS,
    Job,
    MegaBatchRunner,
    NullStore,
    ProcessPoolRunner,
    ResultStore,
    register_batchable,
)
from repro.util.hashing import canonical_repr, content_digest


# Module-level job bodies (jobs must pickle by reference).
def _square(x):
    return x * x


def _global_rng_sample(tag):
    """Deliberately uses the *global* numpy RNG to prove per-job seeding."""
    import numpy as np

    return (tag, float(np.random.random()))


def _boom():
    raise RuntimeError("job failure")


def _nap(x):
    time.sleep(0.1)
    return x


def _tenfold(x, bad, delay=0.0):
    if x == bad:
        raise RuntimeError(f"bad slice {x}")
    return 10 * x


def _tenfold_batched(slices, digests, *, bad, delay=0.0):
    if bad not in slices:
        time.sleep(delay)  # still running when a failing sibling returns
    return [_tenfold(x, bad) for x in slices]


register_batchable(_tenfold, batch_fn=_tenfold_batched, slice_param="x")


# -- content hashing ---------------------------------------------------------


def test_content_digest_stable_and_sensitive():
    cfg = small_test_config(4, 4)
    assert content_digest(cfg) == content_digest(small_test_config(4, 4))
    assert content_digest(cfg) != content_digest(small_test_config(4, 8))
    assert content_digest(1) != content_digest("1")
    assert content_digest(1.0) != content_digest(1)
    assert content_digest([1, 2]) != content_digest((1, 2))
    assert content_digest({"a": 1, "b": 2}) == content_digest(
        {"b": 2, "a": 1}
    )


def test_canonical_repr_rejects_unhashable_objects():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="canonicalize"):
        canonical_repr(Opaque())


def test_job_digest_covers_fn_kwargs_and_seed():
    base = Job(fn=_square, kwargs={"x": 3}, seed=1)
    assert base.digest() == Job(fn=_square, kwargs={"x": 3}, seed=1).digest()
    assert base.digest() != Job(fn=_square, kwargs={"x": 4}, seed=1).digest()
    assert base.digest() != Job(fn=_square, kwargs={"x": 3}, seed=2).digest()
    assert (
        base.digest()
        != Job(fn=_global_rng_sample, kwargs={"tag": 3}, seed=1).digest()
    )
    # The label is presentation-only: never part of the identity.
    assert base.digest() == Job(fn=_square, kwargs={"x": 3}, seed=1,
                                label="renamed").digest()


# -- store: hit/miss, corruption recovery ------------------------------------


def test_store_miss_then_hit(tmp_path):
    store = ResultStore(tmp_path)
    assert store.load("ab" * 32) is MISS
    store.store("ab" * 32, {"value": 7})
    assert store.load("ab" * 32) == {"value": 7}
    assert store.stats.hits == 1 and store.stats.misses == 1
    assert len(store) == 1


def test_store_roundtrips_none_result(tmp_path):
    store = ResultStore(tmp_path)
    digest = "cd" * 32
    store.store(digest, None)
    assert store.load(digest) is None  # a cached None is not a miss


def test_store_recovers_from_truncated_entry(tmp_path):
    store = ResultStore(tmp_path)
    digest = "ef" * 32
    store.store(digest, [1, 2, 3])
    path = store.path(digest)
    path.write_bytes(path.read_bytes()[:10])  # truncate mid-pickle
    assert store.load(digest) is MISS
    assert store.stats.evicted_corrupt == 1
    assert not path.exists()  # evicted, so the next run recomputes + stores
    store.store(digest, [1, 2, 3])
    assert store.load(digest) == [1, 2, 3]


def test_store_rejects_digest_mismatch(tmp_path):
    store = ResultStore(tmp_path)
    good, evil = "11" * 32, "22" * 32
    store.store(good, "payload")
    # Simulate a mis-filed entry (e.g. a partial copy between cache dirs).
    store.path(evil).parent.mkdir(parents=True, exist_ok=True)
    store.path(evil).write_bytes(store.path(good).read_bytes())
    assert store.load(evil) is MISS
    assert not store.path(evil).exists()


def test_store_rejects_non_dict_payload(tmp_path):
    store = ResultStore(tmp_path)
    digest = "33" * 32
    path = store.path(digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(["not", "an", "entry"]))
    assert store.load(digest) is MISS


def test_null_store_never_hits():
    store = NullStore()
    store.store("44" * 32, "x")
    assert store.load("44" * 32) is MISS
    assert len(store) == 0


# -- pool: execution, caching, parallel determinism ---------------------------


def _jobs(n=6, seed=0):
    return [Job(fn=_square, kwargs={"x": i}, seed=seed) for i in range(n)]


def test_runner_serial_results_in_order():
    runner = ProcessPoolRunner()
    assert runner.map(_jobs()) == [0, 1, 4, 9, 16, 25]
    assert runner.stats.executed == 6 and runner.stats.cached == 0


def test_runner_rejects_zero_workers():
    with pytest.raises(ValueError):
        ProcessPoolRunner(jobs=0)


def test_runner_parallel_results_in_order():
    runner = ProcessPoolRunner(jobs=4)
    assert runner.map(_jobs(8)) == [i * i for i in range(8)]


def test_runner_warm_cache_executes_zero_jobs(tmp_path):
    cold = ProcessPoolRunner(jobs=2, store=ResultStore(tmp_path))
    first = cold.map(_jobs())
    assert cold.stats.executed == 6
    warm = ProcessPoolRunner(jobs=2, store=ResultStore(tmp_path))
    second = warm.map(_jobs())
    assert second == first
    assert warm.stats.executed == 0
    assert warm.stats.cached == 6


def test_runner_partial_cache_executes_only_new_points(tmp_path):
    ProcessPoolRunner(store=ResultStore(tmp_path)).map(_jobs(4))
    runner = ProcessPoolRunner(store=ResultStore(tmp_path))
    assert runner.map(_jobs(6)) == [0, 1, 4, 9, 16, 25]
    assert runner.stats.cached == 4 and runner.stats.executed == 2


def test_runner_changed_seed_misses_cache(tmp_path):
    ProcessPoolRunner(store=ResultStore(tmp_path)).map(_jobs(3, seed=0))
    runner = ProcessPoolRunner(store=ResultStore(tmp_path))
    runner.map(_jobs(3, seed=1))
    assert runner.stats.cached == 0 and runner.stats.executed == 3


def test_runner_progress_callback_sees_every_job(tmp_path):
    seen = []
    runner = ProcessPoolRunner(
        store=ResultStore(tmp_path), progress=lambda s: seen.append(
            (s.completed, s.cached)
        )
    )
    runner.map(_jobs(3))
    assert seen == [(1, 0), (2, 0), (3, 0)]


def test_runner_propagates_job_exception():
    runner = ProcessPoolRunner()
    with pytest.raises(RuntimeError, match="job failure"):
        runner.map([Job(fn=_boom)])


def test_per_job_seeding_is_order_and_worker_independent():
    jobs = [Job(fn=_global_rng_sample, kwargs={"tag": i}, seed=9)
            for i in range(6)]
    serial = ProcessPoolRunner(jobs=1).map(jobs)
    parallel = ProcessPoolRunner(jobs=3).map(jobs)
    reversed_serial = ProcessPoolRunner(jobs=1).map(jobs[::-1])[::-1]
    assert serial == parallel == reversed_serial
    # Different jobs draw from different streams.
    assert len({v for _, v in serial}) == 6


def test_in_process_execution_preserves_callers_global_rng():
    import numpy as np

    np.random.seed(123)
    jobs = [Job(fn=_global_rng_sample, kwargs={"tag": i}) for i in range(3)]
    ProcessPoolRunner(jobs=1).map(jobs)  # in-process: reseeds globals
    after = float(np.random.random())
    np.random.seed(123)
    assert after == float(np.random.random())


def test_failed_parallel_job_persists_completed_siblings(tmp_path):
    # Four fast jobs ahead of one failing job: by the time the failure
    # surfaces, the successes must already be in the store.
    ok = _jobs(4)
    jobs = ok + [Job(fn=_boom)]
    runner = ProcessPoolRunner(jobs=2, store=ResultStore(tmp_path))
    with pytest.raises(RuntimeError, match="job failure"):
        runner.map(jobs)
    warm = ProcessPoolRunner(jobs=2, store=ResultStore(tmp_path))
    assert warm.map(ok) == [0, 1, 4, 9]
    assert warm.stats.executed == 0 and warm.stats.cached == 4


def test_failed_parallel_job_cancels_jobs_not_started():
    # Twelve 0.1 s jobs queue behind a failing one on two workers: the
    # ones not yet started when the failure lands must not run.
    jobs = [Job(fn=_boom)] + [Job(fn=_nap, kwargs={"x": x}) for x in range(12)]
    runner = ProcessPoolRunner(jobs=2)
    with pytest.raises(RuntimeError, match="job failure"):
        runner.map(jobs)
    assert runner.stats.executed < 12


def test_failed_mega_chunk_persists_completed_chunks(tmp_path):
    # One group of four splits into two chunks on two workers.  The
    # first chunk fails at once; the second, still running then, must
    # be waited for and its payloads stored before the error surfaces.
    jobs = [
        Job(fn=_tenfold, kwargs={"x": x, "bad": 0, "delay": 0.5})
        for x in range(4)
    ]
    with MegaBatchRunner(jobs=2, store=ResultStore(tmp_path)) as runner:
        with pytest.raises(RuntimeError, match="bad slice 0"):
            runner.map(jobs)
        # An ordinary job error leaves the persistent pool usable.
        later = [Job(fn=_tenfold, kwargs={"x": x, "bad": -1}) for x in range(4)]
        assert runner.map(later) == [0, 10, 20, 30]
    warm = MegaBatchRunner(store=ResultStore(tmp_path))
    assert warm.map(jobs[2:]) == [20, 30]
    assert warm.stats.executed == 0 and warm.stats.cached == 2


def test_closed_mega_runner_is_collected():
    runner = MegaBatchRunner(jobs=2)
    jobs = [Job(fn=_tenfold, kwargs={"x": x, "bad": -1}) for x in range(4)]
    assert runner.map(jobs) == [0, 10, 20, 30]
    runner.close()
    ref = weakref.ref(runner)
    del runner
    gc.collect()
    assert ref() is None


_CTX = multiprocessing.get_context("fork")


def _store_hammer(root, digest, value, rounds, out):
    try:
        store = ResultStore(root)
        for _ in range(rounds):
            store.store(digest, value)
            loaded = store.load(digest)
            if loaded is not MISS and loaded != value:
                out.put("corrupt")
                return
        out.put("ok")
    except Exception as exc:  # pragma: no cover - failure reporting
        out.put(f"error: {exc!r}")


def test_result_store_interleaved_creators(tmp_path):
    """Concurrent same-digest writers never expose a torn entry: every
    load sees either a miss or the complete value (atomic replace)."""
    digest = "ab" + "0" * 62
    value = {"rows": list(range(200)), "tag": "store-race"}
    n = 4
    out = _CTX.Queue()
    procs = [
        _CTX.Process(target=_store_hammer,
                     args=(str(tmp_path), digest, value, 40, out))
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    results = [out.get(timeout=120) for _ in range(n)]
    for p in procs:
        p.join(timeout=60)
    assert results == ["ok"] * n
    assert ResultStore(tmp_path).load(digest) == value
    # No temp droppings from the atomic-write protocol.
    assert not list(tmp_path.glob("**/.tmp-*"))


# -- the acceptance criteria on a real sweep ---------------------------------


def test_sweep_jobs_one_job_per_mix():
    jobs = sweep_jobs(small_test_config(4, 4), n_apps=2, n_mixes=5, seed=3)
    assert len(jobs) == 5
    assert len({j.digest() for j in jobs}) == 5


def _small_sweep(runner, n_apps, n_mixes):
    """The per-mix payloads of a seed-7 sweep on the 4x4 chip."""
    return runner.map(
        sweep_jobs(small_test_config(4, 4), n_apps, n_mixes, seed=7)
    )


def test_sweep_parallel_bitwise_identical_to_serial():
    serial = _small_sweep(ProcessPoolRunner(jobs=1), n_apps=4, n_mixes=4)
    parallel = _small_sweep(ProcessPoolRunner(jobs=4), n_apps=4, n_mixes=4)
    assert serial == parallel  # payload equality: every float bitwise


def test_repeated_sweep_with_warm_cache_executes_zero_jobs(tmp_path):
    cold = ProcessPoolRunner(jobs=2, store=ResultStore(tmp_path))
    first = _small_sweep(cold, n_apps=4, n_mixes=4)
    assert cold.stats.executed == 4
    warm = ProcessPoolRunner(jobs=2, store=ResultStore(tmp_path))
    second = _small_sweep(warm, n_apps=4, n_mixes=4)
    assert warm.stats.executed == 0 and warm.stats.cached == 4
    assert first == second


def test_sweep_recovers_from_corrupted_cache_dir(tmp_path):
    store = ResultStore(tmp_path)
    first = _small_sweep(ProcessPoolRunner(store=store), n_apps=2, n_mixes=3)
    for path in tmp_path.glob("??/*.pkl"):
        path.write_bytes(b"garbage")
    rerun = ProcessPoolRunner(store=ResultStore(tmp_path))
    second = _small_sweep(rerun, n_apps=2, n_mixes=3)
    assert second == first
    assert rerun.stats.executed == 3  # all were evicted and recomputed
    # ... and the rewritten entries hit again afterwards.
    third = ProcessPoolRunner(store=ResultStore(tmp_path))
    _small_sweep(third, n_apps=2, n_mixes=3)
    assert third.stats.cached == 3


def test_factor_analysis_cached_rerun(tmp_path):
    first = Session(cache_dir=tmp_path).run("fig12", mixes=1)
    warm = Session(cache_dir=tmp_path)
    second = warm.run("fig12", mixes=1)
    assert warm.stats.executed == 0 and warm.stats.cached == 2
    assert first == second
    for n_apps in (64, 4):
        assert first.result[n_apps].gmeans() == second.result[n_apps].gmeans()


def test_session_leaves_no_worker_processes_after_with_block():
    """Closing a pooled session shuts its persistent workers down (the
    benchmarks' ``session`` fixture relies on it)."""
    with Session(jobs=2) as session:
        session.run("fig14", mixes=2)
        assert multiprocessing.active_children()
    assert multiprocessing.active_children() == []
