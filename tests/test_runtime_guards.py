"""Runtime half of the invariant suite (see docs/ANALYSIS.md).

Two mechanisms, both introduced alongside the static checkers:

* **frozen shared arrays** — everything published by the geometry memo
  and :class:`MissCurveBatch`, and every :class:`MissCurve`, carries
  ``writeable=False``, so the mutation bugs the ``shared-view`` rule
  catches statically fail loudly at runtime too;
* **lock-discipline harness** — under ``REPRO_CHECK_LOCKS=1`` the
  registered guarded mappings assert lock ownership on every access
  (:mod:`repro.util.guards`).  The flag is frozen at import, so those
  tests run in subprocesses with the environment set.

`make test-locks` re-runs this module plus the service concurrency
suite with the harness enabled end to end.
"""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cache.miss_curve import MissCurve, MissCurveBatch
from repro.config import small_test_config
from repro.geometry.mesh import Mesh, dense_geometry_limit
from repro.nuca.base import build_problem
from repro.runner import ResultStore
from repro.sched import allocation
from repro.util import guards
from repro.util.hashing import content_digest
from repro.workloads.mixes import random_single_threaded_mix

REPO = Path(__file__).resolve().parents[1]


# -- frozen shared arrays -----------------------------------------------------


def test_dense_distance_matrix_is_readonly():
    mat = Mesh(4, 4).distance_matrix
    assert isinstance(mat, np.ndarray)
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 99.0


def test_lazy_rows_and_means_are_readonly():
    with dense_geometry_limit(0):
        mat = Mesh(4, 4).distance_matrix
    row = mat.row(3)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = -1.0
    means = mat.mean(axis=1)
    with pytest.raises(ValueError):
        means[0] = -1.0


def test_miss_curve_banks_are_readonly_including_subsets():
    curves = [
        MissCurve(sizes=[1.0, 2.0, 4.0], values=[9.0, 5.0, 2.0]),
        MissCurve(sizes=[1.0, 8.0], values=[7.0, 1.0]),
    ]
    batch = MissCurveBatch(curves)
    for bank in (batch.lengths, batch.sizes2d, batch.values2d):
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0] = 0
    sub = batch.take([1])
    with pytest.raises(ValueError):
        sub.values2d[0, 0] = 0.0


def test_miss_curve_arrays_are_readonly_and_never_alias_the_caller():
    sizes = np.array([1.0, 2.0, 4.0])
    values = np.array([9.0, 5.0, 2.0])
    backing = np.array([0.0, 1.0, 3.0, 6.0])
    curves = [MissCurve(sizes, values), MissCurve(backing[1:], [4.0, 3.0, 1.0])]
    for curve in curves:
        for array in (curve.sizes, curve.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
    # The caller's later writes, to its arrays or to what a view reads,
    # never reach a curve.
    sizes[0] = values[0] = backing[1] = 0.5
    assert curves[0].sizes.tolist() == [1.0, 2.0, 4.0]
    assert curves[0].values.tolist() == [9.0, 5.0, 2.0]
    assert curves[1].sizes.tolist() == [1.0, 3.0, 6.0]
    # An array that is already read-only is kept, not copied.
    assert curves[0].scaled(2.0).sizes is curves[0].sizes


def test_miss_curve_stays_frozen_across_pickle_deepcopy_and_store(tmp_path):
    # Curves cross process boundaries in runner jobs and come back from
    # the result store; numpy's pickle drops the read-only flag.
    curve = MissCurve([1.0, 2.0, 4.0], [9.0, 5.0, 2.0])
    store = ResultStore(tmp_path)
    store.store("ab" + "0" * 62, {"curve": curve})
    copies = [
        pickle.loads(pickle.dumps(curve)),
        copy.deepcopy(curve),
        store.load("ab" + "0" * 62)["curve"],
    ]
    for other in copies:
        assert content_digest(other) == content_digest(curve)
        for array in (other.sizes, other.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


# -- the REPRO_CHECK_LOCKS harness -------------------------------------------


def test_guarded_mappings_match_environment():
    # Plain `make test` runs without the flag: the guarded mappings must
    # be plain dicts with zero overhead.  `make test-locks` re-runs this
    # suite with REPRO_CHECK_LOCKS=1, where the same globals must be the
    # instrumented variant.
    enabled = os.environ.get("REPRO_CHECK_LOCKS", "") == "1"
    assert guards.CHECK_LOCKS is enabled
    from repro.geometry import mesh

    if enabled:
        assert isinstance(
            mesh._SHARED_GEOMETRY_CACHE, guards.LockCheckedDict
        )
    else:
        assert type(mesh._SHARED_GEOMETRY_CACHE) is dict


def _run_checked(snippet: str) -> subprocess.CompletedProcess:
    """Run *snippet* in a fresh interpreter with the harness enabled."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(snippet)],
        cwd=REPO,
        env={
            **os.environ,
            "PYTHONPATH": "src",
            "REPRO_CHECK_LOCKS": "1",
        },
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_unguarded_access_raises_under_harness():
    proc = _run_checked(
        """
        from repro.geometry import mesh
        mesh._SHARED_GEOMETRY_CACHE.get(("probe",))
        """
    )
    assert proc.returncode != 0
    assert "LockDisciplineError" in proc.stderr
    assert "_SHARED_GEOMETRY_CACHE" in proc.stderr


def test_guarded_access_passes_under_harness():
    proc = _run_checked(
        """
        from repro.geometry import mesh
        with mesh._GEOMETRY_LOCK:
            assert mesh._SHARED_GEOMETRY_CACHE.get(("probe",)) is None
        # The public accessors take the lock themselves.
        assert mesh.shared_geometry_matrices(("probe",)) is None
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_geometry_stress_under_harness():
    """Many threads hammer the shared geometry memo (hits, misses, lazy
    rows, stats) with the harness asserting lock ownership throughout;
    results must also stay bitwise identical across threads."""
    proc = _run_checked(
        """
        import threading

        import numpy as np

        from repro.geometry.mesh import Mesh, dense_geometry_limit

        errors = []

        def worker(out):
            # dense_geometry_limit is process-wide and test-scoped, so
            # the main thread holds it around the whole threaded phase;
            # workers only hammer the shared memo itself.
            try:
                dense = Mesh(6, 6).distance_matrix
                lazy = Mesh(8, 8).distance_matrix
                rows = np.stack([lazy.row(r) for r in range(64)])
                out.append((dense, rows))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        results = []
        threads = [
            threading.Thread(target=worker, args=(results,))
            for _ in range(8)
        ]
        with dense_geometry_limit(36):  # 6x6 dense, 8x8 lazy
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors
        assert len(results) == 8
        ref_dense, ref_rows = results[0]
        for dense, rows in results[1:]:
            assert np.array_equal(dense, ref_dense)
            assert np.array_equal(rows, ref_rows)
        # All workers share one frozen dense matrix from the memo.
        assert all(d is ref_dense for d, _ in results[1:])
        print("stress ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert "stress ok" in proc.stdout


def test_row_memo_threads_allocate_as_serial(monkeypatch):
    """Threads, more than the host's cores and the service's two
    workers, allocate the same problems through one row memo small
    enough to clear while they race: every result equals the serial
    one, and the byte count still equals its entries' sizes, which a
    lost update would break.  Under ``make test-locks`` the memo's dict
    also asserts its lock on every access."""
    problems = [
        build_problem(random_single_threaded_mix(8, seed, 0), small_test_config(4, 4))
        for seed in range(4)
    ]

    def solve(problem):
        return (
            allocation.allocate_latency_aware(problem),
            allocation.allocate_miss_driven(problem),
        )

    monkeypatch.setattr(allocation, "_ROW_MEMO", allocation.RowMemo())
    serial = [solve(problem) for problem in problems]
    memo = allocation.RowMemo(budget_bytes=12 * 1024)  # about ten 16-tile rows
    monkeypatch.setattr(allocation, "_ROW_MEMO", memo)
    errors, results = [], []

    def worker():
        try:
            for _ in range(5):
                results.append([solve(problem) for problem in problems])
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == 20 and all(result == serial for result in results)
    with memo._lock:
        entries = list(memo._entries.values())
        assert memo._bytes == sum(row.nbytes + 16 * len(hull) for row, hull, _ in entries)
        assert 0 < memo._bytes <= memo.budget_bytes


# -- guards unit behavior -----------------------------------------------------


def test_lock_checked_dict_asserts_on_every_surface(monkeypatch):
    import threading

    lock = threading.Lock()
    checked = guards.LockCheckedDict(lock, "probe")
    monkeypatch.setattr(guards, "CHECK_LOCKS", True)
    with lock:
        checked["k"] = 1
        assert checked["k"] == 1
        assert "k" in checked
        assert list(checked.items()) == [("k", 1)]
    for op in (
        lambda: checked["k"],
        lambda: checked.get("k"),
        lambda: checked.setdefault("j", 2),
        lambda: checked.pop("k"),
        lambda: list(checked.keys()),
        lambda: len(checked),
    ):
        with pytest.raises(guards.LockDisciplineError):
            op()


def test_assert_lock_held_only_active_under_flag(monkeypatch):
    import threading

    lock = threading.RLock()
    monkeypatch.setattr(guards, "CHECK_LOCKS", False)
    guards.assert_lock_held(lock, "idle")  # no-op when disabled
    monkeypatch.setattr(guards, "CHECK_LOCKS", True)
    with pytest.raises(guards.LockDisciplineError):
        guards.assert_lock_held(lock, "unheld")
    with lock:
        guards.assert_lock_held(lock, "held")
