"""Lazy/sparse geometry: bitwise equivalence with the dense builders.

PR 7 makes the three geometry matrices (distance, spiral order, sorted
distance) materialize rows on demand above
:data:`~repro.geometry.DENSE_GEOMETRY_TILE_LIMIT`.  The contract pinned
here is absolute: every access pattern the placement kernels use must
return *bitwise* what the dense build returns — the lazy path is a memory
optimization, never a modeling change.  ``dense_geometry_limit(0)``
forces small meshes lazy so the whole matrix fits in the comparison.

Also pinned: the shared row store is safe under concurrent readers (the
co-scheduling service solves chips on a thread pool), the allocation
account sees every build, and — the headline regression — a 4096-tile
problem build allocates no dense O(N²) block at all.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.geometry import (
    DENSE_GEOMETRY_TILE_LIMIT,
    Mesh,
    Torus,
    dense_geometry_bytes,
    dense_geometry_limit,
    geometry_allocation_stats,
    reset_geometry_allocation_stats,
)

MATRICES = ("distance", "order", "sorted_distance")

#: (class, side) equivalence grid: 16, 64 and 256 tiles, both metrics
#: (the torus wraps, so its spiral orders differ from the mesh's — any
#: metric-specific shortcut in the lazy path would show here).
GRID = [
    (cls, side) for cls in (Mesh, Torus) for side in (4, 8, 16)
]


def _grid_id(case) -> str:
    cls, side = case
    return f"{cls.__name__}-{side * side}t"


def _twins(cls, side):
    """(dense ndarrays by name, lazy matrices by name) for one topology.

    The mode is frozen per matrix at first property access, so both
    accesses happen inside their respective contexts.
    """
    with dense_geometry_limit(10**9):
        dense_topo = cls(side, side)
        dense = {
            name: np.array(getattr(dense_topo, name + "_matrix"))
            for name in MATRICES
        }
    with dense_geometry_limit(0):
        lazy_topo = cls(side, side)
        lazy = {
            name: getattr(lazy_topo, name + "_matrix") for name in MATRICES
        }
    return dense, lazy


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_lazy_mode_engages_below_forced_limit(case):
    cls, side = case
    dense, lazy = _twins(cls, side)
    for name in MATRICES:
        assert getattr(lazy[name], "is_lazy", False)
        assert not getattr(dense[name], "is_lazy", False)
        assert lazy[name].shape == dense[name].shape
        assert lazy[name].ndim == 2
        assert len(lazy[name]) == side * side
        assert lazy[name].dtype == dense[name].dtype


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_every_row_bitwise_equals_dense(case):
    cls, side = case
    dense, lazy = _twins(cls, side)
    n = side * side
    for name in MATRICES:
        for r in range(n):
            row = lazy[name].row(r)
            assert row.dtype == dense[name].dtype
            assert np.array_equal(row, dense[name][r])
            assert np.array_equal(lazy[name][r], dense[name][r])
        # 1-D fancy row stack: the whole matrix as one transient block.
        assert np.array_equal(
            lazy[name][list(range(n))], dense[name]
        )


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_scalars_and_row_sections_equal_dense(case):
    cls, side = case
    dense, lazy = _twins(cls, side)
    n = side * side
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, n, size=(16, 2))
    for name in MATRICES:
        for i, j in pairs:
            assert lazy[name][int(i), int(j)] == dense[name][i, j]
        # Row sections: [i, cols] and [i, lo:hi] read through the row.
        cols = [0, n - 1, n // 2]
        assert np.array_equal(lazy[name][1, cols], dense[name][1, cols])
        assert np.array_equal(lazy[name][2, 1:5], dense[name][2, 1:5])


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_broadcast_lookup_equals_dense(case):
    """The Eq 2 kernel's ``dist[cores[:, None], banks[None, :]]``."""
    cls, side = case
    dense, lazy = _twins(cls, side)
    n = side * side
    rng = np.random.default_rng(11)
    cores = rng.integers(0, n, size=5)
    banks = rng.integers(0, n, size=7)
    for name in MATRICES:
        got = lazy[name][cores[:, None], banks[None, :]]
        want = dense[name][cores[:, None], banks[None, :]]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # Repeated row indices must not confuse the unique-row chunking.
    dup = np.array([3, 3, 0, 3])
    assert np.array_equal(
        lazy["distance"][dup[:, None], banks[None, :]],
        dense["distance"][dup[:, None], banks[None, :]],
    )


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_column_reads_equal_dense(case):
    cls, side = case
    dense, lazy = _twins(cls, side)
    n = side * side
    # Single columns and column blocks ride the hop metric's symmetry —
    # distance only.
    assert np.array_equal(lazy["distance"][:, 3], dense["distance"][:, 3])
    cols = [n - 1, 0, n // 3]
    assert np.array_equal(
        lazy["distance"][:, cols], dense["distance"][:, cols]
    )
    for name in ("order", "sorted_distance"):
        with pytest.raises(NotImplementedError, match="not symmetric"):
            lazy[name][:, 3]
    # Window slices need no symmetry: chunked row walks serve any matrix
    # (the contention kernels read [:, :m] spiral windows).
    for name in MATRICES:
        assert np.array_equal(lazy[name][:, :5], dense[name][:, :5])
        assert np.array_equal(lazy[name][:, 2:9:2], dense[name][:, 2:9:2])


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_row_means_and_derived_queries_equal_dense(case):
    cls, side = case
    with dense_geometry_limit(10**9):
        dense_topo = cls(side, side)
        dense_means = dense_topo.distance_matrix.mean(axis=1)
        dense_center = dense_topo.center_tile()
        dense_spirals = [
            dense_topo.tiles_by_distance(c) for c in range(side * side)
        ]
        dense_mean_d = [
            dense_topo.mean_distance(c) for c in range(side * side)
        ]
    with dense_geometry_limit(0):
        lazy_topo = cls(side, side)
        assert lazy_topo.distance_matrix.is_lazy
        assert np.array_equal(
            lazy_topo.distance_matrix.mean(axis=1), dense_means
        )
        assert lazy_topo.center_tile() == dense_center
        for c in range(side * side):
            assert lazy_topo.tiles_by_distance(c) == dense_spirals[c]
            assert lazy_topo.mean_distance(c) == dense_mean_d[c]


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_asarray_refuses_to_densify(case):
    cls, side = case
    _, lazy = _twins(cls, side)
    for name in MATRICES:
        with pytest.raises(RuntimeError, match="refusing to densify"):
            np.asarray(lazy[name])
        with pytest.raises(RuntimeError, match="refusing to densify"):
            np.array(lazy[name])


def test_unsupported_indexing_raises_not_silently_densifies():
    _, lazy = _twins(Mesh, 4)
    mat = lazy["distance"]
    with pytest.raises(NotImplementedError):
        mat[0:3]  # row slices are not a kernel pattern
    with pytest.raises(NotImplementedError):
        mat[np.zeros((2, 2), dtype=np.int64)]  # 2-D row index array
    with pytest.raises(IndexError):
        mat.row(16)
    with pytest.raises(IndexError):
        mat.row(-1)


def test_mean_only_reduces_along_rows():
    _, lazy = _twins(Mesh, 4)
    with pytest.raises(NotImplementedError):
        lazy["distance"].mean()
    with pytest.raises(NotImplementedError):
        lazy["distance"].mean(axis=0)


def test_default_limit_keeps_paper_scale_dense():
    """The paper's 64-tile chip (and everything up to 1024 tiles) still
    builds dense ndarrays — the lazy path only engages beyond the limit,
    so pre-PR-7 behavior is untouched at evaluated scales."""
    assert DENSE_GEOMETRY_TILE_LIMIT == 1024
    topo = Mesh(8, 8)
    assert isinstance(topo.distance_matrix, np.ndarray)
    assert not getattr(topo.order_matrix, "is_lazy", False)


# -- shared store under concurrency -----------------------------------------


def test_shared_row_store_safe_under_concurrent_readers():
    """Eight topology instances of the same dimensions, eight threads
    reading every row of each concurrently: all reads are bitwise the
    dense matrix, and all instances share one store with exactly one
    cached array per row (the share-one-array invariant)."""
    side = 12  # 144 tiles; dimensions unused elsewhere in the suite
    n = side * side
    with dense_geometry_limit(10**9):
        dense = np.array(Mesh(side, side).distance_matrix)
    with dense_geometry_limit(0):
        topos = [Mesh(side, side) for _ in range(8)]
        mats = [t.distance_matrix for t in topos]
    assert all(m.is_lazy for m in mats)
    assert len({id(m._store) for m in mats}) == 1

    start = threading.Barrier(8)

    def read_all(mat):
        start.wait()  # maximize overlap on the cold store
        order = np.random.default_rng(id(mat) % 2**32).permutation(n)
        return np.stack([mat.row(int(r)) for r in order])[np.argsort(order)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        stacks = list(pool.map(read_all, mats))
    for stack in stacks:
        assert np.array_equal(stack, dense)
    store = mats[0]._store
    # The row caches are guarded mappings under REPRO_CHECK_LOCKS=1, so
    # even test-only introspection must hold the geometry lock.
    from repro.geometry import mesh as mesh_mod

    with mesh_mod._GEOMETRY_LOCK:
        assert len(store.rows["distance"]) == n
        # Re-reads serve the one cached array, not fresh copies.
        cached_ids = {r: id(arr) for r, arr in store.rows["distance"].items()}
    assert all(id(mats[3].row(r)) == cached_ids[r] for r in range(n))


# -- allocation accounting ---------------------------------------------------


def test_allocation_stats_see_lazy_rows_once():
    reset_geometry_allocation_stats()
    with dense_geometry_limit(0):
        topo = Mesh(5, 7)  # dimensions unused elsewhere in the suite
        topo.distance_matrix.row(0)
        topo.distance_matrix.row(0)  # cache hit: not recounted
        topo.order_matrix.row(3)
    stats = geometry_allocation_stats()
    assert stats.dense_matrices == 0
    assert stats.lazy_rows == 2
    assert stats.cached_bytes == 35 * 4 + 35 * 8  # one int32 + one int64 row
    assert stats.cached_mib() == stats.cached_bytes / 2**20


def test_allocation_stats_see_dense_builds():
    reset_geometry_allocation_stats()
    with dense_geometry_limit(10**9):
        topo = Mesh(7, 5)  # distinct key from the (5, 7) mesh above
        topo.distance_matrix
        topo.order_matrix
    stats = geometry_allocation_stats()
    assert stats.dense_matrices == 2
    assert stats.lazy_rows == 0
    assert stats.cached_bytes == 35 * 35 * 4 + 35 * 35 * 8
    assert stats.peak_block_bytes == 35 * 35 * 8


def test_dense_reference_bytes():
    # int32 distance + int64 order + int32 sorted distance
    assert dense_geometry_bytes(16384) == 16384 * 16384 * 16
    assert dense_geometry_bytes(64) == 64 * 64 * 16


def test_4096_tile_problem_build_allocates_no_dense_matrix():
    """The PR 7 headline regression: building a full 4096-tile placement
    problem (memory-controller geometry included) must never allocate a
    dense O(N²) geometry block — neither cached nor transient."""
    from repro.config import scaled_mesh_config
    from repro.nuca.base import build_problem
    from repro.workloads.mixes import random_single_threaded_mix

    tiles = 4096
    reset_geometry_allocation_stats()
    mix = random_single_threaded_mix(64, 42, 0)
    problem = build_problem(mix, scaled_mesh_config(tiles))
    assert problem.topology.tiles == tiles
    for name in MATRICES:
        assert getattr(problem.topology, name + "_matrix").is_lazy

    stats = geometry_allocation_stats()
    one_dense_int32 = tiles * tiles * 4
    assert stats.dense_matrices == 0
    # The largest single block (including transients) stays far under one
    # dense int32 matrix — chunked row walks, never a full build.
    assert stats.peak_block_bytes < one_dense_int32 // 4
    # And what the build retains is a sliver of the dense trio.
    assert stats.cached_bytes < dense_geometry_bytes(tiles) // 10


# -- hierarchical scalability, end to end ------------------------------------


def _interval_mcycles() -> float:
    from repro.config import scaled_mesh_config

    config = scaled_mesh_config(4096)
    return config.scheduler.reconfigure_interval_cycles / 1e6


def test_576_tile_hierarchical_point_fits_interval():
    """Fast tier-1 smoke of the full scalability job body on a 24x24
    mesh: the hierarchical solve's modeled critical path fits the 50
    Mcycle reconfiguration interval."""
    from repro.experiments.scalability import scalability_point

    record = scalability_point(576, seed=42, mix_id=0,
                               strategy="hierarchical")
    assert record["strategy"] == "hierarchical"
    assert record["n_apps"] == 576
    assert 0.0 < record["modeled_mcycles"] < _interval_mcycles()
    assert record["step_mcycles"]["stitch"] > 0.0
    assert record["aggregate_ipc"] > 0.0


@pytest.mark.slow
def test_4096_tile_hierarchical_point_fits_interval():
    """The PR 7 acceptance gate, end to end through the experiment job
    body: a 4096-tile hierarchical solve fits the 50 Mcycle interval
    (modeled critical path), where the flat full solve cannot."""
    from repro.experiments.scalability import scalability_point

    record = scalability_point(4096, seed=42, mix_id=0,
                               strategy="hierarchical")
    interval = _interval_mcycles()
    assert record["modeled_mcycles"] < interval
    # The critical path beats serializing the whole op count — the
    # parallel hierarchy is what buys the headroom.
    assert record["modeled_mcycles"] < record["model_mcycles"]
    assert sum(record["step_mcycles"].values()) == pytest.approx(
        record["model_mcycles"]
    )
