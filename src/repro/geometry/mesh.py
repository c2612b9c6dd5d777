"""Chip topologies and network distance.

CDCS only needs a distance function between tiles (Sec IV-B: "CDCS uses
arbitrary distance vectors, so it works with arbitrary topologies").  We
provide an abstract :class:`Topology` plus the concrete :class:`Mesh` used in
the paper's evaluation (X-Y routed, memory controllers at the edges) and a
:class:`Torus` to demonstrate topology independence.

Shape conventions
-----------------
With ``N = topology.tiles``, the vectorized placement kernels index three
matrices instead of recomputing distances:

* ``distance_matrix`` — ``(N, N) int32``; ``[a, b]`` is hops from a to b;
* ``order_matrix`` — ``(N, N) int64``; row ``c`` lists all tiles sorted by
  ``(distance from c, tile id)`` — the outward spiral of Fig 8;
* ``sorted_distance_matrix`` — ``(N, N) int32``; row ``c`` is
  ``distance_matrix[c]`` reordered by ``order_matrix[c]`` (non-decreasing).

All three are memoized process-wide per concrete (class, width, height),
so rebuilding a :class:`Mesh` per placement problem costs nothing.

Dense vs lazy
-------------
Up to :data:`DENSE_GEOMETRY_TILE_LIMIT` tiles the three matrices are the
dense ndarrays above.  Beyond it they become
:class:`LazyGeometryMatrix` stand-ins behind the *same* attribute API:
rows materialize on first access (bitwise what the dense builders
produce, cached per row in the shared store), column reads ride the hop
metric's symmetry, and nothing ever allocates the full O(N²) block — at
16384 tiles the dense trio would be ~4 GiB, while a hierarchical solve
touches only seam-local rows.  Sub-mesh topologies (a hierarchical
solve's regions) stay under the limit, so leaves keep their dense
per-region blocks.  :func:`geometry_allocation_stats` accounts every
geometry allocation; tests pin the "no dense N² at 4096 tiles" contract
against it.
"""

from __future__ import annotations

import contextlib
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.guards import guarded_mapping

#: Largest tile count whose geometry matrices are built dense.  Above it
#: the matrix properties return :class:`LazyGeometryMatrix` wrappers.
#: 1024 (a 32x32 mesh, 12 MiB for the dense trio) is the last size where
#: dense is clearly cheaper than per-row bookkeeping.
DENSE_GEOMETRY_TILE_LIMIT = 1024

_dense_tile_limit = DENSE_GEOMETRY_TILE_LIMIT

#: Guards the shared memo.  The co-scheduling service solves concurrent
#: chips on a thread pool, so two solves may want the same (class, dims)
#: matrices at once; without the lock both would build (wasting the
#: hottest precompute and breaking the share-one-array invariant the
#: isolation tests pin).  An RLock because a build may itself read
#: another shared matrix (order_matrix builds from distance_matrix).
#: Registered in ``tools/analyze``'s lock-discipline state registry;
#: under ``REPRO_CHECK_LOCKS=1`` every cache access asserts ownership.
_GEOMETRY_LOCK = threading.RLock()

#: Process-wide geometry memo: exact-class key -> {matrix name -> array
#: or lazy store}.  Rebuilt Mesh/Torus instances of the same dimensions
#: share the distance, spiral-order, and sorted-distance matrices
#: (placement problems construct a fresh topology per mix; at 1024 tiles
#: each argsort alone is a 1024x1024 stable sort, far too hot to redo per
#: epoch).  Lazy topologies share one row store per key the same way.
#: Cached arrays are published read-only (``flags.writeable = False``):
#: every consumer holds a view of the same block, so one in-place write
#: would silently corrupt every other solve in the process.
_SHARED_GEOMETRY_CACHE: dict[tuple, dict[str, object]] = guarded_mapping(
    _GEOMETRY_LOCK, "_SHARED_GEOMETRY_CACHE"
)


def _new_slot(key: tuple) -> dict[str, object]:
    """A per-key slot of the shared memo, lock-checked like its parent."""
    return guarded_mapping(_GEOMETRY_LOCK, f"geometry slot {key!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Publish *arr* read-only (shared-view immutability at the source)."""
    arr.flags.writeable = False
    return arr


def shared_geometry_matrices(key: tuple) -> dict[str, object] | None:
    """The cached matrices for *key* (read-only view for tests/tools)."""
    with _GEOMETRY_LOCK:
        slot = _SHARED_GEOMETRY_CACHE.get(key)
        return dict(slot) if slot is not None else None


@contextlib.contextmanager
def dense_geometry_limit(limit: int):
    """Temporarily override :data:`DENSE_GEOMETRY_TILE_LIMIT`.

    ``dense_geometry_limit(0)`` forces every *newly built* topology lazy
    (equivalence tests exercise the lazy path on small meshes this way);
    a huge limit forces dense.  Matrices already cached on an instance or
    in the shared store keep the mode they were built with — construct
    fresh topologies inside the context.
    """
    global _dense_tile_limit
    previous = _dense_tile_limit
    _dense_tile_limit = limit
    try:
        yield
    finally:
        _dense_tile_limit = previous


# ---------------------------------------------------------------------------
# Allocation accounting
# ---------------------------------------------------------------------------


@dataclass
class GeometryStats:
    """Running account of every geometry-matrix allocation since reset.

    *cached_bytes* is what the process retains (dense matrices plus
    materialized lazy rows — geometry caches never evict, so this is also
    the peak); *peak_block_bytes* is the largest single allocation seen,
    including transient row stacks, which is what catches an accidental
    dense O(N²) build on a path that should stay row-sparse.
    """

    dense_matrices: int = 0
    lazy_rows: int = 0
    cached_bytes: int = 0
    peak_block_bytes: int = 0

    def cached_mib(self) -> float:
        return self.cached_bytes / 2**20


_GEOMETRY_STATS = GeometryStats()


def geometry_allocation_stats() -> GeometryStats:
    """A snapshot of the process-wide geometry allocation account."""
    with _GEOMETRY_LOCK:
        return GeometryStats(
            dense_matrices=_GEOMETRY_STATS.dense_matrices,
            lazy_rows=_GEOMETRY_STATS.lazy_rows,
            cached_bytes=_GEOMETRY_STATS.cached_bytes,
            peak_block_bytes=_GEOMETRY_STATS.peak_block_bytes,
        )


def reset_geometry_allocation_stats() -> None:
    """Zero the account.  Caches stay warm: already-built matrices are
    served without re-counting, so tests wanting a clean reading should
    use dimensions not built earlier in the process."""
    with _GEOMETRY_LOCK:
        _GEOMETRY_STATS.dense_matrices = 0
        _GEOMETRY_STATS.lazy_rows = 0
        _GEOMETRY_STATS.cached_bytes = 0
        _GEOMETRY_STATS.peak_block_bytes = 0


def dense_geometry_bytes(tiles: int) -> int:
    """Bytes the dense matrix trio would occupy at *tiles* tiles (int32
    distance + int64 order + int32 sorted) — the baseline the lazy path's
    memory targets are quoted against."""
    return tiles * tiles * (4 + 8 + 4)


def _note_cached(arr: np.ndarray, dense: bool) -> None:
    with _GEOMETRY_LOCK:
        if dense:
            _GEOMETRY_STATS.dense_matrices += 1
        else:
            _GEOMETRY_STATS.lazy_rows += 1
        _GEOMETRY_STATS.cached_bytes += arr.nbytes
        _GEOMETRY_STATS.peak_block_bytes = max(
            _GEOMETRY_STATS.peak_block_bytes, arr.nbytes
        )


def _note_transient(nbytes: int) -> None:
    with _GEOMETRY_LOCK:
        _GEOMETRY_STATS.peak_block_bytes = max(
            _GEOMETRY_STATS.peak_block_bytes, nbytes
        )


# ---------------------------------------------------------------------------
# Lazy matrices
# ---------------------------------------------------------------------------


class _LazyRowStore:
    """Materialized rows for one lazy topology, shared per cache key.

    Maps matrix name -> {row index -> (tiles,) row}.  Guarded by
    :data:`_GEOMETRY_LOCK` like the dense memo, so every topology instance
    with the same (class, dims) key reuses the same rows."""

    def __init__(self):
        self.rows: dict[str, dict[int, np.ndarray]] = {
            name: guarded_mapping(_GEOMETRY_LOCK, f"lazy rows[{name}]")
            for name in ("distance", "order", "sorted_distance")
        }
        self.row_means: np.ndarray | None = None


#: Rows per transient block when a lazy matrix walks all rows (column
#: blocks, ``[:, :m]`` windows, row means).  256 rows of a 16384-tile
#: chip is a 16 MiB int32 block — large enough to amortize the builder,
#: small enough to never resemble a dense build.
_LAZY_ROW_CHUNK = 256


class LazyGeometryMatrix:
    """Row-sparse stand-in for one dense geometry matrix.

    Quacks like the ``(N, N)`` ndarray for exactly the access patterns
    the placement kernels use — integer rows, ``[i, j]`` scalars,
    ``[i, cols]`` row sections, 1-D fancy row stacks,
    ``[rows[:, None], cols[None, :]]`` broadcast lookups, ``[:, j]`` /
    ``[:, cols]`` columns (via the hop metric's symmetry, distance only),
    ``[:, :m]`` spiral windows, and ``mean(axis=1)`` — materializing rows
    on demand, bitwise what the dense builders produce.  Single rows are
    cached in the shared store; block reads are built chunked and stay
    transient.  Anything that would force the full O(N²) block (notably
    ``np.asarray``) raises instead of silently densifying.
    """

    is_lazy = True

    def __init__(self, topology: "Topology", name: str,
                 store: _LazyRowStore, dtype, symmetric: bool):
        self._topology = topology
        self._name = name
        self._store = store
        self.dtype = np.dtype(dtype)
        self._symmetric = symmetric
        n = topology.tiles
        self.shape = (n, n)
        self.ndim = 2

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LazyGeometryMatrix({self._name}, {self.shape[0]} tiles, "
            f"{len(self._store.rows[self._name])} rows materialized)"
        )

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError(
            f"refusing to densify the lazy {self._name} matrix of a "
            f"{self.shape[0]}-tile topology: some caller forced a full "
            f"O(N^2) materialization — read rows or blocks instead"
        )

    # -- row materialization ------------------------------------------------

    def row(self, r: int) -> np.ndarray:
        """Row *r*, built on first access and cached in the shared store.
        Callers must treat it read-only (the dense path hands out views of
        the shared matrix under the same contract)."""
        if not 0 <= r < self.shape[0]:
            raise IndexError(
                f"row {r} outside {self.shape[0]}-tile topology"
            )
        cache = self._store.rows[self._name]
        with _GEOMETRY_LOCK:
            cached = cache.get(r)
            if cached is None:
                cached = _freeze(
                    self._build_rows(np.array([r], dtype=np.int64))[0]
                )
                cache[r] = cached
                _note_cached(cached, dense=False)
            return cached

    def _build_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), N)`` block, bitwise the dense matrix's rows.

        Not cached: per-row stable argsort and take-along are independent
        of other rows, so a block equals the dense build's row subset.
        """
        topo = self._topology
        dist = topo._distance_rows(rows)
        if self._name == "distance":
            return dist
        order = np.argsort(dist, axis=1, kind="stable")
        if self._name == "order":
            return order
        return np.take_along_axis(dist, order, axis=1)

    # -- indexing -----------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.row(int(key))
        if isinstance(key, (list, np.ndarray)):
            rows = np.asarray(key, dtype=np.int64)
            if rows.ndim != 1:
                raise NotImplementedError(
                    "lazy geometry matrices take 1-D row index arrays"
                )
            block = self._build_rows(rows)
            _note_transient(block.nbytes)
            return block
        if isinstance(key, tuple) and len(key) == 2:
            r, c = key
            if isinstance(r, (int, np.integer)):
                return self.row(int(r))[c]
            if isinstance(r, slice) and r == slice(None):
                return self._column_section(c)
            if isinstance(r, (list, np.ndarray)) and isinstance(
                c, (list, np.ndarray)
            ):
                return self._broadcast_lookup(np.asarray(r), np.asarray(c))
        raise NotImplementedError(
            f"lazy geometry matrix does not support indexing with {key!r}"
        )

    def _column_section(self, c):
        """``[:, c]`` reads: window slices for any matrix, single columns
        and column blocks via symmetry (distance only)."""
        n = self.shape[0]
        if isinstance(c, slice):
            width = len(range(*c.indices(n)))
            out = np.empty((n, width), dtype=self.dtype)
            for lo in range(0, n, _LAZY_ROW_CHUNK):
                hi = min(lo + _LAZY_ROW_CHUNK, n)
                block = self._build_rows(np.arange(lo, hi, dtype=np.int64))
                _note_transient(block.nbytes)
                out[lo:hi] = block[:, c]
            _note_transient(out.nbytes)
            return out
        if not self._symmetric:
            raise NotImplementedError(
                f"the {self._name} matrix is not symmetric; only the "
                f"distance matrix supports lazy column reads"
            )
        if isinstance(c, (int, np.integer)):
            return self.row(int(c))
        cols = np.asarray(c, dtype=np.int64)
        if cols.ndim != 1:
            raise NotImplementedError(
                "lazy geometry matrices take 1-D column index arrays"
            )
        out = np.empty((n, cols.size), dtype=self.dtype)
        for lo in range(0, cols.size, _LAZY_ROW_CHUNK):
            hi = min(lo + _LAZY_ROW_CHUNK, cols.size)
            block = self._build_rows(cols[lo:hi])
            _note_transient(block.nbytes)
            out[:, lo:hi] = block.T
        _note_transient(out.nbytes)
        return out

    def _broadcast_lookup(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``mat[i, j]`` with broadcasting (the Eq 2 kernel's
        ``dist[cores[:, None], banks[None, :]]``), chunked over the
        distinct rows so no dense slab is built."""
        bi, bj = np.broadcast_arrays(i, j)
        out = np.empty(bi.shape, dtype=self.dtype)
        flat_i = bi.reshape(-1).astype(np.int64)
        flat_j = bj.reshape(-1).astype(np.int64)
        flat_out = out.reshape(-1)
        uniq = np.unique(flat_i)
        local = np.searchsorted(uniq, flat_i)
        for lo in range(0, uniq.size, _LAZY_ROW_CHUNK):
            hi = min(lo + _LAZY_ROW_CHUNK, uniq.size)
            block = self._build_rows(uniq[lo:hi])
            _note_transient(block.nbytes)
            sel = (local >= lo) & (local < hi)
            flat_out[sel] = block[local[sel] - lo, flat_j[sel]]
        return out

    # -- reductions ---------------------------------------------------------

    def mean(self, axis=None):
        """Row means (``axis=1``), chunked — bitwise ``dense.mean(axis=1)``
        because numpy reduces each row independently.  Distance row means
        are cached in the shared store (they anchor ``center_tile``)."""
        if axis != 1:
            raise NotImplementedError(
                "lazy geometry matrices only reduce with mean(axis=1)"
            )
        if self._name == "distance":
            with _GEOMETRY_LOCK:
                if self._store.row_means is not None:
                    return self._store.row_means
        n = self.shape[0]
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _LAZY_ROW_CHUNK):
            hi = min(lo + _LAZY_ROW_CHUNK, n)
            block = self._build_rows(np.arange(lo, hi, dtype=np.int64))
            _note_transient(block.nbytes)
            out[lo:hi] = block.mean(axis=1)
        if self._name == "distance":
            with _GEOMETRY_LOCK:
                if self._store.row_means is None:
                    self._store.row_means = _freeze(out)
                    _note_cached(out, dense=False)
                return self._store.row_means
        return out


class Topology(ABC):
    """A set of tiles with a hop-count metric between them."""

    def __init__(self, tiles: int):
        if tiles <= 0:
            raise ValueError(f"topology needs at least one tile, got {tiles}")
        self.tiles = tiles
        self._distance_order_cache: dict[int, list[int]] = {}

    @abstractmethod
    def distance(self, a: int, b: int) -> int:
        """Network distance between tiles *a* and *b* in hops."""

    def _shared_cache_key(self) -> tuple | None:
        """Key for the process-wide matrix memo; None disables sharing.
        Only exact, dimension-determined classes may share (a subclass with
        an overridden metric must not inherit the parent's matrices)."""
        return None

    def _build_distance_matrix(self) -> np.ndarray:
        mat = np.zeros((self.tiles, self.tiles), dtype=np.int32)
        for a in range(self.tiles):
            for b in range(self.tiles):
                mat[a, b] = self.distance(a, b)
        return mat

    def _distance_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), tiles) int32`` distance block, row i = distances
        from ``rows[i]`` — bitwise the same rows of
        :meth:`_build_distance_matrix` (the lazy path's builder).
        Subclasses with vectorizable metrics should override."""
        out = np.empty((len(rows), self.tiles), dtype=np.int32)
        for i, r in enumerate(rows):
            for b in range(self.tiles):
                out[i, b] = self.distance(int(r), b)
        return out

    def _geometry_is_lazy(self) -> bool:
        """Whether matrices built *now* would be lazy.  Frozen per matrix
        at first access by ``cached_property``."""
        return self.tiles > _dense_tile_limit

    def _lazy_store(self) -> _LazyRowStore:
        key = self._shared_cache_key()
        if key is None:
            store = getattr(self, "_private_lazy_store", None)
            if store is None:
                store = self._private_lazy_store = _LazyRowStore()
            return store
        with _GEOMETRY_LOCK:
            slot = _SHARED_GEOMETRY_CACHE.setdefault(key, _new_slot(key))
            store = slot.get("lazy")
            if store is None:
                store = slot["lazy"] = _LazyRowStore()
            return store

    def _shared_matrix(self, name: str, build) -> np.ndarray:
        """Build *name* once per (class, dimensions) and share it
        process-wide; topologies without a shared key build privately.
        Either way the result is frozen read-only: the dense memo's
        arrays are the canonical shared views the immutability checker
        (and the equivalence tests) assume nobody writes through."""
        key = self._shared_cache_key()
        if key is None:
            arr = _freeze(build())
            _note_cached(arr, dense=True)
            return arr
        with _GEOMETRY_LOCK:
            slot = _SHARED_GEOMETRY_CACHE.setdefault(key, _new_slot(key))
            cached = slot.get(name)
            if cached is None:
                cached = _freeze(build())
                slot[name] = cached
                _note_cached(cached, dense=True)
            return cached

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """(tiles x tiles) hop-count matrix; placement algorithms index
        this instead of recomputing distances.  Lazy above the dense tile
        limit (see module docstring) — same indexing API, rows on demand."""
        if self._geometry_is_lazy():
            return LazyGeometryMatrix(
                self, "distance", self._lazy_store(), np.int32, symmetric=True
            )
        return self._shared_matrix("distance", self._build_distance_matrix)

    @cached_property
    def order_matrix(self) -> np.ndarray:
        """(tiles, tiles) visit order: row c = tiles sorted by (distance
        from c, tile id).  A stable argsort of the distance matrix yields
        exactly :meth:`tiles_by_distance` for every center at once."""
        if self._geometry_is_lazy():
            return LazyGeometryMatrix(
                self, "order", self._lazy_store(), np.int64, symmetric=False
            )
        return self._shared_matrix(
            "order",
            lambda: np.argsort(self.distance_matrix, axis=1, kind="stable"),
        )

    @cached_property
    def sorted_distance_matrix(self) -> np.ndarray:
        """(tiles, tiles): row c = distances from c in visit order (the
        j-th entry is the distance to the j-th-closest tile)."""
        if self._geometry_is_lazy():
            return LazyGeometryMatrix(
                self, "sorted_distance", self._lazy_store(), np.int32,
                symmetric=False,
            )
        return self._shared_matrix(
            "sorted_distance",
            lambda: np.take_along_axis(
                self.distance_matrix, self.order_matrix, axis=1
            ),
        )

    def tiles_by_distance(self, center: int) -> list[int]:
        """Tiles sorted by distance from *center* (ties broken by tile id,
        so the order is deterministic).  Cached on dense topologies:
        placement algorithms call this for every candidate center of every
        VC.  Lazy topologies rebuild the list per call (the underlying
        order row stays cached) — a 16384-entry Python list per distinct
        center would quietly dominate the sparse footprint."""
        cached = self._distance_order_cache.get(center)
        if cached is None:
            cached = self.order_matrix[center].tolist()
            if not getattr(self.order_matrix, "is_lazy", False):
                self._distance_order_cache[center] = cached
        return cached

    def mean_distance(self, origin: int) -> float:
        """Average distance from *origin* to every tile (including itself).

        This is the S-NUCA expected hop count: lines are spread uniformly
        over all banks, so every access travels the mean distance.
        """
        return float(self.distance_matrix[origin].mean())

    def center_tile(self) -> int:
        """The tile minimizing mean distance to all others.  Memoized: it
        depends only on the topology, dense row means are an O(N²) pass,
        and thread placement asks on every solve."""
        return self._center_tile

    @cached_property
    def _center_tile(self) -> int:
        return int(np.argmin(self.distance_matrix.mean(axis=1)))


class Mesh(Topology):
    """2-D mesh with dimension-ordered (X-Y) routing, as in Table 2."""

    def __init__(self, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ValueError(f"invalid mesh {width}x{height}")
        self.width = width
        self.height = height
        super().__init__(width * height)

    def coords(self, tile: int) -> tuple[int, int]:
        """(x, y) coordinates of *tile*; tile ids are row-major."""
        if not 0 <= tile < self.tiles:
            raise IndexError(f"tile {tile} outside mesh of {self.tiles}")
        return tile % self.width, tile // self.width

    @cached_property
    def coord_array(self) -> np.ndarray:
        """(tiles, 2) int64 (x, y) coordinates, row t = ``coords(t)`` —
        the array the vectorized placement kernels use for centroid math."""
        ids = np.arange(self.tiles, dtype=np.int64)
        return np.stack([ids % self.width, ids // self.width], axis=1)

    def tile_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def distance(self, a: int, b: int) -> int:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def _shared_cache_key(self) -> tuple | None:
        if type(self) in (Mesh, Torus):
            return (type(self).__name__, self.width, self.height)
        return None

    def cache_key(self) -> tuple:
        """Content identity for the runner's result cache: a mesh/torus is
        fully determined by its class and dimensions (needed so a
        :class:`repro.sched.problem.PlacementProblem` — e.g. one region of a
        partitioned solve — can be a content-hashed job input).  Exact
        classes only, mirroring :meth:`_shared_cache_key`: a subclass with
        an overridden metric is *not* determined by (class name, width,
        height) and must define its own key rather than silently colliding
        with the parent's cached results."""
        if type(self) not in (Mesh, Torus):
            raise NotImplementedError(
                f"{type(self).__name__} must define its own cache_key(): "
                f"(class, width, height) does not determine a subclass "
                f"with an overridden metric"
            )
        return (type(self).__name__, self.width, self.height)

    def _build_distance_matrix(self) -> np.ndarray:
        xs = np.arange(self.tiles, dtype=np.int32) % self.width
        ys = np.arange(self.tiles, dtype=np.int32) // self.width
        dx = np.abs(xs[:, None] - xs[None, :])
        dy = np.abs(ys[:, None] - ys[None, :])
        return (self._fold(dx, dy)).astype(np.int32)

    def _distance_rows(self, rows: np.ndarray) -> np.ndarray:
        # The dense builder's broadcast restricted to a row subset: the
        # same elementwise integer math, so blocks are bitwise dense rows.
        xs = np.arange(self.tiles, dtype=np.int32) % self.width
        ys = np.arange(self.tiles, dtype=np.int32) // self.width
        rows = np.asarray(rows, dtype=np.int64)
        dx = np.abs(xs[rows][:, None] - xs[None, :])
        dy = np.abs(ys[rows][:, None] - ys[None, :])
        return (self._fold(dx, dy)).astype(np.int32)

    def _fold(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Combine per-axis offsets into hop counts (mesh: plain sum)."""
        return dx + dy

    def neighbors(self, tile: int) -> list[int]:
        """Tiles one hop away (mesh links only)."""
        x, y = self.coords(tile)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append(self.tile_at(nx, ny))
        return out

    def memory_controller_tiles(self, controllers: int) -> list[int]:
        """Edge tiles adjacent to memory controllers.

        The paper's chip (Fig 3) puts controllers on all four edges; we
        spread ``controllers`` evenly around the perimeter, starting from the
        middle of each edge, matching the "average distance of all cores to
        memory controllers is the same" property Eq 1 relies on.
        """
        if controllers <= 0:
            raise ValueError("need at least one memory controller")
        perimeter: list[int] = []
        # Walk the perimeter clockwise from the top edge.
        for x in range(self.width):
            perimeter.append(self.tile_at(x, 0))
        for y in range(1, self.height):
            perimeter.append(self.tile_at(self.width - 1, y))
        if self.height > 1:
            for x in range(self.width - 2, -1, -1):
                perimeter.append(self.tile_at(x, self.height - 1))
        if self.width > 1:
            for y in range(self.height - 2, 0, -1):
                perimeter.append(self.tile_at(0, y))
        count = min(controllers, len(perimeter))
        step = len(perimeter) / count
        return [perimeter[int(i * step + step / 2) % len(perimeter)] for i in range(count)]

    def mean_memory_distance(self, origin: int, controllers: int) -> float:
        """Average hops from *origin* to a memory controller (pages are
        interleaved across controllers, Sec III)."""
        mcs = self.memory_controller_tiles(controllers)
        return float(np.mean([self.distance(origin, m) for m in mcs]))


class Torus(Mesh):
    """2-D torus: mesh with wraparound links.

    Not used in the paper's evaluation; it exists to exercise the
    arbitrary-topology claim of Sec IV-B in tests and examples.
    """

    def distance(self, a: int, b: int) -> int:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        dx = abs(ax - bx)
        dy = abs(ay - by)
        return min(dx, self.width - dx) + min(dy, self.height - dy)

    def _fold(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        return np.minimum(dx, self.width - dx) + np.minimum(dy, self.height - dy)
