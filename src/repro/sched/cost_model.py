"""The analytical cost model of Sec IV-A (Eqs 1 and 2).

Total memory access latency splits into:

* **off-chip** (Eq 1): ``sum_{t,d} a_{t,d} * M_d(s_d) * MemLatency`` —
  every miss pays the (placement-independent) memory latency;
* **on-chip** (Eq 2): ``sum_{t,b} alpha_{t,b} * D(c_t, b)`` — every LLC
  access pays the network distance to the bank serving it, where
  ``alpha_{t,b}`` spreads thread t's accesses across banks in proportion
  to each VC's per-bank capacity (the VTB hashing property).

The same functions also build the *latency curves* allocation optimizes
over (Fig 5): off-chip falls with capacity, on-chip rises, and the sweet
spot minimizes the sum.  Before placement is known, the on-chip term uses
the **optimistic** compact placement around the chip center (Fig 6).

Shape conventions
-----------------
With ``K = len(problem.vcs)``, ``N = topology.tiles`` and
``Q = total_bytes // quantum`` (all ``float64`` unless noted):

* ``latency_curves_batch`` / ``miss_only_curves_batch`` — ``(K, Q+1)``;
  row *i* is VC *i*'s total-latency (resp. off-chip-only) curve indexed by
  allocated quanta, bitwise row-for-row what the scalar
  :func:`latency_curve` / :func:`miss_only_curve` return;
* ``optimistic_on_chip_curve`` — ``(Q+1,)`` mean hops per allocation size;
* ``reader_hops`` — ``(P,)`` expected hops, one per (VC spread, reader
  core) pair the evaluation reads, plus ``(V,)`` memory-controller hops;
* :func:`off_chip_latency` / :func:`on_chip_latency` flatten their
  ``(threads, banks)`` term matrices in (VC, thread, bank) loop order
  and reduce with :func:`repro.util.sums.ordered_sums` (sequential adds),
  so totals are bitwise the one-term-at-a-time loop's.
"""

from __future__ import annotations

import numpy as np

from repro.cache.miss_curve import MissCurve, MissCurveBatch
from repro.geometry.mesh import Topology
from repro.sched.problem import PlacementProblem, PlacementSolution
from repro.util.sums import ordered_sums


def round_trip_cycles_per_hop(problem: PlacementProblem) -> float:
    """Cost of one hop of distance, counted both ways (request + response)."""
    return 2.0 * problem.config.noc.hop_latency


def off_chip_latency(problem: PlacementProblem, solution: PlacementSolution) -> float:
    """Eq 1: total off-chip latency (access-rate units x cycles).

    All VCs' miss curves are probed in one batched call; the terms are
    reduced in VC order with sequential adds.
    """
    vcs = problem.vcs
    if not vcs:
        return 0.0
    sizes = np.array(
        [solution.vc_sizes.get(vc.vc_id, 0.0) for vc in vcs], dtype=np.float64
    )
    misses = MissCurveBatch([vc.miss_curve for vc in vcs])(sizes)
    rate_arr = np.array(vc_access_rates(problem), dtype=np.float64)
    active = rate_arr > 0
    if not np.any(active):
        return 0.0
    fractions = np.minimum(misses[active], rate_arr[active]) / rate_arr[active]
    terms = rate_arr[active] * fractions * problem.mem_latency
    return float(ordered_sums(terms))


def on_chip_latency(problem: PlacementProblem, solution: PlacementSolution) -> float:
    """Eq 2: total on-chip (L2 <-> LLC) latency under a placement.

    Per VC, an (accessors x banks) outer-product term matrix against the
    distance matrix, flattened in (thread, bank) row-major order and
    reduced with sequential adds.
    """
    per_hop = round_trip_cycles_per_hop(problem)
    dist = problem.topology.distance_matrix
    term_blocks: list[np.ndarray] = []
    for vc in problem.vcs:
        per_bank = solution.vc_allocation.get(vc.vc_id, {})
        caps = np.fromiter(per_bank.values(), dtype=np.float64, count=len(per_bank))
        size = float(ordered_sums(caps))
        if size <= 0:
            continue
        accessors = problem.accessors_of(vc.vc_id)
        if not accessors:
            continue
        banks = np.fromiter(per_bank.keys(), dtype=np.int64, count=len(per_bank))
        rates = np.fromiter(accessors.values(), dtype=np.float64, count=len(accessors))
        cores = np.fromiter(
            (solution.thread_cores[t] for t in accessors),
            dtype=np.int64,
            count=len(accessors),
        )
        weights = rates[:, None] * (caps / size)[None, :]
        term_blocks.append(
            ((weights * dist[cores[:, None], banks[None, :]]) * per_hop).ravel()
        )
    if not term_blocks:
        return 0.0
    return float(ordered_sums(np.concatenate(term_blocks)))


def total_latency(problem: PlacementProblem, solution: PlacementSolution) -> float:
    """The objective CDCS minimizes: Eq 1 + Eq 2."""
    return off_chip_latency(problem, solution) + on_chip_latency(problem, solution)


# ---------------------------------------------------------------------------
# Evaluation hop sums (Eq 2 at the cores that read each VC)
# ---------------------------------------------------------------------------

#: Elements per ``(pairs, width)`` block of :func:`reader_hops`'s gathers.
_HOP_BLOCK = 1 << 22


def reader_hops(
    dist,
    mc_dist: np.ndarray,
    bank_idx: np.ndarray,
    weights: np.ndarray,
    pair_row: np.ndarray,
    pair_core: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected access hops of VC spreads, summed only at reader cores.

    Row *i* of the ``(R, W)`` matrices *bank_idx* and *weights* is one
    VC's spread: the banks its accesses go to and the normalized access
    fractions, in spread order, padded past its end with zero weights.
    Pair *p* asks for row ``pair_row[p]`` seen from core ``pair_core[p]``
    (the evaluation reads a VC only from the cores of threads that
    access it).  Returns ``(hops, mc_hops)``: ``hops[p]`` is pair *p*'s
    expected access distance and ``mc_hops[i]`` row *i*'s expected
    memory-controller distance.  *dist* may be a dense matrix or a
    :class:`~repro.geometry.mesh.LazyGeometryMatrix`; both serve the
    ``[cores[:, None], banks]`` lookup, the lazy one from row sections.

    Bitwise contract: ``hops[p]`` equals
    ``np.cumsum(fracs * dist[core, banks])[-1]`` exactly — the scalar
    reference's sequential sum in spread order.  Every padded term
    contributes ``x + 0.0`` to a non-negative partial sum, which is the
    identity in IEEE float64, so padding width never changes a result.
    """
    mc_hops = np.cumsum(weights * mc_dist[bank_idx], axis=1)[:, -1]
    hops = np.empty(len(pair_row), dtype=np.float64)
    step = max(1, _HOP_BLOCK // weights.shape[1])
    for lo in range(0, len(pair_row), step):
        rows, cores = pair_row[lo:lo + step], pair_core[lo:lo + step, None]
        terms = weights[rows] * dist[cores, bank_idx[rows]]
        hops[lo:lo + step] = np.cumsum(terms, axis=1)[:, -1]
    return hops, mc_hops


# ---------------------------------------------------------------------------
# Latency curves for allocation (Sec IV-C)
# ---------------------------------------------------------------------------


#: Optimistic distance tables by :func:`optimistic_table_key`: every
#: problem of one chip shape shares one read-only table, though each
#: problem builds its own topology object.  Bounded by wholesale
#: clearing; dict get/set/clear are GIL-atomic and losing a race only
#: builds an equal table.
_DISTANCE_TABLES: dict[tuple, np.ndarray] = {}
_DISTANCE_TABLES_MAX = 64


def _optimistic_distance_table(
    topology: Topology, bank_bytes: int, quantum: int
) -> np.ndarray:
    """Mean hops of a compact center placement, per allocation size.

    Entry q is the average access distance of a VC of ``q`` quanta placed
    compactly around the chip's center tile (Fig 6).

    Built from one prefix sum over the center's spiral distances: a
    q-quanta footprint covers ``n`` full banks plus a fractional one, so
    its weighted distance is ``prefix[n-1] + frac * D[n]``.  Full-bank
    hop sums are integer-exact in float64, so every entry is bitwise the
    mean distance of the footprint's banks, summed one at a time.
    """
    center = topology.center_tile()
    max_quanta = topology.tiles * (bank_bytes // quantum)
    # Spiral distances from the center and their (exact) prefix sums.
    ranked = topology.sorted_distance_matrix[center].astype(np.float64)
    prefix = np.cumsum(ranked)
    q = np.arange(max_quanta + 1, dtype=np.int64)
    size_banks = np.minimum(q * quantum / bank_bytes, float(topology.tiles))
    full = np.floor(size_banks).astype(np.int64)
    frac = size_banks - full
    partial = frac > 1e-12
    last = ranked[np.minimum(full, topology.tiles - 1)]
    weighted = np.where(full > 0, prefix[np.maximum(full, 1) - 1], 0.0)
    weighted = weighted + np.where(partial, frac * last, 0.0)
    total = full + np.where(partial, frac, 0.0)
    table = np.divide(
        weighted, total, out=np.zeros_like(weighted), where=total > 0
    )
    table[0] = 0.0
    return table


def optimistic_table_key(problem: PlacementProblem) -> tuple:
    """Content identity of the problem's optimistic distance table: the
    topology's ``cache_key()`` with the bank bytes and the quantum.  A
    topology with no content key stands for itself (hashed by identity)."""
    topology = problem.topology
    try:
        shape = topology.cache_key()
    except (AttributeError, NotImplementedError):
        shape = topology
    return (shape, problem.bank_bytes, problem.quantum)


def optimistic_on_chip_curve(problem: PlacementProblem) -> np.ndarray:
    """Per-quantum optimistic on-chip hop distances for this chip
    (read-only, shared by every problem of the chip's shape)."""
    key = optimistic_table_key(problem)
    table = _DISTANCE_TABLES.get(key)
    if table is None:
        table = _optimistic_distance_table(
            problem.topology, problem.bank_bytes, problem.quantum
        )
        table.setflags(write=False)
        if len(_DISTANCE_TABLES) >= _DISTANCE_TABLES_MAX:
            _DISTANCE_TABLES.clear()
        _DISTANCE_TABLES[key] = table
    return table


def latency_curve(
    problem: PlacementProblem,
    miss_curve: MissCurve,
    access_rate: float,
) -> np.ndarray:
    """Total-latency curve of one VC, indexed by allocated quanta.

    ``L(q) = MemLat * misses(q) + per_hop * access_rate * dist_opt(q)``
    (Fig 5).  Allocation minimizes the sum of these over VCs.  The distance
    term uses the optimistic table; Sec IV-C notes this underestimates
    contention, which the later steps correct.
    """
    if access_rate < 0:
        raise ValueError("access rate cannot be negative")
    dist = optimistic_on_chip_curve(problem)
    quanta = np.arange(len(dist), dtype=np.float64)
    sizes = quanta * problem.quantum
    misses = np.minimum(np.asarray(miss_curve(sizes)), access_rate)
    per_hop = round_trip_cycles_per_hop(problem)
    return problem.mem_latency * misses + per_hop * access_rate * dist


def miss_only_curve(
    problem: PlacementProblem,
    miss_curve: MissCurve,
    access_rate: float,
) -> np.ndarray:
    """Off-chip-only latency curve (what Jigsaw's allocator optimizes)."""
    max_quanta = problem.total_bytes // problem.quantum
    sizes = np.arange(max_quanta + 1, dtype=np.float64) * problem.quantum
    misses = np.minimum(np.asarray(miss_curve(sizes)), access_rate)
    return problem.mem_latency * misses


# ---------------------------------------------------------------------------
# Batched latency curves (all VCs at once)
# ---------------------------------------------------------------------------


def vc_access_rates(problem: PlacementProblem, vcs=None) -> list[float]:
    """Aggregate access rate per VC, in ``problem.vcs`` order (or in the
    order of *vcs*, a subset of them)."""
    return [
        sum(problem.accessors_of(vc.vc_id).values())
        for vc in (problem.vcs if vcs is None else vcs)
    ]


def latency_curves_batch(
    problem: PlacementProblem,
    rates: list[float] | None = None,
    vc_indices: list[int] | None = None,
) -> np.ndarray:
    """All VCs' total-latency curves as one (K, Q+1) matrix.

    Row *i* equals ``latency_curve(problem, problem.vcs[i].miss_curve,
    rates[i])`` bitwise: the shared quanta grid is evaluated through a
    :class:`MissCurveBatch` (same interpolation arithmetic) and the Eq 1 /
    Eq 2 terms are combined with the scalar expression's operation order.

    *vc_indices* restricts the build to those rows of ``problem.vcs``
    (the incremental warm start's dirty subset) — each row is per-VC
    independent, so the subset rows are bitwise the corresponding
    full-batch rows at O(subset) cost; without *rates*, only the subset's
    access rates are summed.
    """
    if vc_indices is None:
        vcs = problem.vcs
    else:
        vcs = [problem.vcs[i] for i in vc_indices]
        rates = None if rates is None else [rates[i] for i in vc_indices]
    rates = vc_access_rates(problem, vcs) if rates is None else rates
    if any(r < 0 for r in rates):
        raise ValueError("access rate cannot be negative")
    dist = optimistic_on_chip_curve(problem)
    quanta = np.arange(len(dist), dtype=np.float64)
    sizes = quanta * problem.quantum
    batch = MissCurveBatch([vc.miss_curve for vc in vcs])
    rate_arr = np.array(rates, dtype=np.float64)
    misses = np.minimum(batch.at_grid(sizes), rate_arr[:, None])
    per_hop = round_trip_cycles_per_hop(problem)
    return problem.mem_latency * misses + (per_hop * rate_arr)[:, None] * dist[None, :]


def miss_only_curves_batch(
    problem: PlacementProblem,
    rates: list[float] | None = None,
) -> np.ndarray:
    """All VCs' off-chip-only curves as one (K, Q+1) matrix (rows bitwise
    equal :func:`miss_only_curve`)."""
    rates = vc_access_rates(problem) if rates is None else rates
    max_quanta = problem.total_bytes // problem.quantum
    sizes = np.arange(max_quanta + 1, dtype=np.float64) * problem.quantum
    batch = MissCurveBatch([vc.miss_curve for vc in problem.vcs])
    rate_arr = np.array(rates, dtype=np.float64)
    misses = np.minimum(batch.at_grid(sizes), rate_arr[:, None])
    return problem.mem_latency * misses
