"""The Fig 4 step kernels against their loop-at-a-time oracles
(``tests/oracles.py``) on random 4x4 to 8x8 meshes, dense and lazy.

Each kernel must equal its oracle with ``==`` in its results, in every
bank map's ``list(items())``, in every amount's ``type()`` and in
``list(counter.ops.items())``.  The inputs are built to sit on the
kernels' margins: contention tallies on 9th-decimal rounding boundaries
and gaps from 1e-9 to 3e-9 around the VC placement's 2e-9 preselection,
fractional thread points on and within 1e-12 of tile midpoints, rates
drawn from a few values so priorities and trade values tie exactly,
one-accessor and multi-accessor VCs, unaccessed VCs, and the warm
start's ``preplaced``, ``only_vcs``, ``initiators`` and ``ops_budget``.
"""

from __future__ import annotations

import builtins
import copy
import heapq
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import scalar_reference
from sum312 import sum_python_312
from repro.cache.miss_curve import MissCurve
from repro.config import small_test_config
from repro.geometry.mesh import Mesh, dense_geometry_limit
from repro.geometry.placement_math import center_of_mass, squared_point_distances
from repro.sched.allocation import _greedy_hull_allocation, convex_hull_indices
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem, ThreadSpec
from repro.sched.refinement import greedy_placement, trade_refinement
from repro.sched.thread_placement import place_threads
from repro.sched.vc_placement import OptimisticPlacement, place_optimistic
from repro.vcache.virtual_cache import VCKind, VirtualCache

CURVE = MissCurve([0.0, 1.0], [1.0, 0.0])
#: Rates and bank fractions from a few values, so sums and products tie.
RATES = [0.25, 0.5, 1.0, 2.0]
BANKS = [0.25, 0.5, 1.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, 2.0, 2.5, 4.0, 7.0]
#: Bytes off a size, so leftovers and free room land either side of the
#: 1e-9 margins of greedy seeding and trades.
JITTER = [0.0, 0.0, 0.0, 5e-10, -5e-10, 2e-9, -2e-9]

#: Mesh shapes from 4x4 to 8x8, less 5x7 and 7x5: the geometry stats
#: tests in ``tests/test_lazy_geometry.py`` need those shapes unbuilt.
SHAPES = [
    (w, h) for w in range(4, 9) for h in range(4, 9) if {w, h} != {5, 7}
]
chips = st.tuples(
    st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.booleans()
).map(lambda chip: (*chip[0], *chip[1:]))


def geometry(lazy: bool):
    """Every matrix a test builds is lazy, or dense."""
    return dense_geometry_limit(0 if lazy else 10**9)


def random_problem(width, height, rng):
    """Thread VCs (one accessor), process VCs (one or more), a global VC
    read by some threads and a VC nobody reads, and their sizes."""
    config = small_test_config(width, height)
    tiles = width * height
    n_threads = int(rng.integers(tiles // 4, tiles + 1))
    processes = np.sort(rng.integers(0, max(1, n_threads // 2), n_threads))
    uniform = rng.random() < 0.3

    def rate() -> float:
        return float(rng.uniform(0.01, 4.0)) if uniform else float(rng.choice(RATES))

    threads = []
    for t, p in enumerate(processes.tolist()):
        accesses = {t: rate(), 1000 + p: rate()}
        if rng.random() < 0.4:
            accesses[5000] = rate()
        threads.append(ThreadSpec(t, p, accesses))
    vcs = [VirtualCache(t, VCKind.THREAD, p, CURVE, owner_thread=t)
           for t, p in enumerate(processes.tolist())]
    vcs += [VirtualCache(1000 + p, VCKind.PROCESS, p, CURVE)
            for p in sorted(set(processes.tolist()))]
    vcs += [VirtualCache(5000, VCKind.GLOBAL, -1, CURVE),
            VirtualCache(6000, VCKind.GLOBAL, -1, CURVE)]
    problem = PlacementProblem(config, Mesh(width, height), vcs, threads)
    # Over- and under-committed chips: free room feeds the trades' moves.
    bank = problem.bank_bytes * float(rng.choice([0.25, 0.5, 1.0]))
    sizes = {
        vc.vc_id: 0.0 if rng.random() < 0.1
        else float(rng.choice(BANKS)) * bank + float(rng.choice(JITTER))
        for vc in vcs
    }
    return problem, sizes


def canon(allocation):
    """Bank maps with key order and every amount's type."""
    return [
        (vc_id, [(b, type(b), v, type(v)) for b, v in per_bank.items()])
        for vc_id, per_bank in allocation.items()
    ]


def cores_for(problem, rng):
    """Threads on random cores, or clustered on consecutive ones (their
    data then contends locally on a chip with room elsewhere)."""
    tiles = problem.topology.tiles
    if rng.random() < 0.5:
        cores = rng.permutation(tiles)
    else:
        cores = np.arange(tiles)
    cores = cores[: len(problem.threads)].tolist()
    return {t.thread_id: int(c) for t, c in zip(problem.threads, cores)}


# -- VC placement (Sec IV-D) ------------------------------------------------------


def near_tie_tally(tiles, rng):
    """Claims on 9th-decimal boundaries, a few ulps either side, with
    gaps of 1e-9 to 3e-9 above the least one."""
    base = float(rng.choice([0.0, 1.0, 37.0]))
    claimed = base + rng.integers(0, 3, tiles) * 1e-9 + rng.choice([0.0, 0.5e-9], tiles)
    gaps = rng.random(tiles) < 0.3
    claimed[gaps] = base + rng.uniform(1e-9, 3e-9, int(gaps.sum()))
    for _ in range(int(rng.integers(0, 3))):
        claimed = np.nextafter(claimed, np.where(rng.random(tiles) < 0.5, np.inf, -np.inf))
    return claimed


@settings(max_examples=30, deadline=None)
@given(chips)
def test_vc_placement_equals_the_window_scan(chip):
    width, height, seed, lazy = chip
    rng = np.random.default_rng(seed)
    with geometry(lazy):
        problem, sizes = random_problem(width, height, rng)
        claimed = None if rng.random() < 0.3 else near_tie_tally(width * height, rng)
        vc_ids = None
        if rng.random() < 0.4:
            vc_ids = {vc.vc_id for vc in problem.vcs if rng.random() < 0.6}
        got_ops, want_ops = StepCounter(), StepCounter()
        got = place_optimistic(problem, sizes, got_ops, vc_ids, claimed)
        want = oracles.place_optimistic(problem, sizes, want_ops, vc_ids, claimed)
    assert list(got.centers.items()) == list(want.centers.items())
    assert canon(got.footprints) == canon(want.footprints)
    assert list(got.centroids.items()) == list(want.centroids.items())
    assert got.claimed.tobytes() == want.claimed.tobytes()
    assert list(got_ops.ops.items()) == list(want_ops.ops.items())


# -- thread placement (Sec IV-E) ---------------------------------------------------


def near_tie_centroids(problem, rng):
    """Centroids on tile midpoints, or within 1e-12 of them."""
    jitter = [0.0, 0.0, 1e-13, -1e-13, 4e-13, 2e-12]
    centroids = {}
    for vc in problem.vcs:
        if rng.random() < 0.8:
            centroids[vc.vc_id] = tuple(
                float(rng.integers(0, 2 * side)) / 2 + float(rng.choice(jitter))
                for side in (problem.topology.width, problem.topology.height)
            )
    return OptimisticPlacement({}, {}, centroids, np.zeros(problem.topology.tiles))


@settings(max_examples=30, deadline=None)
@given(chips)
def test_thread_placement_equals_the_per_thread_rows(chip):
    width, height, seed, lazy = chip
    rng = np.random.default_rng(seed)
    with geometry(lazy):
        problem, sizes = random_problem(width, height, rng)
        optimistic = near_tie_centroids(problem, rng)
        only = taken = None
        if rng.random() < 0.5:
            only = {t.thread_id for t in problem.threads if rng.random() < 0.6}
            room = problem.topology.tiles - len(only)
            taken = set(rng.permutation(problem.topology.tiles)[: room].tolist())
        got_ops, want_ops = StepCounter(), StepCounter()
        got = place_threads(problem, sizes, optimistic, got_ops, only, taken)
        with scalar_reference():  # the per-point rows
            want = oracles.place_threads(
                problem, sizes, optimistic, want_ops, only, taken
            )
    assert list(got.items()) == list(want.items())
    assert list(got_ops.ops.items()) == list(want_ops.ops.items())


@settings(max_examples=30, deadline=None)
@given(chips, st.integers(0, 600))
def test_point_blocks_stack_the_per_point_rows(chip, count):
    width, height, seed, lazy = chip
    rng = np.random.default_rng(seed)
    with geometry(lazy):
        mesh = Mesh(width, height)
        points = [
            (int(rng.integers(0, width)), int(rng.integers(0, height)))
            if rng.random() < 0.2
            else tuple(rng.uniform(-1.0, max(width, height), 2).tolist())
            for _ in range(count)
        ]
        block = squared_point_distances(mesh, points)
    assert block.shape == (count, mesh.tiles) and block.dtype == np.float64
    for row, point in zip(block, points):
        assert row.tobytes() == oracles.point_distances(mesh, point).tobytes()


# -- data placement (Sec IV-F) ------------------------------------------------------


def warm_inputs(problem, sizes, cores, rng):
    """``(only_vcs, preplaced)``: nothing pinned, or a seeded part of
    the VCs kept in place and the rest re-seeded."""
    if rng.random() < 0.4:
        return None, None
    seed = greedy_placement(problem, sizes, cores)
    pinned = {v for v in seed if rng.random() < 0.6}
    preplaced = {v: dict(seed[v]) for v in pinned}
    return {vc.vc_id for vc in problem.vcs} - pinned, preplaced


@settings(max_examples=40, deadline=None)
@given(chips)
def test_greedy_seeding_equals_the_dict_state_loop(chip):
    width, height, seed, lazy = chip
    rng = np.random.default_rng(seed)
    with geometry(lazy):
        problem, sizes = random_problem(width, height, rng)
        cores = cores_for(problem, rng)
        only, preplaced = warm_inputs(problem, sizes, cores, rng)
        got_ops, want_ops = StepCounter(), StepCounter()
        got = greedy_placement(problem, sizes, cores, got_ops, only, preplaced)
        want = oracles.greedy_placement(
            problem, sizes, cores, want_ops, only, preplaced
        )
    assert canon(got) == canon(want)
    assert list(got_ops.ops.items()) == list(want_ops.ops.items())


@settings(max_examples=40, deadline=None)
@given(chips)
def test_trades_equal_the_array_state_pass(chip):
    width, height, seed, lazy = chip
    rng = np.random.default_rng(seed)
    with geometry(lazy):
        problem, sizes = random_problem(width, height, rng)
        cores = cores_for(problem, rng)
        only, preplaced = warm_inputs(problem, sizes, cores, rng)
        seed_allocation = greedy_placement(problem, sizes, cores, None, only, preplaced)
        initiators = only
        if only is None and rng.random() < 0.3:
            initiators = {v for v in seed_allocation if rng.random() < 0.5}
        budget = None if rng.random() < 0.6 else int(rng.integers(0, 60))
        runs = []
        for trade in (trade_refinement, oracles.trade_refinement):
            allocation = copy.deepcopy(seed_allocation)
            counter = StepCounter()
            counter.add("thread_placement", 7)  # ops before the pass
            trades = trade(problem, allocation, cores, counter, initiators, budget)
            runs.append((trades, canon(allocation), list(counter.ops.items())))
    assert runs[0] == runs[1]


# -- allocation (Sec IV-C) ------------------------------------------------------------


def reference_hull_walk(curves, budget, counter, step):
    """The best-first hull walk reading each segment's benefit off the
    curve as NumPy scalars."""
    hulls = [convex_hull_indices(c) for c in curves]
    for h in hulls:
        counter.add(step, len(h))
    sizes, cursor, heap = [0] * len(curves), [0] * len(curves), []

    def push_next(d):
        h = hulls[d]
        if cursor[d] + 1 < len(h):
            i0, i1 = h[cursor[d]], h[cursor[d] + 1]
            heapq.heappush(heap, (-((curves[d][i0] - curves[d][i1]) / (i1 - i0)), d))

    for d in range(len(curves)):
        push_next(d)
    remaining = budget
    while heap and remaining > 0:
        neg_benefit, d = heapq.heappop(heap)
        counter.add(step)
        if -neg_benefit <= 1e-12:
            break
        i0, i1 = hulls[d][cursor[d]], hulls[d][cursor[d] + 1]
        take = min(i1 - i0, remaining)
        sizes[d] += take
        remaining -= take
        if take == i1 - i0:
            cursor[d] += 1
            push_next(d)
    return sizes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_hull_walk_on_float_benefits_equals_the_scalar_walk(seed, budget):
    """Curves from a few step sizes, so segment benefits tie often and
    some are zero; each curve's hull and benefits come from one pass."""
    rng = np.random.default_rng(seed)
    steps = rng.choice([0.0, 0.5, 1.0, 3.0, 1e-13], (int(rng.integers(1, 12)), 12))
    curves = [np.cumsum(row[::-1])[::-1].copy() for row in steps]
    got_ops, want_ops = StepCounter(), StepCounter()
    got = _greedy_hull_allocation(curves, budget, got_ops, "allocation")
    want = reference_hull_walk(curves, budget, want_ops, "allocation")
    assert got == want
    assert list(got_ops.ops.items()) == list(want_ops.ops.items())


# -- scale and interpreter independence ---------------------------------------------


def test_thread_rows_stay_one_block_at_1024_threads():
    """At 32x32 with 1024 threads to place, the distance rows come in
    ``(256, 1024)`` blocks, each row a list only at its thread's turn:
    the traced peak stays far under one ``(1024, 1024)`` block (8 MiB)
    with its lists (about 24 MiB of floats more)."""
    rng = np.random.default_rng(3)
    tiles = 1024
    threads = [ThreadSpec(t, t, {t: float(rng.choice(RATES))}) for t in range(tiles)]
    vcs = [VirtualCache(t, VCKind.THREAD, t, CURVE, owner_thread=t) for t in range(tiles)]
    problem = PlacementProblem(small_test_config(32, 32), Mesh(32, 32), vcs, threads)
    sizes = {t: float(rng.choice(BANKS)) for t in range(tiles)}
    optimistic = OptimisticPlacement(
        {}, {}, {t: tuple(rng.uniform(0.0, 31.0, 2).tolist()) for t in range(tiles)},
        np.zeros(tiles),
    )
    problem.topology.coord_array  # geometry is built outside the trace
    problem.topology.center_tile()
    tracemalloc.start()
    try:
        got = place_threads(problem, sizes, optimistic)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert got == oracles.place_threads(problem, sizes, optimistic)


def test_lazy_trade_pass_caches_no_list_rows():
    """A trade pass on a lazy topology reads its distance rows as lists
    for the call only: the topology keeps no list row afterwards."""
    rng = np.random.default_rng(1)
    with geometry(lazy=True):
        problem, sizes = random_problem(8, 8, rng)
        topology = problem.topology
        assert topology.distance_matrix.is_lazy
        cores = cores_for(problem, rng)
        allocation = greedy_placement(problem, sizes, cores)
        before = {k: v for k, v in vars(topology).items() if k != "_distance_order_cache"}
        counter = StepCounter()
        assert trade_refinement(problem, allocation, cores, counter) > 0
    assert counter.ops["data_placement"] > 0
    assert topology._distance_order_cache == {}
    assert {k: v for k, v in vars(topology).items() if k != "_distance_order_cache"} == before


def test_decision_sums_do_not_depend_on_the_python_sum(monkeypatch):
    """Under CPython 3.12's compensated ``sum()``, ``1.0 + 1e-16 +
    1e-16`` reads ``1.0000000000000002``; left to right it is ``1.0``.
    A centroid and a thread's priority add left to right either way."""
    monkeypatch.setattr(builtins, "sum", sum_python_312)
    assert sum([1.0, 1e-16, 1e-16]) == 1.0000000000000002
    mesh = Mesh(4, 4)
    weights = {0: 1.0, 1: 1e-16, 2: 1e-16}
    total = 0.0
    x = y = 0.0
    for tile, w in weights.items():
        total += w
        x += w * mesh.coords(tile)[0]
        y += w * mesh.coords(tile)[1]
    assert total == 1.0
    assert center_of_mass(mesh, weights) == (x / total, y / total)
    # Thread 0's priority is 1.0 left to right, under thread 1's
    # 1.0000000000000002, so thread 1 takes the core both want (tile 5,
    # under every centroid) and thread 0 the lowest tile a hop away.
    threads = [
        ThreadSpec(0, 0, {10: 1.0, 11: 1e-16, 12: 1e-16}),
        ThreadSpec(1, 1, {13: 1.0000000000000002}),
    ]
    vcs = [VirtualCache(v, VCKind.GLOBAL, -1, CURVE) for v in (10, 11, 12, 13)]
    problem = PlacementProblem(small_test_config(4, 4), mesh, vcs, threads)
    sizes = {v: 1.0 for v in (10, 11, 12, 13)}
    optimistic = OptimisticPlacement(
        {}, {}, {v: (1.0, 1.0) for v in sizes}, np.zeros(mesh.tiles)
    )
    assert place_threads(problem, sizes, optimistic) == {1: 5, 0: 1}
