"""Exactness of the evaluation-path kernels.

Three kernels compute only what their callers read:

* :meth:`repro.cache.miss_curve.MissCurveBatch.balance_bisect` searches
  a lane's knots only while the clipped segment index differs between
  the two ends of its bracket, then finishes on gathered operands;
* :func:`repro.sched.cost_model.reader_hops` sums a VC's access hops only
  at the cores of the threads that read it;
* ``AnalyticSystem._finalize`` groups the threads by process in one pass
  instead of scanning every thread once per process.

Each is compared with ``==`` (on the raw bytes, so ``-0.0`` and ``0.0``
differ) against the full computation it replaced, kept below as the
reference.  The bisection cases put knots at dyadic fractions of the
capacity, so bisection midpoints land exactly on knots — the boundary
where a segment index changes — and mix single-point, flat and cliff
curves, capacities past the last knot, zero-capacity lanes, R-NUCA slice
transforms and per-lane pressures.  The hop sums run over fig11 and
fig15 items (fig15's process VCs are read from eight cores each), an
unread VC, the home-bank fallback spread and a lazy distance matrix.  The
process grouping runs over the same items and one 256-app chip epoch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache.miss_curve import MissCurve, MissCurveBatch, flat_curve
from repro.config import default_config, small_test_config
from repro.geometry import dense_geometry_limit
from repro.kernels import scalar_reference
from repro.mem.controller import MemoryControllers
from repro.model import system as system_module
from repro.model.system import AnalyticSystem
from repro.nuca import Cdcs, build_problem, standard_schemes
from repro.nuca.base import GLOBAL_VC_ID, SchemeResult
from repro.sched.cost_model import reader_hops
from repro.service.load import LoadSpec, build_chip
from repro.workloads.mixes import (
    random_multithreaded_mix,
    random_single_threaded_mix,
)

BISECT_CASES = 600
ITERS = 60

# ---------------------------------------------------------------------------
# References: the kernels as they were before the settled-segment,
# reader-core and process-grouping shortcuts.
# ---------------------------------------------------------------------------


def reference_balance_bisect(batch, pressure, capacity, iters):
    """The full-search loop: every lane searches all its knots every round."""
    k = len(batch.curves)
    lo = np.zeros(k)
    hi = np.full(k, capacity, dtype=np.float64)
    sizes2d, values2d = batch.sizes2d, batch.values2d
    sizes_flat, values_flat = sizes2d.ravel(), values2d.ravel()
    row_base = batch._rows * sizes2d.shape[1]
    seg_hi = batch._seg_hi
    first_x, first_y = batch._first_x, batch._first_y
    last_x, last_y = batch._last_x, batch._last_y
    arg_scale, divisor = batch._arg_scale, batch._value_divisor
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        q = mid if arg_scale is None else mid * arg_scale
        j = (sizes2d <= q[:, None]).sum(axis=1) - 1
        flat = row_base + j.clip(0, seg_hi)
        x0 = sizes_flat.take(flat)
        y0 = values_flat.take(flat)
        denom = sizes_flat.take(flat + 1) - x0
        slope = (values_flat.take(flat + 1) - y0) / np.where(
            denom == 0.0, 1.0, denom
        )
        val = slope * (q - x0) + y0
        val = np.where(q <= first_x, first_y, val)
        val = np.where(q >= last_x, last_y, val)
        if divisor is not None:
            val = val / divisor
        cond = val >= pressure * mid
        lo = np.where(cond, mid, lo)
        hi = np.where(cond, hi, mid)
    return 0.5 * (lo + hi)


def reference_spread_hops_batch(dist, mc_dist, spreads):
    """Every spread's expected hops from every core, in chunked
    ``(tiles, C, W)`` broadcast passes -> ``((V, tiles), (V,))``."""
    v = len(spreads)
    tiles = dist.shape[0]
    hops = np.empty((v, tiles), dtype=np.float64)
    mc_hops = np.empty(v, dtype=np.float64)
    chunk_rows = max(1, 4_000_000 // (tiles * tiles))
    for lo in range(0, v, chunk_rows):
        chunk = spreads[lo:lo + chunk_rows]
        width = max(len(banks) for banks, _ in chunk)
        bank_idx = np.zeros((len(chunk), width), dtype=np.int64)
        weights = np.zeros((len(chunk), width), dtype=np.float64)
        for i, (banks, fracs) in enumerate(chunk):
            bank_idx[i, :len(banks)] = banks
            weights[i, :len(fracs)] = fracs
        terms = weights[None, :, :] * dist[:, bank_idx]
        hops[lo:lo + len(chunk)] = np.cumsum(terms, axis=2)[:, :, -1].T
        mc_hops[lo:lo + len(chunk)] = np.cumsum(
            weights * mc_dist[bank_idx], axis=1
        )[:, -1]
    return hops, mc_hops


def reference_process_perf(mix, threads):
    """One scan over every thread per process."""
    perf = {}
    for proc in mix.processes:
        ipcs = [t.ipc for t in threads if t.process_id == proc.process_id]
        if len(ipcs) == 1:
            perf[proc.process_id] = ipcs[0]
        else:
            perf[proc.process_id] = len(ipcs) / sum(1.0 / i for i in ipcs)
    return perf


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Bisection
# ---------------------------------------------------------------------------


def dyadic_curve(rng, span: float) -> MissCurve:
    """Knots at ``span * m / 2**d``; C/2 (the first midpoint) is a knot."""
    depth = int(rng.integers(1, 9))
    grid = np.arange(2**depth + 1)
    count = int(rng.integers(1, len(grid) + 1))
    picks = set(rng.choice(grid, count, replace=False).tolist())
    picks.add(2 ** (depth - 1))
    if rng.random() < 0.3:
        # Stop short of the capacity: later queries lie past the last knot.
        picks = {m for m in picks if m <= 2 ** (depth - 1)}
    sizes = np.array(sorted(picks), dtype=np.float64) * (span / 2**depth)
    values = np.sort(rng.uniform(0.0, 60.0, len(sizes)))[::-1]
    if rng.random() < 0.3:
        values = rng.uniform(0.0, 60.0, len(sizes))  # non-monotone, too
    return MissCurve(sizes, values)


def lane_curve(rng, span: float) -> MissCurve:
    kind = rng.choice(["dyadic", "dyadic", "single", "flat", "cliff", "random"])
    if kind == "dyadic":
        return dyadic_curve(rng, span)
    if kind == "single":
        x = float(rng.choice([0.0, span / 4, span / 2, span, 2 * span]))
        return MissCurve([x], [float(rng.uniform(0.0, 40.0))])
    if kind == "flat":
        return flat_curve(span * float(rng.choice([0.5, 1.0, 2.0])),
                          float(rng.choice([0.0, 3.0])))
    if kind == "cliff":
        # A steep drop whose ends sit on dyadic fractions of the span.
        at = span * int(rng.integers(1, 8)) / 8
        sizes = [0.0, at - span / 64, at]
        if rng.random() < 0.5:
            sizes.append(span)
        values = [30.0, 30.0, 2.0] + [2.0] * (len(sizes) - 3)
        return MissCurve(sizes, values)
    n = int(rng.integers(2, 70))
    sizes = np.unique(rng.uniform(0.0, 1.2 * span, n))
    return MissCurve(sizes, rng.uniform(0.0, 50.0, len(sizes)))


def bisect_case(seed: int):
    """(batch, pressure, capacity) for one seeded case."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 40))
    # Few mantissa bits, so every midpoint of [0, C] is exact for dozens
    # of halvings and dyadic knots are hit exactly.
    capacity = float(int(rng.integers(1, 64)) * 2 ** int(rng.integers(10, 30)))
    rnuca = rng.random() < 0.4
    tiles = float(rng.choice([16.0, 36.0, 64.0]))
    scale = (
        np.where(rng.random(k) < 0.5, tiles, 1.0) if rnuca else None
    )
    curves = [
        lane_curve(rng, capacity * (1.0 if scale is None else scale[i]))
        for i in range(k)
    ]
    batch = MissCurveBatch(
        curves,
        arg_scale=None if scale is None else scale,
        value_divisor=None if scale is None else scale,
    )
    cap = capacity
    if rng.random() < 0.5:
        cap = np.full(k, capacity)
        cap[rng.random(k) < 0.2] = 0.0  # zero-capacity lanes
        cap[rng.random(k) < 0.2] = capacity / 2
    # Pressures that put roots inside the bracket, at its ends, and off it.
    probe = batch(np.asarray(cap) * rng.uniform(0.05, 1.0, k))
    root = probe / np.maximum(np.asarray(cap), 1.0)
    pressure = root if rng.random() < 0.5 else float(root[0])
    if rng.random() < 0.2:
        pressure = float(rng.choice([0.0, 1e-12, 1e3]))
    return batch, pressure, cap


@pytest.mark.parametrize("block", range(6))
def test_balance_bisect_matches_full_search(block):
    per_block = BISECT_CASES // 6
    for seed in range(block * per_block, (block + 1) * per_block):
        batch, pressure, cap = bisect_case(seed)
        got = batch.balance_bisect(pressure, cap, ITERS)
        want = reference_balance_bisect(batch, pressure, cap, ITERS)
        assert same_bits(got, want), seed


def test_bisect_cases_cover_the_edges():
    """The case generator really produces the inputs the module names."""
    knot_hits = transformed = zero_caps = past_last = vector_p = 0
    for seed in range(BISECT_CASES):
        batch, pressure, cap = bisect_case(seed)
        scale = 1.0 if batch._arg_scale is None else batch._arg_scale
        top = np.broadcast_to(np.asarray(cap) * scale, (len(batch),))
        knot_hits += int(np.any(batch.sizes2d == 0.5 * top[:, None]))
        transformed += batch._arg_scale is not None
        zero_caps += int(np.any(np.asarray(cap) == 0.0))
        past_last += int(np.any(batch._last_x < top))
        vector_p += np.ndim(pressure) == 1
    assert BISECT_CASES >= 500
    assert min(knot_hits, transformed, zero_caps, past_last, vector_p) >= 50


# ---------------------------------------------------------------------------
# Hop sums
# ---------------------------------------------------------------------------


def _items(config, mix):
    problem = build_problem(mix, config)
    return [(mix, problem, s.run(problem)) for s in standard_schemes(seed=1)]


def fig11_items():
    return _items(default_config(), random_single_threaded_mix(64, 11, 0))


def fig15_items():
    return _items(default_config(), random_multithreaded_mix(8, 15, 0))


def fallback_item():
    """A fig15 item whose solution leaves two read VCs without capacity
    (the home-bank fallback: owner's core, and the chip center for a
    process VC), and whose last thread names, at rate zero, the unread
    global VC and another process's VC (a read with zero weight)."""
    mix, problem, result = fig15_items()[4]
    solution = result.solution
    reader = next(t for t in problem.threads if len(t.vc_accesses) > 1)
    thread_vc = reader.thread_id
    process_vc = next(v for v in reader.vc_accesses if v != thread_vc)
    allocation = dict(solution.vc_allocation)
    allocation[thread_vc] = {}
    allocation[process_vc] = {}
    threads = list(problem.threads)
    last = threads[-1]
    assert process_vc not in last.vc_accesses
    threads[-1] = dataclasses.replace(
        last,
        vc_accesses={**last.vc_accesses, GLOBAL_VC_ID: 0.0, process_vc: 0.0},
    )
    problem = dataclasses.replace(problem, threads=threads)
    solution = dataclasses.replace(solution, vc_allocation=allocation)
    return mix, problem, SchemeResult(result.name, solution)


def reads(problem, solution, vc_spread) -> set[tuple[int, int]]:
    """The (VC, core) lookups the geometry pass makes into the hop table."""
    return {
        (vc_id, solution.thread_cores[t.thread_id])
        for t in problem.threads
        if t.total_accesses > 0
        for vc_id in t.vc_accesses
        if vc_id in vc_spread
    }


def check_item(system, item, reference_dist=None):
    """The reader-core tables equal the all-cores reference at every
    read, and the geometry built from either is identical."""
    mix, problem, result = item
    topo = problem.topology
    dist = topo.distance_matrix
    mc_dist = MemoryControllers(topo, system.config.memory).mean_distance_matrix
    vc_spread, vc_miss_ratio = system._spread_tables(problem, result)
    core_hops, mc_hops = system._vc_hop_tables(
        problem, result, dist, mc_dist, vc_spread
    )
    assert set(core_hops) == reads(problem, result.solution, vc_spread)
    assert list(mc_hops) == list(vc_spread)
    spreads = [
        (np.array(list(s.keys()), dtype=np.int64),
         np.array(list(s.values()), dtype=np.float64))
        for s in vc_spread.values()
    ]
    dense = dist if reference_dist is None else reference_dist
    all_hops, all_mc = reference_spread_hops_batch(dense, mc_dist, spreads)
    row = {vc_id: i for i, vc_id in enumerate(vc_spread)}
    for (vc_id, core), value in core_hops.items():
        assert same_bits(value, all_hops[row[vc_id], core]), (vc_id, core)
    for vc_id, value in mc_hops.items():
        assert type(value) is float and value == float(all_mc[row[vc_id]])
    full_table = {
        (vc_id, core): all_hops[i, core]
        for vc_id, i in row.items()
        for core in range(topo.tiles)
    }
    want = system._geometry_from_spreads(
        mix, problem, result, dense, mc_dist, vc_spread, vc_miss_ratio,
        full_table, mc_hops,
    )
    got = system._thread_geometry(mix, problem, result)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("mean_hops", "mc_hops", "miss_ratio"):
            assert type(g[key]) is type(w[key]) and same_bits(g[key], w[key])
    return got


@pytest.mark.parametrize("build", [fig11_items, fig15_items])
def test_reader_hops_match_all_cores_reference(build):
    system = AnalyticSystem(default_config())
    items = build()
    for item in items:
        check_item(system, item)
    if build is fig15_items:
        # Process VCs are read from several cores (the multi-reader case).
        _, problem, result = items[0]
        spread, _ = system._spread_tables(problem, result)
        readers: dict[int, int] = {}
        for vc_id, _ in reads(problem, result.solution, spread):
            readers[vc_id] = readers.get(vc_id, 0) + 1
        assert max(readers.values()) >= 8


def test_reader_hops_fallback_spreads_and_unread_vcs():
    system = AnalyticSystem(default_config())
    item = fallback_item()
    mix, problem, result = item
    spread, _ = system._spread_tables(problem, result)
    home = [s for s in spread.values() if list(s.values()) == [1.0]]
    assert len(home) >= 2
    assert GLOBAL_VC_ID not in spread  # named by a thread, but never read
    got = check_item(system, item)
    with scalar_reference():
        slow = system._thread_geometry(mix, problem, result)
    assert [g["mean_hops"] for g in got] == [s["mean_hops"] for s in slow]
    assert [g["mc_hops"] for g in got] == [s["mc_hops"] for s in slow]


def test_reader_hops_kernel_skips_unread_spreads():
    """A spread no pair names still gets its memory-controller distance,
    and never changes the pairs' sums."""
    rng = np.random.default_rng(3)
    config = default_config()
    topo = build_problem(random_single_threaded_mix(64, 11, 0), config).topology
    dist = topo.distance_matrix
    mc_dist = MemoryControllers(topo, config.memory).mean_distance_matrix
    spreads = []
    for width in (1, 3, 64, 7):
        banks = rng.choice(64, width, replace=False).astype(np.int64)
        fracs = rng.dirichlet(np.ones(width))
        spreads.append((banks, fracs))
    pair_spread = np.array([0, 2, 2, 3], dtype=np.int64)
    pair_core = np.array([5, 0, 63, 17], dtype=np.int64)
    hops, mc = reader_hops(dist, mc_dist, spreads, pair_spread, pair_core)
    all_hops, all_mc = reference_spread_hops_batch(dist, mc_dist, spreads)
    assert same_bits(hops, all_hops[pair_spread, pair_core])
    assert same_bits(mc, all_mc)
    none, mc_only = reader_hops(
        dist, mc_dist, spreads, np.zeros(0, np.int64), np.zeros(0, np.int64)
    )
    assert none.shape == (0,) and same_bits(mc_only, all_mc)


def test_reader_hops_on_lazy_matrices_match_dense():
    config = small_test_config(4, 4)
    mix = random_multithreaded_mix(2, 5, 0)
    dense_items = _items(config, mix)
    dense_dist = np.array(dense_items[0][1].topology.distance_matrix)
    system = AnalyticSystem(config)
    with dense_geometry_limit(0):
        lazy_items = _items(config, mix)
        assert getattr(lazy_items[0][1].topology.distance_matrix, "is_lazy", False)
        for lazy, dense in zip(lazy_items, dense_items):
            got = check_item(system, lazy, reference_dist=dense_dist)
            want = system._thread_geometry(*dense)
            assert [g["mean_hops"] for g in got] == [w["mean_hops"] for w in want]
            assert [g["mc_hops"] for g in got] == [w["mc_hops"] for w in want]


# ---------------------------------------------------------------------------
# Process grouping
# ---------------------------------------------------------------------------


def chip_epoch_items():
    """One epoch of a 256-app phased chip (seed 1) under CDCS placement."""
    _, sim = build_chip(LoadSpec(tiles=256, seed=1), 0)
    problem = sim.current_problem()
    result = Cdcs(seed=1).run(problem)
    return [(sim.current_mix(), problem, SchemeResult("epoch", result.solution))]


@pytest.mark.parametrize("build", [fig11_items, fig15_items, chip_epoch_items])
def test_process_grouping_matches_per_process_scan(build, monkeypatch):
    items = build()
    system = AnalyticSystem(items[0][1].config)
    got = [system.evaluate_solution(*item) for item in items]
    monkeypatch.setattr(
        system_module, "_process_perf", reference_process_perf
    )
    want = [system.evaluate_solution(*item) for item in items]
    for g, w in zip(got, want):
        assert list(g.process_perf) == list(w.process_perf)
        for pid, value in g.process_perf.items():
            assert same_bits(value, w.process_perf[pid]), pid
        assert g.process_app == w.process_app
        assert len(g.threads) == len(w.threads)
        for gt, wt in zip(g.threads, w.threads):
            assert gt == wt
    if build is fig15_items:
        assert any(
            sum(t.process_id == pid for t in got[0].threads) > 1
            for pid in got[0].process_perf
        )
