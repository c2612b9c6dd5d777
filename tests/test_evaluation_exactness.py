"""Exactness of the evaluation-path kernels.

* :meth:`repro.cache.miss_curve.MissCurveBatch.balance_bisect` searches
  a lane's knots only while the clipped segment index differs between
  the two ends of its bracket, then finishes on gathered operands;
* the LRU-sharing solve's premise: exact occupancies never rise with the
  pressure;
* :class:`repro.model.system.AnalyticSystem` evaluates every item of a
  call in one stacked pass: spread rows, reader-core hop sums
  (:func:`repro.sched.cost_model.reader_hops`), padded thread geometry,
  the DRAM fixed point on ``(items, threads)`` rows, and every aggregate
  as an ordered column sum.

Each is compared with ``==`` (on the raw bytes, so ``-0.0`` and ``0.0``
differ) against the computation it replaced, kept below as the
reference.  The evaluation's reference is the oracle: the per-thread
evaluation, thread by thread, with ``sum()`` written as a left-to-right
loop so it means the same on every Python.  The bisection cases put
knots at dyadic fractions of the capacity, so bisection midpoints land
exactly on knots — the boundary where a segment index changes — and mix
single-point, flat and cliff curves, capacities past the last knot,
zero-capacity lanes, R-NUCA slice transforms and per-lane pressures.  The
oracle corpus covers fig11, fig13, fig14, fig15 and fig16 items at
several seeds, a 4x4 chip, lazy geometry, home-bank fallbacks, threads
without accesses, a problem with no read VC, 256-tile chip epochs and a
batch mixing topologies and thread counts; every item is also checked
alone (the one-item call) against its batch result.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from oracles import ordered_sum, scalar_reference
from repro.cache.miss_curve import MissCurve, MissCurveBatch, flat_curve
from repro.config import default_config, small_test_config
from repro.experiments import sweeps
from repro.experiments.sweeps import (
    SweepResult,
    evaluate_mix,
    merge_mix_record,
    mix_record,
)
from repro.geometry import dense_geometry_limit
from repro.mem.controller import MemoryControllers
from repro.model import system as system_module
from repro.model.energy import energy_per_instruction
from repro.model.system import (
    MONITOR_SAMPLE_RATE,
    TRAFFIC_KEYS,
    AnalyticSystem,
    ThreadPerf,
)
from repro.nuca import Cdcs, build_problem, sharing, standard_schemes
from repro.nuca.base import GLOBAL_VC_ID, SchemeResult
from repro.sched import cost_model
from repro.sched.cost_model import reader_hops
from repro.service.load import LoadSpec, build_chip
from repro.testing import golden_mix
from repro.util.sums import ordered_sums
from repro.util.units import CACHE_LINE_BYTES
from repro.workloads.mixes import (
    make_mix,
    random_multithreaded_mix,
    random_single_threaded_mix,
)

BISECT_CASES = 600
ITERS = 60

# ---------------------------------------------------------------------------
# References: the kernels as they were before the settled-segment and
# reader-core shortcuts.
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
# Monotonicity of the sharing solve in the pressure
# ---------------------------------------------------------------------------

MONOTONE_CASES = 240


def sharing_case(seed: int):
    """(batch, groups, per-lane capacity, seeded pressures) for one case:
    lane_curve lanes split into up to four caches at mixed capacities."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 40))
    capacity = float(int(rng.integers(1, 64)) * 2 ** int(rng.integers(10, 30)))
    rnuca = rng.random() < 0.4
    tiles = float(rng.choice([16.0, 36.0, 64.0]))
    scale = np.where(rng.random(k) < 0.5, tiles, 1.0) if rnuca else np.ones(k)
    cuts = rng.choice(np.arange(1, k), min(k - 1, int(rng.integers(0, 4))),
                      replace=False)
    groups = np.split(np.arange(k), np.sort(cuts))
    group_cap = capacity * rng.choice([1.0, 0.5, 0.25], len(groups))
    lane_cap = np.repeat(group_cap, [len(g) for g in groups])
    curves = [lane_curve(rng, lane_cap[i] * scale[i]) for i in range(k)]
    transform = scale if rnuca else None
    batch = MissCurveBatch(curves, arg_scale=transform, value_divisor=transform)
    pressures = batch(lane_cap * rng.uniform(0.05, 1.0, k)) / lane_cap
    return batch, groups, lane_cap, pressures


def pressure_ladder(batch, lane_cap, pressures) -> np.ndarray:
    """Probe pressures, ascending: each seeded pressure with its float
    neighbours, ``1e-12``, and each lane's at-capacity threshold
    ``m(C) / C`` with the float just past it."""
    at_cap = batch(lane_cap) / lane_cap
    ladder = np.concatenate([
        pressures,
        np.nextafter(pressures, 0.0),
        np.nextafter(pressures, np.inf),
        [1e-12],
        at_cap,
        np.nextafter(at_cap, np.inf),
    ])
    return np.unique(ladder[ladder > 0.0])


@pytest.mark.parametrize("block", range(4))
def test_sharing_occupancies_fall_as_pressure_rises(block):
    """The premise of the sharing solve's proven windows: at ascending
    pressures, every lane's exact occupancy and every cache's stream-order
    total never rise."""
    per_block = MONOTONE_CASES // 4
    for seed in range(block * per_block, (block + 1) * per_block):
        batch, groups, lane_cap, pressures = sharing_case(seed)
        ladder = pressure_ladder(batch, lane_cap, pressures)
        k = len(batch)
        # Every ladder pressure in one lockstep solve: rung r is rows
        # r * k .. (r + 1) * k - 1 of the stacked batch.
        rows = np.tile(np.arange(k), len(ladder))
        occ = sharing._occupancies_at_pressure_batch(
            batch.take(rows),
            np.repeat(ladder, k),
            lane_cap[rows],
            batch(0.0)[rows],
            batch(lane_cap)[rows],
        ).reshape(len(ladder), k)
        assert np.all(np.diff(occ, axis=0) <= 0.0), seed
        for group in groups:
            totals = [sum(rung[group].tolist()) for rung in occ]
            assert all(b <= a for a, b in zip(totals, totals[1:])), seed


def test_sharing_cases_cover_the_edges():
    """The monotonicity cases mix transforms, several caches at different
    capacities, and ladders that cross at-capacity thresholds."""
    transformed = multi_cache = mixed_caps = crossings = 0
    for seed in range(MONOTONE_CASES):
        batch, groups, lane_cap, pressures = sharing_case(seed)
        ladder = pressure_ladder(batch, lane_cap, pressures)
        at_cap = batch(lane_cap) >= ladder[:, None] * lane_cap
        transformed += batch._arg_scale is not None
        multi_cache += len(groups) > 1
        mixed_caps += len(np.unique(lane_cap)) > 1
        crossings += int(np.any(at_cap[0] & ~at_cap[-1]))
    assert min(transformed, multi_cache, mixed_caps, crossings) >= 40


# ---------------------------------------------------------------------------
# The oracle: the per-thread evaluation the stacked pass replaced
# ---------------------------------------------------------------------------


def reference_process_perf(mix, threads):
    """One scan over every thread per process."""
    perf = {}
    for proc in mix.processes:
        ipcs = [t.ipc for t in threads if t.process_id == proc.process_id]
        if len(ipcs) == 1:
            perf[proc.process_id] = ipcs[0]
        else:
            perf[proc.process_id] = len(ipcs) / ordered_sum(1.0 / i for i in ipcs)
    return perf


def oracle_spreads(problem, solution):
    """Per read VC, in problem order: its normalized access spread over
    banks (the owner's core, or the chip center, when it holds no
    capacity) and its miss ratio."""
    spreads, miss_ratios = {}, {}
    for vc in problem.vcs:
        rate = ordered_sum(problem.accessors_of(vc.vc_id).values())
        if rate <= 0:
            continue
        alloc = solution.vc_allocation.get(vc.vc_id, {})
        total = ordered_sum(alloc.values())
        if total > 0:
            spreads[vc.vc_id] = {b: v / total for b, v in alloc.items()}
        else:
            owner = vc.owner_thread if vc.owner_thread is not None else -1
            home = solution.thread_cores.get(
                owner, problem.topology.center_tile()
            )
            spreads[vc.vc_id] = {home: 1.0}
        size = solution.vc_sizes.get(vc.vc_id, 0.0)
        miss_ratios[vc.vc_id] = min(float(vc.miss_curve(size)), rate) / rate
    return spreads, miss_ratios


def oracle_geometry(system, mix, problem, solution, core_hops=None, dist=None):
    """Per thread: core, profile, process, and the access-weighted hops,
    memory-controller hops given a miss, and miss ratio.  Hop sums run
    over the spread at every read, unless *core_hops* maps
    ``(vc_id, core)`` to them."""
    spreads, miss_ratios = oracle_spreads(problem, solution)
    topo = problem.topology
    dist = topo.distance_matrix if dist is None else dist
    mc_dist = MemoryControllers(topo, system.config.memory).mean_distance_matrix
    profile_of = {p.process_id: p.profile for p in mix.processes}
    process_of = {t: p.process_id for p in mix.processes for t in p.thread_ids}
    geometry = []
    for thread in problem.threads:
        core = solution.thread_cores[thread.thread_id]
        total_rate = ordered_sum(thread.vc_accesses.values())
        hops = mc_hops = miss_ratio = 0.0
        if total_rate > 0:
            for vc_id, rate in thread.vc_accesses.items():
                w = rate / total_rate
                mu = miss_ratios.get(vc_id, 0.0)
                spread = spreads.get(vc_id, {})
                if core_hops is not None and vc_id in spreads:
                    d = core_hops[vc_id, core]
                else:
                    d = ordered_sum(f * dist[core, b] for b, f in spread.items())
                dm = ordered_sum(f * mc_dist[b] for b, f in spread.items())
                hops += w * d
                mc_hops += w * mu * dm
                miss_ratio += w * mu
            if miss_ratio > 0:
                mc_hops /= miss_ratio
        pid = process_of[thread.thread_id]
        geometry.append({
            "thread": thread, "core": core, "profile": profile_of[pid],
            "process_id": pid, "mean_hops": hops, "mc_hops": mc_hops,
            "miss_ratio": miss_ratio,
        })
    return geometry


def oracle_latency(system, geo, extra):
    """(on-chip, off-chip) cycles per LLC access and the IPC of a thread."""
    noc = system.config.noc
    onchip = (
        2.0 * noc.hop_latency * geo["mean_hops"]
        + system.config.cache.bank_latency
    )
    mem_lat = (
        2.0 * noc.hop_latency * geo["mc_hops"]
        + system.config.memory.zero_load_latency
        + extra
    )
    offchip = geo["miss_ratio"] * mem_lat
    profile = geo["profile"]
    ipc = system.core_model.ipc(
        profile.base_cpi, profile.llc_apki, onchip, offchip
    )
    return onchip, offchip, ipc


def oracle_demand(system, geometry, extra):
    """DRAM bytes/cycle demanded at the given extra latency."""
    demand = 0.0
    for geo in geometry:
        profile = geo["profile"]
        ipc = oracle_latency(system, geo, extra)[2]
        misses_per_cycle = ipc * (profile.llc_apki * geo["miss_ratio"]) / 1000.0
        demand += (
            misses_per_cycle * CACHE_LINE_BYTES * (1.0 + profile.write_fraction)
        )
    return demand


@dataclasses.dataclass
class OracleEvaluation:
    """The oracle's result, read through MixEvaluation's interface."""

    scheme: str
    threads: list
    process_perf: dict
    process_app: dict
    dram_extra_latency: float
    dram_utilization: float
    energy: object
    onchip: float
    offchip: float
    traffic: dict
    total_traffic: float

    def mean_onchip_latency_per_access(self):
        return self.onchip

    def offchip_latency_per_kiloinstr(self):
        return self.offchip

    def traffic_per_instr(self):
        return dict(self.traffic)

    def total_traffic_per_instr(self):
        return self.total_traffic


def oracle_evaluation(system, mix, problem, result, **geometry_kwargs):
    """One item, thread by thread: geometry, the scalar damped fixed
    point, then each thread's latencies, IPC and traffic."""
    geometry = oracle_geometry(
        system, mix, problem, result.solution, **geometry_kwargs
    )
    extra = 0.0
    for _ in range(system.iterations):
        target = system.dram.queueing_delay(oracle_demand(system, geometry, extra))
        extra = system.damping * extra + (1.0 - system.damping) * target
    monitored = result.name not in ("S-NUCA", "R-NUCA")
    data_flits = system.config.noc.flits_for_bytes(CACHE_LINE_BYTES)
    threads = []
    for geo in geometry:
        profile = geo["profile"]
        onchip, offchip, ipc = oracle_latency(system, geo, extra)
        apki = profile.llc_apki
        mpki = apki * geo["miss_ratio"]
        l2_llc = apki * (1 + data_flits) * geo["mean_hops"]
        l2_llc += apki * profile.write_fraction * data_flits * geo["mean_hops"]
        llc_mem = mpki * (1 + data_flits) * geo["mc_hops"]
        llc_mem += mpki * profile.write_fraction * data_flits * geo["mc_hops"]
        other = 0.0
        if monitored:
            other = apki * MONITOR_SAMPLE_RATE * geo["mean_hops"]
        threads.append(ThreadPerf(
            thread_id=geo["thread"].thread_id, process_id=geo["process_id"],
            app=profile.name, core=geo["core"], ipc=ipc, cpi=1.0 / ipc,
            apki=apki, mpki=mpki, mean_hops=geo["mean_hops"],
            onchip_latency=onchip, offchip_latency=offchip,
            traffic_pki=dict(zip(TRAFFIC_KEYS, (l2_llc, llc_mem, other))),
        ))
    total_ipc = ordered_sum(t.ipc for t in threads)
    traffic = dict.fromkeys(TRAFFIC_KEYS, 0.0)
    if total_ipc > 0:
        for t in threads:
            for key, value in t.traffic_pki.items():
                traffic[key] += t.ipc * value / 1000.0
        traffic = {key: v / total_ipc for key, v in traffic.items()}
    flit_hops = ordered_sum(traffic.values())
    llc = dram = 0.0
    if total_ipc:
        llc = ordered_sum(t.ipc * t.apki / 1000.0 for t in threads) / total_ipc
        dram = ordered_sum(t.ipc * t.mpki / 1000.0 for t in threads) / total_ipc
    apki_sum = ordered_sum(t.apki for t in threads)
    return OracleEvaluation(
        scheme=result.name,
        threads=threads,
        process_perf=reference_process_perf(mix, threads),
        process_app={p.process_id: p.profile.name for p in mix.processes},
        dram_extra_latency=extra,
        dram_utilization=system.dram.utilization(
            oracle_demand(system, geometry, extra)
        ),
        energy=energy_per_instruction(
            system.energy_params,
            aggregate_cpi=1.0 / total_ipc if total_ipc > 0 else 1.0,
            llc_accesses_per_instr=llc,
            flit_hops_per_instr=flit_hops,
            dram_accesses_per_instr=dram,
        ),
        onchip=(
            ordered_sum(t.apki * t.onchip_latency for t in threads) / apki_sum
            if apki_sum else 0.0
        ),
        offchip=ordered_sum(
            t.apki * t.offchip_latency for t in threads
        ) / max(len(threads), 1),
        traffic=traffic,
        total_traffic=flit_hops,
    )


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def fingerprint(evaluation) -> dict:
    """Every field, every ThreadPerf and the four aggregates of an
    evaluation, floats as raw bytes (so ``-0.0`` and ``0.0`` differ)."""
    return {
        "scheme": evaluation.scheme,
        "process_perf": [
            (pid, bits(v)) for pid, v in evaluation.process_perf.items()
        ],
        "process_app": list(evaluation.process_app.items()),
        "dram": (
            bits(evaluation.dram_extra_latency),
            bits(evaluation.dram_utilization),
        ),
        "energy": [bits(v) for v in evaluation.energy.as_dict().values()],
        "aggregates": (
            bits(evaluation.mean_onchip_latency_per_access()),
            bits(evaluation.offchip_latency_per_kiloinstr()),
            [(k, bits(v)) for k, v in evaluation.traffic_per_instr().items()],
            bits(evaluation.total_traffic_per_instr()),
        ),
        "threads": [
            (
                t.thread_id, t.process_id, t.app, t.core,
                *(bits(getattr(t, name)) for name in (
                    "ipc", "cpi", "apki", "mpki", "mean_hops",
                    "onchip_latency", "offchip_latency",
                )),
                [(k, bits(v)) for k, v in t.traffic_pki.items()],
            )
            for t in evaluation.threads
        ],
    }


def assert_matches_oracle(system, items):
    """The batch, and each item alone, equal the oracle on raw bytes."""
    batch = system.evaluate_solutions_batch(items)
    assert len(batch) == len(items)
    for item, got in zip(items, batch):
        want = fingerprint(oracle_evaluation(system, *item))
        assert fingerprint(got) == want, item[2].name
        assert fingerprint(system.evaluate_solution(*item)) == want
    return batch


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


def _items(config, mix, seed=1):
    problem = build_problem(mix, config)
    return [(mix, problem, s.run(problem)) for s in standard_schemes(seed=seed)]


def sweep_items(n_apps, seed, multithreaded=False, config=None):
    make = random_multithreaded_mix if multithreaded else random_single_threaded_mix
    return _items(config or default_config(), make(n_apps, seed, 0), seed)


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


def chip_epoch_items(epochs: int = 1):
    """*epochs* consecutive epochs of a 256-app phased chip (seed 1), each
    under its CDCS placement."""
    _, sim = build_chip(LoadSpec(tiles=256, seed=1), 0)
    items = []
    for _ in range(epochs):
        problem = sim.current_problem()
        solution = Cdcs(seed=1).run(problem).solution
        items.append((sim.current_mix(), problem, SchemeResult("epoch", solution)))
        sim.run_epoch(solution, 50e6)
    return items


def idle_items():
    """A fig14 mix where one thread has no accesses at all and another
    names its VC at rate zero, and the same mix with no read VC left."""
    mix, problem, result = sweep_items(4, 5)[4]
    threads = list(problem.threads)
    threads[1] = dataclasses.replace(threads[1], vc_accesses={})
    threads[2] = dataclasses.replace(
        threads[2], vc_accesses=dict.fromkeys(threads[2].vc_accesses, 0.0)
    )
    partial = dataclasses.replace(problem, threads=threads)
    unread = dataclasses.replace(problem, threads=[
        dataclasses.replace(t, vc_accesses=dict.fromkeys(t.vc_accesses, 0.0))
        for t in problem.threads
    ])
    assert not unread.accessor_rates(problem.threads[0].thread_id)
    return [(mix, partial, result), (mix, unread, result)]


def lazy_items():
    with dense_geometry_limit(0):
        items = _items(small_test_config(4, 4), random_multithreaded_mix(2, 5, 0))
    assert getattr(items[0][1].topology.distance_matrix, "is_lazy", False)
    return items


CORPUS = {
    **{f"fig11-seed{s}": (lambda s=s: sweep_items(64, s)) for s in (1, 2, 42)},
    **{
        f"fig13-{n}apps": (lambda n=n: sweep_items(n, 3))
        for n in (1, 2, 4, 8, 16, 32, 64)
    },
    **{f"fig14-seed{s}": (lambda s=s: sweep_items(4, s)) for s in (1, 2, 3)},
    **{
        f"fig15-seed{s}": (lambda s=s: sweep_items(8, s, multithreaded=True))
        for s in (1, 2, 3)
    },
    **{
        f"fig16-seed{s}": (lambda s=s: sweep_items(4, s, multithreaded=True))
        for s in (1, 2, 3)
    },
    "4x4": lambda: sweep_items(2, 5, True, small_test_config(4, 4)),
    "lazy-geometry": lazy_items,
    "fallback": lambda: [fallback_item()],
    "idle-threads": idle_items,
    "chip-epochs": lambda: chip_epoch_items(2),
}


@pytest.mark.parametrize("label", list(CORPUS))
def test_evaluation_matches_oracle(label):
    items = CORPUS[label]()
    assert_matches_oracle(AnalyticSystem(items[0][1].config), items)


def test_mixed_batch_matches_oracle():
    """One call over two topologies, several thread counts, and items
    that share a problem with others or have it alone."""
    items = [
        *sweep_items(2, 5, True, small_test_config(4, 4)),
        *sweep_items(1, 3)[:2],
        *sweep_items(4, 1)[:2],
        *sweep_items(8, 1, multithreaded=True)[3:],
        *idle_items(),
        fallback_item(),
    ]
    assert len({len(p.threads) for _, p, _ in items}) >= 4
    assert len({p.topology.tiles for _, p, _ in items}) == 2
    assert_matches_oracle(AnalyticSystem(default_config()), items)


def test_corpus_covers_the_edges():
    """The corpus really holds what the oracle test names: home-bank
    fallbacks, a thread without accesses, a problem with no read VC,
    multi-reader VCs, and 1- to 64-thread items."""
    fallback = fallback_item()
    spreads, _ = oracle_spreads(fallback[1], fallback[2].solution)
    assert sum(list(s.values()) == [1.0] for s in spreads.values()) >= 2
    partial, unread = (p for _, p, _ in idle_items())
    assert any(not t.vc_accesses for t in partial.threads)
    assert not oracle_spreads(unread, idle_items()[1][2].solution)[0]
    fig15 = sweep_items(8, 1, multithreaded=True)[0]
    readers = [len(fig15[1].accessor_rates(vc.vc_id)) for vc in fig15[1].vcs]
    assert max(readers) == 8
    assert {len(sweep_items(n, 3)[0][1].threads) for n in (1, 64)} == {1, 64}


def test_ordered_sums_match_a_loop_from_zero():
    """``ordered_sums`` is bitwise ``ordered_sum`` row by row: random
    rows, rows of ``-0.0`` (the loop gives ``0.0``) and empty rows (an
    R-NUCA bank with no stream) included."""
    rng = np.random.default_rng(43)
    rows = rng.standard_normal((40, 17)) * 10.0 ** rng.integers(-8, 9, (40, 1))
    rows[3] = -0.0
    sums = ordered_sums(rows)
    assert [bits(s) for s in sums] == [bits(ordered_sum(r.tolist())) for r in rows]
    assert bits(ordered_sums(rows[3])) == bits(0.0)
    assert bits(ordered_sums([])) == bits(0.0)
    assert ordered_sums(np.zeros((5, 0))).tolist() == [0.0] * 5


def _patched_sum_python_312(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it: exact ``float`` items are
    added with Neumaier compensation, added back at the end (or before
    the first item that is neither an int nor an exact float, from which
    on items are added one by one, as ``np.float64`` items are)."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def _sum_left_to_right(iterable, /, start=0):
    """``sum()`` as CPython computes it up to 3.11: one add at a time."""
    return functools.reduce(operator.add, iterable, start)


def sum_corpus(monkeypatch) -> dict:
    """Every scheme solution and sweep record of the golden fig11 mix and
    a fig15 mix, and the records and ``SweepResult`` aggregates of a
    4-mix fig11 mega-batch call, from cold caches."""
    monkeypatch.setattr(sweeps, "_SYSTEM_CACHE", {})
    config = default_config()
    out = {}
    fig15 = random_multithreaded_mix(8, 1, 0)
    for label, mix in (("fig11", golden_mix()), ("fig15", fig15)):
        problem = build_problem(mix, config)
        for scheme in standard_schemes(0):
            s = scheme.run(problem).solution
            out[f"{label}/{scheme.name}"] = s.vc_sizes, s.vc_allocation, s.thread_cores
        result = SweepResult(len(mix.processes), 1)
        evaluate_mix(config, mix, result, seed=0)
        out[f"{label}/record"] = mix_record(result)
    jobs = sweeps.sweep_jobs(config, n_apps=64, n_mixes=4, seed=1)
    records = sweeps._mix_points_batched(
        [job.kwargs["mix_id"] for job in jobs], [job.digest() for job in jobs],
        config=config, n_apps=64, seed=1, multithreaded=False,
    )
    result = SweepResult(64, 4)
    for i, record in enumerate(records):
        out[f"batched/record{i}"] = record
        merge_mix_record(result, record)
    for name in result.onchip_latency:
        out[f"batched/{name}"] = (
            result.mean_onchip(name), result.mean_offchip(name),
            result.mean_traffic(name), result.mean_energy(name),
            result.gmean_speedup(name) if name in result.speedups else None,
        )
    return out


def test_evaluation_does_not_depend_on_the_sum_builtin(monkeypatch):
    """Python 3.12's ``sum()`` compensates exact floats but adds
    ``np.float64`` items one by one.  With it patched in, every scheme
    solution, sweep record and sweep aggregate equals the one under a
    left-to-right ``sum()`` (patching both makes the check mean the same
    on every Python), the sweep point is still identical with the
    oracles patched in, and the evaluation still equals its oracle."""
    patched = _patched_sum_python_312
    assert patched([0.1] * 10) == 1.0
    assert patched([np.float64(0.1)] * 10) == ordered_sum([0.1] * 10) != 1.0
    assert _sum_left_to_right([0.1] * 10) == ordered_sum([0.1] * 10)
    monkeypatch.setattr(builtins, "sum", _sum_left_to_right)
    left_to_right = sum_corpus(monkeypatch)
    monkeypatch.setattr(builtins, "sum", patched)
    python_312 = sum_corpus(monkeypatch)
    assert python_312.keys() == left_to_right.keys()
    for key, want in left_to_right.items():
        assert python_312[key] == want, key

    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "milc", "gcc", "astar"])
    fast, slow = SweepResult(4, 1), SweepResult(4, 1)
    evaluate_mix(config, mix, fast, seed=0)
    with scalar_reference() as calls:
        evaluate_mix(config, mix, slow, seed=0)
    assert calls["repro.nuca.base.solve_sharing_plans"] >= 2
    assert fast == slow  # every SweepResult field

    items = sweep_items(8, 1, multithreaded=True)
    system = AnalyticSystem(default_config())
    for item, got in zip(items, system.evaluate_solutions_batch(items)):
        assert fingerprint(got) == fingerprint(oracle_evaluation(system, *item))


# ---------------------------------------------------------------------------
# Hop sums
# ---------------------------------------------------------------------------


def kernel_geometry(system, item):
    """The stacked pass's geometry of one item, and its read VCs."""
    mix, problem, result = item
    tables = system_module._ProblemTables(mix, problem)
    return system._geometry([tables], [result.solution]), tables


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
    """The kernel's spread rows are the oracle's spreads, its reader-core
    hop sums equal the all-cores reference at every read, and the
    geometry built from either is identical."""
    mix, problem, result = item
    topo = problem.topology
    mc_dist = MemoryControllers(topo, system.config.memory).mean_distance_matrix
    vc_spread, _ = oracle_spreads(problem, result.solution)
    geometry, tables = kernel_geometry(system, item)
    assert tables.vc_ids == list(vc_spread)
    for row, spread in enumerate(vc_spread.values()):
        n = len(spread)
        assert geometry["bank_idx"][row, :n].tolist() == list(spread)
        assert same_bits(geometry["weights"][row, :n], np.array(list(spread.values())))
        assert not geometry["weights"][row, n:].any()
    pairs = [
        (tables.vc_ids[row], core)
        for row, core in zip(geometry["pair_row"].tolist(), geometry["pair_core"].tolist())
    ]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == reads(problem, result.solution, vc_spread)
    spreads = [
        (np.array(list(s.keys()), dtype=np.int64),
         np.array(list(s.values()), dtype=np.float64))
        for s in vc_spread.values()
    ]
    dense = topo.distance_matrix if reference_dist is None else reference_dist
    all_hops, all_mc = reference_spread_hops_batch(dense, mc_dist, spreads)
    for (vc_id, core), value in zip(pairs, geometry["pair_hops"]):
        row = tables.vc_ids.index(vc_id)
        assert same_bits(value, all_hops[row, core]), (vc_id, core)
    assert same_bits(geometry["row_mc_hops"], all_mc)
    full_table = {
        (vc_id, core): all_hops[i, core]
        for i, vc_id in enumerate(vc_spread)
        for core in range(topo.tiles)
    }
    want = oracle_geometry(
        system, mix, problem, result.solution, core_hops=full_table, dist=dense
    )
    for row, key in enumerate(("mean_hops", "mc_hops", "miss_ratio")):
        assert same_bits(geometry["threads"][row], np.array([w[key] for w in want]))
    return geometry


@pytest.mark.parametrize("build", [fig11_items, fig15_items])
def test_reader_hops_match_all_cores_reference(build):
    system = AnalyticSystem(default_config())
    items = build()
    for item in items:
        check_item(system, item)
    if build is fig15_items:
        # Process VCs are read from several cores (the multi-reader case).
        _, problem, result = items[0]
        spread, _ = oracle_spreads(problem, result.solution)
        readers: dict[int, int] = {}
        for vc_id, _ in reads(problem, result.solution, spread):
            readers[vc_id] = readers.get(vc_id, 0) + 1
        assert max(readers.values()) >= 8


def test_reader_hops_fallback_spreads_and_unread_vcs():
    system = AnalyticSystem(default_config())
    item = fallback_item()
    mix, problem, result = item
    spread, _ = oracle_spreads(problem, result.solution)
    home = [s for s in spread.values() if list(s.values()) == [1.0]]
    assert len(home) >= 2
    assert GLOBAL_VC_ID not in spread  # named by a thread, but never read
    got = check_item(system, item)
    slow = oracle_geometry(system, mix, problem, result.solution)
    assert got["threads"][0].tolist() == [s["mean_hops"] for s in slow]
    assert got["threads"][1].tolist() == [s["mc_hops"] for s in slow]


def padded_spreads(spreads):
    """``(bank_idx, weights)`` rows of ``(banks, fracs)`` spreads."""
    width = max(len(banks) for banks, _ in spreads)
    bank_idx = np.zeros((len(spreads), width), dtype=np.int64)
    weights = np.zeros((len(spreads), width), dtype=np.float64)
    for i, (banks, fracs) in enumerate(spreads):
        bank_idx[i, :len(banks)] = banks
        weights[i, :len(fracs)] = fracs
    return bank_idx, weights


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
    bank_idx, weights = padded_spreads(spreads)
    hops, mc = reader_hops(dist, mc_dist, bank_idx, weights, pair_spread, pair_core)
    all_hops, all_mc = reference_spread_hops_batch(dist, mc_dist, spreads)
    assert same_bits(hops, all_hops[pair_spread, pair_core])
    assert same_bits(mc, all_mc)
    none, mc_only = reader_hops(
        dist, mc_dist, bank_idx, weights,
        np.zeros(0, np.int64), np.zeros(0, np.int64),
    )
    assert none.shape == (0,) and same_bits(mc_only, all_mc)


def test_reader_hops_blocks_match_one_block(monkeypatch):
    """Pairs summed in several bounded blocks equal one block."""
    item = fig15_items()[0]
    system = AnalyticSystem(default_config())
    geometry, _ = kernel_geometry(system, item)
    monkeypatch.setattr(cost_model, "_HOP_BLOCK", geometry["weights"].shape[1] * 3)
    blocked, _ = kernel_geometry(system, item)
    assert len(geometry["pair_row"]) > 3
    assert same_bits(blocked["pair_hops"], geometry["pair_hops"])


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
            want, _ = kernel_geometry(system, dense)
            assert got["threads"].tolist() == want["threads"].tolist()


# ---------------------------------------------------------------------------
# Process grouping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [fig11_items, fig15_items, chip_epoch_items])
def test_process_grouping_matches_per_process_scan(build):
    items = build()
    system = AnalyticSystem(items[0][1].config)
    got = system.evaluate_solutions_batch(items)
    for (mix, _, _), evaluation in zip(items, got):
        want = reference_process_perf(mix, evaluation.threads)
        assert list(evaluation.process_perf) == list(want)
        for pid, value in evaluation.process_perf.items():
            assert same_bits(value, want[pid]), pid
        assert evaluation.process_app == {
            p.process_id: p.profile.name for p in mix.processes
        }
    if build is fig15_items:
        assert any(
            sum(t.process_id == pid for t in got[0].threads) > 1
            for pid in got[0].process_perf
        )
