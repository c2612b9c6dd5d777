"""Cross-validation between independent layers of the reproduction.

These tests pin the analytic models against ground truth computed a
different way: the LRU sharing fixed point vs. an exact trace simulation of
a shared LRU cache, the hull allocator vs. brute-force enumeration, and
generated streams vs. their target curves — the kind of agreement that
makes the big sweeps trustworthy.
"""

import itertools

import numpy as np
import pytest

from repro.cache.miss_curve import cliff_curve, flat_curve
from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.nuca.sharing import SharingPlan, solve_sharing_plans
from repro.sched.allocation import allocate_latency_aware, convex_hull_indices
from repro.sched.cost_model import latency_curve
from repro.util.units import kb
from repro.workloads.generator import StackDistanceStream
from repro.workloads.mixes import make_mix


def simulate_shared_lru(streams, accesses_per_stream, capacity_lines):
    """Exact shared-LRU simulation of interleaved streams; returns final
    occupancy (lines) per stream."""
    lru: dict[int, int] = {}  # line -> owner stream
    order: list[int] = []  # LRU order, MRU last
    for _ in range(accesses_per_stream):
        for sid, stream in enumerate(streams):
            addr = stream.next_address() + (sid << 40)
            if addr in lru:
                order.remove(addr)
            elif len(order) >= capacity_lines:
                victim = order.pop(0)
                del lru[victim]
            lru[addr] = sid
            order.append(addr)
    occ = [0] * len(streams)
    for owner in lru.values():
        occ[owner] += 1
    return occ


@pytest.mark.slow
def test_sharing_fixed_point_matches_trace_lru():
    """The insertion-balance fixed point should predict which stream holds
    more of a thrashed shared cache, within a reasonable factor."""
    fitting_curve = cliff_curve(kb(64), 20.0, kb(16), 0.5)
    streaming_curve = flat_curve(kb(64), 20.0)
    capacity = kb(32)

    plan = SharingPlan((fitting_curve, streaming_curve), ((0, 1),), (capacity,))
    predicted = solve_sharing_plans([plan])[0].tolist()
    streams = [
        StackDistanceStream(fitting_curve, apki=20.0, seed=11),
        StackDistanceStream(streaming_curve, apki=20.0, seed=12),
    ]
    measured = simulate_shared_lru(streams, 12_000, capacity // 64)
    measured_bytes = [m * 64 for m in measured]

    # Both agree the two streams split the cache in the same direction...
    assert (predicted[0] > predicted[1]) == (
        measured_bytes[0] > measured_bytes[1]
    )
    # ...and the fitting stream's occupancy is predicted within 2x.
    assert predicted[0] == pytest.approx(measured_bytes[0], rel=1.0)


def brute_force_allocation(curves, budget):
    """Exhaustive best allocation for tiny instances."""
    n = len(curves)
    best, best_cost = None, float("inf")
    for sizes in itertools.product(range(budget + 1), repeat=n):
        if sum(sizes) > budget:
            continue
        cost = sum(c[s] for c, s in zip(curves, sizes))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = sizes
    return best, best_cost


def test_hull_allocator_matches_brute_force_on_convex_curves():
    """For convex curves the hull walk is exactly optimal; verify against
    exhaustive search on small instances."""
    rng = np.random.default_rng(5)
    for trial in range(10):
        n_curves, budget = 3, 12
        curves = []
        for _ in range(n_curves):
            # Convex decreasing: accumulate non-increasing improvements.
            drops = np.sort(rng.uniform(0, 10, size=budget))[::-1]
            values = np.concatenate(([100.0], 100.0 - np.cumsum(drops)))
            curves.append(values)
        # Greedy hull walk.
        from repro.sched.allocation import _greedy_hull_allocation
        from repro.sched.opcount import StepCounter

        sizes = _greedy_hull_allocation(
            [c.copy() for c in curves], budget, StepCounter(), "x"
        )
        greedy_cost = sum(c[s] for c, s in zip(curves, sizes))
        _, optimal_cost = brute_force_allocation(curves, budget)
        assert greedy_cost == pytest.approx(optimal_cost, abs=1e-6)


def test_hull_allocator_near_optimal_on_cliff_curves():
    """On non-convex (cliff) curves the hull walk is optimal over convex
    minorants; verify it matches brute force on a cliff-vs-stream duel."""
    cliff = np.array([50.0] * 4 + [2.0] * 9)  # cliff at 4 quanta
    stream = np.full(13, 30.0)  # insensitive
    gentle = 40.0 - 2.0 * np.arange(13)  # mild linear gain
    curves = [cliff, stream, gentle]
    from repro.sched.allocation import _greedy_hull_allocation
    from repro.sched.opcount import StepCounter

    sizes = _greedy_hull_allocation(
        [c.copy() for c in curves], 12, StepCounter(), "x"
    )
    greedy_cost = sum(c[s] for c, s in zip(curves, sizes))
    _, optimal_cost = brute_force_allocation(curves, 12)
    assert greedy_cost == pytest.approx(optimal_cost, abs=1e-6)
    assert sizes[0] >= 4  # the cliff app crossed its cliff


def test_latency_curve_hull_never_allocates_past_sweet_spot():
    """CDCS allocation never grows a VC beyond the minimum of its total
    latency curve (extra capacity would only add on-chip latency)."""
    config = small_test_config(4, 4)
    problem = build_problem(make_mix(["omnet", "gcc", "milc"]), config)
    sizes = allocate_latency_aware(problem)
    for i, vc in enumerate(problem.vcs):
        rate = sum(problem.accessors_of(vc.vc_id).values())
        if rate <= 0:
            continue
        curve = latency_curve(problem, vc.miss_curve, rate)
        best_q = int(np.argmin(curve))
        got_q = int(sizes[vc.vc_id] // problem.quantum)
        # Within one quantum of (or below) the curve's own optimum.
        assert got_q <= best_q + 1


def test_hull_indices_idempotent():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 100, size=50)
    hull1 = convex_hull_indices(values)
    hull_vals = np.interp(np.arange(len(values)), hull1, values[hull1])
    hull2 = convex_hull_indices(hull_vals)
    assert np.allclose(
        np.interp(np.arange(len(values)), hull2, hull_vals[hull2]),
        hull_vals,
    )
