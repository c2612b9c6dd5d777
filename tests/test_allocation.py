"""Capacity allocation: hulls and Lookahead policies (repro.sched.allocation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched import allocation
from repro.sched.allocation import (
    allocate_latency_aware,
    allocate_miss_driven,
    convex_hull_indices,
)
from repro.util.units import kb, mb
from repro.workloads.mixes import make_mix


def test_hull_indices_simple():
    values = np.array([10.0, 9.0, 5.0, 4.9, 4.8])
    hull = convex_hull_indices(values)
    assert hull[0] == 0 and hull[-1] == 4
    # Point 1 lies above the chord 0->2 and must be dropped.
    assert 1 not in hull


@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=2, max_size=40)
)
@settings(max_examples=100)
def test_hull_indices_lower_bound_property(values):
    arr = np.array(values)
    hull = convex_hull_indices(arr)
    # Hull interpolation never exceeds the curve.
    interp = np.interp(np.arange(len(arr)), hull, arr[hull])
    assert np.all(interp <= arr + 1e-6)
    # Hull slopes are non-decreasing (convexity).
    slopes = np.diff(arr[hull]) / np.diff(hull)
    assert np.all(np.diff(slopes) >= -1e-9)


def problem_for(names):
    config = small_test_config(4, 4)
    return config, build_problem(make_mix(names), config)


def test_cliff_app_gets_its_working_set():
    config, problem = problem_for(["omnet", "milc", "milc", "milc"])
    sizes = allocate_miss_driven(problem)
    assert sizes[0] >= mb(2.5) - kb(64)  # omnet's 2.5 MB cliff


def test_streaming_app_gets_minimum():
    config, problem = problem_for(["omnet", "milc"])
    sizes = allocate_latency_aware(problem)
    assert sizes[1] <= kb(64)  # milc: one quantum at most


def test_budget_respected():
    config, problem = problem_for(["omnet"] * 4 + ["mcf"] * 4)
    for sizes in (allocate_latency_aware(problem), allocate_miss_driven(problem)):
        assert sum(sizes.values()) <= config.llc_bytes + 1


def test_every_active_vc_gets_capacity():
    """The VTB needs a target for every live VC (min one quantum)."""
    config, problem = problem_for(["milc"] * 8)
    for sizes in (allocate_latency_aware(problem), allocate_miss_driven(problem)):
        for thread_id in range(8):
            assert sizes[thread_id] >= kb(64)


def test_latency_aware_leaves_capacity_unused():
    """Sec IV-C: with few apps, extra capacity costs on-chip latency, so
    CDCS deliberately under-allocates while Jigsaw hands everything out."""
    config, problem = problem_for(["gcc", "milc"])
    cdcs_sizes = allocate_latency_aware(problem)
    jig_sizes = allocate_miss_driven(problem)
    assert sum(cdcs_sizes.values()) < sum(jig_sizes.values())
    assert sum(jig_sizes.values()) == pytest.approx(config.llc_bytes, rel=0.01)


def test_min_quantum_steal_avoids_cliffs():
    """Stealing the mandatory minimum quantum must not take omnet below its
    cliff (the regression this suite guards: a cliff app loses its whole
    benefit if one quantum is shaved)."""
    config, problem = problem_for(
        ["omnet", "omnet", "milc", "milc", "milc", "milc", "mcf", "mcf"]
    )
    sizes = allocate_miss_driven(problem)
    for omnet_thread in (0, 1):
        assert sizes[omnet_thread] >= mb(2.5) - kb(128)


def test_miss_driven_leftover_proportional_to_rate():
    # Two purely streaming apps: Lookahead finds zero utility anywhere, so
    # the whole LLC is leftover, handed out proportionally to access rates
    # (lbm: 32 APKI vs milc: 26 APKI).
    config, problem = problem_for(["lbm", "milc"])
    sizes = allocate_miss_driven(problem)
    assert sizes[0] > sizes[1] > 0
    assert sum(sizes.values()) == pytest.approx(config.llc_bytes, rel=0.01)


def test_allocation_deterministic():
    config, problem = problem_for(["omnet", "mcf", "milc", "gcc"])
    assert allocate_latency_aware(problem) == allocate_latency_aware(problem)


def test_hull_memos_key_on_dtype_not_just_bytes():
    """Equal bytes read as another dtype are another curve: the hull memo
    may not hand it the first curve's hull."""
    curve = np.array([4.0, 1.0, 0.75, 0.0])
    alias = curve.view(np.int64)
    assert curve.tobytes() == alias.tobytes()
    assert convex_hull_indices(curve) != convex_hull_indices(alias)

    allocation._HULL_CACHE.clear()
    assert allocation._hull_of(curve) == (0, 1, 3)
    assert allocation._hull_of(alias) == tuple(convex_hull_indices(alias))
    assert all(isinstance(h, tuple) for h in allocation._HULL_CACHE.values())


def reference_minimum_quanta(rates, sizes, budget, curves) -> None:
    """The donor pick the heap replaced: a ``min`` scan over every VC
    above one quantum, the lowest index among equal losses."""
    spare = budget - sum(sizes)
    for i in range(len(sizes)):
        if sizes[i] > 0 or rates[i] <= 0:
            continue
        if spare > 0:
            spare -= 1
        else:
            candidates = [j for j in range(len(sizes)) if sizes[j] > 1]
            if not candidates:
                continue
            donor = min(
                candidates,
                key=lambda j: curves[j][sizes[j] - 1] - curves[j][sizes[j]],
            )
            sizes[donor] -= 1
        sizes[i] = 1


def test_minimum_quanta_donors_match_the_min_scan():
    """Seeded cases with many starved VCs, little or no spare budget,
    and losses drawn from a few values so ties are common: the heap's
    donors leave every size equal to the scan's."""

    class Rates:
        def __init__(self, rates):
            self.rates = rates

        def accessors_of(self, vc_id):
            return {0: self.rates[vc_id]}

    class Vc:
        def __init__(self, vc_id):
            self.vc_id = vc_id

    rng = np.random.default_rng(11)
    steals = ties = 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        quanta = 12
        steps = rng.choice([0.0, 0.5, 1.0, 2.0], (n, quanta))
        curves = [np.cumsum(row[::-1])[::-1].copy() for row in steps]
        sizes = [
            int(s) if rng.random() < 0.6 else 0
            for s in rng.integers(1, quanta, n)
        ]
        rates = rng.choice([0.0, 1.0, 3.0], n).tolist()
        budget = sum(sizes) + int(rng.integers(0, 3))
        want = list(sizes)
        reference_minimum_quanta(rates, want, budget, curves)
        got = list(sizes)
        allocation._ensure_minimum_quanta(
            Rates(rates), [Vc(i) for i in range(n)], got, budget, curves
        )
        assert got == want
        steals += any(g < s for g, s in zip(got, sizes))
        losses = [c[s - 1] - c[s] for c, s in zip(curves, sizes) if s > 1]
        ties += len(set(losses)) < len(losses)
    assert steals > 100 and ties > 100
