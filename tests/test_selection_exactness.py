"""Exactness of the array preselections and fast paths in the CDCS
placement steps.

Two selections run a Python loop over only the candidates that can win,
after an array pass has dropped the rest:

* :func:`repro.sched.vc_placement._least_contended` rounds and sorts
  only the contentions within ``2e-9`` of the least one, and returns a
  lone survivor outright;
* :func:`repro.geometry.placement_math._first_strict_improvement_scan`
  (and its batched form, :func:`_first_strict_improvement_rows`)
  returns ``np.argmin`` when no strict prefix minimum falls inside the
  1e-12 margin, and otherwise scans only the strict prefix minima.

Each is compared with ``==`` against the full loop it replaced, kept
below as the reference, over seeded cases built to hit the edges: ties
planted on 9th-decimal rounding boundaries (``k * 1e-9 + 0.5e-9`` give
or take a few ulps) at magnitudes up to 1e4, and costs with exact ties,
descending chains in steps under the 1e-12 acceptance margin, constant
and one-element vectors.

The warm solve's other fast paths are pinned the same way: the greedy
seed's batched 1-medians (:func:`weighted_center_tiles`) against the
reference scan of each map's cost vector, a one-accessor distance
vector against the chunked ``cumsum`` row, byte for byte, and
``_rate_distance`` on equal maps.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from oracles import place_optimistic as oracle_place_optimistic
from oracles import sequential_weighted_row_sum
from repro.geometry.mesh import (
    Mesh,
    dense_geometry_limit,
    geometry_allocation_stats,
)
from repro.geometry.placement_math import (
    _CENTER_BLOCK,
    _first_strict_improvement_rows,
    _first_strict_improvement_scan,
    tile_cost_vector,
    weighted_center_tile,
    weighted_center_tiles,
)
from repro.sched import vc_placement
from repro.sched.allocation import allocate_latency_aware
from repro.sched.engine import _rate_distance
from repro.sched.opcount import StepCounter
from repro.sched.refinement import DistanceVectors, _sequential_weighted_row_sum
from repro.sched.vc_placement import _least_contended, place_optimistic
from repro.testing import golden_problem, small_problem

CASES = 600


def reference_least_contended(contention, spread) -> int:
    """The full selection: Python ``round`` on every candidate, then a
    stable lexsort by ``(rounded, spread, candidate)``."""
    rounded = np.array([round(float(c), 9) for c in contention])
    candidates = np.arange(len(contention))
    return int(np.lexsort((candidates, spread, rounded))[0])


def reference_scan(costs) -> int:
    """The full first-strict-improvement scan over every entry."""
    best_index = 0
    best_cost = float("inf")
    for index, cost in enumerate(costs):
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_index = index
    return best_index


def takes_shortcut(costs: list[float]) -> bool:
    """Whether the scan's answer is ``np.argmin`` by the shortcut's
    condition: no strict prefix minimum lies within the 1e-12 margin
    below the running minimum before it."""
    best = costs[0]
    for cost in costs[1:]:
        if cost < best:
            if not cost < best - 1e-12:
                return False
            best = cost
    return True


def _nudge(values: np.ndarray, ulps: np.ndarray) -> np.ndarray:
    """Move each value by a signed number of ulps."""
    out = values.copy()
    for _ in range(int(np.abs(ulps).max(initial=0))):
        step = ulps != 0
        out[step] = np.nextafter(out[step], np.where(ulps[step] > 0, np.inf, -np.inf))
        ulps = ulps - np.sign(ulps)
    return out


def contention_case(rng: np.random.Generator):
    """(contention, spread) with ties planted on rounding boundaries."""
    n = int(rng.integers(1, 300))
    magnitude = float(rng.choice([0.0, 1e-6, 1.0, 37.0, 1e3, 1e4]))
    base = np.round(rng.uniform(0.0, magnitude), 9)
    # Half-way points between two 9-decimal keys, and exact keys.
    k = rng.integers(0, 4, n)
    half = rng.random(n) < 0.7
    contention = base + k * 1e-9 + np.where(half, 0.5e-9, 0.0)
    contention = _nudge(contention, rng.integers(-4, 5, n))
    # A spread of far candidates, and some exact duplicates.
    far = rng.random(n) < 0.3
    contention[far] += rng.uniform(0.0, 1e-7, int(far.sum()))
    dup = rng.random(n) < 0.2
    contention[dup] = contention[rng.integers(0, n, int(dup.sum()))]
    spread = rng.choice([1.0, 1.5, 2.0, 2.25], n)
    return contention, spread


def cost_case(rng: np.random.Generator) -> np.ndarray:
    """Costs with exact ties, sub-margin descending chains and constants."""
    kind = int(rng.integers(0, 5))
    n = int(rng.integers(1, 260))
    if kind == 0:
        return np.full(n, float(rng.uniform(0.0, 1e4)))
    if kind == 1:
        return np.array([float(rng.uniform(-5.0, 5.0))])
    if kind == 2:
        start = float(rng.choice([0.0, 1.0, 123.0, 4096.0]))
        chain = start - 0.9e-12 * np.arange(n)
        return rng.permutation(chain) if rng.random() < 0.3 else chain
    if kind == 3:
        return rng.integers(0, 6, n).astype(np.float64) * float(
            rng.choice([1.0, 0.5, 1e-12])
        )
    costs = rng.uniform(0.0, 1e3, n)
    ties = rng.random(n) < 0.3
    costs[ties] = costs[rng.integers(0, n, int(ties.sum()))]
    down = np.cumsum(rng.choice([0.0, 0.9e-12, 1.1e-12, 1e-3], n))
    return costs.min() - down if rng.random() < 0.5 else costs


def test_least_contended_matches_full_round_and_lexsort():
    rng = np.random.default_rng(20231)
    boundary_ties = 0
    for _ in range(CASES):
        contention, spread = contention_case(rng)
        assert _least_contended(contention, spread) == reference_least_contended(
            contention, spread
        )
        keys = [round(float(c), 9) for c in contention]
        boundary_ties += len(set(keys)) < len(set(contention.tolist()))
    # Distinct contentions sharing a rounded key were really exercised.
    assert boundary_ties > CASES // 2


def test_least_contended_lone_survivor():
    """Contentions spread like a chip's (a unique least one, the next
    ones a few ulps to 3e-9 above it): a lone survivor within 2e-9 is
    returned without rounding, and a pair goes through the sort."""
    rng = np.random.default_rng(777)
    lone = 0
    for _ in range(CASES):
        n = int(rng.integers(1, 300))
        contention = rng.uniform(0.0, 64.0, n)
        low = int(np.argmin(contention))
        gap = float(rng.choice([5e-16, 1e-9, 1.9e-9, 2.1e-9, 3e-9]))
        contention[(low + 1) % n] = contention[low] + gap
        spread = rng.choice([1.0, 1.5, 2.0], n)
        lone += int(np.sum(contention <= contention.min() + 2e-9)) == 1
        assert _least_contended(contention, spread) == reference_least_contended(
            contention, spread
        )
    assert CASES // 4 < lone < CASES - CASES // 4


def test_least_contended_on_chip_scale_values():
    """Magnitude edges: the 2**23 ulp crossover and tiny contentions."""
    for base in (0.0, 1e-9, 0.5e-9, 2.0**23 - 1.0, 2.0**23, 3e7):
        values = np.array([base, base + 1e-9, base + 0.5e-9, base])
        values = np.concatenate([_nudge(values, np.full(4, u)) for u in (-2, 0, 2)])
        spread = np.tile([2.0, 1.0, 1.0, 2.0], 3)
        assert _least_contended(values, spread) == reference_least_contended(
            values, spread
        )


def test_least_contended_branches_match_the_oracle_placement(monkeypatch):
    """Both sorting branches inside whole placements, against the
    window-by-window scan of ``tests/oracles.py``: survivors of one
    exact contention value (the least spread wins without rounding) and
    distinct survivors within ``2e-9`` (rounded and sorted).  The golden
    fig11 problem's cold placement takes the first; a 4x4 problem whose
    claimed tally starts on 9th-decimal rounding boundaries, a few ulps
    either side, takes the second."""
    branches = Counter()

    def classified(contention, spread):
        near = contention[contention <= contention.min() + 2e-9]
        if len(near) == 1:
            branches["lone"] += 1
        elif near.min() == near.max():
            branches["equal"] += 1
        else:
            branches["rounded"] += 1
        return _least_contended(contention, spread)

    monkeypatch.setattr(vc_placement, "_least_contended", classified)
    cases = [(golden_problem(), None)]
    problem, _ = small_problem()
    tiles = problem.topology.tiles
    rng = np.random.default_rng(5)
    for _ in range(20):
        claimed = 1.0 + rng.integers(0, 3, tiles) * 1e-9 + rng.choice(
            [0.0, 0.5e-9], tiles
        )
        cases.append((problem, _nudge(claimed, rng.integers(-2, 3, tiles))))
    for problem, claimed in cases:
        sizes = allocate_latency_aware(problem)
        fast, slow = StepCounter(), StepCounter()
        got = place_optimistic(problem, sizes, fast, claimed_init=claimed)
        want = oracle_place_optimistic(problem, sizes, slow, claimed_init=claimed)
        assert got.centers == want.centers
        assert got.footprints == want.footprints
        assert got.centroids == want.centroids
        assert got.claimed.tobytes() == want.claimed.tobytes()
        assert fast.ops == slow.ops
    assert branches["equal"] > 0 and branches["rounded"] > 0, branches


def test_prefix_minimum_scan_matches_full_scan():
    rng = np.random.default_rng(31337)
    kinds = set()
    shortcut = 0
    for _ in range(CASES):
        costs = cost_case(rng)
        kinds.add(len(costs) == 1 or bool(np.all(costs == costs[0])))
        expected = reference_scan(costs.tolist())
        assert _first_strict_improvement_scan(costs) == expected
        if takes_shortcut(costs.tolist()):
            shortcut += 1
            assert expected == int(np.argmin(costs))
    assert kinds == {True, False}
    # The corpus sits on both sides of the argmin shortcut's condition:
    # 423 vectors take it, and the loop runs on the other 177.
    assert (shortcut, CASES - shortcut) == (423, 177)


def test_batched_scan_matches_full_scan_per_row():
    rng = np.random.default_rng(4242)
    for _ in range(CASES // 2):
        costs = cost_case(rng)
        rows = np.stack([costs, costs[::-1], np.roll(costs, 1)])
        picks = _first_strict_improvement_rows(rows)
        assert picks.dtype == np.int64
        assert picks.tolist() == [reference_scan(row) for row in rows.tolist()]


def test_prefix_minimum_scan_rejects_sub_margin_prefix_minima():
    """A chain falling 0.9e-12 per step is all strict prefix minima, but
    the scan accepts only drops past 1e-12 from its running best: index
    2, not the last entry."""
    chain = 10.0 - 0.9e-12 * np.arange(4)
    assert reference_scan(chain.tolist()) == 2
    assert _first_strict_improvement_scan(chain) == 2
    assert _first_strict_improvement_scan(np.array([3.0, 1.0, 1.0, 2.0])) == 1


# -- the greedy seed's batched 1-medians ---------------------------------------


def anchor_maps(rng: np.random.Generator, tiles: int, count: int) -> list:
    """Seeded 1-median weight maps of four kinds, in random order: one
    bank (a thread VC), several accessors' rates summed on one core,
    several banks, and near-ties — equal weights a few ulps apart, whose
    costs differ by far less than the 1e-12 margin."""
    maps = []
    for _ in range(count):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            maps.append({int(rng.integers(tiles)): float(rng.uniform(0.01, 80.0))})
        elif kind == 1:
            core = int(rng.integers(tiles))
            weights: dict[int, float] = {}
            for rate in rng.uniform(0.01, 80.0, int(rng.integers(2, 6))).tolist():
                weights[core] = weights.get(core, 0.0) + rate
            maps.append(weights)
        elif kind == 2:
            banks = rng.choice(tiles, int(rng.integers(2, 9)), replace=False)
            rates = rng.uniform(0.01, 80.0, len(banks))
            maps.append(dict(zip(banks.tolist(), rates.tolist())))
        else:
            banks = rng.choice(tiles, int(rng.integers(2, 5)), replace=False)
            base = float(rng.choice([0.5, 1.0, 3.0]))
            maps.append({
                bank: base * (1.0 + k * 2.0**-50)
                for k, bank in enumerate(banks.tolist())
            })
    return maps


@pytest.mark.parametrize("lazy", [False, True], ids=["dense-8x8", "lazy-4x4"])
def test_batched_anchors_match_one_median_per_map(lazy):
    side = 4 if lazy else 8
    maps = anchor_maps(np.random.default_rng(97 + side), side * side, 600)
    assert len(maps) > 2 * _CENTER_BLOCK  # several blocks
    with dense_geometry_limit(10**9):
        dense = Mesh(side, side)
        costs = [tile_cost_vector(dense, weights).tolist() for weights in maps]
    reference = [reference_scan(row) for row in costs]
    fallback = sum(not takes_shortcut(row) for row in costs)
    # Some rows really take the loop, and most the argmin shortcut.
    assert 20 < fallback < len(maps) // 2
    with dense_geometry_limit(0 if lazy else 10**9):
        mesh = Mesh(side, side)
        assert getattr(mesh.distance_matrix, "is_lazy", False) == lazy
        assert weighted_center_tiles(mesh, maps) == reference
        assert [weighted_center_tile(mesh, weights) for weights in maps] == reference
    assert weighted_center_tiles(mesh, []) == []
    with pytest.raises(ValueError):
        weighted_center_tiles(mesh, [{0: 1.0}, {}])


# -- one-accessor distance vectors ----------------------------------------------


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_one_term_distance_vector_is_the_chunked_row(lazy):
    side_x, side_y = 3, 5
    rng = np.random.default_rng(5)
    tiles = side_x * side_y
    thread_cores = dict(enumerate(rng.permutation(tiles).tolist()))
    eligible = {
        tid + 100: {tid: rate}
        for tid, rate in enumerate(rng.uniform(0.01, 80.0, tiles).tolist())
    }
    with dense_geometry_limit(0 if lazy else 10**9):
        mesh = Mesh(side_x, side_y)
        dist = mesh.distance_matrix
        assert getattr(dist, "is_lazy", False) == lazy
        dvec = DistanceVectors(mesh, thread_cores, eligible)
        rows_before = geometry_allocation_stats().lazy_rows
        vecs = {vc_id: dvec[vc_id] for vc_id in eligible}
        # Like the chunked path, the read caches no lazy row.
        assert geometry_allocation_stats().lazy_rows == rows_before
        for vc_id, accessors in eligible.items():
            ((tid, rate),) = accessors.items()
            core, coeff = np.array([thread_cores[tid]]), np.array([rate / rate])
            chunked = _sequential_weighted_row_sum(dist, core, coeff)
            loop = sequential_weighted_row_sum(dist, core, coeff)
            vec = vecs[vc_id]
            assert vec.dtype == np.float64
            assert vec.tobytes() == chunked.tobytes() == loop.tobytes()
            assert vec.flags.writeable
            if not lazy:
                assert not np.shares_memory(vec, dist)


# -- dirty detection on equal rate maps -----------------------------------------


def test_rate_distance_is_zero_for_equal_maps_in_any_order():
    forward = {3: 1.5, 7: 0.25, 11: 40.0}
    backward = dict(reversed(list(forward.items())))
    assert list(forward) != list(backward)
    assert _rate_distance(forward, backward) == 0.0
    # A moved rate still goes through the loop.
    assert _rate_distance(forward, {**backward, 7: 0.5}) == 0.5
