"""Exactness of the array preselections in the CDCS placement steps.

Two selections run a Python loop over only the candidates that can win,
after an array pass has dropped the rest:

* :func:`repro.sched.vc_placement._least_contended` rounds and sorts
  only the contentions within ``2e-9`` of the least one;
* :func:`repro.geometry.placement_math._first_strict_improvement_scan`
  scans only the strict prefix minima.

Each is compared with ``==`` against the full loop it replaced, kept
below as the reference, over seeded cases built to hit the edges: ties
planted on 9th-decimal rounding boundaries (``k * 1e-9 + 0.5e-9`` give
or take a few ulps) at magnitudes up to 1e4, and costs with exact ties,
descending chains in steps under the 1e-12 acceptance margin, constant
and one-element vectors.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.placement_math import _first_strict_improvement_scan
from repro.sched.vc_placement import _least_contended

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


def test_least_contended_on_chip_scale_values():
    """Magnitude edges: the 2**23 ulp crossover and tiny contentions."""
    for base in (0.0, 1e-9, 0.5e-9, 2.0**23 - 1.0, 2.0**23, 3e7):
        values = np.array([base, base + 1e-9, base + 0.5e-9, base])
        values = np.concatenate([_nudge(values, np.full(4, u)) for u in (-2, 0, 2)])
        spread = np.tile([2.0, 1.0, 1.0, 2.0], 3)
        assert _least_contended(values, spread) == reference_least_contended(
            values, spread
        )


def test_prefix_minimum_scan_matches_full_scan():
    rng = np.random.default_rng(31337)
    kinds = set()
    for _ in range(CASES):
        costs = cost_case(rng)
        kinds.add(len(costs) == 1 or bool(np.all(costs == costs[0])))
        assert _first_strict_improvement_scan(costs) == reference_scan(
            costs.tolist()
        )
    assert kinds == {True, False}


def test_prefix_minimum_scan_rejects_sub_margin_prefix_minima():
    """A chain falling 0.9e-12 per step is all strict prefix minima, but
    the scan accepts only drops past 1e-12 from its running best: index
    2, not the last entry."""
    chain = 10.0 - 0.9e-12 * np.arange(4)
    assert reference_scan(chain.tolist()) == 2
    assert _first_strict_improvement_scan(chain) == 2
    assert _first_strict_improvement_scan(np.array([3.0, 1.0, 1.0, 2.0])) == 1
