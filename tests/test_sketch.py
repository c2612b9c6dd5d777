"""Bounded-memory miss-curve sketches (repro.cache.sketch).

The unit contracts: grid caching/immutability, the fixed byte budget,
round-trip fidelity, the delta upper bound against
:func:`repro.sched.engine.curve_distance`, the per-curve sketch memo
behind :func:`record_sketch_pairs`, the stacked :func:`sketch_deltas`
kernel, and the sketch detector's id matching and grid check.  The
statistical superset/placement properties live in
``tests/test_sketch_properties.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache.miss_curve import cliff_curve, exponential_curve, flat_curve
from repro.cache.sketch import (
    DEFAULT_SKETCH_BYTES,
    MIN_POINTS,
    SKETCH_HEADER_BYTES,
    MissCurveSketch,
    points_for_budget,
    record_sketch_pairs,
    sketch_deltas,
    sketch_grid,
)
from repro.sched.engine import IncrementalSolve, curve_distance
from repro.testing import small_problem
from repro.util.units import mb
from repro.vcache.virtual_cache import VCKind, VirtualCache

LLC = float(mb(32))


def _exp_curve(half=mb(2), base=40.0):
    return exponential_curve(LLC, base, 2.0, half)


def _cliff_curve():
    return cliff_curve(LLC, 30.0, mb(8), 3.0)


# -- grids and budgets -------------------------------------------------------


def test_points_for_budget_default():
    assert points_for_budget(DEFAULT_SKETCH_BYTES) == (
        DEFAULT_SKETCH_BYTES - SKETCH_HEADER_BYTES
    ) // 8


def test_points_for_budget_too_small_raises():
    with pytest.raises(ValueError):
        points_for_budget(SKETCH_HEADER_BYTES + 8 * (MIN_POINTS - 1))


def test_sketch_grid_shared_frozen_and_shaped():
    grid = sketch_grid(LLC, 61)
    assert grid is sketch_grid(LLC, 61)  # process-wide cache
    assert not grid.flags.writeable
    assert grid[0] == 0.0 and grid[-1] == LLC
    assert np.all(np.diff(grid) > 0)
    assert grid.shape == (61,)


def test_sketch_grid_validation():
    with pytest.raises(ValueError):
        sketch_grid(0.0, 61)
    with pytest.raises(ValueError):
        sketch_grid(LLC, MIN_POINTS - 1)


# -- construction, budget, round trip ----------------------------------------


def test_from_curve_budget_and_frozen_arrays():
    sketch = MissCurveSketch.from_curve(_exp_curve(), grid_max=LLC)
    assert sketch.nbytes == DEFAULT_SKETCH_BYTES
    assert not sketch.values.flags.writeable
    assert not sketch.slack.flags.writeable
    assert sketch.points == points_for_budget(DEFAULT_SKETCH_BYTES)
    assert sketch.peak == pytest.approx(float(np.max(_exp_curve().values)))


def test_roundtrip_close_to_source_curve():
    curve = _exp_curve()
    sketch = MissCurveSketch.from_curve(curve, grid_max=LLC)
    assert curve_distance(curve, sketch.to_curve()) < 0.02


def test_roundtrip_improves_with_budget():
    curve = _cliff_curve()
    coarse = MissCurveSketch.from_curve(curve, budget_bytes=128, grid_max=LLC)
    fine = MissCurveSketch.from_curve(curve, budget_bytes=4096, grid_max=LLC)
    d_coarse = curve_distance(curve, coarse.to_curve())
    d_fine = curve_distance(curve, fine.to_curve())
    # The cliff's step keeps a residual at any finite grid, but a finer
    # grid localizes it: strictly better, and within the default dirty
    # threshold's order of magnitude.
    assert d_fine < d_coarse
    assert d_fine < 0.1


# -- the delta bound ---------------------------------------------------------


def test_delta_upper_bounds_curve_distance():
    a, b = _exp_curve(), _cliff_curve()
    sa = MissCurveSketch.from_curve(a, grid_max=LLC)
    sb = MissCurveSketch.from_curve(b, grid_max=LLC)
    assert sa.delta(sb) >= curve_distance(a, b)
    assert sa.delta(sb) == sb.delta(sa)


def test_delta_identity_and_same_content():
    sketch = MissCurveSketch.from_curve(_exp_curve(), grid_max=LLC)
    assert sketch.delta(sketch) == 0.0
    # Distinct sketch objects of the same curve content: the bound
    # cannot be exactly zero (slack is real) but stays tiny — well under
    # any useful dirty threshold.
    twin = MissCurveSketch.from_curve(_exp_curve(), grid_max=LLC)
    assert 0.0 <= sketch.delta(twin) < 0.02


def test_delta_grid_mismatch_raises():
    sketch = MissCurveSketch.from_curve(_exp_curve(), grid_max=LLC)
    other = MissCurveSketch.from_curve(_exp_curve(), grid_max=2 * LLC)
    with pytest.raises(ValueError):
        sketch.delta(other)


# -- per-curve memo and the pair kernel --------------------------------------


def _vcs(curves):
    """One VC record per curve, ids 0, 1, ..."""
    return [
        VirtualCache(vc_id, VCKind.THREAD, 0, curve)
        for vc_id, curve in enumerate(curves)
    ]


def test_pairs_memoize_sketches_per_curve_object():
    curves = [_exp_curve(), _cliff_curve()]
    first = record_sketch_pairs(list(zip(_vcs(curves), _vcs(curves))), LLC)
    second = record_sketch_pairs(list(zip(_vcs(curves), _vcs(curves))), LLC)
    for (new, old), (new_again, old_again) in zip(first, second):
        assert new is old is new_again is old_again
        assert new.points == 61 and float(new.grid[-1]) == LLC
    assert sketch_deltas(first) == sketch_deltas(second) == [0.0, 0.0]


def test_sketch_deltas_flag_moved_pairs():
    shared = _exp_curve()
    old = _vcs([shared, _cliff_curve()])
    new = _vcs([shared, _exp_curve(mb(8))])
    deltas = sketch_deltas(record_sketch_pairs(list(zip(new, old)), LLC))
    assert deltas[0] == 0.0  # same curve object: identity fast path
    assert deltas[1] > 0.05
    # And the bound covers the exact distance for the moved pair.
    assert deltas[1] >= curve_distance(_cliff_curve(), _exp_curve(mb(8)))


def test_sketch_detector_matches_ids_and_checks_the_grid():
    problem, _ = small_problem(apps=8)
    first, *rest = problem.vcs
    detector = IncrementalSolve(use_sketches=True)
    # prev lacks the first VC and holds one the problem does not know:
    # the missing one is dirty, the unknown one is not looked at.
    stranger = replace(first, vc_id=max(vc.vc_id for vc in problem.vcs) + 1)
    prev = replace(problem, vcs=[*reversed(rest), stranger])
    assert detector.dirty_vcs_from_sketches(prev, problem) == {first.vc_id}
    assert detector.dirty_vcs(prev, problem) == {first.vc_id}
    # Another LLC size puts the sketches on another grid: no delta is
    # bounded, so every VC is dirty, while the exact curves still match.
    cache = problem.config.cache
    bigger = replace(problem, config=problem.config.with_banks(
        2 * cache.bank_bytes, cache.partitions_per_bank
    ))
    assert detector.dirty_vcs_from_sketches(problem, bigger) == {
        vc.vc_id for vc in problem.vcs
    }
    assert detector.dirty_vcs(problem, bigger) == set()


def test_flat_zero_curve_sketches_cleanly():
    zero = flat_curve(LLC, 0.0)
    sketch = MissCurveSketch.from_curve(zero, grid_max=LLC)
    assert sketch.peak == 0.0
    twin = MissCurveSketch.from_curve(flat_curve(LLC, 0.0), grid_max=LLC)
    assert sketch.delta(twin) == 0.0  # 0/eps, not NaN
