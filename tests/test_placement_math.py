"""Placement geometry: compact windows, contention, centers (Fig 6-8)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import compact_placement

from repro.geometry import placement_math
from repro.geometry.mesh import Mesh
from repro.geometry.placement_math import (
    batched_window_scores,
    center_of_mass,
    compact_window_length,
    compact_window_weights,
    nearest_tile,
    tile_cost_vector,
    weighted_center_tile,
    weighted_center_tiles,
)


def mean_distance(mesh, center: int, size_banks: float) -> float:
    """Mean access distance of a compact *size_banks* window around
    *center*, for an accessor at *center* (the Fig 6 computation)."""
    claimed = np.zeros(mesh.tiles)
    weights = compact_window_weights(mesh, size_banks)
    return float(batched_window_scores(mesh, claimed, weights)[1][center])


def test_compact_placement_fractions_sum_to_size():
    weights = compact_window_weights(Mesh(6, 6), 8.2)
    assert weights.sum() == pytest.approx(8.2)
    assert all(0 < f <= 1 for f in weights)


def test_compact_placement_fills_center_first():
    mesh = Mesh(6, 6)
    weights = compact_window_weights(mesh, 3.0)
    banks = mesh.order_matrix[14, : len(weights)]
    assert banks[0] == 14 and weights[0] == 1.0
    # All full banks are at distance <= the partial bank's distance.
    dists = sorted(mesh.distance(14, int(t)) for t in banks)
    assert dists == [0, 1, 1]


def test_paper_fig6_average_distance():
    # Fig 6: an 8.2-bank VC compactly placed mid-chip averages ~1.27 hops.
    mesh = Mesh(8, 8)
    d = mean_distance(mesh, mesh.center_tile(), 8.2)
    assert d == pytest.approx(1.27, abs=0.02)


def test_compact_placement_clamps_to_chip():
    assert compact_window_weights(Mesh(2, 2), 10.0).sum() == pytest.approx(4.0)


def test_compact_placement_rejects_negative():
    with pytest.raises(ValueError):
        compact_window_weights(Mesh(2, 2), -1.0)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_compact_mean_distance_monotone_in_size(side, size):
    """Bigger compact VCs are farther away on average (Fig 5's rising
    on-chip term)."""
    mesh = Mesh(side, side)
    center = mesh.center_tile()
    small = mean_distance(mesh, center, min(size, mesh.tiles))
    bigger = mean_distance(mesh, center, min(size * 1.5, mesh.tiles))
    assert bigger >= small - 1e-9


def test_placement_mean_distance_zero_for_local():
    assert mean_distance(Mesh(4, 4), 5, 1.0) == 0.0


def test_window_contention_weighted_sum():
    mesh = Mesh(4, 4)
    weights = compact_window_weights(mesh, 2.0)
    contention, _ = batched_window_scores(mesh, np.ones(16), weights)
    assert contention[5] == pytest.approx(2.0)


def test_spiral_order_is_by_distance():
    mesh = Mesh(5, 5)
    order = list(mesh.tiles_by_distance(12))
    dists = [mesh.distance(12, t) for t in order]
    assert dists == sorted(dists)
    assert order[0] == 12


def test_center_of_mass_weighted():
    mesh = Mesh(4, 4)
    com = center_of_mass(mesh, {0: 1.0, 3: 1.0})
    assert com == pytest.approx((1.5, 0.0))
    com = center_of_mass(mesh, {0: 3.0, 3: 1.0})
    assert com == pytest.approx((0.75, 0.0))


def test_center_of_mass_empty_raises():
    with pytest.raises(ValueError):
        center_of_mass(Mesh(2, 2), {})


def test_nearest_tile_rounds_to_closest():
    mesh = Mesh(4, 4)
    assert nearest_tile(mesh, (0.4, 0.4)) == 0
    assert nearest_tile(mesh, (2.9, 3.1)) == 15


def test_weighted_center_tile_is_network_median():
    mesh = Mesh(5, 1)
    # Weights at the ends: any middle tile minimizes; heavy left pulls left.
    assert weighted_center_tile(mesh, {0: 10.0, 4: 1.0}) == 0
    assert weighted_center_tile(mesh, {0: 1.0, 4: 1.0}) in (0, 1, 2, 3, 4)


def test_weighted_center_tile_single_point():
    mesh = Mesh(4, 4)
    assert weighted_center_tile(mesh, {9: 2.0}) == 9


def test_one_tile_maps_center_on_their_tile_without_a_cost_row(monkeypatch):
    """A one-tile map whose weight is finite and above the scan's 1e-12
    margin is centered on its tile with no cost row; at or below the
    margin, or next to other maps, each map still gets the scan's pick
    (tile 0 sits one hop before tile 1, so a 1e-12 weight keeps it)."""
    mesh = Mesh(4, 4)
    rows = []
    real = placement_math._first_strict_improvement_rows

    def recording(costs):
        rows.append(len(costs))
        return real(costs)

    monkeypatch.setattr(placement_math, "_first_strict_improvement_rows", recording)
    above = [math.nextafter(1e-12, 1.0), 1e-9, 1.0, 3e5]
    assert weighted_center_tiles(mesh, [{1: w} for w in above]) == [1] * 4
    assert rows == []
    below = [1e-12, math.nextafter(1e-12, 0.0), 5e-13]
    assert weighted_center_tiles(mesh, [{1: w} for w in below]) == [0] * 3
    assert rows == [3]
    maps = [{1: 1e-12}, {6: 2.0}, {0: 1.0, 15: 3.0}, {9: 5e-13}, {3: 1.0, 12: 1.0}]
    want = [
        placement_math._first_strict_improvement_scan(tile_cost_vector(mesh, m))
        for m in maps
    ]
    assert weighted_center_tiles(mesh, maps) == want
    assert want[1] == 6 and rows[1:] == [4]
    with pytest.raises(ValueError):
        weighted_center_tiles(mesh, [{2: 1.0}, {5: 0.0}])


def test_window_length_is_the_window_weights_length():
    mesh = Mesh(4, 4)
    edge = 1e-12
    sizes = [
        0.0, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0),
        1.0, 2.0, 3.5, 5.0 + 5e-13, 5.0 + 2e-12, 15.999, 16.0, 17.25, 1e6,
    ]
    for size in sizes:
        length = compact_window_length(mesh, size)
        assert length == len(compact_window_weights(mesh, size)), size
        assert length == len(compact_placement(mesh, 5, size)), size
    assert [compact_window_length(mesh, s) for s in sizes[:4]] == [0, 0, 0, 1]
    assert compact_window_length(mesh, 1e6) == 16
    with pytest.raises(ValueError):
        compact_window_length(mesh, -1.0)
