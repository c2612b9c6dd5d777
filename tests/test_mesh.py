"""Topologies: mesh distances, controllers, torus (repro.geometry.mesh)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from repro.geometry.mesh import Mesh, Torus

tiles_strategy = st.tuples(
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)


def test_coords_row_major():
    mesh = Mesh(4, 3)
    assert mesh.coords(0) == (0, 0)
    assert mesh.coords(3) == (3, 0)
    assert mesh.coords(4) == (0, 1)
    assert mesh.tile_at(3, 2) == 11


def test_coords_out_of_range():
    mesh = Mesh(2, 2)
    with pytest.raises(IndexError):
        mesh.coords(4)
    with pytest.raises(IndexError):
        mesh.tile_at(2, 0)


def test_manhattan_distance():
    mesh = Mesh(8, 8)
    assert mesh.distance(0, 63) == 14  # corner to corner
    assert mesh.distance(0, 0) == 0
    assert mesh.distance(0, 7) == 7


@given(tiles_strategy, st.data())
def test_distance_symmetry_and_triangle(dims, data):
    mesh = Mesh(*dims)
    a = data.draw(st.integers(0, mesh.tiles - 1))
    b = data.draw(st.integers(0, mesh.tiles - 1))
    c = data.draw(st.integers(0, mesh.tiles - 1))
    assert mesh.distance(a, b) == mesh.distance(b, a)
    assert mesh.distance(a, c) <= mesh.distance(a, b) + mesh.distance(b, c)
    assert (mesh.distance(a, b) == 0) == (a == b)


def test_mean_distance_from_corner_8x8():
    # Mean hops from a corner of an 8x8 mesh: 2 * mean(0..7) = 7.0.
    assert Mesh(8, 8).mean_distance(0) == pytest.approx(7.0)


def test_center_tile_is_central():
    mesh = Mesh(8, 8)
    x, y = mesh.coords(mesh.center_tile())
    assert 3 <= x <= 4 and 3 <= y <= 4


def test_center_tile_is_memoized():
    """The center depends only on the topology: each instance computes
    it once, from the row means."""
    mesh = Mesh(9, 7)
    expected = int(np.argmin(mesh.distance_matrix.mean(axis=1)))
    assert mesh.center_tile() == expected
    mesh.distance_matrix = None  # a second computation would now fail
    assert mesh.center_tile() == expected


def test_tiles_by_distance_sorted_and_cached():
    mesh = Mesh(5, 5)
    order = mesh.tiles_by_distance(12)
    dists = [mesh.distance(12, t) for t in order]
    assert dists == sorted(dists)
    assert order is mesh.tiles_by_distance(12)  # cached list reused
    assert sorted(order) == list(range(25))


def test_neighbors_interior_and_corner():
    mesh = Mesh(4, 4)
    assert sorted(mesh.neighbors(5)) == [1, 4, 6, 9]
    assert sorted(mesh.neighbors(0)) == [1, 4]


def test_memory_controllers_on_perimeter():
    mesh = Mesh(8, 8)
    mcs = mesh.memory_controller_tiles(8)
    assert len(mcs) == 8
    assert len(set(mcs)) == 8
    for tile in mcs:
        x, y = mesh.coords(tile)
        assert x in (0, 7) or y in (0, 7)


def test_memory_controller_count_clamped():
    mesh = Mesh(2, 2)
    assert len(mesh.memory_controller_tiles(16)) == 4


def test_mean_memory_distance_roughly_equal_across_tiles():
    # The Eq 1 assumption: all cores see similar average distance to MCs.
    mesh = Mesh(8, 8)
    means = [mesh.mean_memory_distance(t, 8) for t in range(mesh.tiles)]
    assert max(means) / min(means) < 1.8


def test_torus_wraparound():
    torus = Torus(8, 8)
    assert torus.distance(0, 7) == 1  # wraps in x
    assert torus.distance(0, 56) == 1  # wraps in y
    assert torus.distance(0, 63) == 2


def test_invalid_mesh_rejected():
    with pytest.raises(ValueError):
        Mesh(0, 4)


def test_distance_matrix_matches_distance():
    mesh = Mesh(3, 3)
    mat = mesh.distance_matrix
    for a in range(9):
        for b in range(9):
            assert mat[a, b] == mesh.distance(a, b)
