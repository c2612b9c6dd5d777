"""Chip topologies (mesh/torus) and the geometric primitives used by
CDCS's placement steps (compact windows scored at every center, centers
of mass, weighted 1-medians)."""

from repro.geometry.mesh import (
    DENSE_GEOMETRY_TILE_LIMIT,
    GeometryStats,
    LazyGeometryMatrix,
    Mesh,
    Topology,
    Torus,
    dense_geometry_bytes,
    dense_geometry_limit,
    geometry_allocation_stats,
    reset_geometry_allocation_stats,
)
from repro.geometry.placement_math import (
    center_of_mass,
    nearest_tile,
    weighted_center_tile,
)

__all__ = [
    "DENSE_GEOMETRY_TILE_LIMIT",
    "GeometryStats",
    "LazyGeometryMatrix",
    "Mesh",
    "Topology",
    "Torus",
    "dense_geometry_bytes",
    "dense_geometry_limit",
    "geometry_allocation_stats",
    "reset_geometry_allocation_stats",
    "center_of_mass",
    "nearest_tile",
    "weighted_center_tile",
]
