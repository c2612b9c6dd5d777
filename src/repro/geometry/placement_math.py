"""Geometric primitives behind CDCS's placement steps.

These implement the pictures in the paper:

* **Fig 6** — *compact placement*: fill banks outward from a center tile
  (the topology's spiral order), possibly fractionally, and compute the
  resulting average access distance;
* **Fig 7** — *contention windows*: the claimed capacity under the banks
  a compactly-placed VC would cover, used in Sec IV-D;
* **centers of mass** of capacity distributions, used by thread placement
  (Sec IV-E).

Shape conventions
-----------------
The helpers score **all candidate centers at once** against the
topology's precomputed matrices (``N = topology.tiles``):

* :func:`compact_window_weights` — ``(m,) float64``; per-rank bank
  fractions of a compact footprint of ``size_banks`` (ones then one
  partial), identical to filling banks one at a time;
  :func:`compact_window_length` gives ``m`` without the vector;
* :func:`batched_window_scores` — two ``(N,)`` vectors ``(contention,
  spread)``; entry *c* scores the compact window of those weights
  centered at tile *c* against a ``(N,)`` claimed-capacity tally.  Terms
  accumulate in spiral order via ``np.cumsum`` so each entry is bitwise
  the window's bank-by-bank contention and mean distance (the loops
  ``tests/oracles.py`` keeps);
* :func:`tile_cost_vector` — ``(N,) float64``; capacity-weighted total
  distance from every tile to a ``{bank: weight}`` mapping (the
  1-median objective of :func:`weighted_center_tile`);
* :func:`weighted_center_tiles` — the same objective for many mappings
  at once, as ``(B, N) float64`` blocks of at most 256 rows, each row
  summed in its mapping's order like :func:`tile_cost_vector`;
* :func:`squared_point_distances` — ``(P, N) float64``; squared
  Euclidean distance from every tile to each of ``P`` fractional
  points, each row bitwise the one its point gets alone (thread
  placement passes blocks of at most 256 points).

Every float sum a placement decision reads is a left-to-right loop from
``0.0`` (:func:`repro.util.sums.ordered_sum`), not ``sum()``, which
compensates float adds from Python 3.12 on.

Selections over those vectors (:func:`nearest_tile`,
:func:`weighted_center_tile`, :func:`weighted_center_tiles`) keep the
scalar first-strict-improvement scan, so tie-breaking matches the scalar
reference exactly.  An array prefix-minimum pass settles most rows
outright: when no strict prefix minimum sits within the scan's ``1e-12``
margin, the scan's answer is ``np.argmin``.  Elsewhere it drops every
entry the scan could never accept, and the Python loop runs over the few
that remain.
"""

from __future__ import annotations

import math

from collections.abc import Iterable, Mapping

import numpy as np

from repro.geometry.mesh import Topology
from repro.util.sums import ordered_sum


def center_of_mass(
    topology: Topology, weights: Mapping[int, float]
) -> tuple[float, ...]:
    """Weighted centroid of tiles in coordinate space.

    For mesh topologies the coordinates are (x, y); the result is fractional.
    Raises ``ValueError`` on empty/zero weights: callers must handle VCs with
    no placed capacity explicitly.
    """
    total = ordered_sum(weights.values())
    if total <= 0:
        raise ValueError("center of mass of empty placement is undefined")
    moments: list[float] = []
    for tile, w in weights.items():
        coords = topology.coords(tile)  # type: ignore[attr-defined]
        if not moments:
            moments = [0.0] * len(coords)
        for d, c in enumerate(coords):
            moments[d] += w * c
    return tuple(moment / total for moment in moments)


def _scan_prefix_minima(costs: np.ndarray, below: np.ndarray) -> int:
    """The reference scan over one ``(n,)`` cost row, visiting only its
    strict prefix minima (*below* flags ``costs[1:]`` entries under the
    running minimum before them)."""
    keep = np.flatnonzero(np.concatenate(([True], below)))
    best_index = 0
    best_cost = float("inf")
    for index, cost in zip(keep.tolist(), costs[keep].tolist()):
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_index = index
    return best_index


def _first_strict_improvement_scan(costs: np.ndarray) -> int:
    """Index selected by the reference scan: ascending order, accept only
    improvements bigger than 1e-12 — NOT a plain argmin (a later entry a
    hair below the running best does not displace it).

    Only a strict prefix minimum can be accepted: an accepted entry lies
    below the running best minus 1e-12, and every earlier entry is at
    least that (an accepted one is at least the running best, a rejected
    one was at least its then running best minus 1e-12, and the running
    best only falls).  A rejected entry leaves the running best
    unchanged, so scanning just the strict prefix minima returns the
    full scan's index.

    When every strict prefix minimum also passes the scan's own test
    ``cost < best - 1e-12`` against the prefix minimum before it, the
    scan accepts each one in turn and ends on the first index of the
    minimum: ``np.argmin``.  Only a vector with a strict prefix minimum
    inside the margin runs the loop.  *costs* is a NaN-free ``(n,)``
    vector with ``n >= 1`` (both callers pass distances).
    """
    running = np.minimum.accumulate(costs)[:-1]
    later = costs[1:]
    below = later < running
    if not (below != (later < running - 1e-12)).any():
        return int(costs.argmin())
    return _scan_prefix_minima(costs, below)


def _first_strict_improvement_rows(costs: np.ndarray) -> np.ndarray:
    """:func:`_first_strict_improvement_scan` of every row of a ``(B, n)``
    matrix -> ``(B,) int64``: one array pass with the same shortcut, and
    the loop only on the rows it does not settle."""
    running = np.minimum.accumulate(costs, axis=1)[:, :-1]
    later = costs[:, 1:]
    below = later < running
    picks = costs.argmin(axis=1)
    near_ties = (below != (later < running - 1e-12)).any(axis=1)
    for row in np.flatnonzero(near_ties).tolist():
        picks[row] = _scan_prefix_minima(costs[row], below[row])
    return picks


def squared_point_distances(topology: Topology, points) -> np.ndarray:
    """``(P, tiles)`` squared Euclidean distances from every tile to each
    of *points* (``P`` points of the topology's dimension).  Row *i* adds
    point *i*'s coordinate terms in dimension order, the scalar
    expression's order, so it is bitwise the row that point gets alone;
    the block holds two ``(P, tiles)`` arrays at a time."""
    coords = getattr(topology, "coord_array", None)
    if coords is None:  # pragma: no cover - exotic topologies
        coords = np.array(
            [topology.coords(t) for t in range(topology.tiles)]  # type: ignore[attr-defined]
        )
    points = np.asarray(points, dtype=np.float64).reshape(-1, coords.shape[1])
    total = np.zeros((len(points), topology.tiles), dtype=np.float64)
    delta = np.empty_like(total)
    for dim in range(coords.shape[1]):
        np.subtract(coords[:, dim], points[:, dim, None], out=delta)
        total += np.square(delta, out=delta)
    return total


def nearest_tile(topology: Topology, point: Iterable[float]) -> int:
    """Tile whose coordinates are closest (Euclidean) to a fractional point;
    deterministic tie-break by tile id."""
    return _first_strict_improvement_scan(
        squared_point_distances(topology, [tuple(point)])[0]
    )


def tile_cost_vector(
    topology: Topology, weights: Mapping[int, float]
) -> np.ndarray:
    """(tiles,) capacity-weighted total distance from every tile to
    *weights* — the 1-median objective, all candidates at once.

    Terms accumulate in the mapping's iteration order (sequential adds),
    matching the scalar per-tile sum bitwise.
    """
    dist = topology.distance_matrix
    total = np.zeros(topology.tiles, dtype=np.float64)
    for bank, weight in weights.items():
        total = total + weight * dist[:, bank]
    return total


def weighted_center_tile(topology: Topology, weights: Mapping[int, float]) -> int:
    """Tile minimizing the capacity-weighted total distance to *weights*.

    This is the discrete 1-median under the network metric — a more faithful
    "center of mass" for hop-count latency than the Euclidean centroid, and
    what the thread-placement step uses to turn a data placement into a
    preferred core location.
    """
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("weighted center of empty placement is undefined")
    return _first_strict_improvement_scan(tile_cost_vector(topology, weights))


#: Weight maps scored per block by :func:`weighted_center_tiles`: the
#: ``(256, N)`` cost block stays a sliver of the dense matrix even at
#: 16384 tiles, like the refinement's accessor chunks.
_CENTER_BLOCK = 256


def weighted_center_tiles(
    topology: Topology, weight_maps: list[Mapping[int, float]]
) -> list[int]:
    """:func:`weighted_center_tile` of every map, as ``(B, N)`` cost blocks.

    Row *i* of a block adds map *i*'s ``weight * dist[:, bank]`` columns
    in the map's order onto zeros, exactly as :func:`tile_cost_vector`
    does.  Maps are taken longest first, so the rows that have a *k*-th
    term are a prefix of the block and shorter maps add nothing past
    their last term.  Each row then goes through the reference scan.
    A map of one tile whose weight is finite and above the scan's
    ``1e-12`` margin is centered on that tile without a row.  Every map
    needs a positive total weight.
    """
    if any(sum(weights.values()) <= 0 for weights in weight_maps):
        raise ValueError("weighted center of empty placement is undefined")
    dist = topology.distance_matrix
    terms = [list(weights.items()) for weights in weight_maps]
    centers = [0] * len(terms)
    scanned = []
    for i, items in enumerate(terms):
        if len(items) == 1 and 1e-12 < items[0][1] < math.inf:
            # One tile of finite weight w > 1e-12: it costs 0 and every
            # other tile at least w (one hop or more), so the scan
            # accepts it over any earlier tile and nothing after it.
            centers[i] = int(items[0][0])
        else:
            scanned.append(i)
    order = sorted(scanned, key=lambda i: -len(terms[i]))
    for lo in range(0, len(order), _CENTER_BLOCK):
        block = order[lo:lo + _CENTER_BLOCK]
        costs = np.zeros((len(block), topology.tiles), dtype=np.float64)
        for k in range(len(terms[block[0]])):
            column = [terms[i][k] for i in block if len(terms[i]) > k]
            n = len(column)
            banks = np.fromiter((b for b, _ in column), np.int64, count=n)
            weights = np.fromiter((w for _, w in column), np.float64, count=n)
            costs[:n] = costs[:n] + weights[:, None] * dist[:, banks].T
        for i, center in zip(block, _first_strict_improvement_rows(costs).tolist()):
            centers[i] = center
    return centers


# ---------------------------------------------------------------------------
# Batched compact-window scoring (all candidate centers at once)
# ---------------------------------------------------------------------------


def compact_window_length(topology: Topology, size_banks: float) -> int:
    """Bank count of a compact *size_banks* footprint: the length of
    :func:`compact_window_weights`, without building it."""
    if size_banks < 0:
        raise ValueError(f"size must be non-negative, got {size_banks}")
    remaining = min(float(size_banks), float(topology.tiles))
    if remaining <= 1e-12:
        return 0
    full = int(math.floor(remaining))
    return full + 1 if remaining - full > 1e-12 else full


def compact_window_weights(topology: Topology, size_banks: float) -> np.ndarray:
    """(m,) per-rank bank fractions of a compact *size_banks* footprint.

    Entry j is the fraction claimed from the j-th-closest bank: ones for
    full banks, then one partial.  Every candidate center shares this
    vector (only the visit order differs), which is what makes whole-chip
    candidate scoring a matrix operation.  The values replicate filling
    banks one at a time exactly (repeated ``-= 1.0`` on a float of this
    magnitude is exact, and sub-``1e-12`` tails are dropped just like the
    fill loop's break).
    """
    m = compact_window_length(topology, size_banks)
    weights = np.ones(m, dtype=np.float64)
    remaining = min(float(size_banks), float(topology.tiles))
    if m > remaining:  # a partial last bank, more than 1e-12 of one
        weights[m - 1] = remaining - (m - 1)
    return weights


def batched_window_scores(
    topology: Topology,
    claimed: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Score the compact window of *weights* (:func:`compact_window_weights`)
    at every candidate center -> ``(contention, spread)``, each ``(tiles,)``.

    ``contention[c]`` is the claimed capacity under the window centered at
    *c* (the hatched-area sum of Fig 7b); ``spread[c]`` is the window's
    mean access distance from *c* (the Fig 6 average).  Rows reduce in
    spiral order with ``np.cumsum``, so both vectors are bitwise what
    building and scoring each window bank by bank computes (the weights'
    total is a left-to-right sum, as there).
    """
    m = len(weights)
    if m == 0:
        zeros = np.zeros(topology.tiles, dtype=np.float64)
        return zeros, zeros.copy()
    order = topology.order_matrix[:, :m]
    ranked_dist = topology.sorted_distance_matrix[:, :m]
    contention = np.cumsum(weights[None, :] * claimed[order], axis=1)[:, -1]
    weighted = np.cumsum(weights[None, :] * ranked_dist, axis=1)[:, -1]
    spread = weighted / ordered_sum(weights.tolist())
    return contention, spread
