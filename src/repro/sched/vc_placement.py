"""Optimistic contention-aware VC placement (Sec IV-D, Fig 7).

Once VC sizes are known, this step sketches where data should live so that
thread placement (the next step) can see, e.g., that two large VCs must not
sit in adjacent corners.  VCs are placed **largest first**; each one scans
every bank as a candidate center, scores it by the *claimed capacity* under
its compact footprint (capacity constraints relaxed — banks may be claimed
beyond their size), and settles around the least-contended center.

The result is deliberately rough: it exists to expose capacity contention,
not to be the final placement (which step 4 refines).

Shape conventions
-----------------
The step scores **every** candidate center of one VC as two
``(N,)`` ``float64`` vectors (``N = topology.tiles``): ``contention`` (the
claimed capacity under the candidate's compact window) and ``spread`` (the
window's mean access distance), both produced by
:func:`repro.geometry.placement_math.batched_window_scores` from the
topology's ``(N, N)`` order/sorted-distance matrices.  The running
``claimed`` tally is a ``(N,)`` ``float64`` vector.  Candidate selection
(:func:`_least_contended`) minimizes the key ``(round(contention, 9),
spread, candidate)``: an array preselection keeps the candidates within
``2e-9`` of the least contention, the only ones that can share the
minimum rounded key, and a lexicographic sort over them picks the center
(a lone survivor wins outright).  The chosen centers are those of the
one-window-per-candidate scan that ``tests/oracles.py`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.placement_math import (
    batched_window_scores,
    center_of_mass,
    compact_window_weights,
)
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementProblem


@dataclass
class OptimisticPlacement:
    """Output of the optimistic step: rough footprints and their centers."""

    #: vc_id -> {bank -> bytes} (footprints may overlap across VCs).
    footprints: dict[int, dict[int, float]]
    #: vc_id -> center bank chosen.
    centers: dict[int, int]
    #: vc_id -> fractional (x, y) center of mass of the footprint.
    centroids: dict[int, tuple[float, ...]]
    #: Final claimed-capacity tally, in banks (diagnostics/tests).
    claimed: np.ndarray


def _placement_order(problem, vc_sizes, vc_ids):
    """Largest-first visit order over the VCs being (re)placed."""
    return sorted(
        (
            vc
            for vc in problem.vcs
            if vc_sizes.get(vc.vc_id, 0.0) > 0
            and (vc_ids is None or vc.vc_id in vc_ids)
        ),
        key=lambda vc: (-vc_sizes[vc.vc_id], vc.vc_id),
    )


def _initial_claimed(topo, claimed_init) -> np.ndarray:
    if claimed_init is None:
        return np.zeros(topo.tiles, dtype=np.float64)
    return np.array(claimed_init, dtype=np.float64)


def _least_contended(contention: np.ndarray, spread: np.ndarray) -> int:
    """Candidate minimizing the key ``(round(contention, 9), spread,
    candidate)``.

    Python ``round`` (not ``np.round``) keeps the noise-absorbing primary
    key digit-for-digit the one-candidate scan's, but it is one
    interpreted call per candidate, so it runs only on candidates within
    ``2e-9`` of the least contention *m*.  ``round`` is monotone, so ``round(m, 9)`` is
    the minimum key, and a contention sharing it lies within ``1e-9``
    plus one ulp of *m*: under ``2e-9`` below ``2**23``, and above that
    (ulps over ``1e-9``) equal keys mean equal values.  The survivors
    are in id order and ``lexsort`` is stable, so full ties settle on
    the lowest candidate id like that scan.  A lone survivor holds
    the minimum key by itself and wins without either, and survivors
    of one exact contention value skip the rounding.
    """
    near = np.flatnonzero(contention <= contention.min() + 2e-9)
    if len(near) == 1:
        return int(near[0])
    values = contention[near]
    if values.min() == values.max():
        # Equal values round to one key: the least spread wins, and
        # ``argmin`` keeps the lowest id among equal spreads.
        return int(near[spread[near].argmin()])
    rounded = np.array([round(c, 9) for c in values.tolist()])
    return int(near[np.lexsort((spread[near], rounded))[0]])


def count_optimistic_ops(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    counter: StepCounter,
    vc_ids: set[int] | None = None,
) -> None:
    """Count the ``vc_placement`` ops :func:`place_optimistic` would,
    without placing: ``tiles x window length`` per VC it visits.
    Neither factor reads the claimed tally, so the count is exact, and
    the counter gains the key exactly when the loop would create it.
    """
    topo = problem.topology
    order = _placement_order(problem, vc_sizes, vc_ids)
    if order:
        counter.add("vc_placement", sum(
            topo.tiles * len(compact_window_weights(
                topo, vc_sizes[vc.vc_id] / problem.bank_bytes
            ))
            for vc in order
        ))


def place_optimistic(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    counter: StepCounter | None = None,
    vc_ids: set[int] | None = None,
    claimed_init: np.ndarray | None = None,
) -> OptimisticPlacement:
    """Run the Sec IV-D placement for all VCs with non-zero size.

    Per VC, every candidate center is scored in one matrix pass over the
    precomputed spiral-order matrices.  The selection key is
    ``(round(contention, 9), spread, candidate)``
    (:func:`_least_contended`); spiral-ordered ``cumsum`` reductions make
    both score vectors bitwise the per-candidate window loops'.

    *vc_ids*/*claimed_init* are the incremental warm start: only the named
    VCs are placed, scored against a claimed-capacity tally pre-seeded with
    the footprints of the VCs that are staying put.
    """
    counter = counter if counter is not None else StepCounter()
    topo = problem.topology
    bank_bytes = problem.bank_bytes
    claimed = _initial_claimed(topo, claimed_init)
    footprints: dict[int, dict[int, float]] = {}
    centers: dict[int, int] = {}
    centroids: dict[int, tuple[float, ...]] = {}

    order = _placement_order(problem, vc_sizes, vc_ids)
    for vc in order:
        size_banks = vc_sizes[vc.vc_id] / bank_bytes
        contention, spread = batched_window_scores(topo, claimed, size_banks)
        weights = compact_window_weights(topo, size_banks)
        counter.add("vc_placement", topo.tiles * len(weights))
        best_bank = _least_contended(contention, spread)
        window_banks = topo.order_matrix[best_bank, : len(weights)]
        claimed[window_banks] += weights
        window = {
            int(t): frac for t, frac in zip(window_banks, weights.tolist())
        }
        footprints[vc.vc_id] = {t: frac * bank_bytes for t, frac in window.items()}
        centers[vc.vc_id] = best_bank
        centroids[vc.vc_id] = center_of_mass(topo, window)
    return OptimisticPlacement(footprints, centers, centroids, claimed)
