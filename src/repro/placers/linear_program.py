"""LP-optimal data placement (the paper's ILP comparator, Sec VI-C).

With thread locations and VC sizes fixed, minimizing Eq 2 over per-bank
allocations is a transportation problem: variables ``x[d, b]`` (bytes of VC
d in bank b), cost ``rate_d / size_d * D(VC_d, b)`` per byte, supply =
each VC's size, demand = bank capacities.  The LP relaxation of this
transportation polytope has integral vertices in quantum units, so scipy's
``linprog`` recovers what Gurobi's ILP found in the paper — at a cost that
is likewise "far too long to be practical" online, which is the point of
the comparison (ILP beat CDCS by only 0.5%).
"""

from __future__ import annotations

import numpy as np

from repro.sched.problem import PlacementProblem


def lp_data_placement(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    thread_cores: dict[int, int],
) -> dict[int, dict[int, float]]:
    """Eq 2-optimal allocation for fixed thread placement and VC sizes.

    Returns vc_id -> {bank -> bytes}.  Raises ``RuntimeError`` if the LP
    solver fails (infeasible inputs: total size beyond chip capacity).
    """
    # Imported here: scipy.optimize is most of a cold start, and only
    # the placers experiment calls this.
    from scipy.optimize import linprog

    topo = problem.topology
    tiles = topo.tiles
    dist = topo.distance_matrix
    active = [
        vc for vc in problem.vcs if vc_sizes.get(vc.vc_id, 0.0) > 0
    ]
    if not active:
        return {}
    total_size = sum(vc_sizes[vc.vc_id] for vc in active)
    if total_size > problem.total_bytes + 1e-6:
        raise RuntimeError(
            f"total VC size {total_size} exceeds LLC {problem.total_bytes}"
        )

    n_vcs = len(active)
    # Per-byte cost of placing VC d in bank b (access-weighted distance).
    cost = np.zeros((n_vcs, tiles))
    for i, vc in enumerate(active):
        accessors = problem.accessors_of(vc.vc_id)
        rate = sum(accessors.values())
        size = vc_sizes[vc.vc_id]
        if rate <= 0 or size <= 0:
            continue
        vec = np.zeros(tiles)
        for thread_id, r in accessors.items():
            vec += r * dist[thread_cores[thread_id]].astype(float)
        cost[i] = vec / size  # rate-weighted distance per byte

    c = cost.reshape(-1)
    # Equality: each VC places exactly its size.
    a_eq = np.zeros((n_vcs, n_vcs * tiles))
    b_eq = np.zeros(n_vcs)
    for i, vc in enumerate(active):
        a_eq[i, i * tiles : (i + 1) * tiles] = 1.0
        b_eq[i] = vc_sizes[vc.vc_id]
    # Inequality: bank capacity (variable layout: x[i * tiles + b]).
    a_ub = np.zeros((tiles, n_vcs * tiles))
    for b in range(tiles):
        a_ub[b, b::tiles] = 1.0
    b_ub = np.full(tiles, float(problem.bank_bytes))

    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP placement failed: {result.message}")
    x = result.x.reshape((n_vcs, tiles))
    allocation: dict[int, dict[int, float]] = {}
    for i, vc in enumerate(active):
        allocation[vc.vc_id] = {
            b: float(x[i, b]) for b in range(tiles) if x[i, b] > 1.0
        }
    return allocation
