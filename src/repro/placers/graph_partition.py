"""Graph-partitioning co-placement (the paper's METIS comparator, Sec VI-C).

Threads and VCs form a bipartite graph weighted by access rates; recursive
bisection splits the graph and the chip region together, assigning each
half of the graph to each half of the mesh.  The paper observed that this
family "recursively divide[s] threads and data into equal-sized partitions
of the chip, splitting around the center of the chip first", whereas CDCS
can cluster one app at the chip center — costing graph partitioning ~2.5%
network latency.  We implement Kernighan-Lin bisection via networkx.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.problem import PlacementProblem, PlacementSolution
from repro.util.rng import child_rng


@dataclass
class _Region:
    tiles: list[int]
    threads: list
    vcs: list[int]


def _split_tiles(problem: PlacementProblem, tiles: list[int]) -> tuple[list[int], list[int]]:
    """Split a tile set geometrically along its longer axis."""
    topo = problem.topology
    coords = {t: topo.coords(t) for t in tiles}  # type: ignore[attr-defined]
    xs = [c[0] for c in coords.values()]
    ys = [c[1] for c in coords.values()]
    axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1
    ordered = sorted(tiles, key=lambda t: (coords[t][axis], t))
    half = len(ordered) // 2
    return ordered[:half], ordered[half:]


def _bisect_graph(
    problem: PlacementProblem,
    threads: list,
    vcs: list[int],
    max_threads: tuple[int, int],
    seed: int,
) -> tuple[_Region, _Region]:
    """Kernighan-Lin bisection of the thread/VC affinity graph, repaired to
    respect each side's core budget."""
    # Imported here: networkx is a slow import that only the placers
    # experiment needs.
    import networkx as nx

    graph = nx.Graph()
    for t in threads:
        graph.add_node(("t", t.thread_id))
    for vc_id in vcs:
        graph.add_node(("v", vc_id))
    for t in threads:
        for vc_id, rate in t.vc_accesses.items():
            if vc_id in vcs and rate > 0:
                graph.add_edge(("t", t.thread_id), ("v", vc_id), weight=rate)
    if len(graph) < 2:
        half_a = _Region([], list(threads), list(vcs))
        half_b = _Region([], [], [])
        return half_a, half_b
    rng_seed = int(child_rng(seed, len(threads)).integers(1 << 31))
    part_a, part_b = nx.algorithms.community.kernighan_lin_bisection(
        graph, weight="weight", seed=rng_seed
    )

    def unpack(part) -> tuple[list, list[int]]:
        ths = [t for t in threads if ("t", t.thread_id) in part]
        vcl = [v for v in vcs if ("v", v) in part]
        return ths, vcl

    threads_a, vcs_a = unpack(part_a)
    threads_b, vcs_b = unpack(part_b)
    # Repair core-budget violations by moving the lightest threads across.
    def weight_of(t) -> float:
        return t.total_accesses

    while len(threads_a) > max_threads[0]:
        mover = min(threads_a, key=weight_of)
        threads_a.remove(mover)
        threads_b.append(mover)
    while len(threads_b) > max_threads[1]:
        mover = min(threads_b, key=weight_of)
        threads_b.remove(mover)
        threads_a.append(mover)
    return (
        _Region([], threads_a, vcs_a),
        _Region([], threads_b, vcs_b),
    )


def graph_partition_placement(
    problem: PlacementProblem,
    vc_sizes: dict[int, float],
    seed: int = 0,
) -> PlacementSolution:
    """Recursive-bisection joint thread+data placement."""
    active_vcs = [
        vc.vc_id for vc in problem.vcs if vc_sizes.get(vc.vc_id, 0.0) > 0
    ]
    root = _Region(
        list(range(problem.topology.tiles)),
        list(problem.threads),
        active_vcs,
    )
    thread_cores: dict[int, int] = {}
    vc_region: dict[int, list[int]] = {}
    stack = [root]
    while stack:
        region = stack.pop()
        if len(region.tiles) == 1 or len(region.threads) + len(region.vcs) <= 1:
            for i, t in enumerate(region.threads):
                # Core budgets guarantee at most one thread per leaf tile.
                thread_cores[t.thread_id] = region.tiles[min(i, len(region.tiles) - 1)]
            for vc_id in region.vcs:
                vc_region[vc_id] = region.tiles
            continue
        tiles_a, tiles_b = _split_tiles(problem, region.tiles)
        half_a, half_b = _bisect_graph(
            problem,
            region.threads,
            region.vcs,
            (len(tiles_a), len(tiles_b)),
            seed,
        )
        half_a.tiles = tiles_a
        half_b.tiles = tiles_b
        stack.append(half_a)
        stack.append(half_b)

    # Data: spread each VC across its final region, capacity-capped.
    bank_free = {b: float(problem.bank_bytes) for b in range(problem.topology.tiles)}
    allocation: dict[int, dict[int, float]] = {}
    for vc_id in active_vcs:
        region_tiles = vc_region.get(vc_id, list(range(problem.topology.tiles)))
        want = vc_sizes[vc_id]
        per_bank: dict[int, float] = {}
        # Fill region tiles round-robin, then spill to nearest free banks.
        candidates = list(region_tiles) + [
            b for b in range(problem.topology.tiles) if b not in region_tiles
        ]
        for bank in candidates:
            if want <= 0:
                break
            take = min(want, bank_free[bank])
            if take > 0:
                per_bank[bank] = take
                bank_free[bank] -= take
                want -= take
        allocation[vc_id] = per_bank
    return PlacementSolution(
        vc_sizes={vc: sum(per.values()) for vc, per in allocation.items()},
        vc_allocation=allocation,
        thread_cores=thread_cores,
    )
