"""CDCS placement steps: optimistic VC placement, thread placement,
greedy + trade refinement (Secs IV-D/E/F)."""

import copy

import pytest

from repro.config import small_test_config
from repro.geometry.placement_math import weighted_center_tile
from repro.nuca.base import build_problem, process_vc_id
from repro.sched import refinement
from repro.sched.allocation import allocate_latency_aware
from repro.sched.cost_model import on_chip_latency
from repro.sched.opcount import StepCounter
from repro.sched.problem import PlacementSolution
from repro.sched.refinement import (
    greedy_placement,
    refined_placement,
    trade_refinement,
)
from repro.sched.thread_placement import (
    clustered_thread_placement,
    place_threads,
    random_thread_placement,
)
from repro.sched.vc_placement import place_optimistic
from repro.util.units import mb
from repro.workloads.mixes import make_mix, random_multithreaded_mix


def setup_problem(names, side=4):
    config = small_test_config(side, side)
    problem = build_problem(make_mix(names), config)
    sizes = allocate_latency_aware(problem)
    return config, problem, sizes


# -- optimistic VC placement (Sec IV-D) ---------------------------------------


def test_optimistic_footprints_match_sizes():
    _, problem, sizes = setup_problem(["omnet", "omnet", "milc", "gcc"])
    placement = place_optimistic(problem, sizes)
    for vc_id, footprint in placement.footprints.items():
        assert sum(footprint.values()) == pytest.approx(sizes[vc_id])


def test_optimistic_places_large_vcs_apart():
    """Two omnet-sized VCs must not share a center (the Fig 7 point)."""
    _, problem, sizes = setup_problem(["omnet", "omnet", "milc", "milc"])
    placement = place_optimistic(problem, sizes)
    c0 = placement.centers[0]
    c1 = placement.centers[1]
    assert problem.topology.distance(c0, c1) >= 2


def test_optimistic_claims_relax_capacity():
    _, problem, sizes = setup_problem(["omnet"] * 6 + ["mcf"] * 6, side=4)
    placement = place_optimistic(problem, sizes)
    # Claims are in bank units and may exceed 1.0 per bank in aggregate.
    assert placement.claimed.max() > 0
    total_banks = sum(sizes.values()) / problem.bank_bytes
    assert placement.claimed.sum() == pytest.approx(total_banks, rel=0.01)


def test_optimistic_skips_empty_vcs():
    _, problem, sizes = setup_problem(["milc", "milc"])
    placement = place_optimistic(problem, sizes)
    from repro.nuca.base import GLOBAL_VC_ID

    assert GLOBAL_VC_ID not in placement.footprints  # zero-size VC


# -- thread placement (Sec IV-E) ------------------------------------------------


def test_threads_placed_on_distinct_cores():
    _, problem, sizes = setup_problem(["omnet", "ilbdc", "milc", "gcc"])
    optimistic = place_optimistic(problem, sizes)
    cores = place_threads(problem, sizes, optimistic)
    assert len(set(cores.values())) == len(problem.threads)


def test_multithreaded_process_clusters_near_shared_vc():
    """Shared-heavy ilbdc threads should sit near their shared data."""
    _, problem, sizes = setup_problem(["ilbdc", "milc", "milc", "milc"])
    optimistic = place_optimistic(problem, sizes)
    cores = place_threads(problem, sizes, optimistic)
    shared_vc = process_vc_id(0)
    com = optimistic.centroids[shared_vc]
    topo = problem.topology
    ilbdc_cores = [cores[t] for t in range(8)]
    mean_dist = sum(
        abs(topo.coords(c)[0] - com[0]) + abs(topo.coords(c)[1] - com[1])
        for c in ilbdc_cores
    ) / len(ilbdc_cores)
    assert mean_dist <= 2.5  # clustered around the shared VC


def test_clustered_external_placement_is_contiguous():
    _, problem, _ = setup_problem(["ilbdc", "milc"])
    cores = clustered_thread_placement(problem)
    ilbdc_cores = sorted(cores[t] for t in range(8))
    assert ilbdc_cores == list(range(8))  # row-major block


def test_random_external_placement_is_valid_permutation():
    _, problem, _ = setup_problem(["milc"] * 8)
    cores = random_thread_placement(problem, seed=4)
    assert len(set(cores.values())) == 8
    assert all(0 <= c < 16 for c in cores.values())


def test_random_placement_differs_by_seed():
    _, problem, _ = setup_problem(["milc"] * 8)
    a = random_thread_placement(problem, seed=1)
    b = random_thread_placement(problem, seed=2)
    assert a != b


# -- refinement (Sec IV-F) -------------------------------------------------------


def test_greedy_respects_bank_capacity():
    config, problem, sizes = setup_problem(["omnet"] * 4 + ["mcf"] * 4)
    cores = random_thread_placement(problem, seed=0)
    allocation = greedy_placement(problem, sizes, cores)
    usage = {}
    for per_bank in allocation.values():
        for bank, amount in per_bank.items():
            usage[bank] = usage.get(bank, 0.0) + amount
    for bank, used in usage.items():
        assert used <= problem.bank_bytes + 1e-6


def test_greedy_places_thread_vc_locally_first():
    _, problem, sizes = setup_problem(["gcc", "milc", "milc", "milc"])
    cores = random_thread_placement(problem, seed=0)
    allocation = greedy_placement(problem, sizes, cores)
    # gcc's small VC should sit in (or adjacent to) its own bank.
    gcc_banks = list(allocation[0])
    assert problem.topology.distance(cores[0], gcc_banks[0]) <= 1


def test_trades_never_increase_total_onchip_latency():
    _, problem, sizes = setup_problem(["omnet", "omnet", "xalancbmk", "mcf"])
    cores = clustered_thread_placement(problem)
    allocation = greedy_placement(problem, sizes, cores)

    def cost(alloc):
        sol = PlacementSolution(
            vc_sizes={vc: sum(p.values()) for vc, p in alloc.items()},
            vc_allocation=alloc,
            thread_cores=cores,
        )
        return on_chip_latency(problem, sol)

    before = cost(allocation)
    trades = trade_refinement(problem, allocation, cores)
    after = cost(allocation)
    assert after <= before + 1e-6
    assert trades >= 0


def test_trades_preserve_sizes_and_capacity():
    config, problem, sizes = setup_problem(["omnet"] * 3 + ["milc"] * 5)
    cores = clustered_thread_placement(problem)
    allocation = greedy_placement(problem, sizes, cores)
    placed_before = {vc: sum(p.values()) for vc, p in allocation.items()}
    trade_refinement(problem, allocation, cores)
    for vc_id, per_bank in allocation.items():
        assert sum(per_bank.values()) == pytest.approx(placed_before[vc_id])
        assert all(v > -1e-9 for v in per_bank.values())
    usage = {}
    for per_bank in allocation.values():
        for bank, amount in per_bank.items():
            usage[bank] = usage.get(bank, 0.0) + amount
    assert max(usage.values()) <= problem.bank_bytes + 1e-6


def test_refined_placement_beats_clustered_greedy():
    """The Fig 1b pathology: under clustered threads, trades should recover
    some of the latency the contended greedy placement loses."""
    _, problem, sizes = setup_problem(["omnet"] * 4 + ["milc"] * 4)
    cores = clustered_thread_placement(problem)
    greedy_only = refined_placement(problem, sizes, cores, trades=False)
    refined = refined_placement(problem, sizes, cores, trades=True)

    def cost(alloc):
        sol = PlacementSolution(
            vc_sizes={vc: sum(p.values()) for vc, p in alloc.items()},
            vc_allocation=alloc,
            thread_cores=cores,
        )
        return on_chip_latency(problem, sol)

    assert cost(refined) <= cost(greedy_only) + 1e-6


def test_one_bank_initiators_change_nothing_and_skip_their_scan(monkeypatch):
    """An initiator holding one bank is that bank's 1-median, so its
    spiral ends at that bank: the pass never scans it.  On this seeded
    chip no such VC gains a bank before its turn, so the trades, the
    allocation and the ops equal a pass over the other initiators."""
    config = small_test_config(4, 4)
    problem = build_problem(random_multithreaded_mix(2, 7, 0), config)
    sizes = allocate_latency_aware(problem)
    cores = place_threads(problem, sizes, place_optimistic(problem, sizes))
    seed = greedy_placement(problem, sizes, cores)
    one_bank = {v for v, per_bank in seed.items() if len(per_bank) == 1}
    many = {v for v, per_bank in seed.items() if len(per_bank) > 1}
    assert one_bank and many
    for vc_id in one_bank:
        ((bank, amount),) = seed[vc_id].items()
        assert amount > 1e-9
        assert weighted_center_tile(problem.topology, seed[vc_id]) == bank
    scanned = []
    real = refinement.weighted_center_tile

    def recording(topology, weights):
        scanned.append(dict(weights))
        return real(topology, weights)

    monkeypatch.setattr(refinement, "weighted_center_tile", recording)
    runs = []
    for initiators in (None, many):
        allocation, counter = copy.deepcopy(seed), StepCounter()
        trades = trade_refinement(problem, allocation, cores, counter, initiators)
        runs.append((trades, allocation, list(counter.ops.items())))
    assert runs[0] == runs[1]
    assert runs[0][0] > 0
    assert scanned and all(len(weights) > 1 for weights in scanned)
