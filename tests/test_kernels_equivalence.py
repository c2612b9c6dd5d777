"""Golden equivalence: the kernels vs their scalar oracles.

The vectorized epoch kernels are only allowed to be fast — never
different from the loop-at-a-time code they replaced, which
``tests/oracles.py`` keeps.  These tests pin that contract at three
levels:

* **kernel level** — batched miss-curve evaluation, window scoring, the
  sharing fixed point, and the Eq 1/Eq 2 cost model reproduce the oracles
  bitwise (``==``, not ``allclose``) on randomized inputs;
* **pipeline level** — every NUCA scheme produces an identical
  :class:`PlacementSolution` with the oracles patched in
  (``scalar_reference``), and a full sweep point produces identical
  metrics; each such test also checks that its block ran an oracle;
* **regression level** — one golden fig11 datapoint (mix 0 of the 64-app
  sweep) is pinned against ``tests/golden/fig11_mix0.json`` within
  ``EQUIV_RTOL``.

Property-style: inputs are drawn from seeded RNGs, so failures reproduce.
"""

from __future__ import annotations

import importlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (
    EQUIV_RTOL,
    compact_placement,
    placement_mean_distance,
    plan_per_cache,
    scalar_reference,
    window_contention,
)
from repro.cache.miss_curve import (
    MissCurve,
    MissCurveBatch,
    cliff_curve,
    exponential_curve,
    flat_curve,
)
from repro.config import default_config, small_test_config
from repro.experiments.sweeps import SweepResult, evaluate_mix
from repro.geometry.mesh import Mesh, Torus, dense_geometry_limit
from repro.geometry.placement_math import (
    batched_window_scores,
    compact_window_weights,
)
from repro.nuca import sharing, standard_schemes
from repro.nuca.base import build_problem
from repro.nuca.sharing import (
    SharingPlan,
    shared_cache_occupancies_grouped,
    solve_sharing_plans,
)
from repro.sched.allocation import allocate_latency_aware, allocate_miss_driven
from repro.sched.cost_model import (
    latency_curve,
    latency_curves_batch,
    miss_only_curve,
    miss_only_curves_batch,
    off_chip_latency,
    on_chip_latency,
    total_latency,
    vc_access_rates,
)
from repro.sched.vc_placement import _least_contended, place_optimistic
from repro.testing import assert_solutions_equal, fig11_sharing_plans, golden_mix
from repro.workloads.mixes import (
    make_mix,
    random_multithreaded_mix,
    random_single_threaded_mix,
)

GOLDEN = Path(__file__).parent / "golden" / "fig11_mix0.json"


def random_curves(rng: np.random.Generator, count: int) -> list[MissCurve]:
    curves: list[MissCurve] = []
    for _ in range(count):
        n = int(rng.integers(1, 70))
        sizes = np.unique(rng.uniform(0.0, 1e8, n))
        curves.append(MissCurve(sizes, rng.uniform(0.0, 50.0, len(sizes))))
    curves.append(flat_curve(1e8, 3.0))
    curves.append(cliff_curve(1e8, 30.0, 5e7, 2.0))
    curves.append(exponential_curve(1e8, 40.0, 1.0, 1e7))
    return curves


# ---------------------------------------------------------------------------
# Kernel level
# ---------------------------------------------------------------------------


def test_batch_eval_bitwise_matches_per_curve_interp():
    rng = np.random.default_rng(7)
    curves = random_curves(rng, 60)
    batch = MissCurveBatch(curves)
    for _ in range(20):
        queries = rng.uniform(-1e7, 1.2e8, len(curves))
        # Hit exact knots too: interpolation edges are where bugs live.
        for i, curve in enumerate(curves):
            if rng.random() < 0.4:
                queries[i] = curve.sizes[rng.integers(0, len(curve.sizes))]
        expected = np.array([float(c(q)) for c, q in zip(curves, queries)])
        assert np.array_equal(batch(queries), expected)
    grid = np.sort(rng.uniform(0.0, 1.1e8, 257))
    expected = np.vstack([np.asarray(c(grid)) for c in curves])
    assert np.array_equal(batch.at_grid(grid), expected)
    scalar = batch(12345.678)
    assert np.array_equal(
        scalar, np.array([float(c(12345.678)) for c in curves])
    )


def test_batch_affine_transform_matches_slice_closures():
    rng = np.random.default_rng(11)
    curves = random_curves(rng, 10)
    n = 16.0
    batch = MissCurveBatch(
        curves,
        arg_scale=[n] * len(curves),
        value_divisor=[n] * len(curves),
    )
    queries = rng.uniform(0.0, 1e7, len(curves))
    expected = np.array(
        [float(c(q * n)) / n for c, q in zip(curves, queries)]
    )
    assert np.array_equal(batch(queries), expected)


def test_compact_window_weights_match_fill_loop():
    topo = Mesh(6, 6)
    rng = np.random.default_rng(3)
    sizes = [0.0, 1e-13, 0.4, 1.0, 1.5, 8.2, 35.999, 36.0, 40.0] + list(
        rng.uniform(0.0, 40.0, 25)
    )
    for size_banks in sizes:
        window = compact_placement(topo, 14, size_banks)
        weights = compact_window_weights(topo, size_banks)
        assert weights.tolist() == list(window.values())


def test_batched_window_scores_match_scalar_scoring():
    rng = np.random.default_rng(5)
    for topo in (Mesh(6, 6), Mesh(4, 4), Torus(4, 4)):
        claimed = rng.uniform(0.0, 3.0, topo.tiles)
        for size_banks in (0.7, 1.0, 5.3, float(topo.tiles)):
            contention, spread = batched_window_scores(
                topo, claimed, compact_window_weights(topo, size_banks)
            )
            for candidate in range(topo.tiles):
                window = compact_placement(topo, candidate, size_banks)
                assert contention[candidate] == window_contention(claimed, window)
                assert spread[candidate] == placement_mean_distance(
                    topo, candidate, window
                )


def test_one_bank_windows_match_the_window_scan():
    # A one-bank window scores without the spiral matrices; every score
    # and the selection must stay the scan's, also on tallies whose
    # contention rounds on a 9th-decimal half-way point.
    rng = np.random.default_rng(17)
    for topo in (Mesh(6, 6), Mesh(8, 4), Torus(4, 4)):
        n = topo.tiles
        tallies = [rng.uniform(0.0, 3.0, n) for _ in range(30)]
        tallies += [(rng.integers(0, 3000, n) + 0.5) * 1e-9 for _ in range(30)]
        for claimed in tallies:
            for size_banks in (float(rng.uniform(1e-9, 1.0)), 1.0):
                weights = compact_window_weights(topo, size_banks)
                assert len(weights) == 1
                contention, spread = batched_window_scores(topo, claimed, weights)
                keys = []
                for candidate in range(n):
                    window = compact_placement(topo, candidate, size_banks)
                    score = window_contention(claimed, window)
                    assert contention[candidate] == score
                    assert spread[candidate] == placement_mean_distance(
                        topo, candidate, window
                    )
                    keys.append((round(float(score), 9), float(spread[candidate])))
                assert _least_contended(contention, spread) == keys.index(min(keys))


@pytest.mark.parametrize("cls", [Mesh, Torus])
@pytest.mark.parametrize("limit", [10**9, 0], ids=["dense", "lazy"])
def test_spiral_order_starts_at_the_candidate(cls, limit):
    # What the one-bank fast path rests on, for dense and lazy geometry.
    with dense_geometry_limit(limit):
        topo = cls(6, 4)
        order = topo.order_matrix[:, :1]
        ranked = topo.sorted_distance_matrix[:, :1]
        assert getattr(topo.order_matrix, "is_lazy", False) == (limit == 0)
    assert np.array_equal(order[:, 0], np.arange(topo.tiles))
    assert not np.any(ranked)


def sharing_cases():
    """(batch, groups, capacity, the same caches as a plan) for the
    grouped solve: six random one-cache corpora, then the mega-batch
    shape — S-NUCA's chip-wide cache (identity lanes) merged with
    R-NUCA's per-bank pools (1/N slice lanes) and a zero-capacity group,
    at one shared and at per-group capacities."""
    rng = np.random.default_rng(13)
    for _ in range(6):
        curves = tuple(random_curves(rng, int(rng.integers(2, 40))))
        capacity = float(rng.uniform(1e6, 5e8))
        groups = [tuple(range(len(curves)))]
        plan = SharingPlan(curves, tuple(groups), (capacity,))
        yield MissCurveBatch(curves), groups, capacity, plan
    rng = np.random.default_rng(17)
    curves = tuple(random_curves(rng, 30))
    ends = list(itertools.accumulate([4, 1, 7, 0, 9, len(curves) - 21]))
    groups = [tuple(range(lo, hi)) for lo, hi in zip([0] + ends, ends)]
    scale = (1.0,) * 4 + (16.0,) * (len(curves) - 4)
    plan = SharingPlan(curves, tuple(groups), (2e7,) * len(groups))
    yield MissCurveBatch(curves), groups, 2e7, plan
    caps = [5e7, 2e6, 5e6, 2e6, 0.0, 3e6]
    plan = SharingPlan(curves, tuple(groups), tuple(caps), scale, scale)
    batch = MissCurveBatch(curves, arg_scale=scale, value_divisor=scale)
    yield batch, groups, caps, plan


@pytest.fixture(scope="module")
def sharing_expected():
    """Each sharing case with its oracle occupancies, cache by cache."""
    return [
        (batch, groups, capacity, plan_per_cache(plan))
        for batch, groups, capacity, plan in sharing_cases()
    ]


def check_sharing_cases(cases) -> None:
    for batch, groups, capacity, expected in cases:
        grouped = shared_cache_occupancies_grouped(batch, groups, capacity)
        assert grouped.tolist() == expected


def test_sharing_batch_bitwise_matches_scalar(sharing_expected):
    check_sharing_cases(sharing_expected[:6])


def test_sharing_grouped_bitwise_matches_per_group_scalar(sharing_expected):
    check_sharing_cases(sharing_expected[6:])


@pytest.mark.parametrize("wrong", ["up", "down", "zero", "inf", "other"])
def test_sharing_grouped_exact_under_misprediction(
    sharing_expected, monkeypatch, wrong
):
    """A wrong estimate of whether a cache overflows costs exact probes,
    never a different answer: estimates at pressures off by 1e-9 either
    way, "never" (as at pressure 0) and "always" (as at infinity), or
    taken from another cache all still give each group bitwise its
    oracle occupancies."""
    estimate = sharing._ClosedFormRoots.above

    def mispredicted(self, which, pressures):
        if wrong == "up":
            return estimate(self, which, pressures * (1.0 + 1e-9))
        if wrong == "down":
            return estimate(self, which, pressures * (1.0 - 1e-9))
        if wrong == "zero":
            return np.zeros(len(which), dtype=bool)
        if wrong == "inf":
            return np.ones(len(which), dtype=bool)
        return estimate(self, (which + 1) % len(self.sizes), pressures)

    monkeypatch.setattr(sharing._ClosedFormRoots, "above", mispredicted)
    calls = []
    bisect = MissCurveBatch.balance_bisect
    monkeypatch.setattr(
        MissCurveBatch, "balance_bisect",
        lambda self, *args: calls.append(len(self)) or bisect(self, *args),
    )
    check_sharing_cases(sharing_expected)
    # The wrong estimates really sent probes down the exact path.
    assert len(calls) > len(sharing_expected)


def test_fig11_merged_sharing_makes_at_most_two_exact_calls(monkeypatch):
    """The 4-mix fig11 merged call of ``make bench-kernels`` (seed 42:
    512 lanes in 260 caches, four of them pressured) runs at most two
    lockstep bisections; the 62-probe pressure search ran 62."""
    plans = fig11_sharing_plans()
    assert sum(len(p.curves) for p in plans) == 512
    assert sum(len(p.groups) for p in plans) == 260
    calls = []
    bisect = MissCurveBatch.balance_bisect
    monkeypatch.setattr(
        MissCurveBatch, "balance_bisect",
        lambda self, *args: calls.append(len(self)) or bisect(self, *args),
    )
    merged = solve_sharing_plans(plans)
    assert 1 <= len(calls) <= 2
    alone = [solve_sharing_plans([plan])[0] for plan in plans]
    assert [m.tobytes() for m in merged] == [a.tobytes() for a in alone]


CURVES3 = (flat_curve(1e6, 3.0),) * 3


@pytest.mark.parametrize("group", [(0, 1, 5), (0, -1)], ids=["past-end", "negative"])
def test_sharing_plan_rejects_lanes_outside_its_curves(group):
    # (0, 1, 5) would take lane 2 of the next plan once merged; -1 would
    # wrap around to this plan's last lane.
    with pytest.raises(ValueError, match="outside"):
        SharingPlan(CURVES3, (group,), (1e6,))


def test_sharing_plan_rejects_a_lane_in_two_groups():
    with pytest.raises(ValueError, match="two groups"):
        SharingPlan(CURVES3, ((0, 1), (1, 2)), (1e6, 1e6))


@pytest.mark.parametrize("field", ["arg_scale", "value_divisor"])
def test_sharing_plan_rejects_transforms_of_the_wrong_length(field):
    with pytest.raises(ValueError, match=field):
        SharingPlan(CURVES3, ((0, 1, 2),), (1e6,), **{field: (16.0, 16.0)})


@pytest.mark.parametrize(
    "groups",
    [[(0, 1, 5)], [(0, -1)], [(0, 1), (1, 2)]],
    ids=["past-end", "negative", "overlapping"],
)
def test_grouped_sharing_rejects_malformed_groups(groups):
    with pytest.raises(ValueError):
        shared_cache_occupancies_grouped(MissCurveBatch(CURVES3), groups, 1e6)


def test_grouped_sharing_solves_ungrouped_lanes_to_zero():
    occ = shared_cache_occupancies_grouped(MissCurveBatch(CURVES3), [(0, 1)], 1e6)
    assert occ[2] == 0.0 and occ[0] > 0.0


def _random_problem(rng: np.random.Generator, multithreaded: bool = False):
    config = small_test_config(4, 4)
    if multithreaded:
        mix = random_multithreaded_mix(2, int(rng.integers(1, 50)), 0)
    else:
        mix = random_single_threaded_mix(
            int(rng.integers(2, 16)), int(rng.integers(1, 50)), 0
        )
    return build_problem(mix, config)


def test_latency_curve_batches_bitwise_match_scalar_rows():
    rng = np.random.default_rng(19)
    pick = np.random.default_rng(191)
    for multithreaded in (False, True):
        problem = _random_problem(rng, multithreaded)
        rates = vc_access_rates(problem)
        total_mat = latency_curves_batch(problem, rates)
        miss_mat = miss_only_curves_batch(problem, rates)
        for i, vc in enumerate(problem.vcs):
            assert np.array_equal(
                total_mat[i], latency_curve(problem, vc.miss_curve, rates[i])
            )
            assert np.array_equal(
                miss_mat[i], miss_only_curve(problem, vc.miss_curve, rates[i])
            )
        # Defaulted rates, and row subsets in any order (the warm start's
        # dirty rows), give the same rows; a subset without rates reads
        # only its own VCs' accessors.
        assert np.array_equal(latency_curves_batch(problem), total_mat)
        assert np.array_equal(miss_only_curves_batch(problem), miss_mat)
        read: list[int] = []

        def recording(vc_id, accessors_of=problem.accessors_of):
            read.append(vc_id)
            return accessors_of(vc_id)

        problem.accessors_of = recording
        for _ in range(5):
            count = int(pick.integers(1, len(problem.vcs) + 1))
            subset = pick.choice(len(problem.vcs), count, replace=False).tolist()
            read.clear()
            got = latency_curves_batch(problem, vc_indices=subset)
            assert read == [problem.vcs[i].vc_id for i in subset]
            assert np.array_equal(got, total_mat[subset])
            assert np.array_equal(
                latency_curves_batch(problem, rates, vc_indices=subset),
                total_mat[subset],
            )


def test_cost_model_vectorized_bitwise_matches_scalar():
    rng = np.random.default_rng(23)
    for multithreaded in (False, True):
        problem = _random_problem(rng, multithreaded)
        for scheme in standard_schemes(seed=2):
            solution = scheme.run(problem).solution
            assert off_chip_latency(problem, solution) == (
                oracles.off_chip_latency(problem, solution)
            )
            assert on_chip_latency(problem, solution) == (
                oracles.on_chip_latency(problem, solution)
            )


def _warm_optimistic_inputs(monkeypatch, epochs: int = 4) -> list[tuple]:
    """(problem, sizes, vc_ids, claimed_init) of every warm optimistic
    placement a sketch-driven incremental engine runs on a phased
    256-tile chip."""
    from repro.sched.engine import ReconfigEngine
    from repro.service.load import DEFAULT_EPOCH_MCYCLES, LoadSpec, build_chip

    # The package re-exports the function under the module's name.
    reconfigure_module = importlib.import_module("repro.sched.reconfigure")
    calls = []
    place = reconfigure_module.place_optimistic

    def recording(problem, sizes, counter=None, vc_ids=None, claimed_init=None):
        if vc_ids is not None:
            calls.append(
                (problem, dict(sizes), set(vc_ids), claimed_init.copy())
            )
        return place(problem, sizes, counter, vc_ids, claimed_init)

    monkeypatch.setattr(reconfigure_module, "place_optimistic", recording)
    _, sim = build_chip(LoadSpec(chips=1, tiles=256, seed=42), 0)
    engine = ReconfigEngine("incremental", use_sketches=True)
    for _ in range(epochs):
        engine.solve(sim.current_problem())
        sim.run_epoch(engine.last_solution(), DEFAULT_EPOCH_MCYCLES * 1e6)
    return calls


def test_place_optimistic_vectorized_identical_to_scalar(monkeypatch):
    rng = np.random.default_rng(29)
    cases = []
    for multithreaded in (False, True):
        problem = _random_problem(rng, multithreaded)
        cases.append((problem, allocate_latency_aware(problem), None, None))
    warm = _warm_optimistic_inputs(monkeypatch)
    # Warm starts: a strict subset placed over a pre-claimed tally.
    assert len(warm) >= 2
    assert all(0 < len(ids) < len(p.vcs) and claimed.any()
               for p, _, ids, claimed in warm)
    for problem, vc_sizes, vc_ids, claimed_init in cases + warm:
        fast = place_optimistic(
            problem, vc_sizes, vc_ids=vc_ids, claimed_init=claimed_init
        )
        slow = oracles.place_optimistic(
            problem, vc_sizes, vc_ids=vc_ids, claimed_init=claimed_init
        )
        assert fast.centers == slow.centers
        assert fast.footprints == slow.footprints
        assert fast.centroids == slow.centroids
        assert np.array_equal(fast.claimed, slow.claimed)


def test_allocation_identical_through_both_paths():
    rng = np.random.default_rng(31)
    problem = _random_problem(rng)
    fast_latency = allocate_latency_aware(problem)
    fast_miss = allocate_miss_driven(problem)
    with scalar_reference() as calls:
        slow_latency = allocate_latency_aware(problem)
        slow_miss = allocate_miss_driven(problem)
    assert calls["repro.sched.allocation.latency_curves_batch"] == 1
    assert calls["repro.sched.allocation.miss_only_curves_batch"] == 1
    assert fast_latency == slow_latency
    assert fast_miss == slow_miss


# ---------------------------------------------------------------------------
# Pipeline level
# ---------------------------------------------------------------------------


def test_all_schemes_identical_solutions_through_both_paths():
    rng = np.random.default_rng(37)
    for multithreaded in (False, True):
        problem = _random_problem(rng, multithreaded)
        for scheme in standard_schemes(seed=3):
            fast = scheme.run(problem).solution
            with scalar_reference() as calls:
                slow = scheme.run(problem).solution
            assert calls, scheme.name
            assert_solutions_equal(fast, slow)


def test_full_sweep_point_identical_through_both_paths():
    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "milc", "gcc", "astar"])
    fast, slow = SweepResult(4, 1), SweepResult(4, 1)
    evaluate_mix(config, mix, fast, seed=0)
    with scalar_reference() as calls:
        evaluate_mix(config, mix, slow, seed=0)
    assert calls["repro.nuca.base.solve_sharing_plans"] >= 2
    assert calls["repro.sched.reconfigure.place_optimistic"] >= 1
    assert fast == slow  # every SweepResult field


@pytest.mark.slow
def test_scalar_reference_reaches_every_oracle():
    """A fig11 mega-batch point and a fig15 point call every patched name
    (Eq 1 and Eq 2, which no sweep calls, through ``total_latency``), so
    no patch misses its call site; afterwards every kernel is back."""
    from repro.experiments.sweeps import _mix_points_batched, sweep_jobs

    config = default_config()
    (job,) = sweep_jobs(config, n_apps=64, n_mixes=1, seed=42)
    small = _random_problem(np.random.default_rng(47))
    solution = standard_schemes(0)[-1].run(small).solution
    kernels = {
        f"{module}.{name}": getattr(importlib.import_module(module), name)
        for module, names in oracles.PATCHES.items()
        for name in names
    }
    with scalar_reference() as calls:
        _mix_points_batched([0], [job.digest()], config=config, n_apps=64,
                            seed=42, multithreaded=False)
        mix = random_multithreaded_mix(8, 42, 0)
        evaluate_mix(config, mix, SweepResult(8, 1), seed=0)
        total_latency(small, solution)
    assert set(calls) == set(kernels)
    for key, kernel in kernels.items():
        module, name = key.rsplit(".", 1)
        assert getattr(importlib.import_module(module), name) is kernel


# ---------------------------------------------------------------------------
# Regression level: one golden fig11 datapoint
# ---------------------------------------------------------------------------


def fig11_mix0_record() -> dict:
    """Mix 0 of the fig11 sweep (64 apps, seed 42) as a plain dict."""
    from repro.experiments.sweeps import mix_record

    config = default_config()
    mix = golden_mix()
    result = SweepResult(n_apps=64, n_mixes=1)
    evaluate_mix(config, mix, result, seed=0)
    return mix_record(result)


def _assert_close(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    else:
        assert got == pytest.approx(want, rel=EQUIV_RTOL), path


@pytest.mark.slow
def test_golden_fig11_datapoint_regression():
    record = fig11_mix0_record()
    golden = json.loads(GOLDEN.read_text())
    _assert_close(record, golden, "fig11_mix0")


# ---------------------------------------------------------------------------
# Epoch engine
# ---------------------------------------------------------------------------


def test_epoch_engine_matches_direct_evaluation_and_accumulates():
    from repro.model.system import AnalyticSystem
    from repro.nuca.base import SchemeResult
    from repro.nuca.cdcs import Cdcs
    from repro.nuca.jigsaw import Jigsaw
    from repro.sim.engine import EpochEngine

    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "milc", "gcc", "astar"])
    problem = build_problem(mix, config)
    first = Jigsaw("random", 1).run(problem).solution
    second = Cdcs(seed=1).run(problem).solution

    engine = EpochEngine(mix, problem)
    trace = engine.run_schedule([(first, 1e5), (second, 4e5)])
    assert len(trace.results) == 2

    direct = AnalyticSystem(config).evaluate_solution(
        mix, problem, SchemeResult("x", second)
    )
    expected = {t.thread_id: t.ipc for t in direct.threads}
    epoch = trace.results[1]
    for i, thread in enumerate(problem.threads):
        assert epoch.ipc[i] == expected[thread.thread_id]

    # Instructions = sum of ipc x cycles over epochs, per thread.
    manual = trace.results[0].ipc * 1e5 + trace.results[1].ipc * 4e5
    assert np.allclose(engine.instructions, manual, rtol=0, atol=0)
    assert np.all(engine.cycles == 5e5)
    assert engine.traffic.total() > 0
    starts = [t for t, _ in trace.aggregate_ipc_trace()]
    assert starts == [0.0, 1e5]


def test_traffic_raw_accumulator_matches_prepriced_values():
    from repro.noc.traffic import TrafficClass, TrafficCounter

    counter = TrafficCounter()
    counter.add_flit_hops(TrafficClass.L2_LLC, 123.5)
    counter.add_flit_hops(TrafficClass.L2_LLC, 0.5)
    assert counter.flit_hops[TrafficClass.L2_LLC] == 124.0
    with pytest.raises(ValueError):
        counter.add_flit_hops(TrafficClass.OTHER, -1.0)


def test_traffic_batch_accounting_matches_scalar_loop():
    from repro.noc.traffic import TrafficClass, TrafficCounter

    rng = np.random.default_rng(41)
    hops = rng.uniform(0.0, 10.0, 50)
    counts = rng.uniform(0.0, 1e4, 50)
    batched = TrafficCounter()
    batched.add_messages(TrafficClass.L2_LLC, hops, payload_bytes=64, counts=counts)
    batched.add_request_responses(
        TrafficClass.LLC_MEM, hops, response_bytes=64, counts=counts
    )
    scalar = TrafficCounter()
    for h, c in zip(hops, counts):
        scalar.add_message(TrafficClass.L2_LLC, h, payload_bytes=64, count=c)
        scalar.add_request_response(
            TrafficClass.LLC_MEM, h, response_bytes=64, count=c
        )
    for cls in TrafficClass:
        assert batched.flit_hops[cls] == pytest.approx(
            scalar.flit_hops[cls], rel=1e-12
        )


# ---------------------------------------------------------------------------
# Phased epochs: phase lookups are functions of the instruction arrays,
# which the contract already pins — so every phased outcome
# (reconfigurations, epoch metrics, whole study points) must be identical
# (``==``) with the oracles patched in.
# ---------------------------------------------------------------------------


def _run_phased_schedule(n_epochs: int = 8, cycles: float = 150e6):
    """One adaptive phased run: reconfigure each epoch, collect state."""
    from repro.sched.reconfigure import reconfigure
    from repro.sim.engine import EpochEngine
    from repro.workloads.mixes import make_mix as mm

    config = small_test_config(4, 4)
    mix = mm(["omnet~milc", "xalancbmk~gcc", "astar", "milc"])
    engine = EpochEngine(mix, build_problem(mix, config))
    solutions = []
    for _ in range(n_epochs):
        result = reconfigure(engine.current_problem())
        engine.run_epoch(result.solution, cycles)
        solutions.append(result.solution)
    return engine, solutions


def test_phased_epoch_schedule_identical_through_both_paths():
    fast, fast_solutions = _run_phased_schedule()
    with scalar_reference() as calls:
        slow, slow_solutions = _run_phased_schedule()
    assert calls["repro.sched.reconfigure.place_optimistic"] >= 1
    assert fast.instructions.tolist() == slow.instructions.tolist()
    assert fast.cycles.tolist() == slow.cycles.tolist()
    for f, s in zip(fast.trace.results, slow.trace.results):
        assert f.phases == s.phases
        assert f.ipc.tolist() == s.ipc.tolist()
        assert f.vc_sizes.tolist() == s.vc_sizes.tolist()
        assert f.aggregate_ipc == s.aggregate_ipc
    for f, s in zip(fast_solutions, slow_solutions):
        assert_solutions_equal(f, s)


def test_phased_schedule_crosses_boundaries_identically():
    fast, _ = _run_phased_schedule(n_epochs=10, cycles=250e6)
    with scalar_reference() as calls:
        slow, _ = _run_phased_schedule(n_epochs=10, cycles=250e6)
    assert calls["repro.sched.allocation.latency_curves_batch"] >= 1
    fast_phases = [r.phases for r in fast.trace.results]
    slow_phases = [r.phases for r in slow.trace.results]
    assert fast_phases == slow_phases
    # The schedule really exercises phase dynamics: both phased processes
    # must have left their initial phase at some point.
    assert any(p[0] == 1 for p in fast_phases)
    assert any(p[1] == 1 for p in fast_phases)


def test_phased_reconfiguration_solutions_identical_through_both_paths():
    from repro.sched.reconfigure import reconfigure_epoch
    from repro.workloads.mixes import random_phased_mix, snapshot_mix

    config = small_test_config(4, 4)
    mix = random_phased_mix(5, 42, 0)
    # Snapshot mid-schedule: every process somewhere inside its phases.
    clock = {p.process_id: 2e8 + 5e7 * p.process_id for p in mix.processes}
    snapshot = snapshot_mix(mix, clock)
    fast, fast_problem = reconfigure_epoch(snapshot, config)
    with scalar_reference() as calls:
        slow, slow_problem = reconfigure_epoch(snapshot, config)
    assert calls["repro.sched.thread_placement.squared_point_distances"] >= 1
    assert_solutions_equal(fast.solution, slow.solution)
    assert [v.vc_id for v in fast_problem.vcs] == [
        v.vc_id for v in slow_problem.vcs
    ]


def test_phase_study_point_identical_through_both_paths():
    from repro.experiments.phase_study import phase_point

    config = small_test_config(4, 4)
    kwargs = dict(config=config, n_apps=4, seed=42, mix_id=2,
                  period=1e8, horizon=8e8)
    fast = phase_point(**kwargs)
    with scalar_reference() as calls:
        slow = phase_point(**kwargs)
    assert calls["repro.sched.reconfigure.place_optimistic"] >= 1
    assert fast == slow
    assert fast["phase_changes"] >= 1  # the point exercised dynamics


def test_scalability_point_identical_through_both_paths():
    from repro.experiments.scalability import scalability_point

    kwargs = dict(tiles=16, seed=42, mix_id=0)
    fast = scalability_point(**kwargs)
    with scalar_reference() as calls:
        slow = scalability_point(**kwargs)
    assert calls["repro.sched.reconfigure.place_optimistic"] >= 1
    # Wall-clock solve times are measurement, not simulation: everything
    # else must be identical.
    for key in fast:
        if key.startswith("solve_seconds"):
            continue
        assert fast[key] == slow[key], key
