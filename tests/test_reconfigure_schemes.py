"""Several schemes of one problem in one call, and the VC placement
Jigsaw never reads.

* :func:`repro.sched.reconfigure.reconfigure_schemes` runs each
  allocator, and each thread-placing optimistic placement, once per
  call; every lane's solution, op counts (key order included) and
  modeled cycles must equal its one-lane :func:`reconfigure`.
* A policy that does not place threads skips the optimistic placement
  but still counts its ``vc_placement`` ops; the count must equal the
  one ``tests/oracles.py``'s window-by-window placement makes.
* A fig11 mega-batch call solves each mix's Jigsaw+C and Jigsaw+R as
  two lanes of one call: one miss-driven allocation per mix, and an
  optimistic placement only for CDCS.
"""

from __future__ import annotations

import importlib
from itertools import product

import pytest

import oracles
from repro.config import default_config, small_test_config
from repro.experiments import sweeps
from repro.nuca import Jigsaw, build_problem
from repro.sched.allocation import allocate_latency_aware, allocate_miss_driven
from repro.sched.opcount import StepCounter
from repro.sched.reconfigure import (
    ReconfigPolicy,
    reconfigure,
    reconfigure_schemes,
)
from repro.sched.thread_placement import random_thread_placement
from repro.sched.vc_placement import count_optimistic_ops
from repro.testing import assert_bitwise_equal, golden_problem
from repro.workloads.mixes import (
    random_multithreaded_mix,
    random_single_threaded_mix,
)

# The package re-exports the function under the module's name.
reconfigure_module = importlib.import_module("repro.sched.reconfigure")

PROBLEMS = {
    "fig11": golden_problem,
    "fig15": lambda: build_problem(
        random_multithreaded_mix(8, 42, 0), default_config()
    ),
    "mesh4": lambda: build_problem(
        random_single_threaded_mix(16, 42, 0), small_test_config(4, 4)
    ),
}


def scheme_lanes(problem, seed: int = 0) -> list:
    """The eight Fig 12 policies (external random cores where a policy
    does not place threads), then Jigsaw+C and Jigsaw+R."""
    lanes = []
    for flags in product((False, True), repeat=3):
        policy = ReconfigPolicy(*flags)
        cores = None if policy.place_threads else random_thread_placement(
            problem, seed
        )
        lanes.append((policy, cores))
    for scheduler in ("clustered", "random"):
        lanes.append(Jigsaw(scheduler, seed).lane(problem))
    return lanes


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_each_lane_equals_its_one_lane_solve(name):
    problem = PROBLEMS[name]()
    lanes = scheme_lanes(problem)
    results = reconfigure_schemes(problem, lanes)
    assert len(results) == len(lanes)
    for (policy, cores), result in zip(lanes, results):
        alone = reconfigure(problem, policy, cores)
        assert_bitwise_equal(result, alone)
        assert list(result.counter.ops) == list(alone.counter.ops)
        assert set(result.wall_seconds) == set(alone.wall_seconds)
    # Every lane counts all four steps, Jigsaw's skipped placement too.
    for result in results:
        assert {"allocation", "vc_placement", "data_placement"} <= set(
            result.counter.ops
        )


def test_one_call_runs_each_allocator_and_placement_once(monkeypatch):
    calls = {"miss": 0, "latency": 0, "place": 0}

    def counted(key, function):
        def call(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return call

    for key, name in (
        ("miss", "allocate_miss_driven"),
        ("latency", "allocate_latency_aware"),
        ("place", "place_optimistic"),
    ):
        monkeypatch.setattr(
            reconfigure_module, name,
            counted(key, getattr(reconfigure_module, name)),
        )
    problem = PROBLEMS["mesh4"]()
    reconfigure_schemes(problem, scheme_lanes(problem))
    # Two allocators; a placement only for each allocator's sizes that
    # a thread-placing lane reads.
    assert calls == {"miss": 1, "latency": 1, "place": 2}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_jigsaw_counts_the_oracle_placements_ops(name):
    problem = PROBLEMS[name]()
    for scheduler in ("clustered", "random"):
        result = reconfigure(problem, *Jigsaw(scheduler).lane(problem))
        counter = StepCounter()
        oracles.place_optimistic(problem, allocate_miss_driven(problem), counter)
        assert result.counter.ops["vc_placement"] == counter.ops["vc_placement"]


def test_counted_ops_match_the_oracle_on_every_subset():
    """The count alone, over the VCs a warm solve re-places: the key
    appears exactly when the oracle's loop creates it."""
    problem = PROBLEMS["mesh4"]()
    sizes = allocate_latency_aware(problem)
    vc_ids = sorted(sizes)
    for subset in (None, set(), set(vc_ids[:1]), set(vc_ids[::2]), {-1}):
        counted, placed = StepCounter(), StepCounter()
        count_optimistic_ops(problem, sizes, counted, subset)
        oracles.place_optimistic(problem, sizes, placed, vc_ids=subset)
        assert counted.ops == placed.ops
    assert not counted.ops  # {-1} names no VC


def test_fig11_batch_allocates_once_per_mix_and_places_only_cdcs(monkeypatch):
    calls = {"allocate_miss_driven": 0, "place_optimistic": 0}

    def counted(name):
        function = getattr(reconfigure_module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(reconfigure_module, name, counted(name))
    config = default_config()
    jobs = sweeps.sweep_jobs(config, n_apps=64, n_mixes=4, seed=1)
    records = sweeps._mix_points_batched(
        [job.kwargs["mix_id"] for job in jobs], [job.digest() for job in jobs],
        config=config, n_apps=64, seed=1, multithreaded=False,
    )
    assert len(records) == 4
    assert calls == {"allocate_miss_driven": 4, "place_optimistic": 4}
