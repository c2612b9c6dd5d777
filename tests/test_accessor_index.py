"""``PlacementProblem.accessors_of`` against the thread-list scan.

The problem builds its ``vc_id -> {thread_id: rate}`` index once at
construction.  Every way a problem is made — ``build_problem``, the
service's delta patch (``_resolve_delta``), the region sub-problems of
the partitioned and hierarchical solves, and ``dataclasses.replace`` —
must answer exactly as the O(threads) scan it replaced: same threads,
same rates, same key order, positive rates only, and a fresh dict per
call.
"""

import dataclasses

import pytest

import repro.sched.engine as engine_mod
from repro.cache.miss_curve import flat_curve
from repro.config import small_test_config
from repro.geometry.mesh import Mesh
from repro.nuca.base import build_problem
from repro.sched.engine import ReconfigEngine
from repro.sched.problem import PlacementProblem, ThreadSpec
from repro.testing import golden_problem
from repro.util.hashing import content_digest
from repro.vcache.virtual_cache import VCKind, VirtualCache
from repro.workloads.mixes import random_multithreaded_mix


def scan_accessors(problem, vc_id):
    """The pre-index ``accessors_of``: one pass over the thread list."""
    out = {}
    for t in problem.threads:
        rate = t.vc_accesses.get(vc_id, 0.0)
        if rate > 0:
            out[t.thread_id] = rate
    return out


def assert_index_matches_scan(problem):
    vc_ids = [vc.vc_id for vc in problem.vcs]
    unknown = max(vc_ids, default=0) + 1000
    for vc_id in [*vc_ids, unknown]:
        want = scan_accessors(problem, vc_id)
        got = problem.accessors_of(vc_id)
        assert got == want
        assert list(got.items()) == list(want.items())  # key order too
        # A caller mutating its copy never reaches the index.
        got.clear()
        got[-1] = 1.0
        again = problem.accessors_of(vc_id)
        assert list(again.items()) == list(want.items())


def _multithreaded_problem():
    return build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))


def test_built_problems():
    problems = [golden_problem(), _multithreaded_problem()]
    assert any(len(vc.accesses) > 1 for vc in problems[1].vcs)
    for problem in problems:
        assert_index_matches_scan(problem)


def test_service_patched_problems(served_problems):
    for client_problem, patched in served_problems(epochs=4):
        assert_index_matches_scan(client_problem)
        assert_index_matches_scan(patched)


@pytest.mark.parametrize("strategy", ("partitioned", "hierarchical"))
def test_region_sub_problems(monkeypatch, strategy):
    seen = []
    reconfigure = engine_mod.reconfigure
    split_solve = engine_mod._split_solve

    def recording_reconfigure(problem, *args, **kwargs):
        seen.append(problem)
        return reconfigure(problem, *args, **kwargs)

    def recording_split_solve(problem, *args, **kwargs):
        seen.append(problem)
        return split_solve(problem, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "reconfigure", recording_reconfigure)
    monkeypatch.setattr(engine_mod, "_split_solve", recording_split_solve)
    config = small_test_config(8, 8)
    problem = build_problem(random_multithreaded_mix(4, 3), config)
    kwargs = {"regions": 2}
    if strategy == "hierarchical":
        kwargs["depth"] = 2
    ReconfigEngine(strategy, **kwargs).solve(problem)
    sub_problems = [p for p in seen if p is not problem]
    assert sub_problems
    assert any(p.topology.tiles < config.tiles for p in sub_problems)
    for sub in sub_problems:
        assert_index_matches_scan(sub)


def test_replaced_problems():
    problem = _multithreaded_problem()
    reordered = dataclasses.replace(problem, threads=problem.threads[::-1])
    dropped = dataclasses.replace(problem, threads=problem.threads[1:])
    for derived in (reordered, dropped):
        assert_index_matches_scan(derived)
    # Thread order is the accessor order.
    vc = next(vc for vc in problem.vcs if len(vc.accesses) > 1)
    assert list(reordered.accessors_of(vc.vc_id)) == list(
        problem.accessors_of(vc.vc_id)
    )[::-1]


def test_non_positive_rates_and_shared_vcs():
    config = small_test_config(4, 4)
    curve = flat_curve(float(config.llc_bytes), 1.0)
    vcs = [
        VirtualCache(vc_id=v, kind=VCKind.PROCESS, process_id=0, miss_curve=curve)
        for v in (7, 3)
    ]
    threads = [
        ThreadSpec(thread_id=5, process_id=0, vc_accesses={7: 2.0, 3: 0.0}),
        ThreadSpec(thread_id=1, process_id=0, vc_accesses={3: 1.5, 7: -1.0}),
        ThreadSpec(thread_id=9, process_id=0, vc_accesses={7: 0.5, 3: 4}),
    ]
    problem = PlacementProblem(config, Mesh(4, 4), vcs, threads)
    assert_index_matches_scan(problem)
    assert list(problem.accessors_of(7).items()) == [(5, 2.0), (9, 0.5)]
    assert list(problem.accessors_of(3).items()) == [(1, 1.5), (9, 4)]
    assert problem.accessors_of(11) == {}


def test_index_stays_out_of_equality_and_digest():
    problem = _multithreaded_problem()
    twin = dataclasses.replace(problem)
    assert twin == problem
    assert twin._accessors is not problem._accessors
    assert "_accessors" not in {f.name for f in dataclasses.fields(problem)}
    assert content_digest(twin) == content_digest(problem)
