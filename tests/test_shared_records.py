"""Problems that share immutable records, and digests memoized on them.

Two phased 64-tile chips stream delta telemetry to one service for 60
epochs each.  Every snapshot of a chip's :class:`EpochEngine` reuses the
records of each process whose phase did not change, and every problem
the service patches from a delta keeps its base's clean records, so
``problem_digest`` hashes most records from their memos.  Such a digest
must equal the digest of a record-by-record copy, which carries no memo,
and must agree with ``content_digest``; and every snapshot must be
content-identical to the problem built from scratch for its phase clock.

Both the snapshots and the patched problems are derived from their
predecessors by record identity (``changed_records``).  A derived
problem's accessor index must equal a fresh construction's, and
``build_delta`` and both dirty detectors, which look only at the changed
records of such a pair, must return what they return on copies that
share no record and no config object, which they diff in full.
"""

import asyncio
import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched.engine import IncrementalSolve
from repro.sched.problem import RECORD_DIGESTS, PlacementProblem, changed_records
from repro.service import CoSchedService, ServiceClient, build_delta, problem_digest
from repro.sched.reconfigure import reconfigure
from repro.service.load import LoadSpec, build_chip
from repro.sim.engine import EpochEngine
from repro.util.hashing import content_digest
from repro.workloads.mixes import (
    random_multithreaded_mix,
    random_phased_mix,
    snapshot_mix,
)

EPOCHS = 60


@pytest.fixture(scope="module")
def streamed():
    """(rows, per-client telemetry stats, sims); one row per chip-epoch:
    (snapshot problem, the problem the service solved, snapshot mix,
    problem built from scratch, mix snapshotted from scratch)."""
    spec = LoadSpec(chips=2, tiles=64, seed=5)
    fleet = [build_chip(spec, index) for index in range(spec.chips)]

    async def scenario():
        rows = []
        async with CoSchedService(strategy="incremental") as service:
            clients = [ServiceClient(service, chip_id) for chip_id, _ in fleet]
            for _ in range(EPOCHS):
                for client, (chip_id, sim) in zip(clients, fleet):
                    mix = snapshot_mix(sim.mix, sim.process_instructions())
                    scratch = build_problem(
                        mix, sim.problem.config, sim.problem.topology
                    )
                    problem = sim.current_problem()
                    reply = await client.place_delta(problem)
                    served = service.pool.slot(chip_id).engine.state.problem
                    rows.append(
                        (problem, served, sim.current_mix(), scratch, mix)
                    )
                    sim.run_epoch(reply.solution, spec.epoch_mcycles * 1e6)
        return rows, [client.telemetry_stats for client in clients]

    rows, stats = asyncio.run(scenario())
    return rows, stats, [sim for _, sim in fleet]


def _unmemoized(problem):
    """*problem* rebuilt record by record: the same content, and no memo
    on the problem or on any record."""
    return replace(
        problem,
        vcs=[replace(vc) for vc in problem.vcs],
        threads=[replace(thread) for thread in problem.threads],
    )


def test_shared_record_digests_match_unmemoized_copies(
    streamed, served_problems
):
    rows, stats, _ = streamed
    assert stats == [{"delta": EPOCHS - 1, "full": 1, "stale": 0}] * 2
    corpus = [p for problem, served, *_ in rows for p in (problem, served)]
    for mix_id in (0, 1):
        corpus += [p for pair in served_problems(mix_id=mix_id) for p in pair]
    # Most records are shared between problems, so their digests come
    # from the memos the streaming already filled.
    uses = Counter(id(r) for p in corpus for r in [*p.vcs, *p.threads])
    assert sum(n > 1 for n in uses.values()) > len(uses) / 2
    digests = [problem_digest(p) for p in corpus]
    for problem, digest in zip(corpus, digests):
        copy = _unmemoized(problem)
        assert not any("_digest" in vars(r) for r in copy.vcs)
        assert problem_digest(copy) == digest
    # Equal digests exactly when content_digest is equal.
    oracle = [content_digest(p) for p in corpus]
    pairs = set(zip(digests, oracle))
    assert len(pairs) == len(set(digests)) == len(set(oracle)) > EPOCHS


def test_snapshots_equal_problems_built_from_scratch(streamed):
    rows, _, sims = streamed
    for problem, _, mix, scratch, scratch_mix in rows:
        assert mix == scratch_mix
        assert [vc.vc_id for vc in problem.vcs] == [
            vc.vc_id for vc in scratch.vcs
        ]
        assert [t.thread_id for t in problem.threads] == [
            t.thread_id for t in scratch.threads
        ]
        assert content_digest(problem) == content_digest(scratch)
    for sim in sims:
        # Phases moved: some process has records for more than one phase.
        assert len(sim._records) > len(sim.mix.processes)


# -- derived problems -----------------------------------------------------------


def _fresh(problem):
    """*problem*'s records in a freshly constructed problem."""
    return PlacementProblem(
        problem.config, problem.topology, list(problem.vcs),
        list(problem.threads), problem.mem_latency,
    )


def _index(problem):
    """The accessor index with every inner map's key order."""
    return {
        vc_id: list(rates.items()) for vc_id, rates in problem._accessors.items()
    }


def _chip_sequences(rows, served_problems):
    """Per chip, its client snapshots and the service's problems, each
    in epoch order."""
    sequences = []
    for chip in range(2):
        chip_rows = rows[chip::2]
        sequences.append([problem for problem, *_ in chip_rows])
        sequences.append([served for _, served, *_ in chip_rows])
    for mix_id in (0, 1):
        pairs = served_problems(mix_id=mix_id)
        sequences.append([client for client, _ in pairs])
        sequences.append([served for _, served in pairs])
    return sequences


def test_derived_problems_equal_fresh_constructions(streamed, served_problems):
    rows, _, _ = streamed
    for sequence in _chip_sequences(rows, served_problems):
        # Every problem of a chip after the first is derived, so one
        # frame serves them all.
        assert len({id(p._frame) for p in sequence}) == 1
        for problem in sequence:
            fresh = _fresh(problem)
            assert _index(problem) == _index(fresh)
            assert dict(problem.vc_positions) == dict(fresh.vc_positions)
            assert dict(problem.thread_positions) == dict(fresh.thread_positions)


def test_derived_digest_lists_match_unmemoized_copies(streamed):
    rows, _, _ = streamed
    holes = 0
    for chip in range(2):
        served = [p for _, p, *_ in rows[chip::2]]
        for prev, cur in zip(served, served[1:]):
            problem_digest(prev)
            derived = PlacementProblem(
                prev.config, prev.topology, list(cur.vcs), list(cur.threads),
                prev.mem_latency, base=prev,
            )
            vc_digests, thread_digests = derived._memo[RECORD_DIGESTS]
            holes += vc_digests.count(None) + thread_digests.count(None)
            assert problem_digest(derived) == problem_digest(_unmemoized(cur))
    assert holes > 0


def _unshared(problem, config):
    """A record-by-record copy on *config*, an equal config object of
    its own: it shares no record and no config with any other problem,
    so no pair of such copies can be diffed by identity."""
    return replace(
        problem,
        config=config,
        vcs=[replace(vc) for vc in problem.vcs],
        threads=[replace(thread) for thread in problem.threads],
    )


def _delta_items(delta):
    return (
        delta.base_digest,
        list(delta.sketches.items()),
        list(delta.dirty_curves.items()),
        list(delta.dirty_rates.items()),
        list(delta.dirty_clusters.items()),
    )


def test_delta_and_dirty_sets_match_full_diffs(streamed, served_problems):
    rows, _, _ = streamed
    detectors = [
        IncrementalSolve(dirty_threshold=threshold)
        for threshold in (0.001, 0.05)
    ]
    moved = 0
    for sequence in _chip_sequences(rows, served_problems):
        copies = [_unshared(p, replace(p.config)) for p in sequence]
        for (prev, cur), (prev_copy, cur_copy) in zip(
            zip(sequence, sequence[1:]), zip(copies, copies[1:])
        ):
            assert changed_records(prev, cur) is not None
            assert changed_records(prev_copy, cur_copy) is None
            for threshold in (0.0, -1.0):
                got = build_delta(prev, cur, "c", dirty_threshold=threshold)
                want = build_delta(
                    prev_copy, cur_copy, "c", dirty_threshold=threshold
                )
                assert _delta_items(got) == _delta_items(want)
            assert len(got.sketches) == len(cur.vcs)  # the negative threshold
            for detector in detectors:
                exact = detector.dirty_vcs(prev, cur)
                assert exact == detector.dirty_vcs(prev_copy, cur_copy)
                sketched = detector.dirty_vcs_from_sketches(prev, cur)
                assert sketched == detector.dirty_vcs_from_sketches(
                    prev_copy, cur_copy
                )
                moved += bool(exact)
    assert moved > EPOCHS


def test_dirty_sets_see_rate_moves_under_shared_vc_records():
    # A thread's rate moves while every VC record stays shared: the VC
    # it names is a candidate through the thread alone.
    problem = build_problem(
        random_multithreaded_mix(2, 7), small_test_config(4, 4)
    )
    thread = next(t for t in problem.threads if len(t.vc_accesses) > 1)
    threads = list(problem.threads)
    threads[threads.index(thread)] = replace(
        thread, vc_accesses={k: 3 * v for k, v in thread.vc_accesses.items()}
    )
    moved = PlacementProblem(
        problem.config, problem.topology, list(problem.vcs), threads,
        problem.mem_latency, base=problem,
    )
    assert changed_records(problem, moved)[0] == []
    copies = [_unshared(p, replace(p.config)) for p in (problem, moved)]
    detector = IncrementalSolve()
    dirty = detector.dirty_vcs(problem, moved)
    assert dirty == set(thread.vc_accesses) == detector.dirty_vcs(*copies)
    assert detector.dirty_vcs_from_sketches(problem, moved) == dirty
    assert detector.dirty_vcs_from_sketches(*copies) == dirty


def test_derived_problems_keep_no_reference_to_their_base():
    mix = random_phased_mix(8, 42, 0)
    sim = EpochEngine(mix, build_problem(mix, small_test_config(4, 4)))
    first = sim.current_problem()
    base = _fresh(first)
    derived = PlacementProblem(
        base.config, base.topology, list(base.vcs), list(base.threads),
        base.mem_latency, base=base,
    )
    assert derived._frame is base._frame
    ref = weakref.ref(base)
    del base
    gc.collect()
    assert ref() is None
    # A chip's snapshots chain the same way: once the engine has moved
    # past one, nothing keeps it alive.
    ref = weakref.ref(first)
    problem = first
    while problem is first:
        sim.run_epoch(reconfigure(problem).solution, 200e6)
        problem = sim.current_problem()
    assert problem._frame is first._frame
    del first
    gc.collect()
    assert ref() is None
