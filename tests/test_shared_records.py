"""Problems that share immutable records, and digests memoized on them.

Two phased 64-tile chips stream delta telemetry to one service for 60
epochs each.  Every snapshot of a chip's :class:`EpochEngine` reuses the
records of each process whose phase did not change, and every problem
the service patches from a delta keeps its base's clean records, so
``problem_digest`` hashes most records from their memos.  Such a digest
must equal the digest of a record-by-record copy, which carries no memo,
and must agree with ``content_digest``; and every snapshot must be
content-identical to the problem built from scratch for its phase clock.
"""

import asyncio
from collections import Counter
from dataclasses import replace

import pytest

from repro.nuca.base import build_problem
from repro.service import CoSchedService, ServiceClient, problem_digest
from repro.service.load import LoadSpec, build_chip
from repro.util.hashing import content_digest
from repro.workloads.mixes import snapshot_mix

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
