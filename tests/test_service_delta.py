"""Delta telemetry: validation, the build_delta contract, and the
client/server streaming path.

The wire contract: a ``DeltaTelemetry`` patches the chip's last-good
problem — sketches for every changed VC, exact curves only for the dirty
ones, rates and cluster keys only where they moved.  The service must
answer exactly as if the client had shipped the full problem (pinned
below by driving twin sims), fall back loudly when the delta cannot
anchor (:class:`StaleTelemetryError` → client resends full), and cost a
small fraction of full telemetry when the workload is stationary.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.cache.sketch import MissCurveSketch
from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched.engine import ReconfigEngine
from repro.service import (
    CoSchedService,
    DeltaTelemetry,
    MalformedTelemetryError,
    PlacementRequest,
    ServiceClient,
    build_delta,
    problem_digest,
    telemetry_bytes,
    validate_delta_telemetry,
)
from repro.sim.engine import EpochEngine
from repro.testing import small_problem
from repro.vcache.virtual_cache import VCKind
from repro.workloads.mixes import random_multithreaded_mix, random_phased_mix

EPOCHS = 5
EPOCH_CYCLES = 200e6


def _sim(apps=8, seed=42, mix_id=0):
    mix = random_phased_mix(apps, seed, mix_id)
    return EpochEngine(mix, build_problem(mix, small_test_config(4, 4)))


def _problem_sequence(n=6, **kwargs):
    """Distinct per-epoch problems along one phased-mix schedule."""
    sim = _sim(**kwargs)
    engine = ReconfigEngine("incremental")
    problems = []
    for _ in range(n):
        problem = sim.current_problem()
        problems.append(problem)
        sim.run_epoch(engine.solve(problem).solution, EPOCH_CYCLES)
    return problems


def _changed_pair():
    """The first adjacent epoch pair whose problems actually differ
    (early epochs of a phased mix can be stationary)."""
    problems = _problem_sequence()
    for prev, cur in zip(problems, problems[1:]):
        if problem_digest(prev) != problem_digest(cur):
            return prev, cur
    raise AssertionError("phased mix never moved — fixture is broken")


# -- validation --------------------------------------------------------------


def test_validate_delta_accepts_built_delta():
    prev, cur = _changed_pair()
    delta = build_delta(prev, cur, "chip-0", epoch=1)
    assert delta is not None
    assert delta.sketches or delta.dirty_rates or delta.dirty_clusters
    validate_delta_telemetry(delta)  # does not raise


def _delta_template():
    prev, cur = _changed_pair()
    return build_delta(prev, cur, "chip-0", epoch=1)


def _remade(delta, **overrides):
    fields = dict(
        chip_id=delta.chip_id,
        base_digest=delta.base_digest,
        sketches=delta.sketches,
        dirty_curves=delta.dirty_curves,
        dirty_rates=delta.dirty_rates,
        dirty_clusters=delta.dirty_clusters,
        epoch=delta.epoch,
        timeout_s=delta.timeout_s,
    )
    fields.update(overrides)
    return DeltaTelemetry(**fields)


@pytest.mark.parametrize("mutate", (
    lambda d: "not a delta",
    lambda d: _remade(d, chip_id=""),
    lambda d: _remade(d, base_digest=""),
    lambda d: _remade(
        d, sketches={"vc": next(iter(d.sketches.values()))},
        dirty_curves={},
    ),
    lambda d: _remade(d, sketches={0: "not a sketch"}, dirty_curves={}),
    # dirty_curves must be a subset of sketches: a replacement curve for
    # a VC with no shipped dirty hint is a protocol violation.
    lambda d: _remade(d, sketches={}),
    lambda d: _remade(d, dirty_rates={0: {0: -1.0}}),
    lambda d: _remade(d, dirty_rates={0: {"t0": 1.0}}),
    lambda d: _remade(d, dirty_clusters={"t0": "bzip2"}),
    lambda d: _remade(d, dirty_clusters={0: 7}),
    lambda d: _remade(d, timeout_s=0.0),
), ids=(
    "not-a-delta", "empty-chip-id", "empty-digest", "non-int-vc-key",
    "non-sketch-value", "curve-without-sketch", "negative-rate",
    "non-int-thread-id", "non-int-cluster-key", "non-str-cluster-value",
    "zero-timeout",
))
def test_validate_delta_rejects_malformed(mutate):
    delta = _delta_template()
    assert delta.dirty_curves  # the curve-without-sketch case needs one
    with pytest.raises(MalformedTelemetryError) as err:
        validate_delta_telemetry(mutate(delta))
    assert err.value.code == "malformed_telemetry"


# -- build_delta -------------------------------------------------------------


def test_build_delta_none_on_structural_drift():
    base, _ = small_problem(apps=8)
    grown, _ = small_problem(apps=12)  # different VC-id set
    assert build_delta(base, grown, "chip-0") is None
    assert build_delta(grown, base, "chip-0") is None


def test_build_delta_stationary_is_empty_and_cheap():
    problem, _ = small_problem(apps=8)
    delta = build_delta(problem, problem, "chip-0")
    assert delta is not None
    assert delta.sketches == {} and delta.dirty_curves == {}
    assert delta.dirty_rates == {} and delta.dirty_clusters == {}
    assert delta.base_digest == problem_digest(problem)
    full = telemetry_bytes(PlacementRequest(chip_id="chip-0", problem=problem))
    assert telemetry_bytes(delta) * 5 <= full


def test_build_delta_ships_payloads_only_for_moved_state():
    prev, cur = _changed_pair()
    delta = build_delta(prev, cur, "chip-0", epoch=1)
    assert delta is not None
    assert set(delta.dirty_curves) <= set(delta.sketches)
    cur_ids = {vc.vc_id for vc in cur.vcs}
    for vc_id, sketch in delta.sketches.items():
        assert isinstance(sketch, MissCurveSketch)
        assert vc_id in cur_ids
    cur_keys = {t.thread_id: t.cluster_key for t in cur.threads}
    prev_keys = {t.thread_id: t.cluster_key for t in prev.threads}
    for thread_id, key in delta.dirty_clusters.items():
        assert key == cur_keys[thread_id]
        assert key != prev_keys[thread_id]
    # Deltas are priced strictly under a full dump of the same problem.
    full = telemetry_bytes(PlacementRequest(chip_id="chip-0", problem=cur))
    assert telemetry_bytes(delta) < full


def test_build_delta_patch_roundtrip_digest():
    # The contract the streaming path leans on: at threshold 0 the
    # server's patched problem is content-identical to the client's, so
    # consecutive deltas keep anchoring without a stale fallback.
    problems = _problem_sequence()
    base = problems[0]
    for cur in problems[1:]:
        delta = build_delta(base, cur, "chip-0")
        assert delta is not None
        assert delta.base_digest == problem_digest(base)
        base = cur


# -- the client/server streaming path ----------------------------------------


def test_delta_drive_matches_full_drive_bitwise():
    async def scenario(use_deltas):
        sim = _sim()
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            replies = await client.drive(
                sim, EPOCH_CYCLES, EPOCHS, use_deltas=use_deltas
            )
        return replies, client.telemetry_stats

    full_replies, full_stats = asyncio.run(scenario(False))
    delta_replies, delta_stats = asyncio.run(scenario(True))
    assert full_stats == {"delta": 0, "full": EPOCHS, "stale": 0}
    # First contact has no base to delta against; every warm epoch streams.
    assert delta_stats == {"delta": EPOCHS - 1, "full": 1, "stale": 0}
    for full, delta in zip(full_replies, delta_replies):
        assert full.ok and delta.ok
        assert delta.solution.vc_sizes == full.solution.vc_sizes
        assert delta.solution.vc_allocation == full.solution.vc_allocation
        assert delta.solution.thread_cores == full.solution.thread_cores


def _patched_target(base):
    """*base* with every kind of thread change a delta carries: a
    cluster-only rename; a shared VC whose accessor map changes one
    thread's rate and drops another; and a thread of another process
    that starts accessing two VCs (its new entries append in VC-id
    order)."""
    shared = next(
        vc for vc in base.vcs
        if vc.kind is VCKind.PROCESS and len(vc.accesses) > 2
    )
    changed, dropped, owner = list(shared.accesses)[:3]
    extra = next(vc for vc in base.vcs if vc.owner_thread == owner)
    others = [t for t in base.threads if t.process_id != shared.process_id]
    gained, renamed = others[0].thread_id, others[1].thread_id
    gains = {shared.vc_id: 1.5, extra.vc_id: 2.5}
    threads = []
    for t in base.threads:
        accesses = dict(t.vc_accesses)
        if t.thread_id == dropped:
            del accesses[shared.vc_id]
        elif t.thread_id == changed:
            accesses[shared.vc_id] *= 2
        elif t.thread_id == gained:
            for vc_id in sorted(gains):
                accesses[vc_id] = gains[vc_id]
        key = t.cluster_key + ("-renamed" if t.thread_id == renamed else "")
        threads.append(replace(t, vc_accesses=accesses, cluster_key=key))
    shared_rates = dict(shared.accesses)
    shared_rates[changed] *= 2
    del shared_rates[dropped]
    shared_rates[gained] = gains[shared.vc_id]
    new_rates = {
        shared.vc_id: shared_rates,
        extra.vc_id: {**extra.accesses, gained: gains[extra.vc_id]},
    }
    vcs = [
        replace(vc, accesses=new_rates[vc.vc_id]) if vc.vc_id in new_rates
        else vc
        for vc in base.vcs
    ]
    target = replace(base, vcs=vcs, threads=threads)
    return target, {changed, dropped, gained, renamed}


def test_resolve_delta_rebuilds_only_touched_threads():
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    target, touched = _patched_target(base)

    async def scenario():
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            await client.place(base)
            reply = await client.place_delta(target)
            served = service.pool.slot("chip-0").engine.state.problem
        return reply, client.telemetry_stats, served

    reply, stats, served = asyncio.run(scenario())
    assert reply.ok and stats == {"delta": 1, "full": 1, "stale": 0}
    assert served is not target
    assert problem_digest(served) == problem_digest(target)
    for old, new, want in zip(base.threads, served.threads, target.threads):
        if old.thread_id in touched:
            assert new is not old
            # Rates replace in place, drops vanish, new accesses append.
            assert list(new.vc_accesses.items()) == list(want.vc_accesses.items())
        else:
            assert new is old


def test_stale_base_falls_back_to_full_and_recovers():
    problems = _problem_sequence()
    # Pick a fake base whose digest differs from what the service saw.
    fake_base = next(
        p for p in problems[1:]
        if problem_digest(p) != problem_digest(problems[0])
    )

    async def scenario():
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            await client.place(problems[0])
            # Desync: the client believes a base the service never saw.
            client._base_problem = fake_base
            reply = await client.place_delta(problems[-1])
            snap = service.stats.snapshot()
        return reply, client.telemetry_stats, snap

    reply, stats, snap = asyncio.run(scenario())
    assert reply.ok
    assert stats["stale"] == 1
    assert stats["full"] == 2  # first contact + the stale fallback
    assert snap["stale_deltas"] == 1


def test_first_contact_delta_request_counts_full():
    problem, _ = small_problem(apps=8)

    async def scenario():
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            reply = await client.place_delta(problem)
        return reply, client.telemetry_stats

    reply, stats = asyncio.run(scenario())
    assert reply.ok
    assert stats == {"delta": 0, "full": 1, "stale": 0}
