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

from oracles import resolve_delta_scan
from repro.cache.miss_curve import MissCurve
from repro.cache.sketch import MissCurveSketch
from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.sched.engine import ReconfigEngine, _candidate_positions
from repro.sched.problem import PlacementProblem, changed_records
from repro.service import (
    CoSchedService,
    DeltaTelemetry,
    MalformedTelemetryError,
    PlacementRequest,
    ServiceClient,
    StaleTelemetryError,
    build_delta,
    problem_digest,
    telemetry_bytes,
    validate_delta_telemetry,
)
from repro.sim.engine import EpochEngine
from repro.testing import small_problem
from repro.util.hashing import content_digest
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


# -- the patch in O(changed records) ------------------------------------------


def _serve_delta(base, delta):
    """The problem the service holds after first contact with *base* and
    then *delta* (whose StaleTelemetryError propagates)."""

    async def scenario():
        async with CoSchedService(strategy="incremental") as service:
            await ServiceClient(service, "chip-0").place(base)
            await service.submit(delta)
            return service.pool.slot("chip-0").engine.state.problem

    return asyncio.run(scenario())


def _delta(base, **payload):
    return DeltaTelemetry(
        chip_id="chip-0", base_digest=problem_digest(base), **payload
    )


def _shared_readers(base):
    """A process VC read by at least three threads, and its readers in
    thread order."""
    shared = next(
        vc for vc in base.vcs
        if vc.kind is VCKind.PROCESS and len(vc.accesses) > 2
    )
    return shared, list(base.accessors_of(shared.vc_id))


def _with_threads(problem, change):
    """*problem* with ``change(thread) -> vc_accesses`` applied, and its
    VCs' ``accesses`` rebuilt to match."""
    threads = [
        replace(t, vc_accesses=change(t)) for t in problem.threads
    ]
    vcs = [
        replace(vc, accesses={
            t.thread_id: t.vc_accesses[vc.vc_id]
            for t in threads if t.vc_accesses.get(vc.vc_id, 0) > 0
        })
        for vc in problem.vcs
    ]
    return replace(problem, vcs=vcs, threads=threads)


def _zero_rate_key_base():
    """A chip where a thread of another process keys the shared VC at
    rate 0, the shared VC and its readers."""
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    shared, readers = _shared_readers(base)
    idle = next(t for t in base.threads if t.process_id != shared.process_id)
    base = _with_threads(base, lambda t: (
        {**t.vc_accesses, shared.vc_id: 0.0} if t is idle else t.vc_accesses
    ))
    return base, shared, readers


def _zero_rate_key_case():
    # The delta moves the shared VC's rates without naming the thread
    # that keys it at rate 0.
    base, shared, readers = _zero_rate_key_base()
    rates = {r: 2 * shared.accesses[r] for r in readers}
    return base, _delta(base, dirty_rates={shared.vc_id: rates})


def _reader_between_readers_case():
    # The middle reader stops reading the shared VC in the base; the
    # delta brings it back, between the two readers that stayed.
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    shared, readers = _shared_readers(base)
    middle = readers[1]
    base = _with_threads(base, lambda t: (
        {k: v for k, v in t.vc_accesses.items() if k != shared.vc_id}
        if t.thread_id == middle else t.vc_accesses
    ))
    rates = {r: shared.accesses[r] for r in readers}
    return base, _delta(base, dirty_rates={shared.vc_id: rates})


def _reader_leaves_case():
    # The middle reader stops reading the shared VC, and no other thread
    # that changes names it.
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    shared, readers = _shared_readers(base)
    rates = {r: shared.accesses[r] for r in readers if r != readers[1]}
    return base, _delta(base, dirty_rates={shared.vc_id: rates})


def _cluster_only_case():
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    thread = base.threads[3]
    return base, _delta(
        base, dirty_clusters={thread.thread_id: thread.cluster_key + "-x"}
    )


def _curve_and_cluster_case():
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    vc = base.vcs[2]
    curve = MissCurve(vc.miss_curve.sizes, vc.miss_curve.values * 0.5)
    vcs = list(base.vcs)
    vcs[2] = replace(vc, miss_curve=curve)
    sketch = build_delta(base, replace(base, vcs=vcs), "chip-0").sketches[vc.vc_id]
    return base, _delta(
        base,
        sketches={vc.vc_id: sketch},
        dirty_curves={vc.vc_id: curve},
        dirty_clusters={base.threads[0].thread_id: "renamed"},
    )


@pytest.mark.parametrize("case", [
    _zero_rate_key_case,
    _reader_between_readers_case,
    _reader_leaves_case,
    _cluster_only_case,
    _curve_and_cluster_case,
])
def test_resolve_delta_matches_the_full_scan(case):
    base, delta = case()
    served = _serve_delta(base, delta)
    want = resolve_delta_scan(base, delta)
    assert content_digest(served) == content_digest(want)
    for records in ("vcs", "threads"):
        for old, new, ref in zip(
            getattr(base, records), getattr(served, records), getattr(want, records)
        ):
            assert (new is old) == (ref is old)
    for new, ref in zip(served.threads, want.threads):
        assert list(new.vc_accesses.items()) == list(ref.vc_accesses.items())
    # Derived from the base, with the index a fresh construction builds.
    assert served._frame is base._frame
    fresh = PlacementProblem(
        served.config, served.topology, list(served.vcs),
        list(served.threads), served.mem_latency,
    )
    for vc in served.vcs:
        assert list(served.accessor_rates(vc.vc_id).items()) == list(
            fresh.accessor_rates(vc.vc_id).items()
        )


def _zero_keys(problem):
    return [
        (t.thread_id, vc_id)
        for t in problem.threads
        for vc_id, rate in t.vc_accesses.items()
        if not rate > 0
    ]


def test_crafted_cases_exercise_what_they_name():
    base, delta = _zero_rate_key_case()
    served = _serve_delta(base, delta)
    # No map names the thread, so the patch keeps its zero-rate key.
    assert _zero_keys(base) and _zero_keys(served) == _zero_keys(base)
    base, delta = _reader_between_readers_case()
    served = _serve_delta(base, delta)
    ((shared_id, rates),) = delta.dirty_rates.items()
    readers = list(rates)
    assert list(base.accessor_rates(shared_id)) == readers[:1] + readers[2:]
    assert list(served.accessor_rates(shared_id)) == readers


def test_zero_rate_key_stream_keeps_anchoring():
    """Four epochs move the shared rates of the zero-rate-key chip.  The
    service keeps the key the client keeps, so every delta anchors, and
    every reply equals a local engine solving the client's problems."""
    base, shared, readers = _zero_rate_key_base()
    problems = [base] + [
        _with_threads(base, lambda t, scale=scale: (
            {**t.vc_accesses, shared.vc_id: scale * t.vc_accesses[shared.vc_id]}
            if t.thread_id in readers else t.vc_accesses
        ))
        for scale in (2.0, 0.5, 3.0)
    ]

    async def scenario():
        async with CoSchedService(strategy="incremental") as service:
            client = ServiceClient(service, "chip-0")
            replies = [await client.place_delta(problem) for problem in problems]
        return replies, client.telemetry_stats

    replies, stats = asyncio.run(scenario())
    assert stats == {"delta": 3, "full": 1, "stale": 0}
    engine = ReconfigEngine("incremental")
    for problem, reply in zip(problems, replies):
        local = engine.solve(problem)
        assert reply.ok
        assert reply.solution == local.solution
        assert reply.modeled_mcycles == local.modeled_cycles() / 1e6
        assert reply.step_cycles == local.step_cycles()


@pytest.mark.parametrize("field", ["sketches", "dirty_rates", "dirty_clusters"])
def test_resolve_delta_unknown_ids_are_stale(field):
    base = build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4))
    unknown = {
        "sketches": MissCurveSketch.from_curve(base.vcs[0].miss_curve),
        "dirty_rates": {base.threads[0].thread_id: 1.0},
        "dirty_clusters": "nobody",
    }[field]
    with pytest.raises(StaleTelemetryError):
        _serve_delta(base, _delta(base, **{field: {10**6: unknown}}))


def test_pairs_that_cannot_be_diffed_take_every_vc():
    prev, cur = _changed_pair()
    assert changed_records(prev, cur) is not None
    other_config = replace(cur, config=replace(cur.config))
    reordered = replace(cur, vcs=cur.vcs[::-1])
    for problem in (other_config, reordered):
        assert changed_records(prev, problem) is None
        assert _candidate_positions(prev, problem) is None
    # The negative threshold ships every VC, as a full diff does.
    delta = build_delta(prev, cur, "chip-0", dirty_threshold=-1.0)
    assert list(delta.sketches) == [vc.vc_id for vc in cur.vcs]
    # A problem built on a base it cannot be diffed against is built
    # anew, not derived.
    assert PlacementProblem(
        reordered.config, reordered.topology, reordered.vcs,
        reordered.threads, reordered.mem_latency, base=prev,
    )._frame is not prev._frame
