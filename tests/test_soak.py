"""Long-run memory of the delta telemetry loop.

Two phased 64-tile chips stream 300 delta epochs each to one service
with the sketch-driven incremental strategy, the loop the serve
benchmark runs.  Phased chips never repeat a whole-chip phase key, so a
cache keyed by it, or any state kept per epoch, grows without limit;
the per-(process, phase) record memo and the last snapshot must not.
The histories the caller owns (the engines' epoch traces and the
clients' replies) are cleared as the loop goes.
"""

import asyncio
import gc
import tracemalloc

import pytest

from repro.service import CoSchedService, ServiceClient
from repro.service.load import LoadSpec, build_chip

EPOCHS = 300
#: Epochs before the first reading: every chip's phases have cycled.
WARM_EPOCHS = 100
#: Growth allowed per chip-epoch after warm-up.
BOUND_BYTES = 4096


@pytest.mark.slow
def test_delta_stream_memory_levels_off():
    spec = LoadSpec(chips=2, tiles=64, seed=5)
    fleet = [build_chip(spec, index) for index in range(spec.chips)]

    async def scenario():
        async with CoSchedService(
            strategy="incremental", use_sketches=True
        ) as service:
            clients = [ServiceClient(service, chip_id) for chip_id, _ in fleet]
            for epoch in range(EPOCHS):
                if epoch == WARM_EPOCHS:
                    gc.collect()
                    start = tracemalloc.get_traced_memory()[0]
                for client, (_, sim) in zip(clients, fleet):
                    reply = await client.place_delta(sim.current_problem())
                    sim.run_epoch(reply.solution, spec.epoch_mcycles * 1e6)
                    sim.trace.results.clear()
                    client.replies.clear()
            gc.collect()
            end = tracemalloc.get_traced_memory()[0]
            stats = [client.telemetry_stats for client in clients]
        return end - start, stats

    tracemalloc.start()
    try:
        growth, stats = asyncio.run(scenario())
    finally:
        tracemalloc.stop()
    assert stats == [{"delta": EPOCHS - 1, "full": 1, "stale": 0}] * 2
    chip_epochs = (EPOCHS - WARM_EPOCHS) * len(fleet)
    assert growth / chip_epochs < BOUND_BYTES
