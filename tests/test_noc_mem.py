"""NoC latency/traffic and memory models (repro.noc, repro.mem)."""

import pytest

from repro.config import MemoryConfig, NocConfig
from repro.geometry.mesh import Mesh
from repro.mem.controller import MemoryControllers
from repro.mem.dram import DramModel
from repro.noc.traffic import TrafficClass, TrafficCounter


def test_hop_latency_table2():
    noc = NocConfig()
    assert noc.hop_latency == 4  # 3-cycle router + 1-cycle link


def test_flits_for_line_and_control():
    noc = NocConfig()
    assert noc.flits_for_bytes(0) == 1  # header-only request
    assert noc.flits_for_bytes(64) == 5  # 64B line on 128-bit flits + header


def test_traffic_counter_accumulates_by_class():
    counter = TrafficCounter()
    counter.add_message(TrafficClass.L2_LLC, hops=3, payload_bytes=64)
    counter.add_request_response(TrafficClass.LLC_MEM, hops=2, response_bytes=64)
    breakdown = counter.breakdown()
    assert breakdown["L2-LLC"] == 15  # 5 flits x 3 hops
    assert breakdown["LLC-Mem"] == 2 + 10  # request + response
    assert counter.total() == 27


def test_traffic_counter_merge_and_reset():
    a, b = TrafficCounter(), TrafficCounter()
    a.add_message(TrafficClass.OTHER, 1, 0)
    b.add_message(TrafficClass.OTHER, 2, 0)
    a.merge(b)
    assert a.flit_hops[TrafficClass.OTHER] == 3
    a.reset()
    assert a.total() == 0


def test_dram_zero_load_latency():
    dram = DramModel(MemoryConfig())
    assert dram.access_latency(0.0) == 120


def test_dram_queueing_monotone_in_demand():
    dram = DramModel(MemoryConfig())
    delays = [dram.queueing_delay(d) for d in (0.0, 10.0, 30.0, 50.0, 80.0)]
    assert all(b >= a for a, b in zip(delays, delays[1:]))
    assert delays[0] == 0.0


def test_dram_queueing_finite_at_overload():
    dram = DramModel(MemoryConfig())
    over = dram.total_bytes_per_cycle() * 10
    assert dram.queueing_delay(over) < 1e4


def test_dram_service_time():
    dram = DramModel(MemoryConfig())
    assert dram.service_cycles_per_line() == pytest.approx(10.0)  # 64B / 6.4


def test_dram_rejects_negative_demand():
    dram = DramModel(MemoryConfig())
    with pytest.raises(ValueError):
        dram.queueing_delay(-1.0)
    with pytest.raises(ValueError):
        dram.utilization(-1.0)


def test_controllers_interleave_pages_evenly():
    mesh = Mesh(8, 8)
    mcs = MemoryControllers(mesh)
    counts = {}
    for line in range(0, 64_000, 64):  # distinct pages
        tile = mcs.controller_for(line)
        counts[tile] = counts.get(tile, 0) + 1
    assert len(counts) == 8
    assert max(counts.values()) / min(counts.values()) < 1.5


def test_controllers_same_page_same_controller():
    mesh = Mesh(4, 4)
    mcs = MemoryControllers(mesh)
    assert mcs.controller_for(0) == mcs.controller_for(63)  # same 64-line page


def test_chip_mean_distance_positive():
    mesh = Mesh(8, 8)
    mcs = MemoryControllers(mesh)
    assert 2.0 < mcs.chip_mean_distance() < 8.0
