"""System configuration objects mirroring Table 2 of the paper.

``SystemConfig`` describes the modeled chip: tile grid, cache hierarchy,
NoC timing, memory channels, and the scheduler parameters (reconfiguration
interval, monitor geometry).  The default construction reproduces the
64-tile CMP of Table 2; ``scaled(...)`` builds the 36-tile case-study chip
of Sec II-B and other reduced configurations used in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.util.units import (
    CORE_CLOCK_HZ,
    gbps_to_bytes_per_cycle,
    kb,
    ms_to_cycles,
)


@dataclass(frozen=True)
class CoreConfig:
    """Lean 2-way OOO core, Silvermont-like (Table 2)."""

    issue_width: int = 2
    #: CPI of the core when every LLC access hits instantly; calibrated so
    #: memory-light apps run near the paper's reported IPCs.
    base_cpi: float = 1.0
    #: How much of an LLC access's *on-chip* latency (tens of cycles) is
    #: exposed: a lean 2-way OOO with a 32-entry ROB hides very little
    #: (the small residual overlap comes from its 2-wide issue and L1/L2
    #: prefetchers).
    mlp_onchip: float = 1.15
    #: Overlap across *DRAM* misses (hundreds of cycles): the 10-entry load
    #: queue sustains a couple of outstanding misses.
    mlp_offchip: float = 1.8


@dataclass(frozen=True)
class CacheConfig:
    """Private levels + one LLC bank per tile (Table 2)."""

    l1d_bytes: int = kb(32)
    l1_latency: int = 3
    l2_bytes: int = kb(128)
    l2_latency: int = 6
    bank_bytes: int = kb(512)
    bank_latency: int = 9
    bank_ways: int = 16
    #: Vantage-style partitions supported per bank.
    partitions_per_bank: int = 64
    line_bytes: int = 64


@dataclass(frozen=True)
class NocConfig:
    """8x8 mesh, 128-bit flits, 3-cycle routers + 1-cycle links (Table 2)."""

    router_latency: int = 3
    link_latency: int = 1
    flit_bits: int = 128

    @property
    def hop_latency(self) -> int:
        """Latency added per network hop (router traversal + link)."""
        return self.router_latency + self.link_latency

    def flits_for_bytes(self, payload_bytes: int, header_bytes: int = 2) -> int:
        """Number of flits for a message carrying *payload_bytes*.

        A 64 B line on 128-bit flits takes 4 data flits + 1 header flit;
        a request/control message takes a single flit.
        """
        if payload_bytes == 0:
            return 1
        flit_bytes = self.flit_bits // 8
        return 1 + math.ceil(payload_bytes / flit_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """8 single-channel MCUs at the mesh edges (Table 2)."""

    controllers: int = 8
    zero_load_latency: int = 120
    channel_gbps: float = 12.8

    @property
    def bytes_per_cycle_per_channel(self) -> float:
        return gbps_to_bytes_per_cycle(self.channel_gbps)


@dataclass(frozen=True)
class MonitorConfig:
    """GMON geometry (Sec IV-G): 1K hashed tags, 64 ways, geometric ratio
    chosen to cover the whole LLC starting from a 64 KB first way."""

    monitor_lines: int = 1024
    ways: int = 64
    first_way_coverage: int = kb(64)
    sample_seed: int = 7


@dataclass(frozen=True)
class SchedulerConfig:
    """Software-runtime parameters (Sec IV)."""

    #: Reconfiguration period: 25 ms at 2 GHz = 50 Mcycles.
    reconfigure_interval_cycles: int = ms_to_cycles(25.0)
    #: Buckets in each VC descriptor (Fig 3: N = 64).
    descriptor_buckets: int = 64
    #: Capacity-allocation granularity in bytes (the 64 KB chunks of
    #: Sec IV-G, i.e. one L1's worth).
    allocation_quantum: int = kb(64)


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of a modeled CMP."""

    mesh_width: int = 8
    mesh_height: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    clock_hz: int = CORE_CLOCK_HZ

    @property
    def tiles(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def llc_bytes(self) -> int:
        """Aggregate LLC capacity (e.g. 64 x 512 KB = 32 MB)."""
        return self.tiles * self.cache.bank_bytes

    @property
    def bank_quanta(self) -> int:
        """Allocation quanta that fit in one bank."""
        return self.cache.bank_bytes // self.scheduler.allocation_quantum

    @property
    def total_quanta(self) -> int:
        return self.tiles * self.bank_quanta

    def with_mesh(self, width: int, height: int) -> "SystemConfig":
        """Return a copy with a different tile grid (LLC scales with tiles)."""
        return replace(self, mesh_width=width, mesh_height=height)

    def with_banks(self, bank_bytes: int, partitions_per_bank: int) -> "SystemConfig":
        """Return a copy with different bank geometry (used by the
        bank-granularity NUCA ablation of Sec IV-I / VI-C)."""
        return replace(
            self,
            cache=replace(
                self.cache,
                bank_bytes=bank_bytes,
                partitions_per_bank=partitions_per_bank,
            ),
        )


def default_config() -> SystemConfig:
    """The 64-tile chip of Table 2."""
    return SystemConfig()


def mesh_width(tiles: int) -> int:
    """Side length of a square mesh with *tiles* tiles; raises on
    non-square or sub-2x2 counts (meshes here are square)."""
    width = math.isqrt(tiles)
    if width * width != tiles or tiles < 4:
        raise ValueError(
            f"tile count must be a perfect square >= 4, got {tiles}"
        )
    return width


def scaled_mesh_config(tiles: int) -> SystemConfig:
    """Table 2's chip grown (or shrunk) to *tiles* tiles.

    Memory controllers scale with tile count — ``max(2, tiles // 8)``, one
    MCU per 8 tiles, anchored at the paper's 8 MCUs for 64 tiles — so
    per-tile DRAM bandwidth is held fixed along the whole sweep (the floor
    of 2 only binds below 16 tiles).  Without this, the sweep measures
    DRAM under-provisioning (8 channels feeding 256 cores) instead of how
    co-scheduling itself scales; with it, any per-tile IPC loss is
    attributable to the cache/network layer under study.
    """
    width = mesh_width(tiles)
    config = default_config().with_mesh(width, width)
    return replace(
        config,
        memory=replace(config.memory, controllers=max(2, tiles // 8)),
    )


def case_study_config() -> SystemConfig:
    """The 36-tile (6x6) scaled-down chip of the Sec II-B case study."""
    return SystemConfig(mesh_width=6, mesh_height=6)


def small_test_config(width: int = 4, height: int = 4) -> SystemConfig:
    """A small chip for fast unit tests."""
    return SystemConfig(mesh_width=width, mesh_height=height)
