"""The co-scheduling problem statement shared by every placement algorithm.

A :class:`PlacementProblem` bundles what Sec IV-A's cost model needs: the
chip (topology + bank capacities + latencies), the VCs with their miss
curves and per-thread access rates (``a_{t,d}``), and the thread list.
A :class:`PlacementSolution` is what any scheme produces: VC sizes and
per-bank allocations, plus thread-to-core assignments.

Units: capacity in bytes, access rates in accesses per kilo-instruction
(aggregated over the interval — only ratios matter), distance in hops,
latency in cycles.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.geometry.mesh import Topology
from repro.vcache.virtual_cache import VirtualCache


@dataclass(frozen=True)
class ThreadSpec:
    """One schedulable thread and the VCs it accesses."""

    thread_id: int
    process_id: int
    #: vc_id -> accesses per kilo-instruction (the a_{t,d} of Eq 1/2).
    vc_accesses: dict[int, float]
    #: Grouping key for the "clustered" external scheduler: threads with the
    #: same key (benchmark name) are placed adjacently, reproducing the
    #: paper's "applications grouped by type" (Sec II-B, Sec VI-A).
    cluster_key: str = ""

    @property
    def total_accesses(self) -> float:
        return sum(self.vc_accesses.values())


@dataclass
class PlacementProblem:
    """Inputs to one reconfiguration."""

    config: SystemConfig
    topology: Topology
    vcs: list[VirtualCache]
    threads: list[ThreadSpec]
    #: Memory latency constant used by Eq 1 during allocation (zero-load
    #: DRAM + average on-chip distance to a controller, in cycles).
    mem_latency: float = 160.0

    def __post_init__(self) -> None:
        if self.topology.tiles != self.config.tiles:
            raise ValueError(
                f"topology has {self.topology.tiles} tiles but config "
                f"says {self.config.tiles}"
            )
        if len(self.threads) > self.config.tiles:
            raise ValueError(
                f"{len(self.threads)} threads exceed {self.config.tiles} cores"
            )
        ids = [vc.vc_id for vc in self.vcs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate VC ids")
        # vc_id -> {thread_id: rate > 0} in thread order: one pass here
        # instead of one thread-list scan per accessors_of() call.  A
        # plain attribute, not a field, so equality and content digests
        # never see it.
        index: dict[int, dict[int, float]] = {}
        for thread in self.threads:
            for vc_id, rate in thread.vc_accesses.items():
                if rate > 0:
                    index.setdefault(vc_id, {})[thread.thread_id] = rate
        self._accessors = index
        #: The one memo slot for values derived from this problem's
        #: content (its digest, its sketch banks), filled on first use.
        #: Like ``_accessors`` it is no field, so ``==``, ``replace`` and
        #: content digests never see it, and a ``replace`` copy starts
        #: with an empty one.
        self._memo: dict = {}

    @property
    def bank_bytes(self) -> int:
        return self.config.cache.bank_bytes

    @property
    def total_bytes(self) -> int:
        return self.config.llc_bytes

    @property
    def quantum(self) -> int:
        return self.config.scheduler.allocation_quantum

    def vc_by_id(self, vc_id: int) -> VirtualCache:
        for vc in self.vcs:
            if vc.vc_id == vc_id:
                return vc
        raise KeyError(f"no VC with id {vc_id}")

    def accessors_of(self, vc_id: int) -> dict[int, float]:
        """thread_id -> access rate into this VC (positive rates only, in
        thread order).  A fresh dict: callers may mutate it."""
        return dict(self._accessors.get(vc_id, ()))

    def accessor_rates(self, vc_id: int) -> Mapping[int, float]:
        """:meth:`accessors_of` without the copy, for callers that only
        read it: the index's own map, which must not be mutated."""
        return self._accessors.get(vc_id, {})


@dataclass
class PlacementSolution:
    """Outputs of one reconfiguration."""

    #: vc_id -> total bytes allocated.
    vc_sizes: dict[int, float] = field(default_factory=dict)
    #: vc_id -> {bank -> bytes}.
    vc_allocation: dict[int, dict[int, float]] = field(default_factory=dict)
    #: thread_id -> tile (core) id.
    thread_cores: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "PlacementSolution":
        """Deep-enough copy: mutating the clone's dicts never touches the
        original (what warm engines and the serving control plane hand out
        so callers cannot corrupt retained state)."""
        return PlacementSolution(
            vc_sizes=dict(self.vc_sizes),
            vc_allocation={
                vc_id: dict(per_bank)
                for vc_id, per_bank in self.vc_allocation.items()
            },
            thread_cores=dict(self.thread_cores),
        )

    def bank_usage(self, tiles: int) -> list[float]:
        """Total bytes placed in each bank."""
        usage = [0.0] * tiles
        for per_bank in self.vc_allocation.values():
            for bank, b in per_bank.items():
                usage[bank] += b
        return usage

    def validate(self, problem: PlacementProblem, tolerance: float = 1.0) -> None:
        """Assert physical feasibility: bank capacities respected, every
        thread on a distinct core, sizes consistent with allocations."""
        usage = self.bank_usage(problem.topology.tiles)
        for bank, used in enumerate(usage):
            if used > problem.bank_bytes + tolerance:
                raise AssertionError(
                    f"bank {bank} over capacity: {used} > {problem.bank_bytes}"
                )
        cores = list(self.thread_cores.values())
        if len(set(cores)) != len(cores):
            raise AssertionError("two threads share a core")
        for core in cores:
            if not 0 <= core < problem.topology.tiles:
                raise AssertionError(f"core {core} out of range")
        for vc_id, per_bank in self.vc_allocation.items():
            total = sum(per_bank.values())
            size = self.vc_sizes.get(vc_id, 0.0)
            if abs(total - size) > tolerance * problem.topology.tiles:
                raise AssertionError(
                    f"VC {vc_id}: allocation {total} != size {size}"
                )
