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
from dataclasses import InitVar, dataclass, field
from itertools import compress, count
from operator import is_not

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


#: The :attr:`PlacementProblem._memo` key of the per-record digest lists
#: (one list of VC digests, one of thread digests) that
#: :func:`repro.service.messages.problem_digest` fills.  A derived problem
#: starts from its base's lists with its changed positions set to ``None``.
RECORD_DIGESTS = "record_digests"


class _Frame:
    """What a problem shares with every problem derived from it: the
    positions of its VC and thread ids, which derivation never changes,
    and a memo for values that depend only on the config, the topology,
    ``mem_latency`` and the record counts (the digest header)."""

    __slots__ = ("vc_positions", "thread_positions", "memo")

    def __init__(self, vc_positions: dict[int, int], thread_positions: dict[int, int]):
        self.vc_positions = vc_positions
        self.thread_positions = thread_positions
        self.memo: dict = {}


@dataclass
class PlacementProblem:
    """Inputs to one reconfiguration.

    Pass *base*, the problem this one was patched from, to derive it: when
    :func:`changed_records` can diff the two, the new problem copies the
    base's accessor index and rebuilds only the maps its changed threads
    touch, and shares the base's id positions and digest header, so it
    costs O(changed records).  A derived problem keeps no reference to its
    base, and it equals, index included, the problem built without one.
    """

    config: SystemConfig
    topology: Topology
    vcs: list[VirtualCache]
    threads: list[ThreadSpec]
    #: Memory latency constant used by Eq 1 during allocation (zero-load
    #: DRAM + average on-chip distance to a controller, in cycles).
    mem_latency: float = 160.0
    base: InitVar[PlacementProblem | None] = None

    def __post_init__(self, base: PlacementProblem | None) -> None:
        #: The one memo slot for values derived from this problem's
        #: content (its digest and record digests), filled on first use.
        #: Like ``_accessors`` it is no field, so ``==``, ``replace`` and
        #: content digests never see it, and a ``replace`` copy starts
        #: with an empty one.
        self._memo: dict = {}
        changes = None if base is None else changed_records(base, self)
        if changes is not None:
            self._derive(base, *changes)
            return
        if self.topology.tiles != self.config.tiles:
            raise ValueError(
                f"topology has {self.topology.tiles} tiles but config "
                f"says {self.config.tiles}"
            )
        if len(self.threads) > self.config.tiles:
            raise ValueError(
                f"{len(self.threads)} threads exceed {self.config.tiles} cores"
            )
        vc_positions = {vc.vc_id: i for i, vc in enumerate(self.vcs)}
        if len(vc_positions) != len(self.vcs):
            raise ValueError("duplicate VC ids")
        thread_positions = {
            thread.thread_id: i for i, thread in enumerate(self.threads)
        }
        if len(thread_positions) != len(self.threads):
            raise ValueError("duplicate thread ids")
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
        self._frame = _Frame(vc_positions, thread_positions)

    def _derive(
        self, base: PlacementProblem, vc_changed: list[int], thread_changed: list[int]
    ) -> None:
        """The index, positions and digest memos of *base* patched at the
        changed positions.  The base passed the checks this problem
        would repeat: same config, topology and ids."""
        self._frame = frame = base._frame
        index = dict(base._accessors)
        if thread_changed:
            # Rebuild the inner map of every VC a changed thread names,
            # before or after; every other map is shared.
            old_threads, threads = base.threads, self.threads
            changed: dict[int, ThreadSpec] = {}
            readers: dict[int, list[ThreadSpec]] = {}
            for position in thread_changed:
                thread = threads[position]
                changed[thread.thread_id] = thread
                for vc_id in old_threads[position].vc_accesses:
                    readers.setdefault(vc_id, [])
                for vc_id in thread.vc_accesses:
                    readers.setdefault(vc_id, []).append(thread)
            for vc_id, new_readers in readers.items():
                old = base._accessors.get(vc_id, {})
                inner = {}
                for thread_id, rate in old.items():
                    thread = changed.get(thread_id)
                    if thread is not None:
                        rate = thread.vc_accesses.get(vc_id, 0)
                        if not rate > 0:
                            continue
                    inner[thread_id] = rate
                added = False
                for thread in new_readers:
                    rate = thread.vc_accesses[vc_id]
                    if rate > 0 and thread.thread_id not in old:
                        inner[thread.thread_id] = rate
                        added = True
                if added:
                    # A new reader goes where its thread stands.
                    positions = frame.thread_positions
                    inner = dict(
                        sorted(inner.items(), key=lambda kv: positions[kv[0]])
                    )
                if inner:
                    index[vc_id] = inner
                else:
                    index.pop(vc_id, None)
        self._accessors = index
        digests = base._memo.get(RECORD_DIGESTS)
        if digests is not None:
            vc_digests, thread_digests = list(digests[0]), list(digests[1])
            for position in vc_changed:
                vc_digests[position] = None
            for position in thread_changed:
                thread_digests[position] = None
            self._memo[RECORD_DIGESTS] = (vc_digests, thread_digests)

    @property
    def bank_bytes(self) -> int:
        return self.config.cache.bank_bytes

    @property
    def total_bytes(self) -> int:
        return self.config.llc_bytes

    @property
    def quantum(self) -> int:
        return self.config.scheduler.allocation_quantum

    @property
    def vc_positions(self) -> Mapping[int, int]:
        """vc_id -> position in :attr:`vcs`; shared between derived
        problems, so it must not be mutated."""
        return self._frame.vc_positions

    @property
    def thread_positions(self) -> Mapping[int, int]:
        """thread_id -> position in :attr:`threads`; shared like
        :attr:`vc_positions`."""
        return self._frame.thread_positions

    def accessors_of(self, vc_id: int) -> dict[int, float]:
        """thread_id -> access rate into this VC (positive rates only, in
        thread order).  A fresh dict: callers may mutate it."""
        return dict(self._accessors.get(vc_id, ()))

    def accessor_rates(self, vc_id: int) -> Mapping[int, float]:
        """:meth:`accessors_of` without the copy, for callers that only
        read it: the index's own map, which must not be mutated."""
        return self._accessors.get(vc_id, {})


def changed_records(
    prev: PlacementProblem, problem: PlacementProblem
) -> tuple[list[int], list[int]] | None:
    """Positions of the VC and thread records of *problem* that are not
    the very same object in *prev*, as ``(vc positions, thread
    positions)`` in ascending order: O(records) pointer compares.

    Records are immutable, so a record shared by both problems has equal
    content in both.  ``None`` when the pair cannot be diffed this way:
    another config, topology or ``mem_latency`` object, other record
    counts, or a changed position whose id differs.  Callers then treat
    every record as changed.
    """
    if (
        prev.config is not problem.config
        or prev.topology is not problem.topology
        or prev.mem_latency is not problem.mem_latency
        or len(prev.vcs) != len(problem.vcs)
        or len(prev.threads) != len(problem.threads)
    ):
        return None
    old_vcs, vcs = prev.vcs, problem.vcs
    vc_changed = list(compress(count(), map(is_not, old_vcs, vcs)))
    for position in vc_changed:
        if old_vcs[position].vc_id != vcs[position].vc_id:
            return None
    old_threads, threads = prev.threads, problem.threads
    thread_changed = list(compress(count(), map(is_not, old_threads, threads)))
    for position in thread_changed:
        if old_threads[position].thread_id != threads[position].thread_id:
            return None
    return vc_changed, thread_changed


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
