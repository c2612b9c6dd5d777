"""Partitioned LLC banks.

The paper partitions each 512 KB bank into up to 64 line-granularity
partitions using Vantage [53].  Vantage's value is that it enforces
partition sizes with negligible hardware and near-full associativity; its
*behavioral contract* — each partition behaves like an isolated cache of
its configured size — is what CDCS builds on.  We implement that contract
directly: each bank holds named partitions, each an LRU cache with a
line-count quota (see the substitution notes in docs/ARCHITECTURE.md).

Banks also expose the hooks reconfiguration needs (Sec IV-H): lines can be
extracted ("moved") with their coherence state, partitions can be resized
or retired, and a background walker can scan the array incrementally.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class BankStats:
    """Per-bank access counters (monotonic; snapshot-diff for intervals)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    moves_out: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass
class _Partition:
    quota_lines: int
    lru: "OrderedDict[int, bool]" = field(default_factory=OrderedDict)
    # values are dirty bits; OrderedDict preserves LRU order (MRU last).


class PartitionedBank:
    """One LLC bank: a set of partitions, each an LRU cache with a quota.

    Addresses are line addresses (already shifted; the bank never sees byte
    offsets).  A line lives in exactly one partition of one bank — the VTB
    guarantees a single lookup location (Sec III).
    """

    def __init__(self, bank_id: int, capacity_lines: int):
        if capacity_lines <= 0:
            raise ValueError("bank capacity must be positive")
        self.bank_id = bank_id
        self.capacity_lines = capacity_lines
        self._partitions: dict[int, _Partition] = {}
        self.stats = BankStats()

    # -- configuration ------------------------------------------------------

    def configure_partition(
        self, partition_id: int, quota_lines: int, lazy: bool = False
    ) -> None:
        """Create or resize a partition.

        With ``lazy=False``, shrinking below current occupancy evicts LRU
        lines immediately.  With ``lazy=True`` (reconfigurations), resident
        lines stay put even above the new quota — Vantage demotes lazily,
        and during incremental reconfigurations the overflow drains through
        demand moves and background invalidations instead (Sec IV-H).
        The sum of quotas may not exceed the bank capacity.
        """
        if quota_lines < 0:
            raise ValueError("quota cannot be negative")
        other = sum(
            p.quota_lines for pid, p in self._partitions.items() if pid != partition_id
        )
        if other + quota_lines > self.capacity_lines:
            raise ValueError(
                f"bank {self.bank_id}: quotas {other + quota_lines} exceed "
                f"capacity {self.capacity_lines}"
            )
        part = self._partitions.get(partition_id)
        if part is None:
            if quota_lines == 0:
                return
            self._partitions[partition_id] = _Partition(quota_lines)
            return
        part.quota_lines = quota_lines
        if not lazy:
            while len(part.lru) > quota_lines:
                part.lru.popitem(last=False)
                self.stats.evictions += 1
        if quota_lines == 0 and not part.lru:
            del self._partitions[partition_id]

    def partition_ids(self) -> list[int]:
        return sorted(self._partitions)

    def quota(self, partition_id: int) -> int:
        part = self._partitions.get(partition_id)
        return part.quota_lines if part else 0

    def occupancy(self, partition_id: int | None = None) -> int:
        """Lines resident in one partition (or the whole bank)."""
        if partition_id is not None:
            part = self._partitions.get(partition_id)
            return len(part.lru) if part else 0
        return sum(len(p.lru) for p in self._partitions.values())

    # -- access path --------------------------------------------------------

    def access(self, line_addr: int, partition_id: int, write: bool = False) -> bool:
        """Look up *line_addr* in *partition_id*; fill on miss.

        Returns True on hit.  A miss inserts the line, evicting the
        partition's LRU line if the partition is at quota (no interference
        across partitions — the Vantage contract).
        """
        part = self._partitions.get(partition_id)
        if part is None:
            raise KeyError(
                f"bank {self.bank_id} has no partition {partition_id}"
            )
        if line_addr in part.lru:
            self.stats.hits += 1
            dirty = part.lru.pop(line_addr) or write
            part.lru[line_addr] = dirty
            return True
        self.stats.misses += 1
        self._insert(part, line_addr, write)
        return False

    def probe(self, line_addr: int, partition_id: int) -> bool:
        """Lookup without side effects (no fill, no LRU update, no stats)."""
        part = self._partitions.get(partition_id)
        return part is not None and line_addr in part.lru

    def fill(self, line_addr: int, partition_id: int, dirty: bool = False) -> None:
        """Insert a line without counting an access (used by moves)."""
        part = self._partitions.get(partition_id)
        if part is None:
            raise KeyError(f"bank {self.bank_id} has no partition {partition_id}")
        if line_addr in part.lru:
            prev = part.lru.pop(line_addr)
            part.lru[line_addr] = prev or dirty
            return
        self._insert(part, line_addr, dirty)

    def _insert(self, part: _Partition, line_addr: int, dirty: bool) -> None:
        if part.quota_lines == 0:
            return  # zero-quota partitions hold nothing (bypass)
        while len(part.lru) >= part.quota_lines:
            part.lru.popitem(last=False)
            self.stats.evictions += 1
        part.lru[line_addr] = dirty
        self.stats.insertions += 1

    def extract(self, line_addr: int, partition_id: int) -> bool | None:
        """Remove a line, returning its dirty state (None if absent).

        This is the "MOVE response" of Fig 10a: the old bank hands the line
        and its coherence state to the new bank and invalidates its copy.
        """
        part = self._partitions.get(partition_id)
        if part is None or line_addr not in part.lru:
            return None
        dirty = part.lru.pop(line_addr)
        self.stats.moves_out += 1
        return dirty

    def invalidate(self, line_addr: int, partition_id: int) -> bool:
        """Invalidate one line; returns True if it was present."""
        part = self._partitions.get(partition_id)
        if part is None or line_addr not in part.lru:
            return False
        part.lru.pop(line_addr)
        self.stats.invalidations += 1
        return True

    # -- walking (for background invalidations, Sec IV-H) --------------------

    def resident_lines(self, partition_id: int) -> list[int]:
        """Snapshot of line addresses in a partition, LRU order first."""
        part = self._partitions.get(partition_id)
        if part is None:
            return []
        return list(part.lru)

    def all_lines(self) -> list[tuple[int, int]]:
        """Snapshot of (partition_id, line_addr) for every resident line."""
        out: list[tuple[int, int]] = []
        for pid, part in self._partitions.items():
            out.extend((pid, addr) for addr in part.lru)
        return out
