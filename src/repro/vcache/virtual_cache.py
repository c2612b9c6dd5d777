"""Virtual caches (VCs): the software-visible unit of capacity.

CDCS gangs bank partitions into *virtual caches* (Jigsaw's "shares",
Sec III).  The runtime creates one thread-private VC per thread, one
per-process VC per process, and one global VC; pages are mapped to VCs by
classification, and each VC is sized and placed every reconfiguration.

A :class:`VirtualCache` carries its identity, the access rates of the
threads that use it (the ``a_{t,d}`` of Eq 1/2), its miss curve, and its
current placement (bytes per bank).  It is an immutable record: a
changed VC is a new record, so problems can share every unchanged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.cache.miss_curve import MissCurve


class VCKind(Enum):
    """VC classes of Sec III ("Types of VCs")."""

    THREAD = "thread"
    PROCESS = "process"
    GLOBAL = "global"


@dataclass(frozen=True)
class VirtualCache:
    """One virtual cache and its current configuration.

    ``accesses`` maps thread id -> access rate (accesses per kilo-instruction
    or per interval — units only need to be consistent across VCs).
    ``allocation`` maps bank id -> bytes currently allocated there.  Both
    are filled before construction and never mutated after it: records
    are shared between problems, and digests are memoized on them.
    """

    vc_id: int
    kind: VCKind
    process_id: int
    miss_curve: MissCurve
    accesses: dict[int, float] = field(default_factory=dict)
    allocation: dict[int, float] = field(default_factory=dict)
    #: Thread that owns a THREAD-kind VC (None otherwise).
    owner_thread: int | None = None

    @property
    def size(self) -> float:
        """Total allocated bytes across banks."""
        return sum(self.allocation.values())

    @property
    def total_accesses(self) -> float:
        return sum(self.accesses.values())

    @property
    def intensity_capacity_product(self) -> float:
        """Sec IV-E tie-break: accesses x size; big, hot VCs place first."""
        return self.total_accesses * self.size

    def misses(self) -> float:
        """Miss rate at the current total size (same units as accesses)."""
        return float(self.miss_curve(self.size))

    def access_fraction(self, bank: int) -> float:
        """Fraction of this VC's accesses served by *bank* (the VTB spreads
        accesses in proportion to per-bank capacity, Sec III)."""
        total = self.size
        if total <= 0:
            return 0.0
        return self.allocation.get(bank, 0.0) / total

    def __repr__(self) -> str:
        return (
            f"VirtualCache(id={self.vc_id}, {self.kind.value}, "
            f"proc={self.process_id}, size={self.size / 1024:.0f}KB, "
            f"banks={len(self.allocation)})"
        )
