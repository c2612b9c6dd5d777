"""Miss-curve monitors: conventional UMONs and the paper's GMONs (Sec IV-G).

Both monitors observe a (sampled) stream of line addresses and maintain a
small LRU tag array with per-way hit counters; the position of a hit in the
LRU stack gives the stack distance, from which a miss curve follows.

* :class:`UMon` is the utility monitor of Qureshi & Patt: every way models
  the same capacity (``cache_size / ways``), so fine granularity over a
  large LLC needs prohibitively many ways (512 for 64 KB grain on 32 MB).

* :class:`GMon` adds a **limit register per way**: when tags shift down the
  stack, a tag whose 16-bit hash exceeds the next way's limit is discarded
  instead of shifted.  This makes the per-way sampling rate decay
  geometrically (rate ``gamma**w`` at way *w*), so each deeper way models
  geometrically more capacity — fine detail at small sizes, full-LLC
  coverage at the tail, with only 64 ways.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cache.miss_curve import MissCurve
from repro.util.hashing import mix64, sample_fraction, tag_hash16


class _StackMonitor:
    """Shared machinery: a set-associative array of 16-bit hashed tags kept
    in LRU-stack order per set, with per-way hit counters."""

    def __init__(self, sets: int, ways: int, seed: int):
        if sets <= 0 or ways <= 0:
            raise ValueError("monitor needs positive sets and ways")
        self.sets = sets
        self.ways = ways
        self.seed = seed
        # stacks[s] is a list of hashed tags, most-recently-used first.
        self._stacks: list[list[int]] = [[] for _ in range(sets)]
        self.hit_counters = np.zeros(ways, dtype=np.int64)
        self.sampled_accesses = 0

    def reset(self) -> None:
        self._stacks = [[] for _ in range(self.sets)]
        self.hit_counters[:] = 0
        self.sampled_accesses = 0

    def _set_index(self, address: int) -> int:
        return mix64(address, self.seed + 1) % self.sets

    def _survives(self, tag: int, way: int) -> bool:
        """Whether *tag* survives the shift into *way* (UMONs: always)."""
        return True

    def observe(self, address: int) -> None:
        """Feed one (already sampled) line address to the monitor."""
        self.sampled_accesses += 1
        stack = self._stacks[self._set_index(address)]
        tag = tag_hash16(address, self.seed)
        try:
            depth = stack.index(tag)
        except ValueError:
            depth = -1
        if depth >= 0:
            self.hit_counters[depth] += 1
            del stack[depth]
        # Insert at MRU; shifted tags must survive each way's limit check.
        stack.insert(0, tag)
        # The insertion pushed shallower tags down one way; apply the
        # survival filter top-down, stopping at the first discard (the
        # discard opens a hole, so deeper tags stop shifting -- Sec IV-G).
        # On a hit at depth d only positions 1..d moved; on a miss all did.
        deepest_moved = depth if depth >= 0 else min(len(stack), self.ways) - 1
        for way in range(1, deepest_moved + 1):
            if not self._survives(stack[way], way):
                del stack[way]
                break
        del stack[self.ways :]


class UMon(_StackMonitor):
    """Conventional utility monitor: uniform capacity per way.

    *modeled_capacity* is the full cache capacity the monitor spans (each
    way models ``modeled_capacity / ways`` bytes).  *sample_rate* is the
    fraction of accesses fed to :meth:`access` that are monitored.
    """

    def __init__(
        self,
        modeled_capacity: float,
        ways: int = 256,
        sets: int = 16,
        seed: int = 7,
        line_bytes: int = 64,
    ):
        super().__init__(sets, ways, seed)
        if modeled_capacity <= 0:
            raise ValueError("modeled capacity must be positive")
        self.modeled_capacity = float(modeled_capacity)
        # The sample rate is fixed by the array geometry: a monitor with
        # sets x ways tags modeling `modeled_capacity` bytes must sample
        # raw_capacity / modeled_capacity of the stream so that measured
        # stack distances line up with the claimed per-way capacities.
        raw_capacity = sets * ways * line_bytes
        self.sample_rate = min(1.0, raw_capacity / self.modeled_capacity)

    def access(self, address: int) -> None:
        """Feed a raw access; hash-sampling decides whether it is monitored."""
        if sample_fraction(address, self.sample_rate, self.seed + 2):
            self.observe(address)

    def way_capacities(self) -> np.ndarray:
        """Capacity modeled by each way (uniform for UMONs)."""
        return np.full(self.ways, self.modeled_capacity / self.ways)

    def way_weights(self) -> np.ndarray:
        """How many real hits each counted hit represents (uniform)."""
        return np.full(self.ways, 1.0 / self.sample_rate)

    def miss_curve(self, per_kilo_instructions: float | None = None) -> MissCurve:
        """Extract the monitored miss curve.

        Point *k* gives the misses if the stream ran in a cache of the
        cumulative capacity of ways ``0..k``; by stack inclusion these are
        ``total - hits_at_or_above(k)``.  If *per_kilo_instructions* is
        given, counts are divided by it (yielding MPKI).
        """
        weights = self.way_weights()
        total = self.sampled_accesses * (1.0 / self.sample_rate)
        cum_caps = np.cumsum(self.way_capacities())
        cum_hits = np.cumsum(self.hit_counters * weights)
        misses = np.maximum(total - cum_hits, 0.0)
        sizes = np.concatenate(([0.0], cum_caps))
        values = np.concatenate(([total], misses))
        if per_kilo_instructions:
            values = values / per_kilo_instructions
        return MissCurve(sizes, values).monotone_decreasing()


class GMon(UMon):
    """Geometric monitor (Sec IV-G).

    The per-way survival probability *gamma* makes the sampling rate at way
    *w* equal ``sample_rate * gamma**w``, so way *w* models
    ``raw_way_capacity / (sample_rate * gamma**w)`` bytes.  With 1024 tags,
    64 ways, a 1/64 sample rate and gamma ~ 0.95, coverage spans 64 KB to a
    full 32 MB LLC (the paper's 26x growth across ways).
    """

    def __init__(
        self,
        first_way_capacity: float,
        total_capacity: float,
        ways: int = 64,
        sets: int = 16,
        seed: int = 7,
        line_bytes: int = 64,
    ):
        if first_way_capacity <= 0 or total_capacity < first_way_capacity:
            raise ValueError("need 0 < first_way_capacity <= total_capacity")
        super().__init__(
            modeled_capacity=total_capacity,
            ways=ways,
            sets=sets,
            seed=seed,
            line_bytes=line_bytes,
        )
        # Geometric monitors sample at the *first way's* rate; deeper ways
        # thin the stream further via the limit registers.
        raw_way_capacity = sets * line_bytes  # tags per way x line size
        self.sample_rate = min(1.0, raw_way_capacity / first_way_capacity)
        self.gamma = solve_gamma(first_way_capacity, total_capacity, ways)
        # Per-way survival limits (hash < limit survives), as 16-bit values.
        self._limits = [
            int(min(1.0, self.gamma) * 0xFFFF) for _ in range(ways)
        ]
        self._first_way_capacity = float(first_way_capacity)

    def _survives(self, tag: int, way: int) -> bool:
        # An independent hash of the tag decides survival into `way`; using
        # the tag itself would correlate survival with set indexing.
        return (mix64(tag, self.seed + 3 + way) & 0xFFFF) <= self._limits[way]

    def way_capacities(self) -> np.ndarray:
        rates = self.sample_rate * np.power(self.gamma, np.arange(self.ways))
        raw = self._first_way_capacity * self.sample_rate  # == sets*line_bytes
        return raw / rates

    def way_weights(self) -> np.ndarray:
        rates = self.sample_rate * np.power(self.gamma, np.arange(self.ways))
        return 1.0 / rates


def solve_gamma(
    first_way_capacity: float, total_capacity: float, ways: int
) -> float:
    """Choose gamma so *ways* geometric ways cover *total_capacity*.

    Solves ``first * sum(gamma**-w for w in 0..ways-1) = total`` by
    bisection on gamma in (0, 1].  gamma = 1 degenerates to a UMON.
    """
    target = total_capacity / first_way_capacity
    if target <= ways:  # uniform ways already cover it
        return 1.0

    def coverage(gamma: float) -> float:
        return float(np.sum(np.power(gamma, -np.arange(ways))))

    lo, hi = 0.5, 1.0
    while coverage(lo) < target:
        lo *= 0.9
        if lo < 1e-3:
            raise ValueError("cannot cover total capacity with these ways")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if coverage(mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def required_umon_ways(
    total_capacity: float, granularity: float
) -> int:
    """Ways a conventional UMON needs for *granularity* resolution over
    *total_capacity* (the paper's example: 32 MB / 64 KB = 512 ways)."""
    return math.ceil(total_capacity / granularity)
