"""Synthetic LLC access streams that realize a target miss curve.

The trace-driven simulator and the monitor study need actual address
streams, not just curves.  We generate them with an **LRU stack-distance
model**: for a stream whose accesses have stack-distance distribution
``P(D <= s)``, an LRU cache of size ``s`` hits with probability
``P(D <= s)``; inverting the target miss curve therefore gives the
stack-distance distribution to sample from.

The generator keeps an exact LRU recency list and, per access, samples a
stack distance from the inverted curve, touching the line at that recency
depth (move-to-front).  Cost is O(depth) per access, so trace experiments
run at reduced footprint (sizes scale linearly; see the scaled-footprint
note in docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import numpy as np

from repro.cache.miss_curve import MissCurve
from repro.util.rng import child_rng
from repro.util.units import CACHE_LINE_BYTES
from repro.workloads.phased import Phase, PhasedProfile
from repro.workloads.profiles import SINGLE_THREADED, get_static_profile


def suggested_footprint(miss_curve: MissCurve, apki: float) -> float:
    """Reasonable footprint for a stream realizing *miss_curve*.

    Fitting apps touch ~1.5x their working set.  Streaming apps (high
    residual miss ratio at full coverage) must cycle a region well beyond
    any modeled cache, otherwise the cyclic re-touch at the footprint
    boundary would *hit* in a footprint-sized cache and break the curve.
    """
    residual = float(miss_curve(miss_curve.max_size)) / max(apki, 1e-9)
    effective = miss_curve.effective_footprint()
    if residual > 0.5:
        return max(4.0 * miss_curve.max_size, CACHE_LINE_BYTES)
    return max(1.5 * effective, float(CACHE_LINE_BYTES))


class StackDistanceStream:
    """Generates line addresses with a chosen LRU stack-distance profile.

    *miss_curve* is the target curve; *apki* its access intensity (misses
    can never exceed accesses, so ``miss_curve(0) <= apki``).  *footprint*
    bounds the distinct lines touched; distances beyond it are cold misses.
    *address_base* offsets the generated line addresses so concurrent
    streams never alias.
    """

    def __init__(
        self,
        miss_curve: MissCurve,
        apki: float,
        footprint_bytes: float | None = None,
        address_base: int = 0,
        seed: int = 1,
        distance_buckets: int = 64,
    ):
        if apki <= 0:
            raise ValueError("stream needs positive access intensity")
        self.miss_curve = miss_curve
        self.apki = apki
        if footprint_bytes is None:
            footprint_bytes = suggested_footprint(miss_curve, apki)
        self.footprint_lines = max(1, int(footprint_bytes // CACHE_LINE_BYTES))
        self.address_base = address_base
        self._rng = child_rng(seed, address_base & 0xFFFF)
        self._recency: list[int] = []
        self._resident: set[int] = set()
        self._next_cold = 0
        self._build_distance_table(distance_buckets)

    def _build_distance_table(self, buckets: int) -> None:
        """Tabulate the inverse CDF of stack distances.

        Hit ratio at size s: ``h(s) = 1 - m(s)/apki`` (with m in the same
        per-kilo-instruction units as apki).  We sample sizes on the curve's
        support, take h as the CDF over distances, and store (cdf, lines)
        pairs for inverse-transform sampling; the residual probability mass
        ``m(footprint)/apki`` produces cold misses.
        """
        max_size = min(self.miss_curve.max_size,
                       self.footprint_lines * CACHE_LINE_BYTES)
        sizes = np.linspace(0.0, max_size, buckets + 1)[1:]
        miss = np.asarray(self.miss_curve(sizes), dtype=np.float64)
        hit_cdf = np.clip(1.0 - miss / self.apki, 0.0, 1.0)
        hit_cdf = np.maximum.accumulate(hit_cdf)
        self._cdf = hit_cdf
        self._distances = np.maximum((sizes // CACHE_LINE_BYTES).astype(np.int64), 1)

    def _sample_distance(self) -> int | None:
        """Sample a stack distance in lines; ``None`` means cold miss."""
        u = self._rng.random()
        idx = int(np.searchsorted(self._cdf, u, side="left"))
        if idx >= len(self._distances):
            return None
        lo = 0 if idx == 0 else int(self._distances[idx - 1])
        hi = int(self._distances[idx])
        if hi <= lo:
            return hi
        return int(self._rng.integers(lo, hi)) + 1

    def _cold_address(self) -> int:
        addr = self.address_base + self._next_cold
        self._next_cold = (self._next_cold + 1) % self.footprint_lines
        return addr

    def next_address(self) -> int:
        """Generate the next line address of the stream."""
        distance = self._sample_distance()
        if distance is None or distance > len(self._recency):
            addr = self._cold_address()
            # A re-touched cold address may still be in the recency list.
            if addr in self._resident:
                self._recency.remove(addr)
                self._resident.discard(addr)
        else:
            addr = self._recency.pop(distance - 1)
            self._resident.discard(addr)
        self._recency.insert(0, addr)
        self._resident.add(addr)
        if len(self._recency) > self.footprint_lines:
            dropped = self._recency.pop()
            self._resident.discard(dropped)
        return addr

    def addresses(self, count: int) -> list[int]:
        """Generate *count* consecutive line addresses."""
        return [self.next_address() for _ in range(count)]


#: Seed-stream offset reserving an independent RNG lane for phase
#: schedules (mix generation uses low offsets; see repro.util.rng).
_PHASE_SEED_LANE = 0x7A5E

#: Default bounds on one phase's length, in instructions: 150M–600M keeps
#: each phase a few reconfiguration intervals long at the paper's 50 Mcycle
#: period, so both "runtime tracks phases" and "placement goes stale"
#: regimes are reachable by sweeping the period.
DEFAULT_PHASE_INSTRUCTIONS = (150e6, 600e6)


def random_phased_profile(
    seed: int,
    index: int = 0,
    pool: list[str] | None = None,
    phase_count: tuple[int, int] = (2, 4),
    phase_instructions: tuple[float, float] = DEFAULT_PHASE_INSTRUCTIONS,
) -> PhasedProfile:
    """Generate a seeded random phase schedule from a pool of static apps.

    Draws 2–4 phases (inclusive bounds from *phase_count*), each a static
    profile from *pool* (default: the single-threaded registry) active for
    a uniform-random instruction count in *phase_instructions*, rounded to
    whole megainstructions.  Consecutive phases always differ — including
    across the cycle wrap (last vs first), pool size permitting — because
    a repeated app would be one longer phase, not a phase change.  Fully
    determined by ``(seed, index)`` — the same pair reproduces the same
    schedule in any process, which is what makes phased experiment jobs
    cacheable.
    """
    if phase_count[0] < 1 or phase_count[1] < phase_count[0]:
        raise ValueError(f"bad phase count bounds {phase_count}")
    rng = child_rng(seed, _PHASE_SEED_LANE + index)
    names = sorted(pool) if pool is not None else sorted(SINGLE_THREADED)
    if len(names) < 2:
        raise ValueError("phase generation needs at least two distinct apps")
    n_phases = int(rng.integers(phase_count[0], phase_count[1] + 1))
    lo, hi = phase_instructions
    phases: list[Phase] = []
    previous: str | None = None
    for position in range(n_phases):
        excluded = {previous}
        if position == n_phases - 1 and phases:
            # The schedule cycles: the last phase wraps into the first,
            # so their apps must differ too (unless the pool is too small
            # to allow it).
            excluded.add(phases[0].profile.name)
        candidates = [n for n in names if n not in excluded]
        if not candidates:
            candidates = [n for n in names if n != previous]
        app = candidates[int(rng.integers(0, len(candidates)))]
        length = float(np.round(rng.uniform(lo, hi) / 1e6) * 1e6)
        phases.append(Phase(get_static_profile(app), length))
        previous = app
    label = "~".join(p.profile.name for p in phases)
    return PhasedProfile(name=f"{label}#{seed}.{index}", phases=tuple(phases))
