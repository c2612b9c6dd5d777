"""DRAM timing: zero-load latency plus bandwidth-dependent queueing.

Table 2 gives 120-cycle zero-load latency and 12.8 GB/s per channel.  The
case study (Sec II-B) depends on bandwidth feedback: when omnet's misses
disappear under Jigsaw/CDCS, milc speeds up "because omnet does not consume
memory bandwidth anymore".  We capture that with an M/D/1-style queueing
term on channel utilization; the analytic engine closes the IPC <-> demand
fixed point (model/system.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.config import MemoryConfig
from repro.util.units import CACHE_LINE_BYTES


@dataclass(frozen=True)
class DramModel:
    """Latency model for one memory channel population."""

    config: MemoryConfig
    #: Utilization ceiling: demand beyond this is throttled (row-buffer and
    #: refresh overheads keep real channels below unit efficiency).
    max_utilization: float = 0.90
    #: Mean service time of one line transfer, used by the queueing term.
    line_bytes: int = CACHE_LINE_BYTES

    def service_cycles_per_line(self) -> float:
        """Cycles one channel needs to transfer one cache line."""
        return self.line_bytes / self.config.bytes_per_cycle_per_channel

    def total_bytes_per_cycle(self) -> float:
        """Aggregate chip bandwidth over all channels."""
        return self.config.controllers * self.config.bytes_per_cycle_per_channel

    def utilization(self, demand_bytes_per_cycle: float) -> float:
        """Aggregate channel utilization for a given demand (clamped)."""
        if demand_bytes_per_cycle < 0:
            raise ValueError("demand cannot be negative")
        capacity = self.total_bytes_per_cycle()
        return min(demand_bytes_per_cycle / capacity, self.max_utilization)

    def queueing_delay(self, demand_bytes_per_cycle: float) -> float:
        """Extra cycles per access from channel contention.

        M/D/1 waiting time: ``rho / (2 (1 - rho))`` service times.  At low
        load this vanishes; near saturation it dominates — which is what
        throttles streaming apps sharing the chip.  Utilization is capped
        just below 1 (not at ``max_utilization``) so that over-demand maps
        to a large-but-finite latency the IPC fixed point can push against.
        """
        if demand_bytes_per_cycle < 0:
            raise ValueError("demand cannot be negative")
        capacity, service = self._constants
        rho = min(demand_bytes_per_cycle / capacity, 0.99)
        return service * rho / (2.0 * (1.0 - rho))

    def queueing_delay_batch(self, demand_bytes_per_cycle: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`queueing_delay` over a float64 demand array.

        Element *i* is bitwise-identical to
        ``queueing_delay(float(demand[i]))`` — the same divide, clamp, and
        M/D/1 expression applied elementwise, so the stacked bandwidth
        fixed point reproduces the per-thread solve exactly.
        """
        demand = demand_bytes_per_cycle
        if (demand < 0).any():
            raise ValueError("demand cannot be negative")
        capacity, service = self._constants
        rho = np.minimum(demand / capacity, 0.99)
        return service * rho / (2.0 * (1.0 - rho))

    @cached_property
    def _constants(self) -> tuple[float, float]:
        """(bytes per cycle, cycles per line), read once per model."""
        return self.total_bytes_per_cycle(), self.service_cycles_per_line()

    def access_latency(self, demand_bytes_per_cycle: float = 0.0) -> float:
        """Average DRAM access latency (excluding on-chip hops to the MC)."""
        return self.config.zero_load_latency + self.queueing_delay(
            demand_bytes_per_cycle
        )

