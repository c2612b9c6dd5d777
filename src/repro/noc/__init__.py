"""On-chip network: traffic-class accounting."""

from repro.noc.traffic import TrafficClass, TrafficCounter

__all__ = ["TrafficClass", "TrafficCounter"]
