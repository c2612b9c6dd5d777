"""Core model: the analytic CPI model."""

from repro.cores.ooo_core import CoreModel

__all__ = ["CoreModel"]
