"""Deterministic fault injection for the migration pipeline.

The injector is threaded through the kernel and network layers as
named *sites* (``dump.write.aout``, ``net.connect``, ...).  A seeded
:class:`FaultPlan` decides, purely from per-rule hit counters, which
calls fail, stall or hand back corrupted bytes — so a chaos run
replays bit-identically from run to run.
"""

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.injector import FaultInjector

__all__ = ["FaultPlan", "FaultRule", "FaultInjector"]
