"""Engine performance instrumentation.

The simulator distinguishes two kinds of time: **virtual** time (what
the cost model charges, what the figures report) and **real** time
(how long the host takes to compute it).  This package instruments the
second kind: the cluster driver and the VM decode cache report their
work through a :class:`PerfCounters` object owned by the cluster, and
``benchmarks/bench_perf_scale.py`` turns those counters into
``BENCH_perf.json``.

Nothing in here may ever influence virtual time — the counters are
observation only.
"""

from repro.perf.counters import PerfCounters

__all__ = ["PerfCounters"]
