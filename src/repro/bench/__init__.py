"""Measurement drivers for the paper's evaluation (section 6).

Each ``figN()`` function in :mod:`repro.bench.figures` rebuilds the
testbed, runs the paper's workload, and returns measured virtual-time
results together with the values the paper reports, so the benchmark
suite and EXPERIMENTS.md are generated from one source of truth.
:func:`drivers_agree` is the cross-driver check the tests and the
benchmark scripts share.
"""

from repro.bench.figures import (fig1, fig2, fig3, fig4,
                                 ablation_daemon_vs_rsh,
                                 ablation_polling_interval,
                                 ablation_name_storage,
                                 ablation_namei_cache,
                                 app_load_balancing,
                                 ext_compat_ids,
                                 ext_socket_migration)

#: the two simulation drivers: the O(M) reference scan and the lazy
#: heap (see repro.machine.cluster); the VM is chosen separately
DRIVERS = ("scan", "fast")


def drivers_agree(run):
    """Call ``run(engine)`` once per simulation driver, check the
    summaries it returns are equal, and return the heap driver's."""
    summaries = {engine: run(engine) for engine in DRIVERS}
    if summaries["scan"] != summaries["fast"]:
        raise AssertionError("drivers disagree")
    return summaries["fast"]


__all__ = ["DRIVERS", "drivers_agree", "fig1", "fig2", "fig3", "fig4",
           "ablation_daemon_vs_rsh", "ablation_polling_interval",
           "ablation_name_storage", "ablation_namei_cache",
           "app_load_balancing", "ext_compat_ids",
           "ext_socket_migration"]
