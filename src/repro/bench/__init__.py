"""Measurement drivers for the paper's evaluation (section 6).

Each ``figN()`` function in :mod:`repro.bench.figures` rebuilds the
testbed, runs the paper's workload, and returns measured virtual-time
results together with the values the paper reports, so the benchmark
suite and EXPERIMENTS.md are generated from one source of truth.
:func:`scan_checked` is the driver check the tests and the benchmark
scripts share.
"""

from repro.bench.figures import (fig1, fig2, fig3, fig4,
                                 ablation_daemon_vs_rsh,
                                 ablation_polling_interval,
                                 ablation_name_storage,
                                 ablation_namei_cache,
                                 app_load_balancing,
                                 ext_compat_ids,
                                 ext_socket_migration)


class _Scan:
    """The O(M) reference scan, replayed beside one drive."""

    def __init__(self, cluster, max_steps, until_us, predicate):
        self.cluster, self.max_steps = cluster, max_steps
        self.until_us, self.predicate = until_us, predicate
        self.current = None  #: the sticky burst machine
        self.steps = 0
        self.asked = self.held = False  #: the predicate, since a step

    def ask(self):
        self.asked, self.held = True, self.predicate()
        return self.held

    def expect(self, doing, status=None):
        """Fail unless the scan would return ``status`` here (None: it
        would take a step), checking its bounds in its order."""
        if self.predicate is not None and not self.asked:
            want = "ask the predicate first"
        elif self.held:
            want = "return 'predicate'"
        elif self.until_us is not None \
                and self.cluster.wall_time_us() >= self.until_us:
            want = "return 'until'"
        elif self.steps >= self.max_steps:
            want = "return 'steps'"
        elif not any(m.has_work() for m in self.cluster.machines.values()):
            want = "return 'idle'"
        else:
            want = None
        if want != (status and "return %r" % status):
            raise AssertionError("drivers disagree: %s, scan would %s"
                                 % (doing, want or "step on"))

    def before_step(self, machine):
        doing = "stepped %s" % machine.name
        self.expect(doing)
        cluster, current = self.cluster, self.current
        working = [m for m in cluster.machines.values() if m.has_work()]
        horizon = min((cluster._lookahead_key(m) for m in working
                       if m is not current), default=(float("inf"), 0))
        if current not in working \
                or (current.next_time(), current.order) >= horizon:
            current = min(working, key=lambda m: (m.next_time(), m.order))
        if current is not machine:
            raise AssertionError("drivers disagree: %s, scan picks %s"
                                 % (doing, current.name))
        self.current = machine


def scan_checked(run):
    """Call ``run()`` once, with ``Cluster._run`` and ``Machine.step``
    patched to check every step against the O(M) reference scan, and
    return its result.  Before each step that does work, the scan's
    pick (the sticky burst machine while its key is below its peers'
    lookahead horizon, else the laggard by ``(next_time, order)``) and
    its bounds (predicate, ``until_us``, ``max_steps``, in that order,
    also after the last step) are recomputed; the first divergence
    raises AssertionError."""
    from repro.machine.cluster import Cluster
    from repro.machine.machine import Machine
    drive, step = Cluster._run, Machine.step
    scans = {}

    def checked_run(cluster, max_steps, until_us=None, predicate=None):
        scan = scans[cluster] = _Scan(cluster, max_steps, until_us,
                                      predicate)
        try:
            status = drive(cluster, max_steps, until_us=until_us,
                           predicate=None if predicate is None
                           else scan.ask)
        finally:
            del scans[cluster]
        scan.expect("returned %r" % status, status)
        return status

    def checked_step(machine):
        scan = scans.get(machine.cluster)
        if scan is None or not machine.has_work():
            return step(machine)
        scan.before_step(machine)
        stepped = step(machine)
        if stepped:
            scan.steps += 1
            scan.asked = False
        return stepped

    Cluster._run, Machine.step = checked_run, checked_step
    try:
        return run()
    finally:
        Cluster._run, Machine.step = drive, step


__all__ = ["scan_checked", "fig1", "fig2", "fig3", "fig4",
           "ablation_daemon_vs_rsh", "ablation_polling_interval",
           "ablation_name_storage", "ablation_namei_cache",
           "app_load_balancing", "ext_compat_ids",
           "ext_socket_migration"]
