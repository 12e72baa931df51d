"""Every process on a run queue is runnable.

``Scheduler.has_runnable`` is ``bool(runq)`` and ``_next_runnable`` a
plain ``popleft`` because every move out of ``SRUN`` (``_sleep``,
``SSTOP`` in ``check_signals``, ``do_exit``, a host crash) takes the
process off its queue.  These tests check that after every
``Machine.step``, on every machine of the cluster, over a migration
storm, a crash/reboot chaos cell and job control with SIGSTOP/SIGCONT.
"""

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.kernel.constants import SRUN, SSTOP
from repro.kernel.signals import SIGCONT, SIGSTOP
from repro.machine.machine import Machine
from repro.programs import start_network_daemons
from tests import test_faults
from tests.conftest import start_counter
from tests.test_golden_fingerprints import _hog_storm
from tests.test_recovery import FAST_KNOBS


@pytest.fixture(autouse=True)
def checked_steps(monkeypatch):
    """Assert the invariant after every machine step; count the steps."""
    step = Machine.step
    steps = []

    def checked(self):
        result = step(self)
        for machine in self.cluster.machines.values():
            stale = [(proc.pid, proc.state)
                     for proc in machine.kernel.scheduler.runq
                     if proc.state != SRUN]
            assert not stale, "%s queues non-runnable %r" % (machine.name,
                                                             stale)
        steps.append(self.name)
        return result

    monkeypatch.setattr(Machine, "step", checked)
    return steps


def test_storm_queues_only_runnable_processes(checked_steps):
    site = _hog_storm()
    assert len(checked_steps) > 500
    text = "".join(site.console(host) for host in site.cluster.hosts())
    assert text.count("checksum=") == 32


def test_crash_and_reboot_leave_no_stale_queue_entry(checked_steps):
    """A chaos cell in which loadd's target host crashes, then a host
    that crashes with runnable and sleeping processes and reboots."""
    test_faults._loadd_scenario("loadd.send crash n=1 target=schooner")
    site = MigrationSite(costs=CostModel(**FAST_KNOBS))
    site.run_quiet()
    brick = site.machine("brick")
    start_counter(site)  # asleep on its terminal
    site.start("brick", "/bin/cpuhog", ["cpuhog", "500000"], uid=100)
    site.run(until_us=site.cluster.wall_time_us() + 50_000)
    assert brick.kernel.scheduler.runq  # the hog, between its slots
    site.cluster.crash_host("brick")
    site.run_quiet(max_steps=20_000_000)
    site.cluster.reboot_host("brick")
    start_network_daemons(brick)
    hog = site.start("brick", "/bin/cpuhog", ["cpuhog", "2000"], uid=100)
    site.run_until(lambda: hog.exited, max_steps=20_000_000)
    assert hog.exit_status == 0


def test_stop_and_continue_keep_the_queue_runnable(checked_steps):
    """SIGSTOP reaches a queued hog and a counter asleep on its
    terminal; SIGCONT puts both back; both finish their work."""
    site = MigrationSite()
    site.run_quiet()
    kernel = site.machine("brick").kernel
    counter = start_counter(site)
    hogs = [site.start("brick", "/bin/cpuhog", ["cpuhog", "20000"],
                       uid=100) for __ in range(2)]
    site.run(until_us=site.cluster.wall_time_us() + 50_000)
    for handle in [counter] + hogs[:1]:
        kernel.post_signal(handle.proc, SIGSTOP)
    site.run(until_us=site.cluster.wall_time_us() + 100_000)
    assert counter.proc.state == SSTOP and hogs[0].proc.state == SSTOP
    assert hogs[0].proc not in kernel.scheduler.runq
    for handle in [counter] + hogs[:1]:
        kernel.post_signal(handle.proc, SIGCONT)
    site.type_at("brick", "one\n")
    site.run_until(lambda: all(hog.exited for hog in hogs)
                   and site.console("brick").count("> ") >= 2,
                   max_steps=20_000_000)
    assert all(hog.exit_status == 0 for hog in hogs)
