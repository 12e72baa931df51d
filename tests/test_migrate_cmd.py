"""Tests for the migrate command and its rsh/daemon plumbing."""

import pytest

from repro.errors import ECHILD, EINTR
from repro.programs.exitcodes import EX_FAIL, EX_TRANSIENT
from repro.programs.pipeline import _run
from tests.conftest import start_counter


def finish_counter(site, host, expect):
    site.type_at(host, "two\n")
    site.run_until(lambda: expect in site.console(host))


def test_migrate_local_to_local(site):
    """Typed on brick, source brick, destination brick: no rsh."""
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    mh = site.migrate(handle.pid, "brick", "brick", typed_on="brick",
                      uid=100)
    assert mh.exit_status == 0
    restarted = site.find_restarted("brick")
    assert restarted is not None and restarted.is_vm()
    finish_counter(site, "brick", "r=3 s=3 k=3")


def test_migrate_local_dump_remote_restart(site):
    """Typed on brick, destination schooner: rsh runs restart there."""
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner",
                      typed_on="brick", uid=100)
    assert mh.exit_status == 0
    restarted = site.find_restarted("schooner")
    assert restarted is not None and restarted.is_vm()
    # the restarted process has no controlling terminal (rsh): its
    # stdio is the rsh connection, so terminal modes were lost —
    # exactly the paper's caveat about visual programs
    assert restarted.user.tty is None


def test_migrate_remote_dump_local_restart(site):
    """Typed on schooner, source brick: rsh runs dumpproc on brick;
    restart runs locally, so the terminal is preserved."""
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    mh = site.migrate(handle.pid, "brick", "schooner",
                      typed_on="schooner", uid=100)
    assert mh.exit_status == 0
    restarted = site.find_restarted("schooner")
    assert restarted is not None
    assert restarted.user.tty is site.machine("schooner").console
    finish_counter(site, "schooner", "r=3 s=3 k=3")


def test_migrate_fully_remote(site):
    """Typed on the file server, both endpoints remote: two rsh uses."""
    handle = start_counter(site)
    t0 = site.wall_seconds()
    mh = site.migrate(handle.pid, "brick", "schooner",
                      typed_on="brador", uid=100)
    elapsed = site.wall_seconds() - t0
    assert mh.exit_status == 0
    assert site.find_restarted("schooner") is not None
    # two rsh connection setups dominate: tens of seconds
    assert elapsed > 15


def test_migrate_is_much_slower_remote_than_local(site):
    """The Figure 4 effect, end to end."""
    h1 = start_counter(site)
    t0 = site.wall_seconds()
    site.migrate(h1.pid, "brick", "brick", typed_on="brick", uid=100)
    local_elapsed = site.wall_seconds() - t0

    h2 = site.start("schooner", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("schooner").count("> ") >= 1)
    t0 = site.wall_seconds()
    site.migrate(h2.pid, "schooner", "brick", typed_on="brador",
                 uid=100)
    remote_elapsed = site.wall_seconds() - t0
    assert remote_elapsed > 4 * local_elapsed


def test_migrate_daemon_beats_rsh(site):
    """Ablation A1: the migrationd path avoids the rsh setup cost."""
    h1 = start_counter(site)
    t0 = site.wall_seconds()
    mh = site.migrate(h1.pid, "brick", "schooner", typed_on="brador",
                      uid=100, use_daemon=True)
    daemon_elapsed = site.wall_seconds() - t0
    assert mh.exit_status == 0
    assert site.find_restarted("schooner") is not None

    h2 = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 2
                   or site.console("brick").count("> ") >= 1)
    t0 = site.wall_seconds()
    mh2 = site.migrate(h2.pid, "brick", "schooner", typed_on="brador",
                       uid=100, use_daemon=False)
    rsh_elapsed = site.wall_seconds() - t0
    assert mh2.exit_status == 0
    assert daemon_elapsed < rsh_elapsed / 3


def test_migrate_nonexistent_process_fails(site):
    mh = site.migrate(9999, "brick", "schooner", typed_on="brick",
                      uid=100, wait_resumed=False)
    site.run_until(lambda: mh.exited)
    assert mh.exit_status == 1
    assert "dump on brick failed" in site.console("brick")


def _drive_run_until_wait(gen):
    """Advance the pipeline's ``_run`` to its first ("wait",) yield."""
    op = gen.send(None)
    assert op[0] == "spawn"
    op = gen.send(42)  # the spawned child's pid
    assert op == ("wait",)
    return gen


def _finish(gen, reply):
    """Feed ``reply`` to the pending wait; answer writes; return value."""
    try:
        op = gen.send(reply)
        while True:
            assert op[0] == "write"
            op = gen.send(len(op[2]))
    except StopIteration as stop:
        return stop.value


def test_run_wait_echild_is_transient_not_fail():
    """Regression: wait() returning ECHILD means the child vanished
    without us reaping it — the command's outcome is *unknown*, so
    migrate must classify it transient (dumpproc is idempotent and a
    retry is safe), not permanent.  The old code took the generic
    error branch and gave up the whole migration."""
    gen = _drive_run_until_wait(
        _run("brick", "brick", ["dumpproc", "-p", "3"], "rsh"))
    assert _finish(gen, -ECHILD) == EX_TRANSIENT


def test_run_wait_other_errors_still_permanent():
    """The distinction matters both ways: a non-ECHILD wait error is
    still the permanent failure it always was."""
    gen = _drive_run_until_wait(
        _run("brick", "brick", ["dumpproc", "-p", "3"], "rsh"))
    assert _finish(gen, -EINTR) == EX_FAIL


def test_run_wait_skips_other_children():
    """A reaped sibling (some earlier retry's corpse) is not the
    answer: _run keeps waiting for *its* child."""
    gen = _drive_run_until_wait(
        _run("brick", "brick", ["dumpproc", "-p", "3"], "rsh"))
    op = gen.send((41, 0))  # somebody else's child
    assert op == ("wait",)
    assert _finish(gen, (42, 0)) == 0


def test_rsh_runs_simple_command(site):
    """rsh itself: run ps remotely, output relayed to local stdout."""
    status = site.run_command("brick", ["rsh", "schooner", "ps", "-a"],
                              uid=100)
    assert status == 0
    assert "COMMAND" in site.console("brick")


def test_rsh_to_unknown_host_fails(site):
    status = site.run_command("brick", ["rsh", "nowhere", "ps"],
                              uid=100)
    assert status == 1
    assert "connection refused" in site.console("brick")


def test_rsh_propagates_exit_status(site):
    status = site.run_command("brick",
                              ["rsh", "schooner", "kill", "badpid"],
                              uid=100)
    assert status == 1
