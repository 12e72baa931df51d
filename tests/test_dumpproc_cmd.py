"""Tests for the dumpproc user command (section 4.4)."""

import pytest

from repro.kernel.constants import DUMPDIR
from repro.core.formats import FilesInfo, dump_file_names, FD_FILE
from tests.conftest import start_counter


def dump_and_read_info(site, handle, host="brick", uid=100):
    status = site.dumpproc(host, handle.pid, uid=uid, check=False)
    machine = site.machine(host)
    info = FilesInfo.unpack(
        machine.fs.read_file(dump_file_names(handle.pid)[1]))
    return status, info


def test_dumpproc_exits_zero_and_rewrites(site):
    handle = start_counter(site)
    status, info = dump_and_read_info(site, handle)
    assert status == 0
    # local paths were prefixed with /n/<machine>
    assert info.cwd == "/n/brick/tmp"
    out_entry = info.entries[3]
    assert out_entry.kind == FD_FILE
    assert out_entry.path == "/n/brick/tmp/counter.out"


def test_terminal_files_become_dev_tty(site):
    handle = start_counter(site)
    __, info = dump_and_read_info(site, handle)
    for fd in (0, 1, 2):
        assert info.entries[fd].path == "/dev/tty"


def test_symlinks_resolved_before_prefixing(site):
    """The section 4.3 scenario: a file opened through /u/<user>
    (a symlink to the file server) must be rewritten to its real
    location, not to /n/brick/u/<user> (which would nest /n)."""
    brador = site.machine("brador")
    brador.fs.install_file("/u2/alonso/input.txt", b"data")
    brador.fs.resolve_local("/u2/alonso/input.txt").uid = 100

    from repro.kernel.constants import O_RDONLY
    holder = {}

    def opener(argv, env):
        holder["fd"] = yield ("open", "/u/alonso/input.txt",
                              O_RDONLY, 0)
        while True:
            yield ("sleep", 30)

    # run a VM program doing the same so it is dumpable: reuse counter
    # but chdir'd through the symlink — instead, directly exercise the
    # rewriting logic by dumping a process whose file table includes
    # the symlinked path.  The counter opens its file relative to the
    # cwd, so start it with cwd under /u/alonso.
    handle = site.start("brick", "/bin/counter", uid=100,
                        cwd="/u/alonso")
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    __, info = dump_and_read_info(site, handle)
    # cwd /u/alonso is a symlink to the server; after resolution it
    # must be the real server path, already NFS-qualified
    assert info.cwd == "/n/brador/u2/alonso"
    assert info.entries[3].path == "/n/brador/u2/alonso/counter.out"


def test_no_nested_n_paths_ever(site):
    """After rewriting, no path may contain /n twice ("NFS does not
    allow this syntax")."""
    handle = site.start("brick", "/bin/counter", uid=100,
                        cwd="/u/kyrimis")
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    __, info = dump_and_read_info(site, handle)
    paths = [info.cwd] + [e.path for e in info.entries if e.is_file()]
    for path in paths:
        assert path.count("/n/") <= 1, path


def test_dumpproc_wrong_owner_fails(site):
    handle = start_counter(site, uid=100)
    status = site.run_command("brick",
                              ["dumpproc", "-p", str(handle.pid)],
                              uid=101)
    assert status == 1
    assert not handle.exited  # the victim survived
    assert "cannot signal" in site.console("brick")


def test_dumpproc_superuser_may_dump(site):
    handle = start_counter(site, uid=100)
    status = site.run_command("brick",
                              ["dumpproc", "-p", str(handle.pid)],
                              uid=0)
    assert status == 0
    assert handle.exited


def test_dumpproc_missing_pid_usage(site):
    assert site.run_command("brick", ["dumpproc"], uid=100) == 1
    assert "usage" in site.console("brick")


def test_dumpproc_nonexistent_pid(site):
    assert site.run_command("brick", ["dumpproc", "-p", "9999"],
                            uid=0) == 1


def test_dumpproc_times_out_on_undumpable_process(site):
    """A native victim terminates without writing dump files;
    dumpproc polls ten times (one second apart) and gives up."""
    brick = site.machine("brick")

    def sleeper(argv, env):
        while True:
            yield ("sleep", 60)

    brick.install_native_program("sleeper", sleeper)
    victim = brick.spawn("/bin/sleeper", uid=100)
    site.run(until_us=brick.clock.now_us + 10_000)
    t0 = brick.clock.now_us
    status = site.run_command("brick",
                              ["dumpproc", "-p", str(victim.pid)],
                              uid=100)
    # EX_TRANSIENT: a caller may retry (the victim could have just
    # been slow to get scheduled)
    assert status == 3
    assert "no dump appeared" in site.console("brick")
    # the ten 1-second sleeps really elapsed
    assert brick.clock.now_us - t0 >= 10_000_000


def test_dumpproc_polling_explains_real_vs_cpu_gap(site):
    """Figure 2's discrepancy: dumpproc sleeps while the victim dumps,
    so its real time far exceeds its CPU time."""
    handle = start_counter(site)
    brick = site.machine("brick")
    t0 = brick.clock.now_us
    dp = brick.spawn("/bin/dumpproc", ["dumpproc", "-p",
                                       str(handle.pid)], uid=100,
                     cwd="/tmp")
    site.run_until(lambda: dp.exited)
    real_us = brick.clock.now_us - t0
    cpu_us = dp.proc.cpu_us()
    assert real_us > 3 * cpu_us


@pytest.mark.parametrize("incremental", [False, True],
                         ids=["classic", "chunked"])
@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_dumpproc_rejects_a_stack_file_off_by_one_byte(incremental,
                                                       delta):
    """The stack file must be exactly header + body + registers +
    signal state long; one byte either way is a bad dump (transient).
    The victim is dumped by the kernel first, so dumpproc picks up
    the doctored dump through its already-dumped path."""
    from repro.core.api import MigrationSite
    from repro.core.formats import stack_is_chunked
    from repro.costmodel import CostModel
    from repro.kernel.signals import SIGDUMP
    from repro.programs.exitcodes import EX_TRANSIENT
    site = MigrationSite(costs=CostModel().with_overrides(
        incremental_dumps=incremental))
    site.run_quiet()
    handle = start_counter(site)
    brick = site.machine("brick")
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    site.run_until(lambda: handle.exited)
    stack_path = dump_file_names(handle.pid)[2]
    blob = brick.fs.read_file(stack_path)
    assert stack_is_chunked(blob) == incremental
    brick.fs.install_file(stack_path,
                          blob[:-1] if delta < 0 else blob + b"\x00")
    assert site.dumpproc("brick", handle.pid,
                         check=False) == EX_TRANSIENT
    assert "dumpproc: bad dump %s" % stack_path in site.console("brick")
