"""Tests for the SIGDUMP kernel machinery (section 5.2)."""

import pytest

from repro.kernel.constants import DUMPDIR, NOFILE
from repro.kernel.signals import SIGDUMP, SIGUSR1, SIGTERM, SIG_IGN
from repro.core.formats import (FilesInfo, StackInfo, dump_file_names,
                                FD_FILE, FD_SOCKET, FD_UNUSED)
from repro.programs.guest.counter import counter_aout
from repro.vm.aout import parse_aout
from tests.conftest import run_native


@pytest.fixture
def dumped(brick, cluster):
    """The counter program, fed one line, then SIGDUMPed."""
    brick.install_aout("counter", counter_aout())
    handle = brick.spawn("/bin/counter", uid=100, cwd="/tmp")
    cluster.run_until(lambda: brick.console_text().count("> ") >= 1)
    brick.type_at_console("one\n")
    cluster.run_until(lambda: brick.console_text().count("> ") >= 2)
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    return brick, cluster, handle


def test_three_files_created(dumped):
    brick, cluster, handle = dumped
    for path in dump_file_names(handle.pid):
        inode = brick.fs.resolve_local(path)
        assert inode.is_reg()
        assert inode.size > 0
        assert inode.uid == 100  # owned by the process owner


def test_process_terminated_by_sigdump(dumped):
    brick, cluster, handle = dumped
    assert handle.term_signal == SIGDUMP
    assert handle.proc.dumped


def test_aout_is_valid_executable(dumped):
    brick, cluster, handle = dumped
    blob = brick.fs.read_file(dump_file_names(handle.pid)[0])
    header, text, data = parse_aout(blob)
    assert header.text_size == len(text)
    assert header.data_size == len(data)
    assert header.machine_id == 1  # built on a Sun-2


def test_aout_data_segment_holds_live_values(dumped):
    """The undump property: static variables keep their values."""
    brick, cluster, handle = dumped
    blob = brick.fs.read_file(dump_file_names(handle.pid)[0])
    __, __, data = parse_aout(blob)
    # static_ctr is the first word of the data segment and was
    # incremented twice before the dump
    assert int.from_bytes(data[:4], "little") == 2


def test_undump_for_free(dumped):
    """Executing a.outXXXXX restarts the program from the beginning,
    but with the static counter keeping its dumped value."""
    brick, cluster, handle = dumped
    aout_path = dump_file_names(handle.pid)[0]
    blob = brick.fs.read_file(aout_path)
    brick.install_aout("undumped", blob)
    brick.console.clear_output()
    handle2 = brick.spawn("/bin/undumped", uid=100, cwd="/tmp")
    cluster.run_until(lambda: brick.console_text().count("> ") >= 1)
    # register and stack counters restart at 1; the static counter
    # continues from the dumped value (2), so the first line is:
    assert "r=1 s=3 k=1" in brick.console_text()


def test_files_info_contents(dumped):
    brick, cluster, handle = dumped
    info = FilesInfo.unpack(
        brick.fs.read_file(dump_file_names(handle.pid)[1]))
    assert info.hostname == "brick"
    assert info.cwd == "/tmp"
    assert len(info.entries) == NOFILE
    # stdio on the console device
    for fd in (0, 1, 2):
        assert info.entries[fd].kind == FD_FILE
        assert info.entries[fd].path == "/dev/console"
    out = info.entries[3]
    assert out.kind == FD_FILE
    assert out.path == "/tmp/counter.out"
    assert out.offset == 4  # after "one\n"
    # everything else unused
    assert all(e.kind == FD_UNUSED for e in info.entries[4:])
    # default cooked tty flags
    from repro.kernel.constants import TTY_DEFAULT_FLAGS
    assert info.tty_flags == TTY_DEFAULT_FLAGS


def test_stack_info_contents(dumped):
    brick, cluster, handle = dumped
    info = StackInfo.unpack(
        brick.fs.read_file(dump_file_names(handle.pid)[2]))
    assert info.cred.uid == 100
    assert info.stack_size == len(info.stack)
    assert info.stack_size > 0
    # the register counter d6 was incremented twice
    assert info.registers.d[6] == 2
    # the stack counter is the word at the stack pointer
    assert int.from_bytes(info.stack[:4], "little") == 2
    # the pc points at the read trap (rewound for retry)
    from repro.vm.isa import decode, Op
    image_pc = info.registers.pc
    assert image_pc > 0


def test_signal_dispositions_dumped(brick, cluster):
    """Caught/ignored dispositions travel in the stack file."""
    from repro.programs.guest.libasm import program
    src = program("""
start:  move  #SYS_signal, d0
        move  #SIGUSR1, d1
        move  #handler, d2
        trap
        move  #SYS_signal, d0
        move  #SIGTERM, d1
        move  #1, d2                ; SIG_IGN
        trap
wloop:  move  #SYS_read, d0
        move  #0, d1
        move  #buf, d2
        move  #16, d3
        trap
        bra   wloop
handler:
        move  #SYS_sigreturn, d0
        trap
        halt
""", """
buf: .space 16
""")
    brick.install_aout("sigprog", src.aout)
    handle = brick.spawn("/bin/sigprog", uid=100, cwd="/tmp")
    cluster.run(max_steps=10000)
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    info = StackInfo.unpack(
        brick.fs.read_file(dump_file_names(handle.pid)[2]))
    handler_addr = src.symbols["handler"]
    assert info.sigstate.handlers[SIGUSR1] == handler_addr
    assert info.sigstate.handlers[SIGTERM] == SIG_IGN


def test_sockets_and_pipes_marked(brick, cluster):
    """Socket and pipe fds are recorded as bare socket entries."""
    holder = {}

    def opener(argv, env):
        sock = yield ("socket",)
        rfd, wfd = yield ("pipe",)
        holder["fds"] = (sock, rfd, wfd)
        while True:
            yield ("sleep", 10)

    # a native program is not dumpable, so drive a VM program instead
    from repro.programs.guest.sockuser import sockuser_aout
    brick.install_aout("sockuser", sockuser_aout())
    handle = brick.spawn("/bin/sockuser", uid=100, cwd="/tmp")
    cluster.run_until(lambda: "$ " in brick.console_text())
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    info = FilesInfo.unpack(
        brick.fs.read_file(dump_file_names(handle.pid)[1]))
    assert info.entries[3].kind == FD_SOCKET


def test_native_process_is_not_dumpable(brick, cluster):
    def prog(argv, env):
        while True:
            yield ("sleep", 10)

    brick.install_native_program("undumpable", prog)
    handle = brick.spawn("/bin/undumpable", uid=100)
    cluster.run(until_us=brick.clock.now_us + 100_000)
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    assert handle.term_signal == SIGDUMP
    assert not handle.proc.dumped
    # no dump files were produced
    from repro.errors import UnixError
    with pytest.raises(UnixError):
        brick.fs.resolve_local(dump_file_names(handle.pid)[0])


def test_sigdump_while_running_hot_loop(brick, cluster):
    """A compute-bound process can be dumped mid-quantum too."""
    from repro.programs.guest.cpuhog import cpuhog_aout
    brick.install_aout("cpuhog", cpuhog_aout())
    handle = brick.spawn("/bin/cpuhog", ["cpuhog", "100000000"],
                         uid=100, cwd="/tmp")
    cluster.run(until_us=brick.clock.now_us + 500_000)
    assert not handle.exited
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    assert handle.proc.dumped
    info = StackInfo.unpack(
        brick.fs.read_file(dump_file_names(handle.pid)[2]))
    # d7 is the loop counter: it was well into the run
    assert info.registers.d[7] > 0


def test_dump_timing_magnitude(dumped):
    """Anchor: SIGDUMP-killing the test program ~ 0.6 s real time."""
    brick, cluster, handle = dumped
    # time from signal post to zombie is bounded by the dump I/O;
    # measured in the fig2 bench; here just sanity-check the scale
    # via the terminate timestamp recorded in CPU accounting
    assert 0.01 < handle.proc.stime_us / 1e6 < 2.0


# -- the ledgered archive window (DESIGN.md section 12) --------------------


@pytest.fixture
def armed(brick, cluster):
    """The counter at its prompt, with a ledger record dir on disk."""
    brick.install_aout("counter", counter_aout())
    handle = brick.spawn("/bin/counter", uid=100, cwd="/tmp")
    cluster.run_until(lambda: brick.console_text().count("> ") >= 1)
    brick.fs.makedirs("/tmp/migrec", mode=0o777)
    return brick, cluster, handle


def _record_dir_entries(brick):
    return sorted(brick.fs.entry_names(
        brick.fs.resolve_local("/tmp/migrec")))


def test_ledgered_dump_archives_into_its_record_dir(armed):
    brick, cluster, handle = armed
    brick.fs.install_file("/tmp/migrec/rec", b"intent")
    brick.kernel.sys_dump_ledger(handle.proc, handle.pid,
                                 "/tmp/migrec")
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    assert _record_dir_entries(brick) == ["dump.aout", "dump.files",
                                          "dump.ok", "dump.stack",
                                          "rec"]


def test_ledgered_archive_is_written_as_the_armer(armed):
    """loadd runs as root and moves other users' jobs: the record
    directory is root's, so the archive must be written with the
    credentials of whoever armed the dump, not the victim's."""
    from types import SimpleNamespace
    from repro.kernel.cred import Credentials
    brick, cluster, handle = armed
    brick.fs.makedirs("/tmp/rootrec", mode=0o755)
    brick.fs.install_file("/tmp/rootrec/rec", b"intent")
    root = SimpleNamespace(user=SimpleNamespace(cred=Credentials(0, 0)))
    brick.kernel.sys_dump_ledger(root, handle.pid, "/tmp/rootrec")
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    assert handle.proc.dumped
    ok = brick.fs.resolve_local("/tmp/rootrec/dump.ok")
    assert ok.uid == 0
    assert handle.proc.user.cred.euid == 100  # the victim's, restored


def test_reaped_record_fails_the_dump_and_disarms_the_ledger(armed):
    """A record directory without ``rec`` means a recovery sweep
    aborted the intent and reaped it: committing an archive there
    would leak files nobody restarts from.  The all-or-nothing dump
    fails instead (the victim survives), the one-shot arming is
    consumed either way, and a later *plain* dump of the surviving
    process must not re-archive into the stale directory."""
    brick, cluster, handle = armed  # note: no "rec" inside
    brick.kernel.sys_dump_ledger(handle.proc, handle.pid,
                                 "/tmp/migrec")
    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: any(
        "dump of pid %d failed" % handle.pid in line
        for line in brick.kernel.messages))
    assert not handle.exited  # all-or-nothing: the victim survives
    assert handle.proc.ledger_dir is None  # the arming was consumed
    assert _record_dir_entries(brick) == []  # no leaked archive

    brick.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    assert handle.proc.dumped
    assert _record_dir_entries(brick) == []  # still nothing ledgered
    for path in dump_file_names(handle.pid):
        assert brick.fs.resolve_local(path).is_reg()
