"""Edge cases and the newer metadata syscalls."""

import pytest

from repro.errors import (EACCES, EEXIST, EISDIR, EMFILE, ENOENT,
                          EPERM, EXDEV)
from repro.kernel.constants import NOFILE, O_CREAT, O_RDONLY, O_WRONLY
from repro.kernel.signals import (SIGCONT, SIGSTOP, SIGPIPE, SIGUSR1,
                                  SIGSEGV)
from tests.conftest import run_native


# -- chmod / chown / access / link / rename -----------------------------------


def test_chmod_by_owner(brick, cluster):
    brick.fs.install_file("/tmp/mine", b"x", mode=0o644, uid=100)
    out = []

    def prog(argv, env):
        out.append((yield ("chmod", "/tmp/mine", 0o600)))
        st = yield ("stat", "/tmp/mine")
        out.append(st.mode)
        return 0

    run_native(brick, prog, uid=100)
    assert out == [0, 0o600]


def test_chmod_by_stranger_is_eperm(brick, cluster):
    brick.fs.install_file("/tmp/mine", b"x", mode=0o644, uid=100)
    out = []

    def prog(argv, env):
        out.append((yield ("chmod", "/tmp/mine", 0o777)))
        return 0

    run_native(brick, prog, uid=200)
    assert out == [-EPERM]


def test_chown_root_only(brick, cluster):
    brick.fs.install_file("/tmp/f", b"x", uid=100)
    out = []

    def prog(argv, env):
        out.append((yield ("chown", "/tmp/f", 200, -1)))
        return 0

    run_native(brick, prog, uid=100)
    assert out == [-EPERM]
    out.clear()
    run_native(brick, prog, uid=0, name="rootchown")
    assert out == [0]
    assert brick.fs.resolve_local("/tmp/f").uid == 200


def test_access_uses_real_uid(brick, cluster):
    brick.fs.install_file("/etc/rootfile", b"x", mode=0o600, uid=0)
    out = []

    def prog(argv, env):
        # euid is root after setreuid, but the real uid is still 100
        yield ("setreuid", -1, 100)
        out.append((yield ("access", "/etc/rootfile", 4)))
        return 0

    run_native(brick, prog, uid=100)
    assert out == [-EACCES]


def test_link_shares_the_inode(brick, cluster):
    out = []

    def prog(argv, env):
        fd = yield ("open", "/tmp/orig", O_WRONLY | O_CREAT, 0o644)
        yield ("write", fd, b"shared")
        yield ("close", fd)
        out.append((yield ("link", "/tmp/orig", "/tmp/alias")))
        yield ("unlink", "/tmp/orig")
        fd = yield ("open", "/tmp/alias", O_RDONLY, 0)
        out.append((yield ("read", fd, 100)))
        return 0

    run_native(brick, prog, uid=100)
    assert out == [0, b"shared"]


def test_link_across_machines_is_exdev(cluster):
    brick = cluster.machine("brick")
    brick.fs.install_file("/tmp/here", b"x")
    out = []

    def prog(argv, env):
        out.append((yield ("link", "/tmp/here",
                           "/n/brador/tmp/there")))
        return 0

    run_native(brick, prog, uid=0)
    assert out == [-EXDEV]


def test_rename_moves_and_replaces(brick, cluster):
    out = []

    def prog(argv, env):
        fd = yield ("open", "/tmp/a", O_WRONLY | O_CREAT, 0o644)
        yield ("write", fd, b"content a")
        yield ("close", fd)
        fd = yield ("open", "/tmp/b", O_WRONLY | O_CREAT, 0o644)
        yield ("write", fd, b"old b")
        yield ("close", fd)
        out.append((yield ("rename", "/tmp/a", "/tmp/b")))
        out.append((yield ("stat", "/tmp/a")))
        fd = yield ("open", "/tmp/b", O_RDONLY, 0)
        out.append((yield ("read", fd, 100)))
        return 0

    run_native(brick, prog, uid=100)
    assert out[0] == 0
    assert out[1] == -ENOENT
    assert out[2] == b"content a"


# -- resource limits -----------------------------------------------------------------


def test_emfile_at_nofile_descriptors(brick, cluster):
    out = []

    def prog(argv, env):
        fds = []
        while True:
            fd = yield ("open", "/tmp/many", O_WRONLY | O_CREAT,
                        0o644)
            if fd < 0:
                out.append((len(fds), fd))
                return 0
            fds.append(fd)

    run_native(brick, prog, uid=100)
    count, err = out[0]
    assert err == -EMFILE
    assert count == NOFILE - 3  # three slots hold stdio


def test_vm_fstat_packs_what_stat_packs(brick, cluster):
    """The VM ``fstat`` trap on an open descriptor writes the same
    packed stat as ``stat`` on the file's path; on a closed one it
    fails with EBADF (d0 = -1, d1 = the errno)."""
    import struct
    from repro.errors import EBADF
    from repro.programs.guest.libasm import program
    brick.fs.install_file("/tmp/f", b"twelve bytes", mode=0o640, uid=100)
    src = program("""
start:  move  #SYS_open, d0
        move  #path, d1
        move  #O_RDONLY, d2
        trap
        move  d0, fd
        move  #SYS_fstat, d0
        move  fd, d1
        move  #results + 16, d2
        trap
        move  d0, results
        move  #SYS_stat, d0
        move  #path, d1
        move  #results + 48, d2
        trap
        move  d0, results + 4
        move  #SYS_close, d0
        move  fd, d1
        trap
        move  #SYS_fstat, d0
        move  fd, d1
        move  #results + 80, d2
        trap
        move  d0, results + 8
        move  d1, results + 12
        move  #SYS_creat, d0
        move  #out, d1
        move  #420, d2
        trap
        move  d0, d1
        move  #SYS_write, d0
        move  #results, d2
        move  #80, d3
        trap
        move  #0, d2
        jsr   exit
""", """
path:    .asciz "/tmp/f"
out:     .asciz "/tmp/fstat.out"
fd:      .word 0
results: .space 112
""")
    brick.install_aout("fstatter", src.aout)
    handle = brick.spawn("/bin/fstatter", uid=100, cwd="/tmp")
    cluster.run_until(lambda: handle.exited, max_steps=1_000_000)
    assert handle.exit_status == 0
    raw = brick.fs.read_file("/tmp/fstat.out")
    fres, sres, closed, errno = struct.unpack("<4i", raw[:16])
    assert (fres, sres) == (0, 0)
    assert raw[16:48] == raw[48:80]
    assert struct.unpack("<8i", raw[16:48])[2:5] == (0o640, 100, 12)
    assert (closed, errno) == (-1, EBADF)


def test_deep_recursion_crashes_with_a_core(brick, cluster):
    """Unbounded jsr recursion smashes down through memory.  The
    stack eventually overwrites the program's own text (SIGILL when
    the clobbered jsr is refetched) or runs off the bottom of the
    address space (SIGSEGV) — either way a fatal, core-dumping fault,
    never a simulator crash."""
    from repro.kernel.signals import SIGILL
    from repro.programs.guest.libasm import program
    src = program("""
start:  jsr  start
        trap
""")
    brick.install_aout("recurse", src.aout)
    handle = brick.spawn("/bin/recurse", uid=100, cwd="/tmp")
    cluster.run_until(lambda: handle.exited, max_steps=50_000_000)
    assert handle.term_signal in (SIGSEGV, SIGILL)
    # ... and the default action wrote a core file
    assert brick.fs.read_file("/tmp/core")


# -- signal corner cases -----------------------------------------------------------------


def test_sigstop_and_sigcont(brick, cluster):
    from repro.programs.guest.cpuhog import cpuhog_aout
    brick.install_aout("cpuhog", cpuhog_aout())
    handle = brick.spawn("/bin/cpuhog", ["cpuhog", "50000000"],
                         uid=100, cwd="/tmp")
    cluster.run(until_us=brick.clock.now_us + 100_000)
    brick.kernel.post_signal(handle.proc, SIGSTOP)
    cluster.run(until_us=brick.clock.now_us + 100_000)
    from repro.kernel.constants import SSTOP
    assert handle.proc.state == SSTOP
    frozen_cpu = handle.proc.cpu_us()
    cluster.run(until_us=brick.clock.now_us + 300_000)
    assert handle.proc.cpu_us() == frozen_cpu  # really stopped
    brick.kernel.post_signal(handle.proc, SIGCONT)
    cluster.run(until_us=brick.clock.now_us + 200_000)
    assert handle.proc.cpu_us() > frozen_cpu  # running again


def test_sigpipe_kills_writer(brick, cluster):
    def prog(argv, env):
        rfd, wfd = yield ("pipe",)
        yield ("close", rfd)
        yield ("write", wfd, b"nobody is listening")
        return 0

    brick.install_native_program("piper", prog)
    handle = brick.spawn("/bin/piper", uid=100)
    cluster.run_until(lambda: handle.exited)
    assert handle.term_signal == SIGPIPE


def test_pipe_blocks_when_full_until_reader_drains(brick, cluster):
    from repro.kernel.filetable import PIPE_CAPACITY
    progress = []

    def writer_reader(argv, env):
        rfd, wfd = yield ("pipe",)
        wrote = yield ("write", wfd, b"x" * PIPE_CAPACITY)
        progress.append(("fill", wrote))
        # pipe is full: spawn a drainer that reads from it
        # (single native proc cannot block on itself, so check the
        # short-write/deadlock protection instead)
        wrote2 = yield ("write", wfd, b"y" * 10)
        progress.append(("extra", wrote2))
        return 0

    brick.install_native_program("pipefill", writer_reader)
    handle = brick.spawn("/bin/pipefill", uid=100)
    cluster.run(until_us=brick.clock.now_us + 2_000_000)
    # the second write blocks forever (no reader): classic deadlock
    assert progress == [("fill", PIPE_CAPACITY)]
    assert not handle.exited


def test_nested_signal_handlers(brick, cluster):
    """A handler interrupted by another catchable signal nests."""
    from repro.programs.guest.libasm import program
    from repro.kernel.signals import SIGUSR2
    src = program("""
start:  move  #SYS_signal, d0
        move  #SIGUSR1, d1
        move  #h1, d2
        trap
        move  #SYS_signal, d0
        move  #SIGUSR2, d1
        move  #h2, d2
        trap
wloop:  move  #SYS_read, d0
        move  #0, d1
        move  #buf, d2
        move  #8, d3
        trap
        move  total, d2
        jsr   putnum
        move  #0, d2
        jsr   exit
h1:     add   #1, total
        pop   d5
        move  #SYS_sigreturn, d0
        trap
        halt
h2:     add   #10, total
        pop   d5
        move  #SYS_sigreturn, d0
        trap
        halt
""", """
total: .word 0
buf:   .space 8
""")
    brick.install_aout("nester", src.aout)
    handle = brick.spawn("/bin/nester", uid=100, cwd="/tmp")
    cluster.run(max_steps=10_000)
    brick.kernel.post_signal(handle.proc, SIGUSR1)
    brick.kernel.post_signal(handle.proc, SIGUSR2)
    cluster.run(max_steps=50_000)
    brick.type_at_console("go\n")
    cluster.run_until(lambda: handle.exited)
    assert "11" in brick.console_text()
