"""Tests for the rest_proc() system call (section 5.2)."""

import pytest

from repro.errors import EACCES, EINVAL, ENOENT, iserr
from repro.kernel.signals import SIGDUMP, SIGUSR1
from repro.core.formats import StackInfo, dump_file_names
from repro.programs.guest.counter import counter_aout
from tests.conftest import run_native


def dump_counter(machine, cluster, lines=1, uid=100):
    """Run counter, feed ``lines`` inputs, SIGDUMP it."""
    machine.install_aout("counter", counter_aout())
    handle = machine.spawn("/bin/counter", uid=uid, cwd="/tmp")
    for i in range(lines):
        cluster.run_until(
            lambda: machine.console_text().count("> ") >= i + 1)
        machine.type_at_console("line%d\n" % i)
    cluster.run_until(
        lambda: machine.console_text().count("> ") >= lines + 1)
    machine.kernel.post_signal(handle.proc, SIGDUMP)
    cluster.run_until(lambda: handle.exited)
    return handle


def restart_via_rest_proc(machine, cluster, pid, uid=100,
                          aout=None, stack=None, fix_fds=True):
    """A minimal caller: reopen the output file, then rest_proc."""
    aout_path, __, stack_path = dump_file_names(pid)
    results = {}

    def caller(argv, env):
        from repro.kernel.constants import O_APPEND, O_WRONLY, SEEK_END
        yield ("chdir", "/tmp")
        if fix_fds:
            fd = yield ("open", "/tmp/counter.out",
                        O_WRONLY | O_APPEND, 0)
            results["reopen_fd"] = fd
        results["rest_proc"] = yield ("rest_proc",
                                      aout or aout_path,
                                      stack or stack_path)
        return 1  # only on failure

    machine.install_native_program("caller", caller)
    handle = machine.spawn("/bin/caller", uid=uid, cwd="/tmp")
    cluster.run_until(lambda: handle.exited or handle.proc.is_vm())
    return handle, results


def test_successful_restore_never_returns(brick, cluster):
    dumped = dump_counter(brick, cluster)
    handle, results = restart_via_rest_proc(brick, cluster, dumped.pid)
    assert "rest_proc" not in results  # the generator was overlaid
    assert handle.proc.is_vm()
    assert not handle.exited


def test_restored_counters_continue(brick, cluster):
    dumped = dump_counter(brick, cluster, lines=2)
    handle, __ = restart_via_rest_proc(brick, cluster, dumped.pid)
    brick.console.clear_output()
    brick.type_at_console("more\n")
    cluster.run_until(lambda: "r=" in brick.console_text())
    assert "r=4 s=4 k=4" in brick.console_text()


def test_missing_stack_file(brick, cluster):
    dumped = dump_counter(brick, cluster)
    handle, results = restart_via_rest_proc(
        brick, cluster, dumped.pid, stack="/usr/tmp/stack99999")
    assert results["rest_proc"] == -ENOENT
    assert handle.exited


def test_bad_stack_magic(brick, cluster):
    dumped = dump_counter(brick, cluster)
    stack_path = dump_file_names(dumped.pid)[2]
    blob = brick.fs.read_file(stack_path)
    brick.fs.install_file("/usr/tmp/badstack",
                          b"\xff\xff" + blob[2:], mode=0o600)
    # keep it readable by uid 100
    brick.fs.resolve_local("/usr/tmp/badstack").uid = 100
    handle, results = restart_via_rest_proc(
        brick, cluster, dumped.pid, stack="/usr/tmp/badstack")
    assert results["rest_proc"] == -EINVAL
    assert handle.exited


def test_bad_aout(brick, cluster):
    dumped = dump_counter(brick, cluster)
    brick.fs.install_file("/usr/tmp/garbage", b"not an a.out",
                          mode=0o755)
    from repro.errors import ENOEXEC
    handle, results = restart_via_rest_proc(
        brick, cluster, dumped.pid, aout="/usr/tmp/garbage")
    assert results["rest_proc"] == -ENOEXEC
    assert handle.exited


def test_permission_check_on_stack_file(brick, cluster):
    """Only the owner (or root) can read the 0600 stack file, so only
    they can restart the process."""
    dumped = dump_counter(brick, cluster, uid=100)
    handle, results = restart_via_rest_proc(brick, cluster, dumped.pid,
                                            uid=200)
    assert results["rest_proc"] == -EACCES
    assert handle.exited


def test_superuser_can_restart_anyone(brick, cluster):
    dumped = dump_counter(brick, cluster, uid=100)
    handle, results = restart_via_rest_proc(brick, cluster, dumped.pid,
                                            uid=0)
    assert handle.proc.is_vm()
    # credentials were replaced by the dumped ones
    assert handle.proc.user.cred.uid == 100


def test_credentials_restored_from_stack_file(brick, cluster):
    dumped = dump_counter(brick, cluster, uid=100)
    handle, __ = restart_via_rest_proc(brick, cluster, dumped.pid,
                                       uid=100)
    cred = handle.proc.user.cred
    assert (cred.uid, cred.euid) == (100, 100)


def test_signal_dispositions_restored(brick, cluster):
    """Handler addresses survive because the text segment does."""
    from repro.programs.guest.libasm import program
    src = program("""
start:  move  #SYS_signal, d0
        move  #SIGUSR1, d1
        move  #handler, d2
        trap
wloop:  move  #SYS_read, d0
        move  #0, d1
        move  #buf, d2
        move  #16, d3
        trap
        move  hits, d2
        jsr   putnum
        lea   nl, a0
        jsr   puts
        bra   wloop
handler:
        add   #1, hits
        pop   d5
        move  #SYS_sigreturn, d0
        trap
        halt
""", """
hits: .word 0
buf:  .space 16
nl:   .asciz "\\n"
""")
    brick.install_aout("sigprog", src.aout)
    victim = brick.spawn("/bin/sigprog", uid=100, cwd="/tmp")
    cluster.run(max_steps=5000)
    brick.kernel.post_signal(victim.proc, SIGDUMP)
    cluster.run_until(lambda: victim.exited)

    aout_path, __, stack_path = dump_file_names(victim.pid)

    def caller(argv, env):
        yield ("chdir", "/tmp")
        yield ("rest_proc", aout_path, stack_path)
        return 1

    brick.install_native_program("caller", caller)
    handle = brick.spawn("/bin/caller", uid=100, cwd="/tmp")
    cluster.run_until(lambda: handle.proc.is_vm())
    # deliver SIGUSR1 to the *restored* process: its handler runs
    brick.kernel.post_signal(handle.proc, SIGUSR1)
    cluster.run(max_steps=20000)
    brick.type_at_console("x\n")
    cluster.run_until(lambda: "1" in brick.console_text()[-10:])
    assert handle.proc.user.sig.handlers[SIGUSR1] == \
        src.symbols["handler"]


def test_rest_proc_records_kernel_timing(brick, cluster):
    dumped = dump_counter(brick, cluster)
    before = len(brick.kernel.timings("rest_proc"))
    restart_via_rest_proc(brick, cluster, dumped.pid)
    records = brick.kernel.timings("rest_proc")
    assert len(records) == before + 1
    execs = brick.kernel.timings("execve")
    # rest_proc is slightly costlier than the plain exec it wraps
    assert records[-1]["real_us"] > execs[-1]["real_us"] * 0.5


def test_environment_survives_in_the_stack(brick, cluster):
    """The env block lives in the dumped stack, so it is restored."""
    from repro.programs.guest.libasm import program
    # a program that prints envp[0] on each input line
    src = program("""
start:  move  sp, a3
        move  (a3), d4              ; argc
        add   #2, d4                ; skip argc + argv entries + NULL
        mul   #4, d4
        add   d4, a3                ; a3 = &envp[0]
        move  a3, a4                ; save across the loop
wloop:  move  #SYS_read, d0
        move  #0, d1
        move  #buf, d2
        move  #16, d3
        trap
        tst   d0
        ble   done
        move  (a4), d5
        tst   d5
        beq   done
        move  d5, a0
        jsr   puts
        lea   nl, a0
        jsr   puts
        bra   wloop
done:   move  #0, d2
        jsr   exit
""", """
buf: .space 16
nl:  .asciz "\\n"
""")
    brick.install_aout("envprog", src.aout)
    results = {}

    def launcher(argv, env):
        yield ("execve", "/bin/envprog", ["envprog"],
               ["MARKER=survives"])
        return 1

    brick.install_native_program("launcher", launcher)
    victim = brick.spawn("/bin/launcher", uid=100, cwd="/tmp")
    cluster.run(max_steps=5000)
    brick.type_at_console("a\n")
    cluster.run_until(lambda: "MARKER=survives" in brick.console_text())
    brick.kernel.post_signal(victim.proc, SIGDUMP)
    cluster.run_until(lambda: victim.exited)

    aout_path, __, stack_path = dump_file_names(victim.pid)

    def caller(argv, env):
        yield ("chdir", "/tmp")
        yield ("rest_proc", aout_path, stack_path)
        return 1

    brick.console.clear_output()
    brick.install_native_program("caller", caller)
    handle = brick.spawn("/bin/caller", uid=100, cwd="/tmp")
    cluster.run_until(lambda: handle.proc.is_vm())
    brick.type_at_console("b\n")
    cluster.run_until(lambda: "MARKER=survives" in brick.console_text())


def test_renamed_dump_unlinks_only_the_two_files_given(brick, cluster):
    """rest_proc consumes the files file only when the stack file is
    named like a dump file; a dump staged under other names loses
    just the a.out and the stack it was given."""
    from repro.errors import UnixError
    dumped = dump_counter(brick, cluster)
    originals = dump_file_names(dumped.pid)
    staged = ("/tmp/ck1.aout", "/tmp/ck1.files", "/tmp/ck1.stack")
    for source, target in zip(originals, staged):
        brick.fs.install_file(target, brick.fs.read_file(source),
                              mode=0o700, uid=100)
    handle, __ = restart_via_rest_proc(brick, cluster, dumped.pid,
                                       aout=staged[0], stack=staged[2])
    assert handle.proc.is_vm()

    def present(path):
        try:
            brick.fs.resolve_local(path)
            return True
        except UnixError:
            return False

    assert [present(path) for path in staged] == [False, True, False]
    assert all(present(path) for path in originals)
