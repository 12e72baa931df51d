"""Tests for the restart user command (section 4.4)."""

import pytest

from repro.kernel.constants import (NOFILE, O_CREAT, O_RDONLY, O_WRONLY,
                                    TF_RAW, TTY_DEFAULT_FLAGS)
from repro.core.formats import dump_file_names
from tests.conftest import start_counter


def dump(site, handle, host="brick", uid=100):
    site.dumpproc(host, handle.pid, uid=uid)


def test_restart_on_another_machine(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    dump(site, handle)
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=100)
    assert restarted.proc.is_vm()
    site.type_at("schooner", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("schooner"))
    # the output file kept its offset, through NFS
    assert site.machine("brick").fs.read_file("/tmp/counter.out") == \
        b"one\ntwo\n"


def test_restart_on_same_machine(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    dump(site, handle)
    restarted = site.restart("brick", handle.pid, uid=100)
    assert restarted.proc.is_vm()
    site.type_at("brick", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))


def test_restart_gets_a_new_pid(site):
    """Even restarted on the same machine, the process id changes —
    the root of the section 7 getpid() limitation."""
    handle = start_counter(site)
    dump(site, handle)
    restarted = site.restart("brick", handle.pid, uid=100)
    assert restarted.proc.is_vm()
    assert restarted.pid != handle.pid


def test_restart_missing_dump_files(site):
    status_handle = site.restart("schooner", 777, from_host="brick",
                                 uid=100)
    assert status_handle.exited
    # EX_BADDUMP: the dump is missing/corrupt, retrying won't help
    assert status_handle.exit_status == 2
    assert "not a dumped executable" in site.console("schooner")


def test_restart_corrupt_files_file(site):
    handle = start_counter(site)
    dump(site, handle)
    brick = site.machine("brick")
    files_path = dump_file_names(handle.pid)[1]
    blob = brick.fs.read_file(files_path)
    brick.fs.install_file(files_path, b"\x00\x00" + blob[2:])
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=100)
    # EX_BADDUMP — and without -k the orphaned dump files are removed
    assert restarted.exited and restarted.exit_status == 2
    assert "bad magic" in site.console("schooner")
    brick_fs = brick.fs
    from repro.errors import UnixError
    for path in dump_file_names(handle.pid):
        with pytest.raises(UnixError):
            brick_fs.resolve_local(path)


def test_restart_wrong_user_denied(site):
    handle = start_counter(site, uid=100)
    dump(site, handle)
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=101)
    assert restarted.exited and restarted.exit_status == 1
    # either the stack read (EACCES) or setreuid (EPERM) stops it
    text = site.console("schooner")
    assert "restart:" in text


def test_restart_as_superuser(site):
    handle = start_counter(site, uid=100)
    dump(site, handle)
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=0)
    assert restarted.proc.is_vm()
    assert restarted.proc.user.cred.uid == 100  # dropped to the owner


def test_missing_file_becomes_dev_null(site):
    """A file that was unlinked after the dump reopens as /dev/null."""
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    dump(site, handle)
    brick = site.machine("brick")
    brick.fs.unlink(brick.fs.resolve_local("/tmp"), "counter.out")
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=100)
    assert restarted.proc.is_vm()
    # fd 3 is now the null device
    entry = restarted.proc.user.ofile[3]
    assert entry.inode.is_chr() and entry.inode.device == "null"
    # the program still runs: its appends just vanish
    site.type_at("schooner", "two\n")
    site.run_until(lambda: "r=3" in site.console("schooner"))


def test_socket_becomes_dev_null(site):
    sock_handle = site.start("brick", "/bin/sockuser", uid=100)
    site.run_until(lambda: "$ " in site.console("brick"))
    site.type_at("brick", "poke\n")
    site.run_until(lambda: "w=-1" in site.console("brick"))
    dump(site, sock_handle)
    restarted = site.restart("schooner", sock_handle.pid,
                             from_host="brick", uid=100)
    assert restarted.proc.is_vm()
    site.type_at("schooner", "poke\n")
    # pre-migration the write failed (unconnected socket, w=-1);
    # post-migration the fd is /dev/null and the write "succeeds"
    site.run_until(lambda: "w=1" in site.console("schooner"))


def test_fd_numbers_preserved_with_gaps(site):
    """A dumped fd table with holes is rebuilt slot for slot."""
    from repro.programs.guest.libasm import program
    src = program("""
start:  move  #SYS_open, d0         ; fd 3
        move  #name1, d1
        move  #O_WRONLY + O_CREAT, d2
        move  #420, d3
        trap
        move  #SYS_open, d0         ; fd 4
        move  #name2, d1
        move  #O_WRONLY + O_CREAT, d2
        move  #420, d3
        trap
        move  #SYS_close, d0        ; close fd 3: a hole
        move  #3, d1
        trap
wloop:  move  #SYS_read, d0
        move  #0, d1
        move  #buf, d2
        move  #16, d3
        trap
        tst   d0
        ble   done
        move  #SYS_write, d0        ; write marker through fd 4
        move  #4, d1
        move  #mark, d2
        move  #3, d3
        trap
        bra   wloop
done:   move  #0, d2
        jsr   exit
""", """
name1: .asciz "gap_a"
name2: .asciz "gap_b"
mark:  .asciz "OK!"
buf:   .space 16
""")
    brick = site.machine("brick")
    brick.install_aout("gapper", src.aout)
    handle = site.start("brick", "/bin/gapper", uid=100)
    site.run(until_us=brick.clock.now_us + 1_000_000)
    dump(site, handle)
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=100)
    assert restarted.proc.is_vm()
    # slot 3 must be empty again (placeholder closed), slot 4 the file
    assert restarted.proc.user.ofile[3] is None
    assert restarted.proc.user.ofile[4] is not None
    site.type_at("schooner", "go\n")
    site.run_until(
        lambda: b"OK!" in site.machine("brick").fs.read_file(
            "/tmp/gap_b"))


def test_tty_modes_restored(site):
    """A raw-mode editor keeps raw mode across a local restart."""
    handle = site.start("brick", "/bin/editor", uid=100)
    site.run_until(lambda: "=== ed ===" in site.console("brick"))
    brick = site.machine("brick")
    assert brick.console.flags == TF_RAW
    site.type_at("brick", "ab")
    site.run_until(lambda: "[a][b]" in site.console("brick").replace(
        "]\r", "]"))
    dump(site, handle)
    # dumping leaves brick's console raw (the paper's users would
    # reset it); restart on schooner must make *schooner's* console raw
    schooner = site.machine("schooner")
    assert schooner.console.flags == TTY_DEFAULT_FLAGS
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=100)
    assert restarted.proc.is_vm()
    assert schooner.console.flags == TF_RAW
    # redraw shows the preserved buffer ("ab"), then keep editing
    site.type_at("schooner", "r")
    site.run_until(lambda: "=== ed ===" in site.console("schooner"))
    site.run_until(lambda: "ab" in site.console("schooner"))


def test_restart_offsets_respected(site):
    handle = start_counter(site)
    for i, line in enumerate(["aa\n", "bb\n", "cc\n"]):
        site.type_at("brick", line)
        site.run_until(
            lambda: site.console("brick").count("> ") >= i + 2)
    dump(site, handle)
    restarted = site.restart("schooner", handle.pid, from_host="brick",
                             uid=100)
    site.type_at("schooner", "dd\n")
    site.run_until(lambda: "r=5" in site.console("schooner"))
    assert site.machine("brick").fs.read_file("/tmp/counter.out") == \
        b"aa\nbb\ncc\ndd\n"


@pytest.mark.parametrize("keep", [False, True], ids=["plain", "k"])
def test_restart_rejects_an_aout_without_the_0407_magic(site, keep):
    """An a.out whose first two bytes are not 0407 is a bad dump
    (EX_BADDUMP); only -k keeps the dump files."""
    from repro.errors import UnixError
    from repro.programs.exitcodes import EX_BADDUMP
    handle = start_counter(site)
    dump(site, handle)
    brick = site.machine("brick")
    paths = dump_file_names(handle.pid)
    blob = brick.fs.read_file(paths[0])
    brick.fs.install_file(paths[0], b"\x08\x01" + blob[2:])  # 0410
    argv = ["restart"] + (["-k"] if keep else []) + \
        ["-p", str(handle.pid), "-h", "brick"]
    assert site.run_command("schooner", argv) == EX_BADDUMP
    assert "not a dumped executable" in site.console("schooner")
    for path in paths:
        try:
            brick.fs.resolve_local(path)
            present = True
        except UnixError:
            present = False
        assert present == keep, path
