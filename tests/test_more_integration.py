"""Further integration coverage: append-mode preservation, large rsh
relays, mixed scheduling, balancer policy limits."""

import pytest

from repro.kernel.constants import O_APPEND
from repro.core.formats import FilesInfo, dump_file_names
from tests.conftest import start_counter
from tests.test_loadd import (_await_loadd, _live_jobs, _loadd_site,
                              _start_hogs)


def test_append_flag_survives_migration(site):
    """counter.out is opened O_APPEND; the dumped flags keep the bit
    and restart reopens with it, so post-migration writes append even
    if the offset were wrong."""
    handle = start_counter(site)
    site.dumpproc("brick", handle.pid, uid=100)
    info = FilesInfo.unpack(site.machine("brick").fs.read_file(
        dump_file_names(handle.pid)[1]))
    assert info.entries[3].flags & O_APPEND
    moved = site.restart("schooner", handle.pid, from_host="brick",
                         uid=100)
    entry = moved.proc.user.ofile[3]
    assert entry.flags & O_APPEND


def test_rsh_relays_large_output(site):
    """Multi-kilobyte remote output survives the sentinel scanning."""
    brick = site.machine("brick")
    schooner = site.machine("schooner")
    blob = (b"0123456789abcdef" * 256) + b"\n"  # 4 KiB + newline
    schooner.fs.install_file("/tmp/big", blob)
    status = site.run_command("brick",
                              ["rsh", "schooner", "cat", "/tmp/big"],
                              uid=100, max_steps=5_000_000)
    assert status == 0
    text = site.console("brick")
    assert text.count("0123456789abcdef") >= 250


def test_mixed_native_and_vm_scheduling(site):
    """Native daemons, a VM hog and an interactive VM job coexist."""
    brick = site.machine("brick")
    hog = site.start("brick", "/bin/cpuhog", ["cpuhog", "200000"],
                     uid=100)
    job = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    site.type_at("brick", "while hogging\n")
    site.run_until(lambda: "r=2 s=2 k=2" in site.console("brick"))
    assert not hog.exited  # the hog kept its share
    site.run_until(lambda: hog.exited, max_steps=30_000_000)
    assert "checksum=" in site.console("brick")


def test_balancer_respects_max_moves():
    """Six hogs against an idle host: the policy would move three, but
    one loadd round with a two-move allowance moves exactly two."""
    site = _loadd_site(loadd_max_moves=2, loadd_rounds=1)
    _start_hogs(site, 6)
    handles = site.start_loadd()
    _await_loadd(site, handles)
    assert site.cluster.perf.ld_moves == 2
    assert len(_live_jobs(site, "brick")) == 4
    assert len(_live_jobs(site, "schooner")) == 2


def test_dump_while_multiple_jobs_share_a_machine(site):
    """Dumping one job leaves its neighbours untouched."""
    a = start_counter(site)
    b = site.start("brick", "/bin/cpuhog", ["cpuhog", "3000000"],
                   uid=100)
    site.dumpproc("brick", a.pid, uid=100)
    assert a.exited
    assert not b.exited
    moved = site.restart("schooner", a.pid, from_host="brick",
                         uid=100)
    assert moved.proc.is_vm()
    assert not b.exited


def test_two_simultaneous_migrations_opposite_directions(site):
    """brick->schooner and schooner->brick at the same time."""
    a = start_counter(site, host="brick")
    b = site.start("schooner", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("schooner").count("> ") >= 1)
    site.dumpproc("brick", a.pid, uid=100)
    site.dumpproc("schooner", b.pid, uid=100)
    moved_a = site.restart("schooner", a.pid, from_host="brick",
                           uid=100)
    moved_b = site.restart("brick", b.pid, from_host="schooner",
                           uid=100)
    assert moved_a.proc.is_vm() and moved_b.proc.is_vm()
    site.machine("brick").console.clear_output()
    site.machine("schooner").console.clear_output()
    site.type_at("schooner", "sa\n")
    site.type_at("brick", "sb\n")
    site.run_until(lambda: "r=2 s=2 k=2" in site.console("schooner"))
    site.run_until(lambda: "r=2 s=2 k=2" in site.console("brick"))


def test_remigrating_a_migrated_process(site):
    """A process can bounce: brick -> schooner -> brador -> brick."""
    handle = start_counter(site)
    pid, host = handle.pid, "brick"
    for destination in ("schooner", "brador", "brick"):
        site.dumpproc(host, pid, uid=100)
        moved = site.restart(destination, pid, from_host=host,
                             uid=100)
        assert moved.proc.is_vm()
        pid, host = moved.pid, destination
    site.machine("brick").console.clear_output()
    site.type_at("brick", "end\n")
    site.run_until(lambda: "r=2 s=2 k=2" in site.console("brick"))
