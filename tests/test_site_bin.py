"""The /bin every machine of a ``MigrationSite()`` boots with.

Pins the installed suite: names in install order, ownership and mode,
the native programs' padded marker files and the guest a.outs.  No two
machines share an inode, but every machine's ``/bin/<name>`` starts out
pointing at one immutable image per program, copied on first write,
so no machine ever sees another machine's write.
"""

import gc
import tracemalloc

import pytest

from repro.core.api import MigrationSite
from repro.errors import EISDIR, UnixError
from repro.kernel.constants import O_TRUNC, O_WRONLY
from repro.programs import _suite
from repro.programs.guest.counter import counter_aout
from repro.programs.guest.cpuhog import cpuhog_aout
from repro.programs.guest.editor import editor_aout
from repro.programs.guest.envdep import envdep_aout
from repro.programs.guest.pidtemp import pidtemp_aout
from repro.programs.guest.portserver import portserver_aout
from repro.programs.guest.sockuser import sockuser_aout
from repro.programs.guest.waiter import waiter_aout
from tests.conftest import run_native

#: native programs in install order, with their padded /bin size
NATIVE = [
    ("dumpproc", 8192), ("restart", 6144), ("migrate", 6144),
    ("ps", 28672), ("migstat", 8192), ("kill", 8192),
    ("rsh", 24576), ("rshd", 24576), ("rshd-helper", 16384),
    ("migrationd", 20480), ("migrationd-helper", 16384),
    ("migrationd-run", 16384), ("sh", 32768), ("ckptd", 12288),
    ("recoveryd", 16384), ("loadd", 16384), ("loadd-recv", 8192),
    ("statd", 16384), ("statd-recv", 8192), ("migtop", 8192),
    ("echo", 2048), ("cat", 4096), ("pwd", 2048), ("wc", 6144),
    ("true", 1024), ("false", 1024),
]

#: guest programs in install order, after the native ones
GUESTS = [
    ("counter", counter_aout), ("cpuhog", cpuhog_aout),
    ("editor", editor_aout), ("pidtemp", pidtemp_aout),
    ("envdep", envdep_aout), ("waiter", waiter_aout),
    ("sockuser", sockuser_aout), ("portserver", portserver_aout),
]


def _bin(machine):
    return machine.fs.resolve_local("/bin")


@pytest.fixture(scope="module")
def booted():
    return MigrationSite()


def test_every_machine_boots_the_suite_in_install_order(booted):
    names = [name for name, __ in NATIVE] + [name for name, __ in GUESTS]
    assert len(names) == 34
    for host in ("brick", "schooner", "brador"):
        machine = booted.machine(host)
        entries = _bin(machine).entries
        assert list(entries) == names
        inos = [entries[name].ino for name in names]
        assert inos == list(range(inos[0], inos[0] + len(names)))
        for name in names:
            inode = entries[name]
            assert inode.is_reg()
            assert (inode.mode, inode.uid, inode.gid, inode.nlink) \
                == (0o755, 0, 0, 1), name
        assert list(machine.programs) == [name for name, __ in NATIVE]
        for name, size in NATIVE:
            marker = ("#!native %s\n" % name).encode("latin-1")
            assert bytes(entries[name].data) \
                == marker + b"\x00" * (size - len(marker)), name
        for name, aout in GUESTS:
            assert bytes(entries[name].data) == aout(), name


def test_the_suite_table_has_one_row_per_program():
    """A repeated row would build and install its program twice, the
    second install rewriting the first one's inode."""
    native, guests = _suite()
    names = [row[0] for row in native + guests]
    assert len(names) == len(set(names))
    assert names == [name for name, __ in NATIVE + GUESTS]


def test_machines_share_no_inode_but_one_image_per_program(booted):
    """Each machine has its own ``/bin`` inodes, but they all point at
    one immutable ``bytes`` image per program, built once per process."""
    machines = [booted.machine(host)
                for host in ("brick", "schooner", "brador")]
    seen_inodes = set()
    for machine in machines:
        for inode in _bin(machine).entries.values():
            assert id(inode) not in seen_inodes
            seen_inodes.add(id(inode))
    first = _bin(machines[0]).entries
    for machine in machines[1:]:
        for name, inode in _bin(machine).entries.items():
            assert type(inode.data) is bytes, name
            assert inode.data is first[name].data, name


def _write_through_syscalls(brick, path, flags):
    """Open ``path`` on brick with ``flags`` (or ``creat`` it when
    ``flags`` is None), write a new body and close it."""
    def writer(argv, env):
        if flags is None:
            fd = yield ("creat", path, 0o755)
        else:
            fd = yield ("open", path, flags, 0)
        yield ("write", fd, b"new " + path.encode("latin-1"))
        yield ("close", fd)
        return 0
    assert run_native(brick, writer).exit_status == 0


def test_a_write_on_one_machine_copies_only_its_own_image():
    """Every write path turns brick's shared image into a private copy
    first: brick reads the new bytes, schooner and brador the original."""
    site = MigrationSite(daemons=False)
    brick, schooner, brador = (site.machine(host)
                               for host in ("brick", "schooner", "brador"))
    shared = {name: inode.data
              for name, inode in _bin(schooner).entries.items()}
    original = {name: bytes(data) for name, data in shared.items()}
    writes = [
        ("echo", lambda: brick.fs.write(_bin(brick).entries["echo"], 0,
                                        b"XXXX"),
         b"XXXX" + original["echo"][4:]),
        ("cat", lambda: _write_through_syscalls(
            brick, "/bin/cat", O_WRONLY | O_TRUNC), b"new /bin/cat"),
        ("pwd", lambda: _write_through_syscalls(brick, "/bin/pwd", None),
         b"new /bin/pwd"),
        ("wc", lambda: brick.kernel.kwrite_file(None, "/bin/wc", b"wc2"),
         b"wc2"),
        ("true", lambda: brick.fs.install_file("/bin/true", b"true2"),
         b"true2"),
        ("cpuhog", lambda: brick.install_aout("cpuhog", b"new a.out"),
         b"new a.out"),
        ("false", lambda: brick.install_native_program(
            "false", brick.programs["false"], size=32),
         b"#!native false\n" + b"\x00" * 17),
    ]
    for name, write, expected in writes:
        write()
        assert brick.fs.read_file("/bin/" + name) == expected, name
        for machine in (schooner, brador):
            assert _bin(machine).entries[name].data is shared[name]
            assert machine.fs.read_file("/bin/" + name) == original[name]


def test_reinstalling_replaces_the_data_in_the_same_inode():
    site = MigrationSite(daemons=False, server=None)
    brick = site.machine("brick")
    entries = _bin(brick).entries
    hog = entries["cpuhog"]
    brick.install_aout("cpuhog", b"new a.out")
    assert entries["cpuhog"] is hog
    assert bytes(hog.data) == b"new a.out"
    echo = entries["echo"]

    def other(*args):
        return None
    brick.install_native_program("echo", other, size=32)
    assert entries["echo"] is echo
    assert bytes(echo.data) == b"#!native echo\n" + b"\x00" * 18
    assert brick.programs["echo"] is other
    assert list(entries)[-1] == "portserver"
    brick.fs.mkdir(_bin(brick), "subdir")
    with pytest.raises(UnixError) as err:
        brick.install_aout("subdir", b"x")
    assert err.value.errno == EISDIR


def test_a_warm_site_keeps_under_256_kb_alive():
    """Sharing the ``/bin`` images leaves a warm three-machine site
    about 77 KB of its own; a private copy of ``/bin`` on every
    machine kept about 1,090 KB alive.  A byte count, not a rate, so
    it does not depend on the host's speed."""
    for __ in range(2):
        MigrationSite()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        site = MigrationSite()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert site.machine("brick").running
    assert kept < 256 * 1024, kept
