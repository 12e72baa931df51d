"""The /bin every machine of a ``MigrationSite()`` boots with.

Pins the installed suite: names in install order, ownership and mode,
the native programs' padded marker files, the guest a.outs, and that
no two machines share an inode or a data buffer.
"""

import pytest

from repro.core.api import MigrationSite
from repro.errors import EISDIR, UnixError
from repro.programs import _suite
from repro.programs.guest.counter import counter_aout
from repro.programs.guest.cpuhog import cpuhog_aout
from repro.programs.guest.editor import editor_aout
from repro.programs.guest.envdep import envdep_aout
from repro.programs.guest.pidtemp import pidtemp_aout
from repro.programs.guest.portserver import portserver_aout
from repro.programs.guest.sockuser import sockuser_aout
from repro.programs.guest.waiter import waiter_aout

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


def test_machines_share_no_inode_or_buffer(booted):
    machines = [booted.machine(host)
                for host in ("brick", "schooner", "brador")]
    seen_inodes, seen_buffers = set(), set()
    for machine in machines:
        for inode in _bin(machine).entries.values():
            assert id(inode) not in seen_inodes
            assert id(inode.data) not in seen_buffers
            seen_inodes.add(id(inode))
            seen_buffers.add(id(inode.data))
    site = MigrationSite(daemons=False)
    brick, schooner = site.machine("brick"), site.machine("schooner")
    echo = _bin(brick).entries["echo"]
    brick.fs.write(echo, 0, b"XXXX")
    assert brick.fs.read_file("/bin/echo").startswith(b"XXXX")
    assert schooner.fs.read_file("/bin/echo").startswith(b"#!native echo\n")


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
