"""Tests for path resolution: symlinks, /n mounts, NFS semantics."""

import itertools

import pytest

from repro.errors import UnixError, ENOENT, ELOOP, ENOTDIR, EACCES
from repro.fs import FileSystem, Namespace
from repro.fs.paths import split_remote


def make_site():
    """Two workstations and a file server, cross-mounted like the paper."""
    brick = FileSystem("brick")
    schooner = FileSystem("schooner")
    brador = FileSystem("brador")  # the file server
    for fs in (brick, schooner, brador):
        fs.makedirs("/usr/tmp")
        fs.makedirs("/etc")
        fs.makedirs("/dev")
    brador.makedirs("/u2/kyrimis")
    brador.install_file("/u2/kyrimis/notes.txt", b"some notes")
    # home directories are symlinks to the file server (paper footnote)
    for fs in (brick, schooner):
        u = fs.makedirs("/u")
        fs.symlink(u, "kyrimis", "/n/brador/u2/kyrimis")
    hosts = {"brick": brick, "schooner": schooner, "brador": brador}

    def namespace(name):
        remote = {h: f for h, f in hosts.items() if h != name}
        return Namespace(hosts[name], remote)

    return hosts, namespace


@pytest.fixture
def site():
    return make_site()


def test_local_resolution(site):
    hosts, namespace = site
    ns = namespace("brick")
    r = ns.resolve("/usr/tmp")
    assert r.fs is hosts["brick"]
    assert r.inode.is_dir()
    assert r.name == "tmp"


def test_missing_is_enoent(site):
    __, namespace = site
    with pytest.raises(UnixError) as exc:
        namespace("brick").resolve("/no/such/path")
    assert exc.value.errno == ENOENT


def test_remote_resolution_via_n(site):
    hosts, namespace = site
    ns = namespace("brick")
    r = ns.resolve("/n/brador/u2/kyrimis/notes.txt")
    assert r.fs is hosts["brador"]
    assert bytes(r.inode.data) == b"some notes"


def test_unknown_host_is_enoent(site):
    __, namespace = site
    with pytest.raises(UnixError) as exc:
        namespace("brick").resolve("/n/nosuchhost/etc")
    assert exc.value.errno == ENOENT


def test_symlink_to_remote_followed(site):
    hosts, namespace = site
    ns = namespace("brick")
    r = ns.resolve("/u/kyrimis/notes.txt")
    assert r.fs is hosts["brador"]


def test_client_side_symlink_resolution(site):
    """A symlink stored on a remote machine resolves in *our* namespace.

    This is the paper's section 4.3 problem: /usr/foo on classic where
    /usr -> /n/brador/usr means the file actually lives on brador.
    """
    hosts, namespace = site
    classic = FileSystem("classic")
    classic.symlink(classic.root, "share", "/n/brador/u2")
    hosts["classic"] = classic

    remote = {h: f for h, f in hosts.items() if h != "brick"}
    ns = Namespace(hosts["brick"], remote)
    # walking through classic's symlink lands on brador, resolved by us
    r = ns.resolve("/n/classic/share/kyrimis/notes.txt")
    assert r.fs is hosts["brador"]


def test_nested_n_is_rejected(site):
    """NFS does not allow /n/a/n/b — /n is client-side only."""
    __, namespace = site
    ns = namespace("schooner")
    with pytest.raises(UnixError) as exc:
        ns.resolve("/n/brick/n/brador/u2")
    assert exc.value.errno == ENOENT


def test_dotdot_climbs_out_of_remote_root(site):
    hosts, namespace = site
    ns = namespace("brick")
    # /n/brador/.. is the virtual /n; /n/brador/../brick is brick's root
    # ... but brick is remote-from-brick? no: /n only lists *other* hosts
    r = ns.resolve("/n/brador/../schooner/usr")
    assert r.fs is hosts["schooner"]


def test_dotdot_at_local_root_stays(site):
    hosts, namespace = site
    ns = namespace("brick")
    r = ns.resolve("/../../usr")
    assert r.fs is hosts["brick"]
    assert r.name == "usr"


def test_relative_resolution_with_cwd(site):
    hosts, namespace = site
    ns = namespace("brick")
    cwd = ns.resolve("/usr")
    r = ns.resolve("tmp", cwd=(cwd.fs, cwd.inode))
    assert r.inode is hosts["brick"].resolve_local("/usr/tmp")


def test_want_parent_for_missing_file(site):
    hosts, namespace = site
    ns = namespace("brick")
    r = ns.resolve("/usr/tmp/newfile", want_parent=True)
    assert r.inode is None
    assert r.parent is hosts["brick"].resolve_local("/usr/tmp")
    assert r.name == "newfile"


def test_want_parent_missing_directory_still_fails(site):
    __, namespace = site
    with pytest.raises(UnixError) as exc:
        namespace("brick").resolve("/no/dir/file", want_parent=True)
    assert exc.value.errno == ENOENT


def test_follow_false_returns_the_link(site):
    hosts, namespace = site
    ns = namespace("brick")
    r = ns.resolve("/u/kyrimis", follow=False)
    assert r.inode.is_link()
    assert r.inode.target == "/n/brador/u2/kyrimis"


def test_symlink_loop_is_eloop(site):
    hosts, namespace = site
    fs = hosts["brick"]
    fs.symlink(fs.root, "a", "/b")
    fs.symlink(fs.root, "b", "/a")
    with pytest.raises(UnixError) as exc:
        namespace("brick").resolve("/a")
    assert exc.value.errno == ELOOP


def test_relative_symlink(site):
    hosts, namespace = site
    fs = hosts["brick"]
    d = fs.makedirs("/opt/stuff")
    fs.install_file("/opt/stuff/real.txt", b"x")
    fs.symlink(d, "alias.txt", "real.txt")
    r = namespace("brick").resolve("/opt/stuff/alias.txt")
    assert bytes(r.inode.data) == b"x"


def test_file_in_middle_is_enotdir(site):
    hosts, namespace = site
    hosts["brick"].install_file("/etc/motd", b"hi")
    with pytest.raises(UnixError) as exc:
        namespace("brick").resolve("/etc/motd/deeper")
    assert exc.value.errno == ENOTDIR


def test_create_inside_n_is_refused(site):
    __, namespace = site
    with pytest.raises(UnixError) as exc:
        namespace("brick").resolve("/n/newhost", want_parent=True)
    assert exc.value.errno == EACCES


def test_charge_callback_distinguishes_remote(site):
    hosts, __ = site
    charges = []
    remote = {h: f for h, f in hosts.items() if h != "brick"}
    ns = Namespace(hosts["brick"],
                   remote,
                   charge=lambda op, fs: charges.append((op, fs.hostname)))
    ns.resolve("/n/brador/u2/kyrimis/notes.txt")
    assert ("lookup", "brador") in charges
    assert all(host == "brador" for __, host in charges)


def test_resolve_root(site):
    hosts, namespace = site
    r = namespace("brick").resolve("/")
    assert r.inode is hosts["brick"].root


# -- split_remote classifies names the way namei walks them ------------------

#: the words the exhaustive comparison builds names from
_WORDS = ("n", "brick", "brador", "usr", ".", "..")
_DIRS = ("n", "brick", "brador", "usr")


def _grow(fs, local):
    """Make every name of up to four ``_DIRS`` words a directory of
    ``fs`` (but a local ``/n``, which would hide the mount)."""
    for depth in range(1, 5):
        for words in itertools.product(_DIRS, repeat=depth):
            if not (local and words[0] == "n"):
                fs.makedirs("/" + "/".join(words))
    return fs


def _walked_site():
    """The test site seen from schooner, grown so that namei walks
    every symlink-free name of ``_WORDS`` to its end: all those
    directories exist, and ``/n/<any word>`` mounts a filesystem."""
    hosts, __ = make_site()
    local = _grow(hosts["schooner"], True)
    mounts = {name: _grow(fs, False) for name, fs in hosts.items()
              if fs is not local}

    def remote(name):
        if name not in mounts:
            mounts[name] = _grow(FileSystem(name), False)
        return mounts[name]

    return Namespace(local, remote)


def _namei_host(ns, path):
    """The host whose filesystem namei's walk of ``path`` ends on."""
    try:
        fs = ns.resolve(path).fs
    except UnixError as err:
        assert err.errno == EACCES, path  # the walk ended in /n itself
        return None
    return None if fs is ns.local_fs else fs.hostname


def test_split_remote_agrees_with_namei():
    """Every symlink-free name of up to four words, spelled with single
    and doubled slashes: ``split_remote`` and ``Namespace.resolve``
    agree on the host, or on none, and the rest names the same inode
    on that host."""
    ns = _walked_site()
    checked = 0
    for depth in range(5):
        for words in itertools.product(_WORDS, repeat=depth):
            for path in ("/" + "/".join(words), "//" + "//".join(words)):
                host, rest = split_remote(path)
                assert host == _namei_host(ns, path), path
                if host is not None:
                    assert ns.remote_fs(host).resolve_local(rest) \
                        is ns.resolve(path).inode, path
                checked += 1
    assert checked == 2 * sum(len(_WORDS) ** d for d in range(5))
