"""Unit tests for small shared pieces: errors, option parsing,
line readers, cost model, user-level symlink resolution."""

import os
import tokenize
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import errors
from repro.costmodel import CostModel, unmodified_kernel_model
from repro.programs.base import (parse_options, LineReader, write_all,
                                 read_all)


# -- errors --------------------------------------------------------------------


def test_errno_names_and_messages():
    assert errors.errno_name(errors.ENOENT) == "ENOENT"
    assert errors.strerror(errors.ENOENT) == \
        "No such file or directory"
    assert errors.errno_name(999) == "E?999"
    assert "Unknown error" in errors.strerror(999)


def test_unix_error_carries_context():
    err = errors.UnixError(errors.EACCES, "/etc/shadow")
    assert err.errno == errors.EACCES
    assert "/etc/shadow" in str(err)
    assert "EACCES" in str(err)


def test_iserr():
    assert errors.iserr(-2)
    assert not errors.iserr(0)
    assert not errors.iserr(5)
    assert not errors.iserr(b"-2")
    assert not errors.iserr("x")


# -- cost model ------------------------------------------------------------------


def test_with_overrides_does_not_mutate():
    base = CostModel()
    other = base.with_overrides(track_names=False,
                                rsh_setup_us=1.0)
    assert base.track_names and not other.track_names
    assert other.rsh_setup_us == 1.0
    assert base.rsh_setup_us != 1.0


def test_unmodified_kernel_model():
    model = unmodified_kernel_model()
    assert not model.track_names


def test_disk_io_us_scales_with_blocks():
    costs = CostModel()
    assert costs.disk_io_us(100) < costs.disk_io_us(5000)
    assert costs.disk_io_us(1, write=True) != costs.disk_io_us(1)


def test_describe_lists_every_field():
    text = CostModel().describe()
    assert "rsh_setup_us" in text
    assert "track_names" in text


def _package_tokens():
    """(path, tokens) of every module in the package, keeping only
    names, strings and operators."""
    root = os.path.dirname(repro.__file__)
    for dirpath, __, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as source:
                yield path, [token for token in
                             tokenize.generate_tokens(source.readline)
                             if token.type in (tokenize.NAME,
                                               tokenize.STRING,
                                               tokenize.OP)]


def _package_reads():
    """Every name the package's code reads as a knob: an attribute
    access (``costs.name``) or the literal a ``("sysctl", "name")`` or
    ``("sysctl0", "name")`` request carries.  A keyword argument or a
    declaration only sets a field, so neither counts."""
    reads = set()
    for __, tokens in _package_tokens():
        for first, prev, token in zip(tokens, tokens[1:], tokens[2:]):
            if token.type == tokenize.NAME and prev.string == ".":
                reads.add(token.string)
            elif token.type == tokenize.STRING and prev.string == "," \
                    and first.string in ('"sysctl"', '"sysctl0"'):
                reads.add(token.string.strip("\"'"))
    return reads


def test_every_cost_model_field_is_read():
    """No dead knobs: a field nothing reads is a setting that does
    nothing, so it must go."""
    reads = _package_reads()
    dead = [f.name for f in fields(CostModel) if f.name not in reads]
    assert dead == []


def test_sysctl0_allowlist_is_exactly_what_the_package_requests():
    """The scheduler answers ``("sysctl0", name)`` for free only for
    allowlisted knobs; an entry nothing requests that way is dead."""
    from repro.kernel.scheduler import _SYSCTL0_KNOBS
    requested = set()
    for __, tokens in _package_tokens():
        for first, prev, token in zip(tokens, tokens[1:], tokens[2:]):
            if first.string == '"sysctl0"' and prev.string == "," \
                    and token.type == tokenize.STRING:
                requested.add(token.string.strip("\"'"))
    assert set(_SYSCTL0_KNOBS) == requested


# -- option parsing ------------------------------------------------------------------


def test_parse_options_values_and_flags():
    opts, pos = parse_options(
        ["migrate", "-p", "12", "-d", "extra"],
        {"-p": True, "-d": False})
    assert opts == {"-p": "12", "-d": True}
    assert pos == ["extra"]


def test_parse_options_unknown_flag():
    message, pos = parse_options(["x", "-z"], {"-p": True})
    assert pos is None
    assert "-z" in message


def test_parse_options_missing_value():
    message, pos = parse_options(["x", "-p"], {"-p": True})
    assert pos is None
    assert "-p" in message


# -- coroutine helpers -----------------------------------------------------------------


def drive(gen, script):
    """Run a syscall coroutine against a scripted kernel.

    ``script`` maps request name to a list of successive results.
    Returns the coroutine's return value.
    """
    try:
        request = next(gen)
        while True:
            name = request[0]
            result = script[name].pop(0)
            request = gen.send(result)
    except StopIteration as done:
        return done.value


def test_write_all_retries_partial_writes():
    calls = []

    def fake():
        result = yield from write_all(5, b"abcdef")
        return result

    gen = fake()
    request = next(gen)
    assert request == ("write", 5, b"abcdef")
    request = gen.send(2)  # only 2 bytes went
    assert request == ("write", 5, b"cdef")
    with pytest.raises(StopIteration) as stop:
        gen.send(4)
    assert stop.value.value == 6


def test_write_all_propagates_errors():
    def fake():
        return (yield from write_all(5, b"abc"))

    gen = fake()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.send(-13)
    assert stop.value.value == -13


def test_read_all_concatenates_until_eof():
    def fake():
        return (yield from read_all(3))

    value = drive(fake(), {"read": [b"ab", b"cd", b""]})
    assert value == b"abcd"


def test_line_reader_split_and_remainder():
    reader = LineReader(7)

    def fake():
        first = yield from reader.readline()
        second = yield from reader.readline()
        rest = yield from reader.read_remaining()
        return first, second, rest

    value = drive(fake(), {
        "read": [b"alpha\nbe", b"ta\ngam", b"ma", b""]})
    assert value == ("alpha", "beta", b"gamma")


def test_line_reader_eof_returns_none():
    reader = LineReader(7)

    def fake():
        return (yield from reader.readline())

    assert drive(fake(), {"read": [b""]}) is None


# -- user-level symlink resolution ------------------------------------------------------


def test_resolve_symlinks_through_site(site):
    """The dumpproc coroutine resolves the paper's /u/<user> chain."""
    from repro.core.symlinks import resolve_symlinks_syscalls
    brick = site.machine("brick")
    result = {}

    def prog(argv, env):
        result["home"] = yield from resolve_symlinks_syscalls(
            "/u/alonso/work.txt")
        result["plain"] = yield from resolve_symlinks_syscalls(
            "/usr/tmp")
        result["relative"] = yield from resolve_symlinks_syscalls(
            "/usr/tmp/../tmp")
        # a missing last component is kept (the file may not exist yet)
        result["missing"] = yield from resolve_symlinks_syscalls(
            "/u/kyrimis/newfile")
        return 0

    brick.install_native_program("resolver", prog)
    handle = brick.spawn("/bin/resolver", uid=100)
    site.run_until(lambda: handle.exited)
    assert result["home"] == "/n/brador/u2/alonso/work.txt"
    assert result["plain"] == "/usr/tmp"
    assert result["relative"] == "/usr/tmp"
    assert result["missing"] == "/n/brador/u2/kyrimis/newfile"


def test_resolve_symlinks_loop_errors(site):
    from repro.core.symlinks import resolve_symlinks_syscalls
    from repro.errors import ELOOP
    brick = site.machine("brick")
    brick.fs.symlink(brick.fs.root, "loopa", "/loopb")
    brick.fs.symlink(brick.fs.root, "loopb", "/loopa")
    result = {}

    def prog(argv, env):
        result["value"] = yield from resolve_symlinks_syscalls(
            "/loopa/file")
        return 0

    brick.install_native_program("resolver", prog)
    handle = brick.spawn("/bin/resolver", uid=100)
    site.run_until(lambda: handle.exited)
    assert result["value"] == -ELOOP


# -- namei agrees with the lexical model when no links exist ------------------------------


_COMPONENT = st.sampled_from(["usr", "tmp", "bin", "etc", "u", ".",
                              ".."])


@given(parts=st.lists(_COMPONENT, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_namei_matches_lexical_resolution(parts):
    """Without symlinks, a *successful* namei lands exactly where
    normalize() predicts.  (namei is allowed to be stricter: real
    Unix rejects ``/missing/..`` even though it normalizes to ``/``.)
    """
    from repro.fs import FileSystem, Namespace
    from repro.fs.paths import normalize
    from repro.errors import UnixError

    fs = FileSystem("solo")
    for path in ("/usr/tmp", "/bin", "/etc", "/u"):
        fs.makedirs(path)
    ns = Namespace(fs, {})
    path = "/" + "/".join(parts)
    expected = normalize(path)
    try:
        resolved = ns.resolve(path)
    except UnixError:
        return  # stricter-than-lexical failures are fine
    assert resolved.inode is fs.resolve_local(expected)
