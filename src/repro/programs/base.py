"""Coroutine helpers for native (Python-coded) user programs.

Native programs are generators that interact with the kernel only by
yielding syscall requests (``("open", path, flags)``) and receiving
results.  These helpers are sub-coroutines used with ``yield from``;
they compose like ordinary library calls but every kernel interaction
still flows through the syscall boundary (and is charged for).

Error convention: kernel errors arrive as negative ints (``-errno``);
:func:`repro.errors.iserr` tests for them.
"""

from repro.errors import iserr, ECHILD, EEXIST, EIO
from repro.kernel.constants import (O_CREAT, O_RDONLY, O_TRUNC,
                                    O_WRONLY)
from repro.programs.exitcodes import EX_FAIL


def write_all(fd, data):
    """Write every byte of ``data`` (retrying partial writes)."""
    if isinstance(data, str):
        data = data.encode("latin-1")
    done = 0
    while done < len(data):
        count = yield ("write", fd, data[done:])
        if iserr(count):
            return count
        done += count
    return done


def println(text=""):
    return (yield from write_all(1, text + "\n"))


def print_err(text):
    return (yield from write_all(2, text + "\n"))


def read_all(fd, chunk=4096):
    """Read ``fd`` to EOF; returns bytes (or -errno)."""
    parts = []
    while True:
        data = yield ("read", fd, chunk)
        if iserr(data):
            return data
        if data == b"":
            return b"".join(parts)
        parts.append(data)


def read_file(path):
    """Open + read a whole file; bytes or -errno."""
    fd = yield ("open", path, O_RDONLY, 0)
    if iserr(fd):
        return fd
    data = yield from read_all(fd)
    yield ("close", fd)
    return data


def write_file(path, data, mode=0o600):
    """Create/overwrite ``path`` with ``data``; 0 or -errno."""
    fd = yield ("open", path, O_WRONLY | O_CREAT | O_TRUNC, mode)
    if iserr(fd):
        return fd
    result = yield from write_all(fd, data)
    yield ("close", fd)
    return 0 if not iserr(result) else result


def replace_file(path, data, tag=None):
    """yield-from: atomically replace ``path`` with ``data`` (mode
    0644); 0 or -errno.

    Write-then-rename within one directory, so concurrent readers see
    either the old or the new contents, never a prefix.  The temp
    file is ``<path>.tmp``, or ``<path>.<tag>.tmp`` for writers that
    race each other and must not share one.
    """
    tmp = "%s.tmp" % path if tag is None else "%s.%d.tmp" % (path, tag)
    result = yield from write_file(tmp, data, mode=0o644)
    if iserr(result):
        return result
    result = yield ("rename", tmp, path)
    return result if iserr(result) else 0


def mkdir_p(path):
    """yield-from: create ``path`` and its parents; EEXIST is fine."""
    parts = [part for part in path.split("/") if part]
    built = ""
    result = 0
    for part in parts:
        built += "/" + part
        result = yield ("mkdir", built, 0o755)
    return 0 if (not iserr(result) or result == -EEXIST) else result


def read_prefix(path, nbytes):
    """The first ``nbytes`` of a file, or -errno (-EIO if shorter)."""
    fd = yield ("open", path, O_RDONLY, 0)
    if iserr(fd):
        return fd
    data = yield ("read", fd, nbytes)
    yield ("close", fd)
    if iserr(data):
        return data
    if len(data) < nbytes:
        return -EIO  # truncated: the dump is damaged
    return data


def remove_files(paths):
    """Unlink every path, ignoring failures (best-effort cleanup)."""
    for path in paths:
        yield ("unlink", path)


def wait_for(child):
    """Reap children until ``child`` exits; returns its exit status
    (``EX_FAIL`` if a signal killed it or the wait failed, ``-ECHILD``
    if no child is left to wait for).  Other children reaped on the
    way are discarded."""
    while True:
        result = yield ("wait",)
        if iserr(result):
            return result if result == -ECHILD else EX_FAIL
        reaped, raw = result
        if reaped == child:
            return exit_status(raw)


def exit_status(raw):
    """A raw wait status as an exit status: the child's ``exit``
    code, or ``EX_FAIL`` if a signal killed it."""
    return (raw >> 8) & 0xFF if not raw & 0x7F else EX_FAIL


class LineReader:
    """Buffered line reading over a raw fd (sockets, files)."""

    def __init__(self, fd):
        self.fd = fd
        self.buffer = bytearray()
        self.eof = False

    def readline(self):
        """yield-from: one line without the newline, or None at EOF."""
        while b"\n" not in self.buffer and not self.eof:
            data = yield ("read", self.fd, 512)
            if iserr(data) or data == b"":
                self.eof = True
                break
            self.buffer.extend(data)
        if b"\n" in self.buffer:
            index = self.buffer.index(b"\n")
            line = bytes(self.buffer[:index]).decode("latin-1")
            del self.buffer[:index + 1]
            return line
        if self.buffer:
            line = bytes(self.buffer).decode("latin-1")
            del self.buffer[:]
            return line
        return None

    def read_remaining(self):
        """yield-from: everything up to EOF as bytes."""
        rest = yield from read_all(self.fd)
        if iserr(rest):
            rest = b""
        data = bytes(self.buffer) + rest
        del self.buffer[:]
        self.eof = True
        return data


def parse_options(argv, spec):
    """A tiny getopt: ``spec`` maps ``-x`` flags to ``True`` (takes a
    value) or ``False`` (boolean).  Returns ``(options, positional)``
    or an error string.
    """
    options = {}
    positional = []
    index = 1
    while index < len(argv):
        arg = argv[index]
        if arg.startswith("-") and len(arg) > 1:
            if arg not in spec:
                return "unknown option %s" % arg, None
            if spec[arg]:
                if index + 1 >= len(argv):
                    return "option %s needs a value" % arg, None
                options[arg] = argv[index + 1]
                index += 2
            else:
                options[arg] = True
                index += 1
        else:
            positional.append(arg)
            index += 1
    return options, positional
