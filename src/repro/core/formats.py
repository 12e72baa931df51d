"""The dump-file protocol: the ``SIGDUMP`` files' formats and names.

``SIGDUMP`` produces three files in ``/usr/tmp``, named by the pid of
the dumped process:

``a.outXXXXX``
    a runnable executable: the text and data segments with an a.out
    header prepended (see :mod:`repro.vm.aout`).

``filesXXXXX`` (magic octal 445)
    "all the information that is not needed by the kernel to restart
    the process, but must be used at user level": hostname, current
    working directory, one entry per slot of the fixed-size open file
    table (unused / open file with path+flags+offset / socket), and
    the terminal flags.

``stackXXXXX`` (magic octal 444)
    "all the information that is required by the kernel": user
    credentials, the size and contents of the stack, the registers,
    and the signal dispositions.

Strings are length-prefixed (u16 little endian).  All path names in
the files file are *lexically* absolute but may still contain
symbolic links — resolving them is explicitly the job of the
user-level ``dumpproc`` (section 4.3 of the paper).

This module owns that contract, magics and a.out header aside: the
layouts and every dump, archive and ledger file name, migration id,
a.out sniff and stack-file size rule.
"""

import struct

from repro.errors import UnixError, EINVAL, ENOEXEC
from repro.fs.paths import remote_name, split_remote
from repro.kernel.constants import (NOFILE, FILES_MAGIC, STACK_MAGIC,
                                    STACK_CHUNK_MAGIC, CHUNK_MAGIC,
                                    DUMPDIR)
from repro.kernel.cred import Credentials, PACKED_SIZE as CRED_SIZE
from repro.kernel.signals import SigState
from repro.store import DIGEST_BYTES
from repro.vm.aout import (AOutHeader, HEADER_SIZE, AOUT_FLAG_CHUNKED,
                           AOUT_MAGIC)
from repro.vm.image import Registers

FD_UNUSED = 0
FD_FILE = 1
FD_SOCKET = 2  #: sockets *and* pipes: neither survives migration
#: extension (paper section 9 future work): a socket that was bound
#: to a well-known port, recorded with the port and whether it was
#: listening, so restart can re-establish the service endpoint
FD_SOCKET_BOUND = 3

_U16 = struct.Struct("<H")
_I32 = struct.Struct("<i")
_U32 = struct.Struct("<I")


class _Writer:
    def __init__(self):
        self.parts = []

    def u16(self, value):
        self.parts.append(_U16.pack(value))

    def i32(self, value):
        self.parts.append(_I32.pack(value))

    def u32(self, value):
        self.parts.append(_U32.pack(value))

    def raw(self, blob):
        self.parts.append(bytes(blob))

    def string(self, text):
        data = text.encode("latin-1")
        if len(data) > 0xFFFF:
            raise UnixError(EINVAL, "string too long for dump format")
        self.u16(len(data))
        self.raw(data)

    def getvalue(self):
        return b"".join(self.parts)


class _Reader:
    def __init__(self, blob, what):
        self.blob = blob
        self.pos = 0
        self.what = what

    def _take(self, size):
        if self.pos + size > len(self.blob):
            raise UnixError(EINVAL, "truncated %s file" % self.what)
        chunk = self.blob[self.pos:self.pos + size]
        self.pos += size
        return chunk

    def u16(self):
        return _U16.unpack(self._take(2))[0]

    def i32(self):
        return _I32.unpack(self._take(4))[0]

    def u32(self):
        return _U32.unpack(self._take(4))[0]

    def raw(self, size):
        return bytes(self._take(size))

    def string(self):
        return self.raw(self.u16()).decode("latin-1")


class ChunkManifest:
    """A digest list standing in for a blob in an incremental dump.

    Layout: magic (u16), chunk size (u32), blob length (u32), chunk
    count (u16), then ``count`` raw digests.  The count is fully
    determined by length and chunk size — it is stored anyway and
    cross-checked on unpack, so a truncated or doctored manifest is
    rejected before any chunk is fetched.
    """

    #: magic + chunk_bytes + length + count
    HEADER_SIZE = 2 + 4 + 4 + 2

    def __init__(self, chunk_bytes, length, digests):
        self.chunk_bytes = int(chunk_bytes)
        self.length = int(length)
        self.digests = tuple(digests)
        if self.chunk_bytes <= 0:
            raise UnixError(EINVAL, "bad manifest chunk size %d"
                            % self.chunk_bytes)
        if self.length < 0:
            raise UnixError(EINVAL, "bad manifest length %d" % self.length)
        expected = -(-self.length // self.chunk_bytes)
        if len(self.digests) != expected:
            raise UnixError(EINVAL, "manifest wants %d chunks, has %d"
                            % (expected, len(self.digests)))
        if any(len(d) != DIGEST_BYTES for d in self.digests):
            raise UnixError(EINVAL, "bad manifest digest width")

    def chunk_size(self, index):
        """Size of chunk ``index`` (the last one may be short)."""
        return min(self.chunk_bytes, self.length - index * self.chunk_bytes)

    def packed_size(self):
        return self.HEADER_SIZE + DIGEST_BYTES * len(self.digests)

    def pack_into(self, writer):
        writer.u16(CHUNK_MAGIC)
        writer.u32(self.chunk_bytes)
        writer.u32(self.length)
        writer.u16(len(self.digests))
        for digest in self.digests:
            writer.raw(digest)

    def pack(self):
        writer = _Writer()
        self.pack_into(writer)
        return writer.getvalue()

    @staticmethod
    def read_header(reader):
        """Read and check a header: ``(chunk_bytes, length, count)``."""
        magic = reader.u16()
        if magic != CHUNK_MAGIC:
            raise UnixError(EINVAL, "bad chunk manifest magic 0o%o"
                            % magic)
        chunk_bytes = reader.u32()
        length = reader.u32()
        count = reader.u16()
        if chunk_bytes <= 0:
            raise UnixError(EINVAL, "bad manifest chunk size %d"
                            % chunk_bytes)
        if count != -(-length // chunk_bytes):
            raise UnixError(EINVAL,
                            "manifest count %d does not match length %d"
                            % (count, length))
        return chunk_bytes, length, count

    @classmethod
    def unpack_from(cls, reader):
        chunk_bytes, length, count = cls.read_header(reader)
        digests = [reader.raw(DIGEST_BYTES) for __ in range(count)]
        return cls(chunk_bytes, length, digests)

    @classmethod
    def unpack(cls, blob):
        return cls.unpack_from(_Reader(blob, "chunk manifest"))

    def __eq__(self, other):
        if not isinstance(other, ChunkManifest):
            return NotImplemented
        return (self.chunk_bytes, self.length, self.digests) == \
            (other.chunk_bytes, other.length, other.digests)

    def __repr__(self):
        return ("ChunkManifest(chunk_bytes=%d length=%d chunks=%d)"
                % (self.chunk_bytes, self.length, len(self.digests)))


def pack_chunked_aout(header, text_manifest, data_manifest):
    """An ``a.outXXXXX`` that references its segments by digest.

    The header keeps the *real* segment sizes (so restart can size
    memory before fetching anything) and gains ``AOUT_FLAG_CHUNKED``.
    """
    header.flags |= AOUT_FLAG_CHUNKED
    writer = _Writer()
    writer.raw(header.pack())
    text_manifest.pack_into(writer)
    data_manifest.pack_into(writer)
    return writer.getvalue()


def unpack_chunked_aout(blob):
    """Parse a chunked a.out into (header, text, data) manifests."""
    header = AOutHeader.unpack(blob)
    if not header.flags & AOUT_FLAG_CHUNKED:
        raise UnixError(ENOEXEC, "a.out is not chunked")
    reader = _Reader(blob, "a.out")
    reader._take(HEADER_SIZE)
    text_manifest = ChunkManifest.unpack_from(reader)
    data_manifest = ChunkManifest.unpack_from(reader)
    if text_manifest.length != header.text_size \
            or data_manifest.length != header.data_size:
        raise UnixError(ENOEXEC, "chunked a.out manifest/header mismatch")
    return header, text_manifest, data_manifest


def stack_is_chunked(blob):
    """Sniff a stackXXXXX prefix for the chunked-variant magic."""
    return len(blob) >= 2 and _U16.unpack_from(blob)[0] == STACK_CHUNK_MAGIC


class FdEntry:
    """One slot of the open file table, as recorded in filesXXXXX."""

    __slots__ = ("kind", "path", "flags", "offset", "port",
                 "listening")

    def __init__(self, kind=FD_UNUSED, path="", flags=0, offset=0,
                 port=0, listening=False):
        self.kind = kind
        self.path = path
        self.flags = flags
        self.offset = offset
        self.port = port
        self.listening = listening

    def is_file(self):
        return self.kind == FD_FILE

    def is_bound_socket(self):
        return self.kind == FD_SOCKET_BOUND

    def __eq__(self, other):
        if not isinstance(other, FdEntry):
            return NotImplemented
        return (self.kind, self.path, self.flags, self.offset,
                self.port, self.listening) == \
            (other.kind, other.path, other.flags, other.offset,
             other.port, other.listening)

    def __repr__(self):
        if self.kind == FD_UNUSED:
            return "FdEntry(unused)"
        if self.kind == FD_SOCKET:
            return "FdEntry(socket)"
        if self.kind == FD_SOCKET_BOUND:
            return "FdEntry(socket port=%d listening=%s)" % (
                self.port, self.listening)
        return "FdEntry(%r flags=%o offset=%d)" % (self.path, self.flags,
                                                   self.offset)


class FilesInfo:
    """Contents of the ``filesXXXXX`` file (magic 0445)."""

    def __init__(self, hostname="", cwd="/", entries=None, tty_flags=0):
        self.hostname = hostname
        self.cwd = cwd
        self.entries = list(entries) if entries is not None else \
            [FdEntry() for __ in range(NOFILE)]
        if len(self.entries) != NOFILE:
            raise UnixError(EINVAL, "file table must have %d slots"
                            % NOFILE)
        self.tty_flags = tty_flags

    def pack(self):
        writer = _Writer()
        writer.u16(FILES_MAGIC)
        writer.string(self.hostname)
        writer.string(self.cwd)
        for entry in self.entries:
            writer.raw(bytes([entry.kind]))
            if entry.kind == FD_FILE:
                writer.string(entry.path)
                writer.i32(entry.flags)
                writer.i32(entry.offset)
            elif entry.kind == FD_SOCKET_BOUND:
                writer.i32(entry.port)
                writer.raw(bytes([1 if entry.listening else 0]))
        writer.i32(self.tty_flags)
        return writer.getvalue()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, "files")
        magic = reader.u16()
        if magic != FILES_MAGIC:
            raise UnixError(EINVAL,
                            "bad files magic 0o%o (want 0o%o)"
                            % (magic, FILES_MAGIC))
        hostname = reader.string()
        cwd = reader.string()
        entries = []
        for __ in range(NOFILE):
            kind = reader.raw(1)[0]
            if kind == FD_FILE:
                path = reader.string()
                flags = reader.i32()
                offset = reader.i32()
                entries.append(FdEntry(FD_FILE, path, flags, offset))
            elif kind == FD_SOCKET_BOUND:
                port = reader.i32()
                listening = bool(reader.raw(1)[0])
                entries.append(FdEntry(FD_SOCKET_BOUND, port=port,
                                       listening=listening))
            elif kind in (FD_UNUSED, FD_SOCKET):
                entries.append(FdEntry(kind))
            else:
                raise UnixError(EINVAL, "bad fd entry kind %d" % kind)
        tty_flags = reader.i32()
        return cls(hostname, cwd, entries, tty_flags)


class StackInfo:
    """Contents of the ``stackXXXXX`` file (magic 0444).

    Field order follows the paper: magic, credentials, stack size,
    stack contents, registers, signal dispositions.
    """

    def __init__(self, cred=None, stack=b"", registers=None,
                 sigstate=None, stack_manifest=None):
        self.cred = cred or Credentials()
        self.stack = bytes(stack)
        #: chunked variant (magic 0443): the stack bytes live in the
        #: chunk store and this manifest references them; ``stack``
        #: stays empty
        self.stack_manifest = stack_manifest
        if stack_manifest is not None and self.stack:
            raise UnixError(EINVAL, "stack info cannot carry both "
                            "inline bytes and a manifest")
        self.registers = registers or Registers()
        self.sigstate = sigstate or SigState()

    @property
    def stack_size(self):
        if self.stack_manifest is not None:
            return self.stack_manifest.length
        return len(self.stack)

    def pack(self):
        writer = _Writer()
        if self.stack_manifest is not None:
            # same prefix layout as the classic variant (magic, cred,
            # u32 stack size) so peek_header() serves both
            writer.u16(STACK_CHUNK_MAGIC)
            writer.raw(self.cred.pack())
            writer.u32(self.stack_manifest.length)
            self.stack_manifest.pack_into(writer)
        else:
            writer.u16(STACK_MAGIC)
            writer.raw(self.cred.pack())
            writer.u32(len(self.stack))
            writer.raw(self.stack)
        writer.raw(self.registers.pack())
        writer.raw(self.sigstate.pack())
        return writer.getvalue()

    @staticmethod
    def read_header(reader):
        """Read the prefix: ``(magic, credentials, stack size)``."""
        magic = reader.u16()
        if magic not in (STACK_MAGIC, STACK_CHUNK_MAGIC):
            raise UnixError(EINVAL,
                            "bad stack magic 0o%o (want 0o%o)"
                            % (magic, STACK_MAGIC))
        return magic, Credentials.unpack(reader.raw(CRED_SIZE)), \
            reader.u32()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, "stack")
        magic, cred, stack_size = cls.read_header(reader)
        stack = b""
        manifest = None
        if magic == STACK_CHUNK_MAGIC:
            manifest = ChunkManifest.unpack_from(reader)
            if manifest.length != stack_size:
                raise UnixError(EINVAL, "stack manifest length %d != %d"
                                % (manifest.length, stack_size))
        else:
            stack = reader.raw(stack_size)
        registers = Registers.unpack(reader.raw(Registers.FORMAT.size))
        sigstate = SigState.unpack(reader.raw(SigState.PACKED_SIZE))
        return cls(cred, stack, registers, sigstate,
                   stack_manifest=manifest)

    @classmethod
    def peek_header(cls, blob):
        """Read only magic, credentials and stack size.

        This is what ``rest_proc()`` does first: "opens the stackXXXXX
        file, checking access permissions and verifying its format by
        checking the magic number ... reads the user credentials and
        the size of the stack".  Both the classic and the chunked
        variant share this prefix, and the size is always the *real*
        stack size, not the manifest size.
        """
        return cls.read_header(_Reader(blob, "stack"))[1:]


def dump_dir(host, local):
    """``host``'s dump directory, as named from ``local``."""
    return remote_name(host, DUMPDIR, local)


def dump_file_names(pid, directory=DUMPDIR):
    """The three dump file paths for a pid: (a.out, files, stack)."""
    return ("%s/a.out%d" % (directory, pid),
            "%s/files%d" % (directory, pid),
            "%s/stack%d" % (directory, pid))


def dump_pid(name, prefix="a.out"):
    """The pid of a ``<prefix><pid>`` dump file name, else None (an
    a.out's name is the command of the process restarted from it)."""
    digits = name[len(prefix):]
    return int(digits) if name.startswith(prefix) and digits.isdecimal() \
        else None


def stack_files_name(stack_path):
    """The ``filesXXXXX`` beside a ``stackXXXXX`` path, else None."""
    head, sep, tail = stack_path.rpartition("/")
    pid = dump_pid(tail, "stack")
    return None if pid is None else head + sep + "files%d" % pid


def migration_id(host, pid):
    """``<source-host>:<pid>``: keys a migration's trace and ledger."""
    return "%s:%d" % (host, pid)


def dump_migration_id(aout_path, local_host):
    """The migration id of an a.out path: the host from a ``/n/<host>``
    prefix, else ``local_host``; pid -1 for a name not ``a.out<pid>``.
    """
    pid = dump_pid(aout_path.rpartition("/")[2])
    return migration_id(split_remote(aout_path)[0] or local_host,
                        -1 if pid is None else pid)


def is_aout(prefix):
    """Whether ``prefix`` opens with the a.out magic 0407."""
    return len(prefix) >= 2 and _U16.unpack_from(prefix)[0] == AOUT_MAGIC


#: magic + credentials + stack size (all ``restart`` reads), and that
#: plus the manifest header of a chunked stack
STACK_HEADER_SIZE = 2 + CRED_SIZE + 4
CHUNKED_STACK_HEADER_SIZE = STACK_HEADER_SIZE + ChunkManifest.HEADER_SIZE


def stack_file_size(prefix):
    """The exact size of a stack file, from its header (and a chunked
    stack's manifest header, which must match it) in ``prefix``."""
    reader = _Reader(prefix, "stack")
    magic, __, body = StackInfo.read_header(reader)
    if magic == STACK_CHUNK_MAGIC:
        __, length, count = ChunkManifest.read_header(reader)
        if length != body:
            raise UnixError(EINVAL, "stack manifest length %d != %d"
                            % (length, body))
        body = ChunkManifest.HEADER_SIZE + DIGEST_BYTES * count
    return (STACK_HEADER_SIZE + body + Registers.FORMAT.size
            + SigState.PACKED_SIZE)


#: an archived dump's files, (a.out, files, stack); a ledger record's
#: ``dump.<kind>`` files hold chunk manifests (DESIGN.md section 12)
ARCHIVE_KINDS = ("aout", "files", "stack")
#: a ledger record directory's record file, and the archive commit
#: marker the kernel writes *last* (no marker: no usable archive)
REC_NAME = "rec"
OK_NAME = "dump.ok"
LEDGER_ARCHIVE_NAMES = tuple("dump.%s" % kind for kind in ARCHIVE_KINDS)


def ledger_record_dir(ledger_dir, source, pid):
    """A migration's record directory, named by its migration id."""
    return "%s/%s" % (ledger_dir, migration_id(source, pid))


def ledger_archive_names(recdir):
    """The three chunk-manifest archive paths of one ledger record."""
    return tuple("%s/%s" % (recdir, name)
                 for name in LEDGER_ARCHIVE_NAMES)


def checkpoint_archive_name(directory, round_no, kind):
    """``ck<round>.<kind>``: one of ``ARCHIVE_KINDS``, or ``fd<slot>``."""
    return "%s/ck%d.%s" % (directory, round_no, kind)


def checkpoint_snapshot_name(directory, round_no, slot):
    """``ck<round>.fd<slot>``: the round's copy of the file at ``slot``."""
    return checkpoint_archive_name(directory, round_no, "fd%d" % slot)
