"""The per-machine inode filesystem.

A :class:`FileSystem` is the exported disk of one machine: a tree of
inodes rooted at ``root``.  All operations here are pure
data-structure manipulation; *costs* (local disk vs. NFS) are charged
by the kernel layer, which knows whether the calling machine owns this
filesystem.

Note the ``/n`` mount namespace is *not* part of a filesystem — it is
synthesized per-machine by :mod:`repro.fs.namei`, which is why a
remote machine's ``/n`` is invisible over NFS (the property that
breaks naive symlink handling in the paper's section 4.3 example).

A regular file's ``data`` is a private ``bytearray``, or an immutable
``bytes`` image that many machines share (each ``/bin`` program).
Only :meth:`write`, :meth:`truncate` and :meth:`install_file` change a
file's data, and the first two copy a shared image before they do, so
no machine ever sees another machine's write.
"""

from repro.errors import (UnixError, ENOENT, EEXIST, ENOTDIR, EISDIR,
                          EINVAL, ENOTEMPTY, EACCES)
from repro.fs.inode import Inode, IFREG, IFDIR, IFLNK, IFCHR


class FileSystem:
    """One machine's exported file tree."""

    def __init__(self, hostname):
        self.hostname = hostname
        self.root = Inode(IFDIR, mode=0o755)
        self.root.parent = self.root

    # -- directory operations ---------------------------------------------

    def lookup(self, directory, name):
        """Look ``name`` up in ``directory``; handles ``.`` and ``..``."""
        if not directory.is_dir():
            raise UnixError(ENOTDIR, name)
        if name == ".":
            return directory
        if name == "..":
            return directory.parent if directory.parent is not None \
                else directory
        try:
            return directory.entries[name]
        except KeyError:
            raise UnixError(ENOENT, name) from None

    def entry_names(self, directory):
        if not directory.is_dir():
            raise UnixError(ENOTDIR)
        return sorted(directory.entries)

    def _enter(self, directory, name, inode):
        if not directory.is_dir():
            raise UnixError(ENOTDIR, name)
        if name in directory.entries or name in (".", ".."):
            raise UnixError(EEXIST, name)
        if not name or "/" in name:
            raise UnixError(EINVAL, name)
        directory.entries[name] = inode
        inode.parent = directory
        return inode

    def create(self, directory, name, mode=0o644, uid=0, gid=0):
        """Create an empty regular file."""
        return self._enter(directory, name,
                           Inode(IFREG, mode=mode, uid=uid, gid=gid))

    def mkdir(self, directory, name, mode=0o755, uid=0, gid=0):
        return self._enter(directory, name,
                           Inode(IFDIR, mode=mode, uid=uid, gid=gid))

    def symlink(self, directory, name, target, uid=0, gid=0):
        inode = Inode(IFLNK, mode=0o777, uid=uid, gid=gid)
        inode.target = target
        return self._enter(directory, name, inode)

    def mkchar(self, directory, name, device, mode=0o666):
        inode = Inode(IFCHR, mode=mode)
        inode.device = device
        return self._enter(directory, name, inode)

    def unlink(self, directory, name):
        inode = self.lookup(directory, name)
        if inode.is_dir():
            raise UnixError(EISDIR, name)
        del directory.entries[name]
        inode.nlink -= 1
        return inode

    def rmdir(self, directory, name):
        inode = self.lookup(directory, name)
        if not inode.is_dir():
            raise UnixError(ENOTDIR, name)
        if inode.entries:
            raise UnixError(ENOTEMPTY, name)
        del directory.entries[name]
        return inode

    # -- file data ----------------------------------------------------------

    def read(self, inode, offset, nbytes):
        if not inode.is_reg():
            raise UnixError(EINVAL, "read of non-regular file")
        if offset >= len(inode.data):
            return b""
        return bytes(inode.data[offset:offset + nbytes])

    def write(self, inode, offset, data):
        if not inode.is_reg():
            raise UnixError(EINVAL, "write of non-regular file")
        buf = inode.data
        if isinstance(buf, bytes):  # a shared image: copy on first write
            buf = inode.data = bytearray(buf)
        if offset > len(buf):
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset:offset + len(data)] = data
        return len(data)

    def truncate(self, inode, size=0):
        if not inode.is_reg():
            raise UnixError(EINVAL, "truncate of non-regular file")
        if isinstance(inode.data, bytes):  # a shared image
            inode.data = bytearray(inode.data[:size])
        else:
            del inode.data[size:]

    # -- convenience tree builders (used in machine setup and tests) --------

    def makedirs(self, path, mode=0o755):
        """mkdir -p by absolute path; returns the leaf directory."""
        node = self.root
        for component in [c for c in path.split("/") if c]:
            try:
                node = self.lookup(node, component)
            except UnixError as err:
                if err.errno != ENOENT:
                    raise
                node = self.mkdir(node, component, mode=mode)
        if not node.is_dir():
            raise UnixError(ENOTDIR, path)
        return node

    def resolve_local(self, path):
        """Walk an absolute path purely inside this filesystem.

        No symlink following, no ``/n`` namespace — a tool for tests
        and setup code, not a substitute for :mod:`repro.fs.namei`.
        """
        node = self.root
        for component in [c for c in path.split("/") if c]:
            node = self.lookup(node, component)
        return node

    def install_file(self, path, data, mode=0o644, uid=0, gid=0):
        """Create (or replace) a file at an absolute path, mkdir -p'ing."""
        from repro.fs.paths import dirname, basename
        directory = self.makedirs(dirname(path))
        name = basename(path)
        if name in directory.entries:
            inode = directory.entries[name]
            if not inode.is_reg():
                raise UnixError(EISDIR, path)
        else:
            inode = self.create(directory, name, mode=mode, uid=uid,
                                gid=gid)
        inode.data = bytearray(data)
        return inode

    def read_file(self, path):
        """Read a whole file by absolute local path (test helper)."""
        inode = self.resolve_local(path)
        if not inode.is_reg():
            raise UnixError(EACCES, path)
        return bytes(inode.data)
