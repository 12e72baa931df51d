"""Client-side path resolution (``namei``) with NFS remote roots.

Every machine resolves paths in its own *namespace*: its local
filesystem, plus a virtual ``/n`` directory holding the root of every
other machine in the cluster (the 8th-edition convention the paper's
site followed).  Two properties of real NFS that the paper's
user-level tools depend on are reproduced faithfully:

* **symbolic links are resolved on the client** — a link read from a
  remote filesystem is interpreted in the *calling* machine's
  namespace, so a link ``/usr -> /n/brador/usr`` stored on machine
  ``classic`` does not lead back to classic's disk when followed from
  another machine;
* **``/n`` is not exported** — it is a client-side mount namespace,
  so a path like ``/n/classic/n/brador/usr/foo`` fails with ENOENT
  ("NFS does not allow this syntax"), which is exactly why
  ``dumpproc`` must resolve symlinks *before* rewriting path names.
"""

from repro.errors import (UnixError, ENOENT, ENOTDIR, ELOOP, EACCES,
                          EINVAL)
from repro.fs.paths import (MOUNT_DIR, is_absolute, remote_name,
                            split_components)

#: maximum symlink expansions in one resolution (4.2BSD used 8)
MAXSYMLINKS = 8

_MOUNTDIR = object()  # sentinel position: the virtual /n directory


class ResolvedPath:
    """The result of a :meth:`Namespace.resolve` call."""

    def __init__(self, fs, inode, parent_fs, parent, name):
        self.fs = fs  #: filesystem owning the inode (None if missing)
        self.inode = inode  #: final inode, or None (want_parent mode)
        self.parent_fs = parent_fs
        self.parent = parent  #: containing directory inode
        self.name = name  #: final component name

    @property
    def exists(self):
        return self.inode is not None

    def __repr__(self):
        return "ResolvedPath(%r on %s)" % (
            self.name, self.fs.hostname if self.fs else "?")


class Namespace:
    """One machine's view of all filesystems."""

    def __init__(self, local_fs, remote_roots=None, charge=None):
        """``remote_roots`` maps hostname -> FileSystem (may be a dict
        or a callable); ``charge(op, fs)`` is invoked for every
        directory lookup and symlink read so the kernel can account
        local vs. NFS costs (``op`` is ``"lookup"`` or ``"readlink"``).
        """
        self.local_fs = local_fs
        self._remote_roots = remote_roots or {}
        self._charge = charge or (lambda op, fs: None)

    @property
    def hostname(self):
        return self.local_fs.hostname

    def remote_fs(self, hostname):
        """The exported filesystem of ``hostname``, or None."""
        if callable(self._remote_roots):
            return self._remote_roots(hostname)
        return self._remote_roots.get(hostname)

    # -- resolution ----------------------------------------------------------

    def resolve(self, path, cwd=None, follow=True, want_parent=False):
        """Resolve ``path`` to a :class:`ResolvedPath`.

        ``cwd`` is a ``(fs, inode)`` pair for relative paths (defaults
        to the local root).  ``follow`` controls whether a symlink in
        the *final* component is followed.  With ``want_parent`` the
        final component may be missing; the parent directory and leaf
        name are returned so the caller can create it.
        """
        if not path:
            raise UnixError(ENOENT, "empty path")
        components = split_components(path)
        if is_absolute(path):
            position = ("fs", self.local_fs, self.local_fs.root)
        else:
            if cwd is None:
                position = ("fs", self.local_fs, self.local_fs.root)
            else:
                position = ("fs", cwd[0], cwd[1])
        if not components:
            # the path was "/" (or ".")
            fs, inode = position[1], position[2]
            return ResolvedPath(fs, inode, fs, inode.parent or inode, ".")

        nlinks = 0
        parent_fs, parent = None, None
        index = 0
        while index < len(components):
            name = components[index]
            is_final = index == len(components) - 1

            if position is _MOUNTDIR or (
                    isinstance(position, tuple) and position[0] == "mnt"):
                # inside the virtual /n directory
                if name == ".":
                    index += 1
                    continue
                if name == "..":
                    position = ("fs", self.local_fs, self.local_fs.root)
                    index += 1
                    continue
                remote = self.remote_fs(name)
                if remote is None:
                    if is_final and want_parent:
                        raise UnixError(EACCES,
                                        "/n is a mount namespace")
                    raise UnixError(ENOENT, remote_name(name, "/"))
                position = ("fs", remote, remote.root)
                parent_fs, parent = remote, remote.root
                index += 1
                continue

            __, fs, inode = position
            if not inode.is_dir():
                raise UnixError(ENOTDIR, name)

            if name == "..":
                if inode is fs.root:
                    if fs is self.local_fs:
                        pass  # root's .. is root
                    else:
                        position = _MOUNTDIR
                        index += 1
                        continue
                else:
                    inode = inode.parent
                position = ("fs", fs, inode)
                index += 1
                continue
            if name == ".":
                index += 1
                continue

            # the /n mount namespace exists only at the *local* root
            if (name == MOUNT_DIR and fs is self.local_fs
                    and inode is fs.root
                    and MOUNT_DIR not in inode.entries):
                if is_final and want_parent:
                    raise UnixError(EACCES, "/n is a mount namespace")
                position = _MOUNTDIR
                index += 1
                continue

            self._charge("lookup", fs)
            try:
                child = fs.lookup(inode, name)
            except UnixError as err:
                if err.errno == ENOENT and is_final and want_parent:
                    return ResolvedPath(None, None, fs, inode, name)
                raise

            if child.is_link() and (follow or not is_final):
                nlinks += 1
                if nlinks > MAXSYMLINKS:
                    raise UnixError(ELOOP, path)
                self._charge("readlink", fs)
                target = child.target
                target_components = split_components(target)
                components = target_components + components[index + 1:]
                index = 0
                if is_absolute(target):
                    # client-side resolution: restart from *our* root
                    position = ("fs", self.local_fs, self.local_fs.root)
                else:
                    position = ("fs", fs, inode)
                if not components:
                    raise UnixError(ENOENT, "empty symlink target")
                continue

            if is_final:
                if want_parent:
                    return ResolvedPath(fs, child, fs, inode, name)
                return ResolvedPath(fs, child, fs, inode, name)
            parent_fs, parent = fs, inode
            position = ("fs", fs, child)
            index += 1

        # components exhausted via trailing "." or ".."
        if want_parent:
            raise UnixError(EINVAL, path)
        if position is _MOUNTDIR:
            raise UnixError(EACCES, "/n is a mount namespace")
        __, fs, inode = position
        return ResolvedPath(fs, inode, parent_fs or fs,
                            parent or inode.parent or inode, ".")
