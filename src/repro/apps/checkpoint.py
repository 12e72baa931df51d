"""Process checkpointing (section 8, first application).

"The ability of our system to create an image of a process at a
random point in its execution and then restart it ... is exactly what
we need to implement process checkpointing. ... we may write an
application to take periodic snapshots of it and save those snapshots
by moving them to a directory managed by the application (perhaps
renaming them appropriately) which would then allow us to restart a
program at its n-th checkpoint.  The application should also make
copies of all files that were open when the process was checkpointed,
so that if the actual files were modified after the checkpoint, the
copies can be used instead."

Every checkpoint is one round of the ``ckptd`` daemon
(:mod:`repro.programs.ckptd`): it dumps the job, archives
``ck<n>.{aout,files,stack}`` plus a ``ck<n>.fd<slot>`` copy of each
open regular file, and resumes the job.  Because ``SIGDUMP``
terminates the process, the job continues with a new pid, so
checkpointed jobs must be pid-agnostic — section 7 applies.
"""

from repro.core.api import CommandFailed
from repro.core.formats import FilesInfo, dump_file_names
from repro.errors import UnixError
from repro.machine.machine import SpawnHandle
from repro.programs.ckmeta import parse_meta


class Checkpoint:
    """One saved snapshot."""

    def __init__(self, index, pid, host, directory):
        self.index = index
        self.pid = pid  #: pid at dump time (names the dump files)
        self.host = host
        self.directory = directory

    def archive(self, kind):
        """The archived ``ck<n>.<kind>`` file (``aout``, ``fd3``...)."""
        return "%s/ck%d.%s" % (self.directory, self.index, kind)

    def __repr__(self):
        return "Checkpoint(#%d of pid %d on %s)" % (self.index, self.pid,
                                                    self.host)


class CheckpointManager:
    """Periodic snapshots of one process, with restore-to-n-th.

    The manager plays the role of the user-level application the
    paper sketches: ``ckptd`` takes each snapshot, and a restore
    stages the archive back for ``restart``; the kernel mechanism is
    untouched.
    """

    def __init__(self, site, host, uid=100, directory="/ckpt"):
        self.site = site
        self.host = host
        self.uid = uid
        self.directory = directory
        self.checkpoints = []
        machine = site.machine(host)
        root = machine.fs.makedirs(directory)
        root.mode = 0o777

    # -- path plumbing ------------------------------------------------------

    def _machine(self):
        return self.site.machine(self.host)

    def _read(self, path):
        """Read a file through the manager machine's namespace."""
        resolved = self._machine().namespace.resolve(path)
        return bytes(resolved.inode.data)

    def _write(self, path, data, uid=None):
        machine = self._machine()
        resolved = machine.namespace.resolve(path, want_parent=True)
        if resolved.inode is None:
            inode = resolved.parent_fs.create(
                resolved.parent, resolved.name, mode=0o644,
                uid=uid if uid is not None else self.uid)
        else:
            inode = resolved.inode
        inode.data[:] = data
        return inode

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self, pid):
        """Snapshot ``pid`` with one ``ckptd`` round.

        Returns ``(checkpoint, resumed_handle)`` — the process
        continues under a new pid (``resumed_handle.pid``).
        """
        index = len(self.checkpoints)
        argv = ["ckptd", "-s", str(index), str(pid), "0", "1",
                self.directory]
        daemon = self.site.start(self.host, "/bin/ckptd", argv,
                                 uid=self.uid)
        self.site.run_until(lambda: daemon.exited)
        if daemon.exit_status != 0:
            raise CommandFailed(" ".join(argv), daemon.exit_status)
        machine = self._machine()
        meta = parse_meta(self._read("%s/meta" % self.directory))
        resumed = SpawnHandle(machine,
                              machine.kernel.procs.lookup(meta["pid"]))
        self.site.run_until(
            lambda: resumed.exited or resumed.proc.is_vm())
        record = Checkpoint(index, pid, self.host, self.directory)
        self.checkpoints.append(record)
        return record, resumed

    def file_copies(self, checkpoint):
        """Original path -> archived copy of each open file, rebuilt
        from the checkpoint's ``ck<n>.files`` the way ckptd wrote it."""
        info = FilesInfo.unpack(self._read(checkpoint.archive("files")))
        copies = {}
        seen = set()
        for slot, entry in enumerate(info.entries):
            if not entry.is_file() or entry.path in seen \
                    or entry.path.startswith("/dev/"):
                continue
            seen.add(entry.path)
            copy_path = checkpoint.archive("fd%d" % slot)
            try:
                self._read(copy_path)
            except UnixError:
                continue  # not snapshotted (a terminal, or unreadable)
            copies[entry.path] = copy_path
        return copies

    # -- restoring --------------------------------------------------------------

    def restore(self, checkpoint, host=None, restore_files=True):
        """Bring a checkpoint back to life (default: where it ran).

        With ``restore_files`` the saved copies of the open files are
        written back first, so the program sees a consistent world
        even if the real files changed after the snapshot.
        """
        if isinstance(checkpoint, int):
            checkpoint = self.checkpoints[checkpoint]
        host = host or self.host

        if restore_files:
            for original, copy_path in \
                    self.file_copies(checkpoint).items():
                self._write(original, self._read(copy_path))

        # stage the dump files back under the names restart expects
        # (the a.out must stay executable, the rest stays private)
        targets = dump_file_names(checkpoint.pid)
        for index, (kind, target) in enumerate(
                zip(("aout", "files", "stack"), targets)):
            data = self._read(checkpoint.archive(kind))
            inode = self._write(target, data, uid=self.uid)
            inode.mode = 0o700 if index == 0 else 0o600
            inode.uid = self.uid
        return self.site.restart(host, checkpoint.pid,
                                 from_host=self.host, uid=self.uid)
