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
open regular file, and resumes the job.  A restore is one run of a
native program the manager installs: it reads the archived round,
writes the open-file copies back and restages the dump through the
migration pipeline (:func:`repro.programs.pipeline.restage`), the
way ``recoveryd`` brings back a crashed host's job.  The archive
layout is :mod:`repro.programs.ckmeta`'s.  Because ``SIGDUMP``
terminates the process, the job continues with a new pid, so
checkpointed jobs must be pid-agnostic — section 7 applies.
"""

from repro.core.api import CommandFailed
from repro.core.formats import (FilesInfo, checkpoint_archive_name,
                                checkpoint_snapshot_name)
from repro.errors import iserr, UnixError
from repro.fs.paths import remote_name
from repro.machine.machine import SpawnHandle
from repro.programs.ckmeta import (parse_meta, read_round,
                                   restore_copies, snapshot_slots)
from repro.programs.exitcodes import EX_FAIL, EX_OK
from repro.programs.pipeline import restage


class Checkpoint:
    """One saved snapshot."""

    def __init__(self, index, pid, host, directory):
        self.index = index
        self.pid = pid  #: pid at dump time (names the dump files)
        self.host = host
        self.directory = directory

    def archive(self, kind):
        """The archived ``ck<n>.<kind>`` file (``aout``, ``fd3``...)."""
        return checkpoint_archive_name(self.directory, self.index, kind)

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

    def _read(self, path):
        return self.site.machine(self.host).fs.read_file(path)

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
        machine = self.site.machine(self.host)
        meta = parse_meta(self._read("%s/meta" % self.directory))
        resumed = SpawnHandle(machine,
                              machine.kernel.procs.lookup(meta["pid"]))
        record = Checkpoint(index, pid, self.host, self.directory)
        self.checkpoints.append(record)
        return record, resumed

    def file_copies(self, checkpoint):
        """Original path -> archived copy of each open file, rebuilt
        from the checkpoint's ``ck<n>.files`` the way ckptd wrote it."""
        info = FilesInfo.unpack(self._read(checkpoint.archive("files")))
        copies = {}
        for slot, path in snapshot_slots(info):
            copy_path = checkpoint_snapshot_name(
                checkpoint.directory, checkpoint.index, slot)
            try:
                self._read(copy_path)
            except UnixError:
                continue  # not snapshotted (a terminal, or unreadable)
            copies[path] = copy_path
        return copies

    # -- restoring --------------------------------------------------------------

    def restore(self, checkpoint, host=None):
        """Bring a checkpoint back to life (default: where it ran).

        The saved copies of the open files are written back first, so
        the program sees a consistent world even if the real files
        changed after the snapshot.  Returns the restored job's
        handle.
        """
        if isinstance(checkpoint, int):
            checkpoint = self.checkpoints[checkpoint]
        host = host or self.host
        directory = remote_name(self.host, checkpoint.directory, host)
        revived = []

        def ckrestore_main(argv, env):
            local = yield ("gethostname",)
            archived = yield from read_round(directory, checkpoint.index)
            if iserr(archived):
                return EX_FAIL
            aout_blob, info, stack_blob = archived
            yield from restore_copies(directory, checkpoint.index, info)
            pid = yield from restage(checkpoint.pid,
                                     (aout_blob, info.pack(), stack_blob),
                                     local)
            if pid is None:
                return EX_FAIL
            revived.append(pid)
            return EX_OK

        machine = self.site.machine(host)
        machine.install_native_program("ckrestore", ckrestore_main)
        program = self.site.start(host, "/bin/ckrestore", uid=self.uid)
        self.site.run_until(lambda: program.exited)
        if not revived:
            raise CommandFailed("ckrestore", program.exit_status)
        return SpawnHandle(machine,
                           machine.kernel.procs.lookup(revived[0]))
