"""The kernel: plumbing, dispatch, and the pieces every syscall shares.

The :class:`Kernel` class is assembled from mixins, one per subsystem:

* :class:`~repro.kernel.sys_file.FileSyscalls` — files, directories,
  descriptors, terminals, pipes, sockets;
* :class:`~repro.kernel.sys_proc.ProcSyscalls` — fork/exit/wait,
  signals, credentials;
* :class:`~repro.kernel.sys_misc.MiscSyscalls` — identity, time,
  spawn, introspection;
* :class:`~repro.kernel.exec_.ExecSupport` — ``execve()`` including
  the paper's migration-flag modification;
* :class:`~repro.kernel.dump.DumpSupport` — the ``SIGDUMP`` dump
  writer and the ``SIGQUIT`` core writer;
* :class:`~repro.kernel.restproc.RestProcSupport` — the new
  ``rest_proc()`` system call.

System calls are implemented once, against Python-level values; a thin
marshalling layer (:mod:`repro.kernel.syscalls`) maps VM traps
(arguments in registers, strings in guest memory) onto them, and
native system programs call them directly through yielded requests.

Two control-flow exceptions thread through everything:

* :class:`WouldBlock` — the classic sleep/retry discipline: a syscall
  that cannot proceed raises it, the scheduler puts the process to
  sleep on the carried channel, and the whole syscall is re-executed
  after :meth:`Kernel.wakeup`;
* :class:`ProcessOverlaid` — raised when ``execve()`` or
  ``rest_proc()`` *succeeds*: the calling image no longer exists, so
  no result must be written back ("normally, there is no return from
  this system call").
"""

from repro.errors import UnixError, ENXIO, EACCES
from repro.kernel.constants import SRUN, SSLEEP, SSTOP, SZOMB
from repro.kernel.filetable import FileTable
from repro.kernel.proc import ProcTable
from repro.kernel import signals as sig_mod
from repro.kernel.flow import (WouldBlock, ProcessOverlaid, NullDevice,
                               NULL_DEVICE)
from repro.kernel.scheduler import Scheduler
from repro.kernel.sys_file import FileSyscalls
from repro.kernel.sys_proc import ProcSyscalls
from repro.kernel.sys_misc import MiscSyscalls
from repro.kernel.exec_ import ExecSupport
from repro.kernel.dump import DumpSupport
from repro.kernel.restproc import RestProcSupport

__all__ = ["Kernel", "WouldBlock", "ProcessOverlaid", "NullDevice",
           "NULL_DEVICE"]


class Kernel(FileSyscalls, ProcSyscalls, MiscSyscalls, ExecSupport,
             DumpSupport, RestProcSupport):
    """One machine's kernel."""

    def __init__(self, machine):
        self.machine = machine
        self.costs = machine.costs
        #: the cluster tracer, cached so every emission site pays a
        #: single attribute check when tracing is off; a reboot builds
        #: a fresh kernel and re-caches it here
        self.tracer = machine.cluster.tracer
        self.procs = ProcTable()
        self.files = FileTable()
        self.scheduler = Scheduler(self)
        self.curproc = None
        #: the global flag execve() checks ("indicates that it is
        #: called from within rest_proc()") and the companion variable
        #: holding the stack size to allocate
        self.migrating = False
        self.migrate_stack_size = 0
        #: in-kernel timing records, keyed by syscall name — the
        #: paper's "timing code inside the kernel" for Figure 3
        self.syscall_timings = {}
        self.messages = []  #: kernel log (like /dev/console messages)
        #: ablation A7: the 4.3BSD-style name cache (path -> resolved)
        self._namei_cache = {}
        self._namei_suppress_charge = False
        self.namei_cache_hits = 0
        self.namei_cache_misses = 0
        #: lazily-created heartbeat failure detector (see
        #: repro.net.heartbeat); a reboot gets a fresh, empty one
        self.hb_monitor = None

    # -- identity ---------------------------------------------------------

    @property
    def hostname(self):
        return self.machine.name

    @property
    def clock(self):
        return self.machine.clock

    def log(self, text):
        self.messages.append("[%.6f] %s" % (self.clock.seconds(), text))

    # -- time accounting ----------------------------------------------------

    def charge(self, us, proc=None):
        """Charge system CPU time (advances the machine clock)."""
        self.clock.advance(us)
        proc = proc or self.curproc
        if proc is not None:
            proc.stime_us += us

    def charge_user(self, us, proc=None):
        self.clock.advance(us)
        proc = proc or self.curproc
        if proc is not None:
            proc.utime_us += us

    def charge_wait(self, us):
        """Real time passing while the process waits (disk, network).

        Advances the clock but charges no CPU — the source of the
        paper's CPU-vs-real-time gaps in Figures 2 and 3.
        """
        self.clock.advance(us)

    # -- fault injection ----------------------------------------------------

    def fault_check(self, site, detail=""):
        """Evaluate a control-flow injection site (no-op unarmed)."""
        faults = self.machine.cluster.faults
        if faults.plan.rules:
            faults.check(self, site, detail)

    def fault_filter(self, site, data, detail=""):
        """Pass a blob through a data injection site (no-op unarmed)."""
        faults = self.machine.cluster.faults
        if faults.plan.rules:
            return faults.filter(self, site, data, detail)
        return data

    # -- filesystem plumbing ---------------------------------------------------

    def fs_is_local(self, fs):
        return fs.hostname == self.hostname

    def fs_check_reachable(self, fs):
        """Fail I/O on an open fd whose remote server died.

        Path resolution catches dead servers at lookup time (the
        namespace's ``remote_roots`` hook raises ``EHOSTDOWN``), but a
        descriptor opened *before* the crash bypasses namei — this is
        the per-operation check that makes pending NFS reads and
        writes fail instead of touching a ghost filesystem.
        """
        if self.fs_is_local(fs):
            return
        from repro.errors import EHOSTDOWN
        server = self.machine.cluster.machines.get(fs.hostname)
        if server is None or not server.running:
            raise UnixError(EHOSTDOWN, fs.hostname)
        if not self.machine.cluster.network.reachable(
                self.hostname, fs.hostname):
            raise UnixError(EHOSTDOWN,
                            "%s (partitioned)" % fs.hostname)

    def fs_charge(self, op, fs):
        """Charge one namei step (the Namespace charge hook)."""
        if self._namei_suppress_charge:
            return
        costs = self.costs
        if op == "lookup":
            us = costs.namei_component_us if self.fs_is_local(fs) \
                else costs.nfs_lookup_us
        else:  # readlink during resolution
            us = costs.inode_op_us if self.fs_is_local(fs) \
                else costs.nfs_lookup_us
        self.charge(us)

    def namei(self, proc, path, follow=True, want_parent=False):
        """Resolve a path in this machine's namespace, from proc's cwd.

        With ``costs.namei_cache`` on (ablation A7, the 4.3BSD name
        cache), a repeated resolution of the same name from the same
        directory is charged one flat hit cost instead of the full
        per-component walk.  The cache is flushed wholesale on any
        metadata change — crude, but safe, and roughly what the first
        implementation's capacity misses amounted to.
        """
        if not path:
            raise UnixError(ENXIO, "empty path")
        cwd = proc.user.cdir if proc is not None else None
        if not self.costs.namei_cache:
            return self.machine.namespace.resolve(
                path, cwd=cwd, follow=follow, want_parent=want_parent)

        key = (path, follow, want_parent,
               None if cwd is None or path.startswith("/")
               else id(cwd[1]))
        if key in self._namei_cache:
            self.namei_cache_hits += 1
            self.charge(self.costs.namei_cache_hit_us)
            self._namei_suppress_charge = True
            try:
                return self.machine.namespace.resolve(
                    path, cwd=cwd, follow=follow,
                    want_parent=want_parent)
            finally:
                self._namei_suppress_charge = False
        self.namei_cache_misses += 1
        resolved = self.machine.namespace.resolve(
            path, cwd=cwd, follow=follow, want_parent=want_parent)
        if resolved.exists:  # negative entries are not cached
            self._namei_cache[key] = True
        return resolved

    def io_charge(self, fs, nbytes, write=False):
        """Charge a data transfer to/from ``fs``.

        Split into a CPU part (buffer cache, driver, RPC marshalling)
        and a wait part (the disk arm, the wire).
        """
        costs = self.costs
        blocks = max(1, -(-int(nbytes) // costs.disk_block_bytes))
        if self.fs_is_local(fs):
            total = costs.disk_io_us(nbytes, write=write)
            cpu = blocks * costs.disk_cpu_per_block_us
        else:
            total = costs.nfs_io_us(nbytes, write=write)
            cpu = blocks * costs.nfs_cpu_per_op_us
        cpu = min(cpu, total)
        self.charge(cpu)
        self.charge_wait(total - cpu)

    def meta_charge(self, fs):
        """Charge a metadata operation (create/remove/truncate).

        These are synchronous directory+inode updates — the dominant
        per-file cost (see ``CostModel.disk_create_us``).
        """
        self._namei_cache.clear()  # names may have changed (A7)
        costs = self.costs
        if self.fs_is_local(fs):
            cpu = costs.inode_op_us + 2 * costs.disk_cpu_per_block_us
            self.charge(cpu)
            self.charge_wait(max(0.0, costs.disk_create_us - cpu))
        else:
            self.charge(costs.nfs_cpu_per_op_us)
            self.charge_wait(max(0.0, costs.nfs_meta_op_us
                                 - costs.nfs_cpu_per_op_us))

    def kread_file(self, proc, path, follow=True):
        """Kernel-internal whole-file read with cost accounting."""
        from repro.errors import EISDIR
        resolved = self.namei(proc, path, follow=follow)
        inode = resolved.inode
        if inode.is_dir():
            raise UnixError(EISDIR, path)
        if not inode.is_reg():
            raise UnixError(EACCES, path)
        if not inode.check_access(proc.user.cred if proc else None,
                                  want_read=True):
            raise UnixError(EACCES, path)
        site = "fs.read" if self.fs_is_local(resolved.fs) else "nfs.read"
        self.fault_check(site, path)
        data = bytes(inode.data)
        data = self.fault_filter(site, data, path)
        self.io_charge(resolved.fs, len(data))
        return data

    def kwrite_file(self, proc, path, data, mode=0o600):
        """Kernel-internal file create/overwrite with cost accounting.

        Used by the SIGDUMP dump writer and the core dumper.
        """
        self.fault_check("fs.kwrite", path)
        resolved = self.namei(proc, path, want_parent=True)
        cred = proc.user.cred if proc is not None else None
        if resolved.inode is None:
            if not resolved.parent.check_access(cred, want_write=True):
                raise UnixError(EACCES, path)
            inode = resolved.parent_fs.create(
                resolved.parent, resolved.name, mode=mode,
                uid=cred.euid if cred else 0,
                gid=cred.egid if cred else 0)
            self.meta_charge(resolved.parent_fs)
            fs = resolved.parent_fs
        else:
            inode = resolved.inode
            if not inode.check_access(cred, want_write=True):
                raise UnixError(EACCES, path)
            fs = resolved.fs
            fs.truncate(inode)
            self.meta_charge(fs)
        fs.write(inode, 0, data)
        self.io_charge(fs, len(data), write=True)
        return inode

    # -- device channels ----------------------------------------------------------

    def device_channel(self, proc, inode):
        """Map a character-device inode to its live channel."""
        name = inode.device
        if name == "null":
            return NULL_DEVICE
        if name == "tty":
            if proc is None or proc.user.tty is None:
                raise UnixError(ENXIO, "/dev/tty with no terminal")
            return proc.user.tty
        terminal = self.machine.terminals.get(name)
        if terminal is None:
            raise UnixError(ENXIO, "no device %r" % name)
        return terminal

    # -- signals ---------------------------------------------------------------------

    def post_signal(self, target, sig):
        """Post ``sig`` to ``target`` and wake it if necessary."""
        if self.tracer.enabled:
            self.tracer.emit("signal", sig_mod.signal_name(sig),
                             self.machine, pid=target.pid)
        target.user.sig.post(sig)
        self.charge(self.costs.signal_post_us)
        action = target.user.sig.action(sig)
        if target.state == SSLEEP and action != sig_mod.A_IGN:
            self._unsleep(target)
        elif target.state == SSTOP and action == sig_mod.A_CONT:
            target.state = SRUN
            self.scheduler.enqueue(target)

    def _unsleep(self, proc):
        proc.state = SRUN
        proc.wchan = None
        self.scheduler.enqueue(proc)

    def wakeup(self, channel):
        """Wake every process sleeping on ``channel``."""
        for proc in self.procs.all_procs():
            if proc.state == SSLEEP and proc.wchan == channel:
                self._unsleep(proc)

    # -- process teardown ---------------------------------------------------------------

    def do_exit(self, proc, status=0, term_signal=None):
        """Terminate ``proc`` (normal exit or fatal signal)."""
        if proc.state == SZOMB:
            return
        for fd in list(proc.user.open_fds()):
            try:
                self.sys_close(proc, fd)
            except UnixError:
                pass
        self.charge(self.costs.exit_base_us, proc=proc)
        proc.exit_status = status
        proc.term_signal = term_signal
        proc.state = SZOMB
        proc.wchan = None
        self.scheduler.remove(proc)
        # orphan the children; already-dead ones are reaped now
        for child in list(proc.children):
            child.parent = None
            proc.children.remove(child)
            if child.state == SZOMB:
                self.procs.remove(child)
        for hook in list(proc.exit_hooks):
            hook(proc)
        parent = proc.parent
        if parent is not None and parent.state != SZOMB:
            self.post_signal(parent, sig_mod.SIGCHLD)
            self.wakeup(("wait", parent.pid))
        elif parent is None:
            # nobody will wait(); reap immediately
            self.procs.remove(proc)

    # -- syscall timing instrumentation -------------------------------------------------

    def record_timing(self, name, real_us, cpu_us):
        self.syscall_timings.setdefault(name, []).append(
            {"real_us": real_us, "cpu_us": cpu_us})

    def timings(self, name):
        return self.syscall_timings.get(name, [])
