"""One workstation: CPU + kernel + disk + console + event queue.

A :class:`Machine` owns a virtual clock; machines in a cluster run
conceptually in parallel (the cluster always steps the one that is
furthest behind).  The machine also carries the embedding interface
used by tests, examples and benchmarks: install programs, spawn
processes, type at terminals.
"""

import functools
import heapq
import itertools

from repro.clock import Clock
from repro.errors import EISDIR, UnixError
from repro.fs.filesystem import FileSystem
from repro.fs.namei import Namespace
from repro.fs.paths import normalize
from repro.kernel.cred import Credentials
from repro.kernel.filetable import FFILE
from repro.kernel.flow import HostCrashed
from repro.kernel.kernel import Kernel, ProcessOverlaid
from repro.kernel.tty import Terminal
from repro.vm.cpu import CPU
from repro.vm.isa import cpu_model

#: standard directories every machine gets at boot
STANDARD_DIRS = ["/bin", "/dev", "/etc", "/tmp", "/usr/tmp", "/u"]


@functools.cache
def native_image(name, size):
    """The ``/bin`` file of native program ``name``: its marker line,
    zero-padded to ``size`` bytes.  Built once per process and shared
    by every machine that installs it (it is immutable ``bytes``)."""
    marker = b"#!native " + name.encode("latin-1") + b"\n"
    return marker.ljust(size, b"\x00")


class SpawnHandle:
    """Tracks a process started from outside the simulation."""

    def __init__(self, machine, proc):
        self.machine = machine
        self.proc = proc
        self.pid = proc.pid
        self.exited = False
        self.exit_status = None
        self.term_signal = None
        proc.exit_hooks.append(self._on_exit)

    def _on_exit(self, proc):
        self.exited = True
        self.exit_status = proc.exit_status
        self.term_signal = proc.term_signal

    def __repr__(self):
        return ("SpawnHandle(pid=%d on %s, %s)"
                % (self.pid, self.machine.name,
                   "exited=%r" % self.exit_status if self.exited
                   else "running"))


class Machine:
    """One simulated workstation (or the file server)."""

    def __init__(self, name, cluster, cpu="mc68010"):
        self.name = name
        self.cluster = cluster
        self.costs = cluster.costs
        self.clock = Clock()
        #: False once the host has crashed (cleared by reboot)
        self.running = True
        self.cpu_model = cpu_model(cpu)
        self.cpu = CPU(self.cpu_model)
        self.fs = FileSystem(name)
        self._setup_fs()
        self.namespace = Namespace(
            self.fs,
            remote_roots=lambda host: cluster.exported_fs(host,
                                                          client=name),
            charge=lambda op, fs: self.kernel.fs_charge(op, fs))
        self.terminals = {}
        self.programs = {}  #: native program registry: name -> factory
        self.ports = {}  #: bound sockets by port number
        self._events = []  #: heapq of (time_us, seq, callable)
        self._event_seq = itertools.count()
        #: fast-driver bookkeeping, maintained by the cluster: the
        #: deterministic tie-break index and the heap-entry token
        self.order = 0
        self.heap_token = 0
        self.kernel = Kernel(self)
        self.console = self.add_terminal("console")

    # -- boot-time filesystem layout ------------------------------------------

    def _setup_fs(self):
        for path in STANDARD_DIRS:
            self.fs.makedirs(path)
        dev = self.fs.resolve_local("/dev")
        self.fs.mkchar(dev, "null", "null")
        self.fs.mkchar(dev, "tty", "tty")
        # /tmp and /usr/tmp are world-writable (dump files land there)
        self.fs.resolve_local("/tmp").mode = 0o777
        self.fs.resolve_local("/usr/tmp").mode = 0o777

    def add_terminal(self, name):
        """Attach a terminal (console, or a window like ``ttyp0``)."""
        if name in self.terminals:
            return self.terminals[name]
        terminal = Terminal(name)
        terminal.on_input = lambda t: self.kernel.wakeup(t)
        self.terminals[name] = terminal
        dev = self.fs.resolve_local("/dev")
        if name not in dev.entries:
            self.fs.mkchar(dev, name, name)
        return terminal

    # -- program installation -----------------------------------------------------

    def install_native_program(self, name, factory, size=24576):
        """Register a native system program and give it a /bin entry.

        ``size`` pads the on-disk file so exec charges a realistic
        load cost for the tool's binary.
        """
        self.programs[name] = factory
        self._install_bin(name, native_image(name, size))

    def install_aout(self, name, aout_bytes):
        """Install an assembled a.out executable under /bin."""
        self._install_bin(name, bytes(aout_bytes))

    def _install_bin(self, name, data):
        """Point ``/bin/<name>`` (mode 0755, created if missing) at the
        immutable ``data``, which every machine may share: the file
        system copies it on first write.  ``/bin`` is an entry of the
        root, so this is one directory insert, not a walk from the
        root."""
        bindir = self.fs.root.entries["bin"]
        inode = bindir.entries.get(name)
        if inode is None:
            inode = self.fs.create(bindir, name, mode=0o755)
        elif not inode.is_reg():
            raise UnixError(EISDIR, "/bin/" + name)
        inode.data = data

    # -- process creation ------------------------------------------------------------

    def create_process(self, path, argv, parent=None, cred=None,
                       cwd="/", tty=None, inherit_from=None):
        """Allocate a process and exec ``path`` into it."""
        kernel = self.kernel
        proc = kernel.procs.alloc(parent=parent, cred=cred)
        if inherit_from is not None:
            proc.user = inherit_from.user.copy_for_fork(kernel.files)
        else:
            proc.user.cred = cred.copy() if cred else Credentials()
            where = normalize(cwd or "/")
            resolved = self.namespace.resolve(where)
            proc.user.cdir = (resolved.fs, resolved.inode)
            if self.costs.track_names:
                proc.user.set_cwd_name(where)
            terminal = tty or self.console
            proc.user.tty = terminal
            self._wire_stdio(proc, terminal)
        proc.command = path.rsplit("/", 1)[-1]
        proc.start_us = self.clock.now_us
        previous = kernel.curproc
        kernel.curproc = proc
        try:
            kernel.sys_execve(proc, path, argv or [path], None)
        except ProcessOverlaid:
            pass
        except UnixError:
            kernel.procs.remove(proc)
            raise
        finally:
            kernel.curproc = previous
        kernel.scheduler.enqueue(proc)
        return proc

    def _wire_stdio(self, proc, terminal):
        """Open fds 0-2 on the terminal's device node (shared entry)."""
        from repro.kernel.constants import O_RDWR
        try:
            inode = self.fs.resolve_local("/dev/%s" % terminal.name)
        except UnixError:
            inode = self.fs.resolve_local("/dev/tty")
        entry = self.kernel.files.alloc(FFILE)
        entry.fs = self.fs
        entry.inode = inode
        entry.flags = O_RDWR
        entry.refcount = 3
        if self.costs.track_names:
            self.kernel.files.set_name(entry, "/dev/%s" % terminal.name)
        for fd in (0, 1, 2):
            proc.user.ofile[fd] = entry

    def spawn(self, path, argv=None, uid=0, gid=None, cwd="/",
              tty=None):
        """Start a program from the outside world; returns a handle."""
        cred = Credentials(uid, gid if gid is not None else uid)
        proc = self.create_process(path, argv or [path], cred=cred,
                                   cwd=cwd, tty=tty)
        return SpawnHandle(self, proc)

    # -- event queue --------------------------------------------------------------------

    def post_event(self, when_us, action):
        if not self.running:
            return  # events for a dead host vanish with it
        heapq.heappush(self._events,
                       (when_us, next(self._event_seq), action))
        # the driver must hear about new work: it may move this
        # machine's next-action time, and — if posted from another
        # machine's burst — shrink that burst's event horizon
        self.cluster.note_activity(self)

    def _process_due_events(self):
        fired = False
        while self._events and self._events[0][0] <= self.clock.now_us:
            __, __, action = heapq.heappop(self._events)
            action()
            fired = True
        return fired

    # -- stepping ------------------------------------------------------------------------

    def has_work(self):
        if not self.running:
            return False
        return bool(self._events) or self.kernel.scheduler.has_runnable()

    def next_time(self):
        """The virtual time at which this machine would next act."""
        if not self.running:
            return float("inf")
        if self.kernel.scheduler.has_runnable():
            return self.clock.now_us
        if self._events:
            return max(self.clock.now_us, self._events[0][0])
        return float("inf")

    def step(self):
        """Advance this machine by one scheduling slot or event."""
        if not self.running:
            return False
        try:
            self._process_due_events()
            if self.kernel.scheduler.has_runnable():
                self.kernel.scheduler.run_slot()
                self._process_due_events()
                return True
            if self._events:
                self.clock.advance_to(self._events[0][0])
                self._process_due_events()
                return True
            return False
        except HostCrashed:
            # this machine crashed itself mid-syscall (a crash fault
            # rule fired here); the step "completed" — into the void
            return True

    # -- crash and reboot ---------------------------------------------------------------

    def crash(self):
        """Power off instantly: every process, event and port vanishes.

        The disk (the local filesystem) survives; memory — the process
        table, run queue, pending events, bound ports — does not.
        Terminal scrollback is kept: it is the *user's* screen, not
        the machine's memory.  Use :meth:`Cluster.crash_host`, which
        also tells the network layer to reset peers' sockets.
        """
        from repro.kernel.proc import ProcTable
        self.running = False
        self._events = []
        self.ports.clear()
        self.kernel.scheduler.runq.clear()
        self.kernel.procs = ProcTable()
        # a crash mid-burst can be the horizon machine vanishing: the
        # memoized horizon must hear about it
        self.cluster.note_activity(self)

    def reboot(self):
        """Bring a crashed host back with a fresh kernel.

        ``/tmp`` and ``/usr/tmp`` are wiped (dump files do not survive
        the crash-reboot cycle — they lived in memory-speed scratch
        space); everything else on disk persists, including installed
        programs.  Daemons are NOT restarted — that is the embedder's
        job, as it was the operator's at a real site.
        """
        if self.running:
            raise ValueError("reboot of a running host %r" % self.name)
        for path in ("/tmp", "/usr/tmp"):
            self._wipe_directory(path)
        self.kernel = Kernel(self)
        self.clock.advance_to(max(self.clock.now_us,
                                  self.cluster.wall_time_us())
                              + self.costs.boot_s * 1_000_000.0)
        self.running = True
        # the machine is pickable again (and its next-action time
        # jumped past the boot delay): update the driver's bookkeeping
        self.cluster.note_activity(self)

    def _wipe_directory(self, path):
        try:
            directory = self.fs.resolve_local(path)
        except UnixError:
            return
        self._remove_children(directory)

    def _remove_children(self, directory):
        for name in list(self.fs.entry_names(directory)):
            child = self.fs.lookup(directory, name)
            if child.is_dir():
                self._remove_children(child)
                self.fs.rmdir(directory, name)
            else:
                self.fs.unlink(directory, name)

    # -- conveniences for tests and examples ------------------------------------------------

    def proc(self, pid):
        return self.kernel.procs.lookup(pid)

    def console_text(self):
        return self.console.output_text()

    def type_at_console(self, text):
        self.console.feed(text)

    def __repr__(self):
        return "Machine(%s, %s, t=%.3fs)" % (
            self.name, self.cpu_model.name, self.clock.seconds())
