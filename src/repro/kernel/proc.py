"""Process structures and the two kinds of process image.

A :class:`Proc` is one entry of the process table.  Its ``image`` is
either a :class:`VMImageState` — a real machine image (memory +
registers) running on the simulated CPU; these are the processes the
migration mechanism can dump and restart — or a :class:`NativeState`,
a Python-coded *system program* (``dumpproc``, ``restart``, ``rshd``,
...) that interacts with the kernel exclusively through system calls.
Native programs exist because the paper's tooling is user-level code;
they cannot be migrated, which mirrors reality: you migrate the
long-running compute job, not the migration tool itself.
"""

from repro.kernel.constants import SRUN, SZOMB, STATE_NAMES
from repro.kernel.user import User


class VMImageState:
    """A VM process: a ProcessImage executing on the machine's CPU."""

    kind = "vm"

    def __init__(self, image):
        self.image = image

    @property
    def regs(self):
        return self.image.regs


class NativeState:
    """A native (Python generator) system program.

    The generator yields syscall requests as tuples
    ``("open", "/etc/passwd", O_RDONLY, 0)`` and receives results.
    Its return value (or an explicit ``("exit", code)``) is the exit
    status.
    """

    kind = "native"

    def __init__(self, name, factory, argv, env=None):
        self.name = name
        self.factory = factory
        self.argv = list(argv)
        self.env = dict(env or {})
        self.generator = None
        self.started = False
        #: a blocked syscall request to retry on wakeup
        self.pending_request = None
        #: result to feed into the generator on next resume
        self.next_result = None

    def start(self):
        self.generator = self.factory(list(self.argv), dict(self.env))
        self.started = True


class Proc:
    """One process-table entry."""

    def __init__(self, pid, parent=None, cred=None):
        self.pid = pid
        self.parent = parent
        self.children = []
        self.state = SRUN
        self.image = None
        self.user = User(cred)
        self.command = "?"
        #: wait channel while sleeping
        self.wchan = None
        self.exit_status = None
        self.term_signal = None
        #: set when the process was killed by SIGDUMP and dumped
        self.dumped = False
        #: ``(record directory, armer's credentials)`` set by
        #: dump_ledger(): the next SIGDUMP also archives the dump
        #: through the chunk store, on the armer's behalf
        self.ledger_dir = None
        #: CPU accounting, microseconds
        self.utime_us = 0.0
        self.stime_us = 0.0
        self.start_us = 0.0
        #: section 7 extension (ablation A5): identity of the original
        #: process when this one was created by rest_proc()
        self.old_pid = None
        self.old_host = None
        #: callbacks fired on exit (SpawnHandle wiring, wait channels)
        self.exit_hooks = []
        #: fd -> absolute deadline (us) armed by ``read_timeout``
        self.io_deadlines = {}

    @property
    def ppid(self):
        return self.parent.pid if self.parent is not None else 0

    def is_vm(self):
        return self.image is not None and self.image.kind == "vm"

    def is_native(self):
        return self.image is not None and self.image.kind == "native"

    def runnable(self):
        return self.state == SRUN

    def zombie(self):
        return self.state == SZOMB

    def cpu_us(self):
        return self.utime_us + self.stime_us

    def state_name(self):
        return STATE_NAMES.get(self.state, "?")

    def __repr__(self):
        return "Proc(pid=%d %s %s cmd=%s)" % (
            self.pid, self.state_name(),
            self.image.kind if self.image else "-", self.command)


class ProcTable:
    """The machine's process table."""

    MAXPROC = 256

    def __init__(self):
        self._procs = {}
        self._next_pid = 1

    def alloc(self, parent=None, cred=None):
        from repro.errors import UnixError, EAGAIN
        if len(self._procs) >= self.MAXPROC:
            raise UnixError(EAGAIN, "process table full")
        pid = self._next_pid
        self._next_pid += 1
        proc = Proc(pid, parent=parent,
                    cred=cred.copy() if cred is not None else None)
        self._procs[pid] = proc
        if parent is not None:
            parent.children.append(proc)
        return proc

    def lookup(self, pid):
        return self._procs.get(pid)

    def remove(self, proc):
        self._procs.pop(proc.pid, None)
        if proc.parent is not None and proc in proc.parent.children:
            proc.parent.children.remove(proc)

    def all_procs(self):
        return list(self._procs.values())

    def __len__(self):
        return len(self._procs)
