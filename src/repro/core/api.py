"""High-level Python API over the migration system.

:class:`MigrationSite` builds the paper's testbed — workstations plus
a file server, cross-mounted over NFS, programs installed, daemons
running — and wraps the user commands (``dumpproc``, ``restart``,
``migrate``) so that examples, tests and benchmarks read like the
paper's section 4.2 walkthrough::

    site = MigrationSite()
    pid = site.start("brick", "/bin/counter", uid=100).pid
    ...
    site.dumpproc("brick", pid, uid=100)
    handle = site.restart("schooner", pid, from_host="brick", uid=100)

``MigrationManager`` is an alias kept for API stability.
"""

from repro.core.formats import dump_pid
from repro.costmodel import CostModel
from repro.errors import UnixError
from repro.fs.paths import split_remote
from repro.machine.cluster import Cluster
from repro.programs import install_standard_programs

#: the default user population (uids) of the simulated site
DEFAULT_USERS = {"alonso": 100, "kyrimis": 101}


class CommandFailed(UnixError):
    """A wrapped user command exited non-zero."""

    def __init__(self, command, status):
        from repro.errors import EINVAL
        super().__init__(EINVAL, "%s exited %d" % (command, status))
        self.command = command
        self.status = status


class MigrationSite:
    """The paper's site in a box."""

    def __init__(self, costs=None, workstations=("brick", "schooner"),
                 server="brador", cpus=None, users=None, daemons=True,
                 faults=None, fault_seed=0):
        self.costs = costs or CostModel()
        self.cluster = Cluster(self.costs)
        if faults is not None:
            self.cluster.inject_faults(faults, seed=fault_seed)
        self.server_name = server
        cpus = cpus or {}
        names = list(workstations) + ([server] if server else [])
        for name in names:
            machine = self.cluster.add_machine(
                name, cpu=cpus.get(name, "mc68010"))
            install_standard_programs(machine)
        if server:
            self.cluster.setup_home_directories(
                server, users or dict(DEFAULT_USERS))
        self.daemons = []
        if daemons:
            from repro.programs import start_network_daemons
            for name in names:
                self.daemons.extend(
                    start_network_daemons(self.cluster.machine(name)))

    # -- plumbing -----------------------------------------------------------

    def machine(self, name):
        return self.cluster.machine(name)

    def run(self, **kw):
        return self.cluster.run(**kw)

    def run_until(self, predicate, **kw):
        return self.cluster.run_until(predicate, **kw)

    def run_quiet(self, max_steps=2_000_000):
        """Run until only the daemons are left doing nothing."""
        self.cluster.run(max_steps=max_steps)

    # -- process management -------------------------------------------------------

    def start(self, host, path, argv=None, uid=100, cwd=None, tty=None):
        """Start a program; returns its SpawnHandle."""
        machine = self.machine(host)
        return machine.spawn(path, argv or [path.rsplit("/", 1)[-1]],
                             uid=uid, cwd=cwd or "/tmp", tty=tty)

    def run_command(self, host, argv, uid=100, tty=None, cwd="/tmp",
                    max_steps=2_000_000):
        """Run a command to completion; returns its exit status."""
        machine = self.machine(host)
        handle = machine.spawn("/bin/%s" % argv[0], argv, uid=uid,
                               cwd=cwd, tty=tty)
        self.cluster.run_until(lambda: handle.exited,
                               max_steps=max_steps)
        return handle.exit_status if handle.term_signal is None else 128

    # -- the three commands ------------------------------------------------------------

    def dumpproc(self, host, pid, uid=100, check=True):
        """Run ``dumpproc -p pid`` on ``host``; returns exit status."""
        status = self.run_command(host, ["dumpproc", "-p", str(pid)],
                                  uid=uid)
        if check and status != 0:
            raise CommandFailed("dumpproc -p %d on %s" % (pid, host),
                                status)
        return status

    def restart(self, host, pid, from_host=None, uid=100, tty=None,
                wait_resumed=True):
        """Run ``restart`` on ``host``; returns the SpawnHandle of the
        restart process — which, on success, *is* the migrated
        process.  With ``wait_resumed`` the call runs the simulation
        until the process has been overlaid with the dumped image (or
        exited, which means restart failed)."""
        argv = ["restart", "-p", str(pid)]
        if from_host:
            argv += ["-h", from_host]
        machine = self.machine(host)
        handle = machine.spawn("/bin/restart", argv, uid=uid, tty=tty,
                               cwd="/tmp")
        if wait_resumed:
            self.cluster.run_until(
                lambda: handle.exited or handle.proc.is_vm())
        return handle

    def migrate(self, pid, source, destination, typed_on=None, uid=100,
                use_daemon=False, tty=None, wait_resumed=True):
        """Run ``migrate`` (section 4.1); returns the migrate handle.

        ``typed_on`` is the machine the command is typed at (defaults
        to the destination, the best choice for visual programs).
        """
        typed_on = typed_on or destination
        argv = ["migrate", "-p", str(pid), "-f", source,
                "-t", destination]
        if use_daemon:
            argv.append("-d")
        machine = self.machine(typed_on)
        handle = machine.spawn("/bin/migrate", argv, uid=uid, tty=tty,
                               cwd="/tmp")
        if wait_resumed:
            self.cluster.run_until(
                lambda: handle.exited and (
                    handle.exit_status != 0
                    or self.find_restarted(destination) is not None))
        return handle

    def start_loadd(self, hosts=None):
        """Start the load-balancing daemon on ``hosts`` (DESIGN.md
        section 11).

        Every daemon is told the full host list as its peer set (it
        ignores itself).  Returns the loadd SpawnHandles; each daemon
        exits after ``loadd_rounds`` balance rounds, so a
        ``run_quiet()`` still terminates.  Its schedule and policy are
        the ``loadd_*`` knobs of the site's cost model.  Opt-in by
        design: a site that never calls this runs byte-identically to
        one built before loadd existed.
        """
        hosts = list(hosts) if hosts is not None else \
            self._workstations()
        return [self.machine(name).spawn("/bin/loadd", ["loadd"] + hosts,
                                         uid=0, cwd="/tmp")
                for name in hosts]

    def start_statd(self):
        """Start cluster telemetry (DESIGN.md section 13): the
        ``statd-recv`` spooler on the host whose ``/n/<host>`` the
        ``stat_spool_dir`` knob names (the file server when it names
        no host of the cluster) plus one ``statd`` per workstation.

        Returns the SpawnHandles (spooler first).  Doubly opt-in: a
        site that never calls this runs byte-identically to one built
        before statd existed, and even a started statd exits
        immediately unless the ``stat_interval_s`` knob is positive;
        ``stat_rounds`` sets how many samples it takes.
        """
        handles = []
        spooler = split_remote(self.costs.stat_spool_dir)[0]
        if spooler not in self.cluster.hosts():
            spooler = self.server_name
        if spooler:
            handles.append(self.machine(spooler).spawn(
                "/bin/statd-recv", ["statd-recv"], uid=0, cwd="/tmp"))
        for name in self._workstations():
            handles.append(self.machine(name).spawn(
                "/bin/statd", ["statd"], uid=0, cwd="/tmp"))
        return handles

    def _workstations(self):
        return [name for name in self.cluster.hosts()
                if name != self.server_name]

    # -- inspection helpers --------------------------------------------------------------

    def find_restarted(self, host):
        """The most recent restart-process-turned-VM on ``host``."""
        machine = self.machine(host)
        candidates = [p for p in machine.kernel.procs.all_procs()
                      if p.is_vm() and dump_pid(p.command) is not None]
        return candidates[-1] if candidates else None

    def console(self, host):
        return self.machine(host).console_text()

    def type_at(self, host, text):
        self.machine(host).type_at_console(text)

    def wall_seconds(self):
        return self.cluster.wall_time_us() / 1e6


#: stable alias used in DESIGN.md
MigrationManager = MigrationSite
