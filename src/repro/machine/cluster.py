"""The cluster: several machines on one Ethernet, cross-mounted.

Reproduces the paper's site: Sun workstations plus a file server,
every machine's root visible on every other machine as ``/n/<host>``
(the 8th-edition convention), home directories on the file server
behind symbolic links.

The simulation driver is conservative parallel discrete-event: the
machine with the smallest next-action time always steps first, so
cross-machine messages never arrive in a receiver's past.

Two drivers implement that contract:

* ``engine="fast"`` (the default) keeps machines in a lazy min-heap
  keyed by next-action time and, once the laggard is chosen, lets it
  run a *burst* of steps up to its event horizon — the earliest
  virtual time any other machine could affect it.  In a pure
  message-passing simulation that is the peers' best next-action
  time plus the network's minimum message latency (the classic
  conservative-PDES lookahead).  Our machines additionally share
  synchronous NFS state, which collapses the latency term to zero —
  but a peer whose next action is a *scheduling slot* (purely
  runnable, no pending events) cannot emit anything visible before
  its slot charges the context switch and runs, so such peers
  contribute ``next_time + context_switch_us + quantum_us`` to the
  horizon.  That overlap window is what lets machines whose quanta
  overlap in virtual time run several slots per pick instead of
  leapfrogging one step at a time.  The horizon is memoized: a
  peer's activity during a burst does an O(1) min-update, and only
  growth of the horizon machine's own key forces an O(M) recompute.
* ``engine="scan"`` is the original reference driver: an O(M) scan
  per step, using the *same* overlap-window rule (a sticky burst
  machine it keeps picking while no peer's window allows earlier
  interference).  It is kept for benchmarking and as the executable
  specification the fast driver must agree with step for step.

Two drivers; the VM is chosen separately (``CPU.use_predecode``
picks compiled traces or the interpreter on either driver).  All four
pairings produce identical virtual-time results; the fast driver only
changes how much *real* time the host spends finding the next event.
"""

import heapq

from repro.costmodel import CostModel
from repro.errors import EHOSTDOWN, UnixError
from repro.faults import FaultInjector, FaultPlan
from repro.machine.machine import Machine
from repro.net.network import Network
from repro.obs import Tracer
from repro.perf import PerfCounters
from repro.store import ChunkStore
from repro.vm.cpu import CodeCache

_INF = float("inf")


class SimulationStuck(Exception):
    """run_until() could not make progress toward its predicate."""


class Cluster:
    """A set of machines sharing an Ethernet and NFS cross-mounts."""

    def __init__(self, costs=None, engine="fast"):
        if engine not in ("fast", "scan"):
            raise ValueError("unknown engine %r" % engine)
        self.costs = costs or CostModel()
        self.machines = {}
        self.perf = PerfCounters()
        # the tracer must exist before the network and any kernels,
        # which cache a reference to it
        self.tracer = Tracer(self)
        self.network = Network(self)
        self.engine = engine
        self.faults = FaultInjector()
        # the content-addressed chunk store backing incremental dumps
        # (cluster-wide, like the NFS-shared dump directory itself)
        self.chunk_store = ChunkStore(self)
        # fast-driver state: a lazy min-heap of (next_time, order,
        # token, machine).  Stale entries are detected by token (bumped
        # on every re-push) and by re-reading next_time at the top.
        self._heap = []
        self._dirty = set()  #: machines whose heap key may have changed
        self._bursting = None  #: machine currently inside a burst
        self._horizon_stale = False
        # the memoized event horizon: the minimum lookahead key over
        # every non-bursting machine with work, and the machine that
        # attains it (so note_activity can tell a harmless update from
        # one that invalidates the minimum)
        self._horizon = (_INF, _INF)
        self._horizon_src = None
        # compiled traces shared by every machine's CPU, so a migrated
        # process arrives with its hot code already compiled
        self._code_cache = CodeCache()

    # -- topology --------------------------------------------------------------

    def add_machine(self, name, cpu="mc68010"):
        if name in self.machines:
            raise ValueError("duplicate machine %r" % name)
        machine = Machine(name, self, cpu=cpu)
        # the insertion index is both drivers' deterministic tie-break
        machine.order = len(self.machines)
        machine.cpu.perf = self.perf
        machine.cpu.code_cache = self._code_cache
        self.machines[name] = machine
        return machine

    def machine(self, name):
        return self.machines[name]

    def inject_faults(self, plan, seed=0):
        """Arm a fault plan: a :class:`FaultPlan` or its textual form
        (see ``repro.faults.plan``).  Replaces any armed plan."""
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan, seed=seed)
        self.faults.arm(plan)
        return plan

    def exported_fs(self, host, client=None):
        """The filesystem served for ``/n/<host>`` lookups.

        Every machine exports its root to every other (and to itself
        — a loopback mount, so ``dumpproc``'s ``/n/<self>/...``
        rewriting also works for same-machine restarts).  A crashed
        server, or one cut off from ``client`` by a partition, raises
        ``EHOSTDOWN`` — NFS here is a hard mount that errors rather
        than hanging forever, so programs can react.
        """
        machine = self.machines.get(host)
        if machine is None:
            return None
        if not machine.running:
            raise UnixError(EHOSTDOWN, host)
        if client is not None and client != host \
                and not self.network.reachable(client, host):
            raise UnixError(EHOSTDOWN, "%s (partitioned)" % host)
        return machine.fs

    def hosts(self):
        return sorted(self.machines)

    # -- host failure primitives -----------------------------------------------

    def crash_host(self, name):
        """Crash a host: its processes vanish mid-instruction, peers'
        sockets see RST/EOF one wire latency later, and its exported
        filesystem stops answering (``EHOSTDOWN``)."""
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError("unknown machine %r" % name)
        if not machine.running:
            return
        self.perf.host_crashes += 1
        self.perf.metrics.inc("host_crashes", host=name)
        if self.tracer.enabled:
            self.tracer.emit("fault", "host_crash", machine)
        base = self.wall_time_us()
        self.network.host_crashed(machine,
                                  base + self.costs.message_us(0))
        machine.crash()

    def reboot_host(self, name):
        """Reboot a crashed host; takes ``costs.boot_s`` virtual time.

        The fresh kernel re-serves the host's NFS exports; daemons
        must be restarted by the embedder."""
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError("unknown machine %r" % name)
        machine.reboot()
        self.perf.host_reboots += 1
        self.perf.metrics.inc("host_reboots", host=name)
        if self.tracer.enabled:
            self.tracer.emit("fault", "host_reboot", machine)
        return machine

    def partition(self, a, b):
        """Cut the network link between hosts ``a`` and ``b``."""
        self.network.partition(a, b)

    def heal(self, a=None, b=None):
        """Heal one cut link (or all cuts when called with no args)."""
        self.network.heal(a, b)

    # -- site conventions ------------------------------------------------------------

    def setup_home_directories(self, server_name, users):
        """Paper-footnote convention: ``/u/<user>`` is a symlink to
        ``/n/<server>/u2/<user>`` on every workstation."""
        server = self.machines[server_name]
        for user, uid in users.items():
            home = server.fs.makedirs("/u2/%s" % user)
            home.uid = uid
            home.mode = 0o755
        for machine in self.machines.values():
            u_dir = machine.fs.resolve_local("/u")
            for user in users:
                if user not in u_dir.entries:
                    machine.fs.symlink(u_dir, user,
                                       "/n/%s/u2/%s" % (server_name,
                                                        user))

    # -- the simulation driver ----------------------------------------------------------

    def wall_time_us(self):
        """The cluster-wide wall clock (the most advanced machine)."""
        if not self.machines:
            return 0.0
        return max(m.clock.now_us for m in self.machines.values())

    def sync_clocks(self):
        """Bring every machine's clock up to the cluster wall time."""
        now = self.wall_time_us()
        for machine in self.machines.values():
            machine.clock.advance_to(now)

    def _lookahead_key(self, machine):
        """The earliest ``(time, order)`` at which ``machine`` could
        make anything visible to a peer.

        A machine whose next action is a scheduling slot (purely
        runnable, no pending events) first charges the context switch
        and then runs a quantum; nothing it does lands on shared state
        before that window opens.  A machine with pending events gets
        no window: an event handler may emit immediately.
        """
        when = machine.next_time()
        if not machine._events \
                and machine.kernel.scheduler.has_runnable():
            when += self.costs.context_switch_us + self.costs.quantum_us
        return (when, machine.order)

    def _peers_horizon(self, current):
        """Minimum lookahead key over every other machine with work."""
        best = (_INF, _INF)
        for machine in self.machines.values():
            if machine is current or not machine.has_work():
                continue
            key = self._lookahead_key(machine)
            if key < best:
                best = key
        return best

    def run(self, max_steps=5_000_000, until_us=None):
        """Run until idle, a time bound, or a step bound."""
        if self._run(max_steps, until_us=until_us) in ("until", "idle"):
            return True
        raise SimulationStuck("exceeded %d steps" % max_steps)

    def run_until(self, predicate, max_steps=5_000_000):
        """Run until ``predicate()`` is true.

        Raises :class:`SimulationStuck` if the cluster goes idle (for
        example a process is waiting for terminal input nobody will
        type) or the step bound is hit with the predicate still false.
        """
        status = self._run(max_steps, predicate=predicate)
        if status == "predicate":
            return
        if status == "idle":
            if predicate():
                return
            raise SimulationStuck(
                "cluster idle but the awaited condition is false")
        raise SimulationStuck("exceeded %d steps" % max_steps)

    def _run(self, max_steps, until_us=None, predicate=None):
        """Drive until the predicate holds, the time bound or the step
        bound is reached, or the cluster goes idle; returns
        ``"predicate"``, ``"until"``, ``"steps"`` or ``"idle"``.

        ``engine="fast"`` hands the drive to :meth:`_drive`.  The scan
        engine is the reference it must reproduce: an O(M) scan for
        the laggard at every step, ties broken by insertion order, and
        a sticky burst machine that keeps getting picked while no
        peer's overlap window lets it interfere earlier.  Both drivers
        check the bounds before every step and after the last one, and
        neither lets a burst span two drives.
        """
        if self.engine == "fast":
            return self._drive(max_steps, until_us, predicate)
        current = None
        steps = 0
        while True:
            if predicate is not None and predicate():
                return "predicate"
            if until_us is not None and self.wall_time_us() >= until_us:
                return "until"
            if steps == max_steps:
                return "steps"
            if current is None or not current.has_work() \
                    or (current.next_time(), current.order) \
                    >= self._peers_horizon(current):
                current = min((m for m in self.machines.values()
                               if m.has_work()), default=None,
                              key=lambda m: (m.next_time(), m.order))
                if current is None:
                    return "idle"
            current.step()
            self.perf.steps += 1
            steps += 1

    def run_handle(self, handle, max_steps=5_000_000):
        """Run until a SpawnHandle's process has exited."""
        self.run_until(lambda: handle.exited, max_steps=max_steps)
        return handle

    # -- fast driver internals -------------------------------------------------

    def note_activity(self, machine):
        """A machine's next-action time may have moved (new event,
        newly runnable process, crash, reboot).  Called by
        :meth:`Machine.post_event`, the scheduler's enqueue and the
        host failure primitives.

        Mid-burst, the memoized horizon absorbs most activity in O(1):
        a key at or above the current minimum from some other machine
        changes nothing (``horizon_memo_hits``); a smaller key lowers
        the minimum in place; only the horizon machine's *own* key
        moving away from the recorded minimum — a peer that crashed or
        rebooted out from under it — forces the O(M) recompute
        (``horizon_invalidations``).
        """
        self._dirty.add(machine)
        bursting = self._bursting
        if bursting is None or machine is bursting:
            return
        key = self._lookahead_key(machine)
        if key < self._horizon:
            self._horizon = key
            self._horizon_src = machine
            self.perf.horizon_invalidations += 1
        elif machine is self._horizon_src and key != self._horizon:
            self._horizon_stale = True
            self.perf.horizon_invalidations += 1
        else:
            self.perf.horizon_memo_hits += 1

    def _push(self, machine):
        machine.heap_token += 1
        self.perf.heap_pushes += 1
        heapq.heappush(self._heap,
                       (machine.next_time(), machine.order,
                        machine.heap_token, machine))

    def _flush_dirty(self):
        if self._dirty:
            for machine in self._dirty:
                if machine is not self._bursting and machine.has_work():
                    self._push(machine)
            self._dirty.clear()

    def _peek(self):
        """The valid heap top, repairing lazily; None when idle.

        An entry is stale if its token was superseded, its machine is
        mid-burst, its machine went idle, or its recorded time no
        longer matches (clocks can be advanced from outside the
        driver, e.g. by :meth:`sync_clocks`).
        """
        heap = self._heap
        while heap:
            when, order, token, machine = heap[0]
            if token != machine.heap_token or machine is self._bursting:
                heapq.heappop(heap)
                continue
            if not machine.has_work():
                heapq.heappop(heap)
                machine.heap_token += 1
                continue
            now = machine.next_time()
            if now != when:
                heapq.heappop(heap)
                self._push(machine)
                continue
            return heap[0]
        return None

    def _recompute_horizon(self):
        """O(M) scan for the burst horizon: the minimum *lookahead*
        key over every other machine with work.  The heap top cannot
        stand in for this — heap entries carry raw next-action keys,
        and the minimum of the lookahead keys is not necessarily
        attained by the raw minimum."""
        best = (_INF, _INF)
        src = None
        bursting = self._bursting
        for machine in self.machines.values():
            if machine is bursting or not machine.has_work():
                continue
            key = self._lookahead_key(machine)
            if key < best:
                best = key
                src = machine
        self._horizon = best
        self._horizon_src = src

    def _drive(self, max_steps, until_us=None, predicate=None):
        """The event-horizon batched driver.

        Returns ``"predicate"``, ``"until"`` or ``"idle"``; exhausting
        ``max_steps`` returns ``"steps"`` and the caller raises.

        Causality argument: the chosen machine is the laggard (minimum
        next-action time, ties broken by machine order exactly like
        the reference scan).  While it bursts, no other machine runs.
        In a pure message-passing PDES the horizon would be the best
        peer next-action time *plus* the network's minimum message
        latency (``costs.message_us(0)``) — but our machines also
        share synchronous state (NFS cross-mounts resolve remote reads
        and writes instantly, with no delivery event), which collapses
        the safe latency term to zero for peers with pending events.
        Peers that would next run a scheduling slot get the overlap
        window instead (see :meth:`_lookahead_key`): machines whose
        quanta overlap in virtual time are simulated-parallel, and
        running the laggard's overlapping slots back to back is a
        valid serialization the reference scan commits to with the
        same rule — bursts amortize the pick and never diverge from
        the scan schedule.  When the burst posts a delivery to a peer,
        the peer's lookahead key — and hence the horizon — can
        shrink; :meth:`note_activity` folds that into the memoized
        horizon in O(1) and only a grown key forces a recompute.
        """
        perf = self.perf
        steps = 0
        while steps < max_steps:
            if predicate is not None and predicate():
                return "predicate"
            if until_us is not None and self.wall_time_us() >= until_us:
                return "until"
            self._flush_dirty()
            top = self._peek()
            if top is None:
                return "idle"
            machine = top[3]
            heapq.heappop(self._heap)
            self._bursting = machine
            self._horizon_stale = False
            order = machine.order
            burst = 0
            try:
                self._recompute_horizon()
                while steps < max_steps:
                    # the first step is unconditional: the laggard was
                    # chosen exactly as the reference scan would
                    if burst and (machine.next_time(), order) \
                            >= self._horizon:
                        break
                    if not machine.step():
                        break
                    steps += 1
                    burst += 1
                    perf.steps += 1
                    if predicate is not None and predicate():
                        return "predicate"
                    if until_us is not None \
                            and machine.clock.now_us >= until_us:
                        # only the bursting machine's clock moved, so
                        # its clock alone decides the wall-time bound
                        return "until"
                    if self._horizon_stale:
                        self._horizon_stale = False
                        self._recompute_horizon()
            finally:
                self._bursting = None
                perf.note_burst(burst)
                self._dirty.discard(machine)
                if machine.has_work():
                    self._push(machine)
        return "steps"
