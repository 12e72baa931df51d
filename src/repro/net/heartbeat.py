"""A leased heartbeat failure detector, one per live kernel.

Every machine that runs a network daemon participates: the monitor
probes each peer on a virtual-time period (``costs.hb_interval_s``)
and declares a peer **suspected dead** after ``costs.hb_timeout_s`` of
silence.  Probes are modelled, not sent — whether a peer would answer
is exactly "is it running and reachable", which the cluster already
knows — so detection costs no simulated network traffic, only the
timer events, and remains deterministic from run to run.

The probe lane is *leased*: it ticks only while somebody has asked
``hb_status`` recently (``costs.hb_lease_s``).  Without the lease an
armed periodic timer would keep every cluster from ever going idle,
breaking the run-until-quiescent discipline every test and benchmark
relies on.  The lease gives the intended semantics — interested
parties get continuous detection; an idle cluster goes silent.

Suspicion state lives on the kernel (``kernel.hb_monitor``), so a
reboot forgets everything — like any other kernel memory.
"""

from repro.errors import UnixError


class HeartbeatMonitor:
    """Failure detector state for one machine."""

    def __init__(self, machine):
        self.machine = machine
        self.last_heard = {}  #: peer name -> virtual us last seen alive
        self.suspected = set()  #: peer names currently declared dead
        self.active = False  #: probe lane currently ticking
        self.lease_until = 0.0  #: lane runs while now < lease_until

    # -- queries ----------------------------------------------------------

    def status(self, host):
        """1 if ``host`` is suspected dead, else 0; renews the lease."""
        now = self.machine.clock.now_us
        costs = self.machine.costs
        self.lease_until = now + costs.hb_lease_s * 1_000_000.0
        if not self.active:
            self.active = True
            self._probe_all(now)
            self._schedule(now + costs.hb_interval_s * 1_000_000.0)
        return 1 if host in self.suspected else 0

    # -- the probe lane ---------------------------------------------------

    def _peers(self):
        cluster = self.machine.cluster
        return [m for name, m in sorted(cluster.machines.items())
                if m is not self.machine]

    def _probe_all(self, now):
        cluster = self.machine.cluster
        perf = cluster.perf
        network = cluster.network
        tracer = cluster.tracer
        timeout_us = self.machine.costs.hb_timeout_s * 1_000_000.0
        for peer in self._peers():
            perf.hb_probes += 1
            alive = peer.running and network.reachable(
                self.machine.name, peer.name)
            if alive:
                self.last_heard[peer.name] = now
                if peer.name in self.suspected:
                    self.suspected.discard(peer.name)
                    perf.hb_recoveries += 1
                    if tracer.enabled:
                        tracer.emit("hb", "recover", self.machine,
                                    peer=peer.name)
                continue
            # benefit of the doubt on the very first probe: treat the
            # lane's start as the last time we heard from the peer, so
            # suspicion takes a full timeout of observed silence
            heard = self.last_heard.setdefault(peer.name, now)
            if now - heard >= timeout_us \
                    and peer.name not in self.suspected:
                self.suspected.add(peer.name)
                perf.hb_suspects += 1
                perf.metrics.inc("hb_suspects",
                                 host=self.machine.name,
                                 peer=peer.name)
                if tracer.enabled:
                    tracer.emit("hb", "suspect", self.machine,
                                peer=peer.name)

    def _schedule(self, when_us):
        self.machine.post_event(when_us, self._tick)

    def _tick(self):
        machine = self.machine
        if not machine.running or machine.kernel.hb_monitor is not self:
            return  # the host died or rebooted under us
        now = machine.clock.now_us
        machine.cluster.perf.hb_ticks += 1
        tracer = machine.cluster.tracer
        if tracer.enabled:
            tracer.emit("hb", "tick", machine)
        try:
            machine.kernel.fault_check("hb.tick", machine.name)
        except UnixError:
            pass  # a faulted probe round is skipped, not fatal
        else:
            self._probe_all(now)
        if now < self.lease_until:
            self._schedule(now + machine.costs.hb_interval_s
                           * 1_000_000.0)
        else:
            self.active = False  # lease expired: lane goes dormant
