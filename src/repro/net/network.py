"""The shared 10 Mbit Ethernet and a minimal stream-socket layer.

Data between machines moves as timed events: a send on machine A
schedules delivery on machine B at ``A.now + message time``; the
cluster's conservative stepping order guarantees B hasn't run past
that point.  The socket layer implements just enough of TCP's shape —
bind / listen / connect / accept / send / recv / close with EOF — for
``rshd`` and the paper's proposed migration daemon to be written as
ordinary native programs on top of it.
"""

import itertools
from collections import deque

from repro.errors import (UnixError, EADDRINUSE, ECONNREFUSED,
                          ECONNRESET, EHOSTDOWN, ENOTCONN, EPIPE,
                          EINVAL, ETIMEDOUT)
from repro.kernel.flow import WouldBlock


class SocketState:
    """One endpoint.  Lives in the kernel file table's socket slot.

    Ids are allocated by the owning :class:`Network` (one counter per
    cluster), so two identical runs in fresh clusters hand out
    identical socket ids regardless of what ran before them.
    """

    def __init__(self, machine, sock_id):
        self.id = sock_id
        self.machine = machine
        self.bound_port = None
        self.listening = False
        self.accept_queue = deque()
        self.peer = None
        self.rx = bytearray()
        self.eof = False
        self.reset = False  #: peer crashed: reads past rx see RST
        self.connected = False
        self.closed = False

    def __repr__(self):
        return ("SocketState(#%d on %s port=%r connected=%s)"
                % (self.id, self.machine.name, self.bound_port,
                   self.connected))


class Network:
    """The cluster's Ethernet segment."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: the cluster tracer, cached for the one-attribute hot-path
        #: guard (``if self.tracer.enabled``)
        self.tracer = cluster.tracer
        #: total bytes moved (bench bookkeeping)
        self.bytes_moved = 0
        self.messages_sent = 0
        #: per-network socket id allocator (reproducible across runs)
        self._sock_ids = itertools.count(1)
        #: severed links: a set of frozenset({a, b}) host-name pairs
        self._cuts = set()
        #: live sockets by owning host name, so a crash can reset the
        #: peers of everything the dead host had open
        self._live = {}

    @property
    def costs(self):
        return self.cluster.costs

    # -- partitions and crashes --------------------------------------------

    def reachable(self, a, b):
        """True when hosts ``a`` and ``b`` can exchange packets."""
        if a == b:
            return True
        ma = self.cluster.machines.get(a)
        mb = self.cluster.machines.get(b)
        if ma is None or mb is None \
                or not ma.running or not mb.running:
            return False
        return frozenset((a, b)) not in self._cuts

    def partition(self, a, b):
        """Sever the link between ``a`` and ``b`` (both directions)."""
        if a == b:
            raise ValueError("cannot partition %r from itself" % a)
        cut = frozenset((a, b))
        if cut not in self._cuts:
            self._cuts.add(cut)
            self.cluster.perf.net_partitions += 1

    def heal(self, a=None, b=None):
        """Undo one cut (``heal(a, b)``) or every cut (``heal()``)."""
        if a is None and b is None:
            self._cuts.clear()
        else:
            self._cuts.discard(frozenset((a, b)))

    def host_crashed(self, machine, when_us):
        """``machine`` just crashed: reset the peers of its sockets.

        Each surviving peer sees EOF-with-RST one wire latency after
        the crash — buffered data already delivered stays readable,
        then reads return ``ECONNRESET``.
        """
        # sorted by id so the peers' reset events land in the same
        # order on every run of the schedule (sets iterate by identity)
        for sock in sorted(self._live.pop(machine.name, ()),
                           key=lambda s: s.id):
            sock.closed = True
            peer = sock.peer
            if peer is None or peer.closed \
                    or not peer.machine.running:
                continue
            dst, victim = peer.machine, peer

            def arrive(victim=victim, dst=dst):
                victim.eof = True
                victim.reset = True
                dst.kernel.wakeup(victim)

            dst.post_event(when_us, arrive)

    # -- raw timed delivery -----------------------------------------------

    def deliver(self, src_machine, dst_machine, nbytes, action):
        """Schedule ``action`` on ``dst_machine`` after transit time."""
        if not dst_machine.running \
                or not self.reachable(src_machine.name,
                                      dst_machine.name):
            self.cluster.perf.net_drops += 1
            return
        self.bytes_moved += nbytes
        self.messages_sent += 1
        arrival = src_machine.clock.now_us + self.costs.message_us(nbytes)
        if self.tracer.enabled:
            self.tracer.emit("net.msg", "deliver", src_machine,
                             dst=dst_machine.name, nbytes=nbytes,
                             arrival_us=arrival)
        dst_machine.post_event(arrival, action)

    # -- sockets ------------------------------------------------------------

    def sock_create(self, machine):
        sock = SocketState(machine, next(self._sock_ids))
        self._live.setdefault(machine.name, set()).add(sock)
        if self.tracer.enabled:
            self.tracer.emit("net.sock", "create", machine,
                             sock=sock.id)
        return sock

    def sock_bind(self, machine, sock, port):
        if port in machine.ports:
            raise UnixError(EADDRINUSE, "port %d" % port)
        machine.ports[port] = sock
        sock.bound_port = port

    def sock_listen(self, machine, sock):
        if sock.bound_port is None:
            raise UnixError(EINVAL, "listen before bind")
        sock.listening = True

    def sock_accept(self, machine, sock):
        if not sock.listening:
            raise UnixError(EINVAL, "accept on non-listening socket")
        if sock.accept_queue:
            machine.kernel.fault_check("net.accept",
                                       str(sock.bound_port))
            return sock.accept_queue.popleft()
        raise WouldBlock(sock)

    def sock_connect(self, machine, sock, host, port):
        """Connect; the simulation charges the connect RTT here."""
        if sock.connected:
            raise UnixError(EINVAL, "already connected")
        machine.kernel.fault_check("net.connect",
                                   "%s:%d" % (host, port))
        dst = self.cluster.machines.get(host)
        if dst is None:
            raise UnixError(ECONNREFUSED, "no host %r" % host)
        if not dst.running:
            # a dead host answers nothing; the connect burns one RTT
            # before the caller can conclude anything
            machine.kernel.charge_wait(self.costs.net_rtt_us)
            raise UnixError(EHOSTDOWN, "%s:%d" % (host, port))
        if not self.reachable(machine.name, host):
            # a partition looks like silence: SYNs vanish and the
            # connect times out rather than being refused
            machine.kernel.charge_wait(
                self.costs.connect_timeout_s * 1_000_000.0)
            raise UnixError(ETIMEDOUT, "%s:%d" % (host, port))
        listener = dst.ports.get(port)
        if listener is None or not listener.listening:
            raise UnixError(ECONNREFUSED, "%s:%d" % (host, port))
        machine.kernel.charge(self.costs.net_rtt_us)
        server_side = self.sock_create(dst)
        server_side.peer = sock
        server_side.connected = True
        sock.peer = server_side
        sock.connected = True

        def arrive():
            listener.accept_queue.append(server_side)
            dst.kernel.wakeup(listener)

        self.deliver(machine, dst, 64, arrive)

    def sock_send(self, machine, sock, data):
        if not sock.connected or sock.peer is None:
            raise UnixError(ENOTCONN)
        machine.kernel.fault_check("net.send", str(sock.id))
        peer = sock.peer
        if peer.closed:
            raise UnixError(EPIPE)
        dst = peer.machine
        payload = bytes(machine.kernel.fault_filter("net.send", data,
                                                    str(sock.id)))

        def arrive():
            peer.rx.extend(payload)
            dst.kernel.wakeup(peer)

        self.deliver(machine, dst, len(payload), arrive)
        return len(payload)

    def sock_recv(self, machine, sock, nbytes):
        if sock.rx:
            machine.kernel.fault_check("net.read", str(sock.id))
            take = min(nbytes, len(sock.rx))
            data = bytes(sock.rx[:take])
            del sock.rx[:take]
            return data
        if sock.reset:
            raise UnixError(ECONNRESET, "socket #%d" % sock.id)
        if sock.eof:
            return b""
        if not sock.connected and not sock.listening:
            raise UnixError(ENOTCONN)
        raise WouldBlock(sock)

    def sock_close(self, machine, sock):
        if sock.closed:
            return
        sock.closed = True
        owned = self._live.get(machine.name)
        if owned is not None:
            owned.discard(sock)
        if sock.bound_port is not None:
            machine.ports.pop(sock.bound_port, None)
        peer = sock.peer
        if peer is not None and not peer.closed:
            dst = peer.machine

            def arrive():
                peer.eof = True
                dst.kernel.wakeup(peer)

            self.deliver(machine, dst, 1, arrive)
