"""The ``LOADREPORT`` wire format and loadd's shared constants.

Section 8 of the paper: "CPU bound jobs can be moved from busy nodes
of the network to others that are idle".  Knowing which nodes are
busy and which are idle takes a cluster-wide load view, and this
module defines the datagram ``loadd`` broadcasts to build one: a
compact, versioned snapshot of one host's runnable VM jobs and its
best migration candidates.

Framing, the sender and the receiver are the shared report channel
of :mod:`repro.net.report`; this module adds the body and loadd's
channel constants.  Layout after the shared header (magic
``LOADREPORT_MAGIC``, octal 447), little endian::

    runnable   u16   runnable (non-zombie) VM jobs on the host
    count      u16   number of candidate entries (<= MAX_CANDIDATES)
    count x:
      pid      i32   candidate process id
      cpu_ms   u32   CPU consumed by that process, milliseconds

The view builder drops reports older than the ``load_stale_s`` knob
(:func:`~repro.net.report.is_stale`), so a crashed or partitioned
peer simply ages out of the view (its absence is also cross-checked
against the heartbeat detector by the daemon).
"""

from repro.errors import UnixError, EINVAL
from repro.kernel.constants import LOADREPORT_MAGIC
from repro.net.report import Channel, Report

#: loadd's well-known report port (migrationd owns 515, rshd 514)
LOADD_PORT = 517

LOADREPORT_VERSION = 1

#: cap on candidates per report: the balancer only ever moves a few
#: jobs per round, so shipping the whole process table is waste
MAX_CANDIDATES = 8

#: where loadd spools the newest report from each peer (and itself)
SPOOL_DIR = "/tmp/loadd"


class LoadReport(Report):
    """One host's load snapshot, as broadcast on the wire."""

    MAGIC = LOADREPORT_MAGIC
    VERSION = LOADREPORT_VERSION
    LABEL = "loadreport"

    def __init__(self, host, time_s, runnable, candidates=()):
        self.host = host
        self.time_s = int(time_s)
        self.runnable = int(runnable)
        #: ``(pid, cpu_ms)`` pairs, busiest first
        self.candidates = tuple((int(pid), int(cpu_ms))
                                for pid, cpu_ms in candidates)
        if len(self.candidates) > MAX_CANDIDATES:
            raise UnixError(EINVAL, "too many loadreport candidates")

    def pack_body(self, writer):
        writer.u16(self.runnable)
        writer.u16(len(self.candidates))
        for pid, cpu_ms in self.candidates:
            writer.i32(pid)
            writer.u32(cpu_ms)

    @classmethod
    def unpack_body(cls, reader, host, time_s):
        runnable = reader.u16()
        count = reader.u16()
        if count > MAX_CANDIDATES:
            raise UnixError(EINVAL, "too many loadreport candidates")
        candidates = []
        for __ in range(count):
            pid = reader.i32()
            cpu_ms = reader.u32()
            candidates.append((pid, cpu_ms))
        return cls(host, time_s, runnable, candidates)

    def __eq__(self, other):
        return (isinstance(other, LoadReport)
                and self.host == other.host
                and self.time_s == other.time_s
                and self.runnable == other.runnable
                and self.candidates == other.candidates)

    def __repr__(self):
        return ("LoadReport(%s t=%d runnable=%d candidates=%r)"
                % (self.host, self.time_s, self.runnable,
                   self.candidates))


#: loadd's report channel: reports are tiny, so read 1 KB at a time
#: and never buffer more than 4 KB
LOADD = Channel(port=LOADD_PORT, report=LoadReport,
                send_site="loadd.send", recv_site="loadd.recv",
                prefix="ld_", chunk=1024, cap=4096)
