"""The connection-per-report channel shared by loadd and statd.

Both daemons ship one host's snapshot at a time to a receiver at a
well-known port: the sender connects, writes one packed report and
closes; the receiver reads the connection to EOF (bounded), unpacks
the report and spools it.  Everything that is the same on both sides
lives here once — the report header, the staleness rule, the sender,
and the receiver's read/fault/unpack step — and each family's
differences are the constants of one :class:`Channel` record.

Every report starts with the same header (little endian)::

    magic      u16   the family's magic number
    version    u8    the family's format version
    host       u16-prefixed string (the reporting host)
    time_s     u32   sender's virtual clock, whole seconds

followed by the family's body (:meth:`Report.pack_body`).  A
truncated or doctored report raises :class:`~repro.errors.UnixError`
(``EINVAL``) on unpack — the receiver drops it and keeps running, it
never crashes.

Staleness, not sequence numbers, handles lost or reordered reports:
every report carries its sender's virtual-time stamp, and a reader
ignores (loadd) or ages out (statd) anything older than its stale
knob, so a crashed or partitioned peer simply disappears.
"""

from typing import NamedTuple

from repro.core.formats import _Reader, _Writer
from repro.errors import iserr, EINVAL, ETIMEDOUT, UnixError
from repro.programs.base import read_file, write_all


class Report:
    """A host's snapshot: the shared header plus a family body.

    Subclasses set ``MAGIC``, ``VERSION`` and ``LABEL`` (the name in
    error messages) and implement :meth:`pack_body` and
    :meth:`unpack_body`.
    """

    MAGIC = VERSION = LABEL = None

    def pack(self):
        writer = _Writer()
        writer.u16(self.MAGIC)
        writer.raw(bytes((self.VERSION,)))
        writer.string(self.host)
        writer.u32(self.time_s)
        self.pack_body(writer)
        return writer.getvalue()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, cls.LABEL)
        if reader.u16() != cls.MAGIC:
            raise UnixError(EINVAL, "bad %s magic" % cls.LABEL)
        version = reader.raw(1)[0]
        if version != cls.VERSION:
            raise UnixError(EINVAL,
                            "%s version %d" % (cls.LABEL, version))
        host = reader.string()
        time_s = reader.u32()
        return cls.unpack_body(reader, host, time_s)

    @classmethod
    def parse(cls, blob):
        """The unpacked report, or None for a torn or doctored blob."""
        try:
            return cls.unpack(blob)
        except UnixError:
            return None


def is_stale(report, now_s, stale_s):
    """True once ``report`` is older than ``stale_s`` at ``now_s``.

    A report from the future (a peer's clock running slightly ahead
    of ours when it sampled) counts as age zero — clocks across the
    cluster are only loosely synchronized.
    """
    return max(0, int(now_s) - report.time_s) > stale_s


class Channel(NamedTuple):
    """One report family's wire constants."""

    port: int  #: the receiver's well-known port
    report: type  #: the :class:`Report` subclass on the wire
    send_site: str  #: fault site on the sender's side
    recv_site: str  #: fault site on the receiver's side
    prefix: str  #: perf counter family (``ld_`` / ``st_``)
    chunk: int  #: bytes per receiver read
    cap: int  #: bytes a receiver buffers before giving up

    def note(self, counter):
        """The perf_note request bumping this family's ``counter``."""
        return ("perf_note", self.prefix + counter)


def send_report(channel, report, peer):
    """yield-from: deliver one report to ``peer``'s receiver.

    A peer the heartbeat detector suspects is skipped; a fault, a
    refused connection or a failed write drops the report.  Either
    way the outcome is counted, never fatal.
    """
    suspected = yield ("hb_status", peer)
    if suspected == 1:
        yield channel.note("suspect_skips")
        return
    fate = yield ("fault_point", channel.send_site, peer)
    if iserr(fate):
        yield channel.note("reports_dropped")
        return
    blob = yield ("fault_data", channel.send_site, report.pack(), peer)
    sock = yield ("socket",)
    result = yield ("connect", sock, peer, channel.port)
    if iserr(result):
        yield ("close", sock)
        yield channel.note("reports_dropped")
        return
    result = yield from write_all(sock, blob)
    yield ("close", sock)
    yield channel.note("reports_dropped" if iserr(result)
                       else "reports_sent")


def listen_for_reports(channel):
    """yield-from: bind and listen on the channel's port; the socket,
    or None when another receiver already owns the port."""
    sock = yield ("socket",)
    result = yield ("bind", sock, channel.port)
    if iserr(result):
        return None
    yield ("listen", sock)
    return sock


def next_report(channel, sock, timeout):
    """yield-from: block until one intact report arrives.

    Each connection carries one report: it is read to EOF (bounded
    by the channel's cap), passed through the receive fault site and
    unpacked.  Whatever fails along the way is counted as dropped and
    the next connection is awaited.  Returns ``(report, blob)``.
    """
    while True:
        conn = yield ("accept", sock)
        if iserr(conn):
            yield ("sleep", 1)  # transient: don't spin hot
            continue
        blob = yield from _read_bounded(channel, conn, timeout)
        yield ("close", conn)
        if blob is not None:
            fate = yield ("fault_point", channel.recv_site, "")
            if not iserr(fate):
                blob = yield ("fault_data", channel.recv_site, blob, "")
                report = channel.report.parse(blob)
                if report is not None:
                    return report, blob
        yield channel.note("reports_dropped")


def _read_bounded(channel, conn, timeout):
    """Read one connection to EOF (bounded); None on timeout/error."""
    parts = []
    total = 0
    while total <= channel.cap:  # reports are small: no firehoses
        data = yield ("read_timeout", conn, channel.chunk, timeout)
        if data == -ETIMEDOUT:
            yield ("perf_note", "timeouts")
            return None
        if iserr(data):
            return None
        if data == b"":
            return b"".join(parts) if parts else None
        parts.append(data)
        total += len(data)
    return None


def read_spooled(channel, path, host):
    """yield-from: the report spooled for ``host`` at ``path``.

    None when there is none yet; a corrupt or misfiled report is
    unlinked and counted as dropped, and also yields None.
    """
    data = yield from read_file(path)
    if iserr(data):
        return None
    report = channel.report.parse(data)
    if report is None or report.host != host:
        yield ("unlink", path)  # corrupt or misfiled: toss it
        yield channel.note("reports_dropped")
        return None
    return report
