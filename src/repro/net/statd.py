"""The ``STATREPORT`` wire format and statd's shared constants.

Cluster-wide telemetry (DESIGN.md section 13): every sampling
interval a host's ``statd`` packs its ring-buffered time series
(:mod:`repro.obs.timeseries`) into one report and ships it to the
``statd-recv`` spooler on the file server, which keeps the newest
report per host under ``stat_spool_dir`` (by default
``/usr/spool/statd/<host>/`` on the server).  The spool lives
outside ``/tmp`` on purpose, so a server reboot does not erase the
cluster's telemetry history.

Framing, the sender and the receiver are the shared report channel
of :mod:`repro.net.report`, as for loadd; this module adds the body
and statd's channel constants.  Layout after the shared header
(magic ``STATREPORT_MAGIC``, octal 451), little endian::

    seq        u16   the sender's sampling round number
    count      u16   number of series (<= MAX_SERIES)
    count x:
      name     u16-prefixed string
      total    u32   samples ever recorded into the series
      len      u16   retained samples following (<= MAX_SAMPLES)
      len x:
        time_s u32   sample timestamp, whole seconds
        value  u32   sample value (gauges and deltas are small ints)

The spooler ages out any spooled report older than ``stat_stale_s``
(:func:`~repro.net.report.is_stale`), so a crashed or partitioned
peer simply disappears from ``migtop``.
"""

from repro.errors import UnixError, EINVAL
from repro.kernel.constants import STATREPORT_MAGIC
from repro.net.report import Channel, Report
from repro.obs.timeseries import Series, SeriesSet

#: statd's well-known report port (loadd owns 517, migrationd 515)
STATD_PORT = 518

STATREPORT_VERSION = 1

#: caps keeping one report bounded: a host samples a fixed, small set
#: of gauges and counter deltas into fixed-size rings
MAX_SERIES = 16
MAX_SAMPLES = 64

#: the default ``stat_spool_dir`` as named on the file server; outside
#: /tmp so the telemetry history survives a file-server reboot
SPOOL_DIR = "/usr/spool/statd"

#: the report file inside a per-host spool directory
REPORT_NAME = "report"


def spool_path(spool_dir, host):
    """The spooled report of ``host`` under ``spool_dir``."""
    return "%s/%s/%s" % (spool_dir, host, REPORT_NAME)


class StatReport(Report):
    """One host's telemetry snapshot, as shipped on the wire."""

    MAGIC = STATREPORT_MAGIC
    VERSION = STATREPORT_VERSION
    LABEL = "statreport"

    def __init__(self, host, time_s, seq, series=()):
        self.host = host
        self.time_s = int(time_s)
        self.seq = int(seq)
        #: ``(name, total, ((time_s, value), ...))`` triples
        self.series = tuple(
            (name, int(total),
             tuple((int(t), int(v)) for t, v in samples))
            for name, total, samples in series)
        if len(self.series) > MAX_SERIES:
            raise UnixError(EINVAL, "too many statreport series")
        for __, __, samples in self.series:
            if len(samples) > MAX_SAMPLES:
                raise UnixError(EINVAL,
                                "too many statreport samples")

    @classmethod
    def from_series(cls, host, time_s, seq, series_set):
        """Snapshot a :class:`~repro.obs.timeseries.SeriesSet`."""
        series = [(s.name, s.count, tuple(s.samples()))
                  for s in series_set.series()]
        return cls(host, time_s, seq, series)

    def to_series(self, capacity=None):
        """Rebuild a SeriesSet (ring capacity >= retained samples)."""
        if capacity is None:
            capacity = 1
            longest = max((len(samples) for __, __, samples
                           in self.series), default=1)
            while capacity < longest:
                capacity <<= 1
        out = SeriesSet(capacity)
        for name, total, samples in self.series:
            out.add(Series.restore(name, capacity, total, samples))
        return out

    def pack_body(self, writer):
        writer.u16(self.seq)
        writer.u16(len(self.series))
        for name, total, samples in self.series:
            writer.string(name)
            writer.u32(total)
            writer.u16(len(samples))
            for time_s, value in samples:
                writer.u32(time_s)
                writer.u32(value)

    @classmethod
    def unpack_body(cls, reader, host, time_s):
        seq = reader.u16()
        count = reader.u16()
        if count > MAX_SERIES:
            raise UnixError(EINVAL, "too many statreport series")
        series = []
        for __ in range(count):
            name = reader.string()
            total = reader.u32()
            length = reader.u16()
            if length > MAX_SAMPLES:
                raise UnixError(EINVAL,
                                "too many statreport samples")
            samples = []
            for __ in range(length):
                sample_t = reader.u32()
                sample_v = reader.u32()
                samples.append((sample_t, sample_v))
            series.append((name, total, tuple(samples)))
        return cls(host, time_s, seq, series)

    def __eq__(self, other):
        return (isinstance(other, StatReport)
                and self.host == other.host
                and self.time_s == other.time_s
                and self.seq == other.seq
                and self.series == other.series)

    def __repr__(self):
        return ("StatReport(%s t=%d seq=%d %d series)"
                % (self.host, self.time_s, self.seq,
                   len(self.series)))


#: statd's report channel: a report carries up to 16 series of 64
#: samples, so read 2 KB at a time and buffer at most 16 KB
STATD = Channel(port=STATD_PORT, report=StatReport,
                send_site="statd.send", recv_site="statd.spool",
                prefix="st_", chunk=2048, cap=16384)
