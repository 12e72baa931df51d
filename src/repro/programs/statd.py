"""``statd`` — per-host cluster telemetry (DESIGN.md section 13).

The observability layer of section 9 records flat counters and
per-run spans inside one process; statd grows it into *cluster*
telemetry: every sampling interval the daemon snapshots this host's
kernel gauges (runnable queue depth, live processes, bound sockets,
heartbeat suspicions — the ``statgauges`` pseudo-call) and the
per-host deltas of the migration metrics (dumps, restarts,
migrations, recoveries via ``migstat``) into fixed-size ring-buffer
time series (:mod:`repro.obs.timeseries`), then ships the whole set
as one ``STATREPORT`` to the ``statd-recv`` spooler on the file
server.  ``migtop(1)`` and ``migstat -s`` read the spool; the
critical-path analyzer (``critpath``) complements it with per-phase
migration latency attribution.

Like loadd, delivery is best-effort and cheap to lose: a report to a
heartbeat-suspected spooler is skipped, a failed send is dropped and
counted, and the spooler ages out peers that stop reporting — a
crashed host simply disappears from ``migtop`` after
``stat_stale_s``.  Fault sites ``statd.send`` / ``statd.spool``
inject loss, delay, corruption, crashes and partitions on either
side of the exchange.

The subsystem is doubly opt-in: nothing spawns statd except
``MigrationSite.start_statd``, and even a spawned statd exits
immediately (silently, EX_OK) unless ``stat_interval_s`` is set
positive — so default-mode runs are byte-identical with or without
this module, and every knob read goes through zero-cost ``sysctl0``.

Usage: ``statd`` (no arguments).  Every setting is a knob: the
schedule is ``stat_interval_s`` seconds apart for ``stat_rounds``
rounds.
"""

from repro.errors import iserr
from repro.net.report import (is_stale, listen_for_reports, next_report,
                              read_spooled, send_report)
from repro.fs.paths import split_remote
from repro.net.statd import STATD, StatReport, spool_path
from repro.obs.timeseries import SeriesSet
from repro.programs.base import mkdir_p, print_err, replace_file
from repro.programs.exitcodes import EX_FAIL, EX_OK

USAGE = "usage: statd"

#: the kernel gauges sampled each round, in series order
GAUGES = ("runq", "procs", "socks", "hb_suspects")

#: the migstat columns sampled as per-round deltas, in series order
DELTAS = ("dumps", "restarts", "migrations", "recoveries")


def statd_main(argv, env):
    if len(argv) > 1:
        yield from print_err(USAGE)
        return EX_FAIL
    interval = yield ("sysctl0", "stat_interval_s")
    rounds = yield ("sysctl0", "stat_rounds")
    if interval <= 0:
        return EX_OK  # telemetry is off: leave no trace at all
    capacity = yield ("sysctl0", "stat_series_len")
    server, spool_dir = split_remote((yield ("sysctl0", "stat_spool_dir")))

    yield ("hb_start",)
    local = yield ("gethostname",)
    series = SeriesSet(capacity)
    previous = {}
    for seq in range(max(1, rounds)):
        yield ("sleep", interval)
        now_s = yield ("time",)
        points = yield from _sample(series, now_s, local, previous)
        yield ("perf_note", "st_series_points", points)
        yield ("perf_note", "st_samples")
        yield ("trace_mark", "statd", "sample",
               "%s:%d" % (local, seq))
        report = StatReport.from_series(local, now_s, seq, series)
        yield from _ship(report, server, local, spool_dir)
    return EX_OK


def _sample(series, now_s, local, previous):
    """One sampling round: gauges plus migstat deltas; point count."""
    points = 0
    gauges = yield ("statgauges",)
    for key in GAUGES:
        series.record(key, now_s, gauges[key])
        points += 1
    rows = yield ("migstat",)
    if not iserr(rows):
        own = next((row for row in rows if row["host"] == local),
                   None)
        if own is not None:
            for key in DELTAS:
                delta = own[key] - previous.get(key, 0)
                previous[key] = own[key]
                series.record(key, now_s, max(0, delta))
                points += 1
    return points


def _ship(report, server, local, spool_dir):
    """Deliver one report to the spooler (or spool locally into
    ``spool_dir``, the spool's name on the spooler's host)."""
    if server is None or server == local:
        # the spooler's host is this host: skip the wire and spool
        # straight into the local directory, tmp + rename like the
        # receiver does, and count it as the receiver would
        result = yield from _spool(spool_dir, report.host, report.pack())
        yield ("perf_note", "st_reports_sent")
        yield ("perf_note", "st_reports_dropped" if iserr(result)
               else "st_reports_recv")
        return
    yield from send_report(STATD, report, server)


def _spool(spool_dir, host, blob):
    """yield-from: write-tmp-rename one report into the spool."""
    yield from mkdir_p("%s/%s" % (spool_dir, host))
    return (yield from replace_file(spool_path(spool_dir, host), blob))


# -- the spooler ------------------------------------------------------------


def statd_recv_main(argv, env):
    """Own the well-known port; spool one report per connection
    under ``stat_spool_dir`` (named locally) and age stale peers out
    of the spool."""
    sock = yield from listen_for_reports(STATD)
    if sock is None:
        return EX_OK  # a spooler is already running: nothing to do
    spool_dir = split_remote((yield ("sysctl0", "stat_spool_dir")))[1]
    yield from mkdir_p(spool_dir)
    stale_s = yield ("sysctl0", "stat_stale_s")
    timeout = yield ("sysctl", "net_read_timeout_s")
    while True:
        report, blob = yield from next_report(STATD, sock, timeout)
        result = yield from _spool(spool_dir, report.host, blob)
        if iserr(result):
            yield ("perf_note", "st_reports_dropped")
            continue
        yield ("perf_note", "st_reports_recv")
        yield from _age_out(spool_dir, stale_s)


def _age_out(spool_dir, stale_s):
    """Unlink spooled reports whose senders have gone quiet."""
    now_s = yield ("time",)
    names = yield ("readdir", spool_dir)
    if iserr(names):
        return
    for name in sorted(names):
        path = spool_path(spool_dir, name)
        report = yield from read_spooled(STATD, path, name)
        if report is not None and is_stale(report, now_s, stale_s):
            yield ("unlink", path)
            yield ("perf_note", "st_stale_drops")
