"""``migtop`` — the operator's live view of cluster telemetry.

In the spirit of top(1): one row per host from the statd spool
(DESIGN.md section 13) with the host's newest gauge samples, the
virtual age of its last report, and a power-of-two sparkline of its
recent run-queue history; below the table, any SLO alerts the
critical-path analyzer raises.  With ``-p`` migtop also prints the
full critical-path report: per-phase p50/p95/max migration latency
with dominant-phase attribution and per-pair rollups — the automated
answer to "which phase dominates migration latency on this cluster".

Reads the spool over NFS (``stat_spool_dir``), so it can run on any
host; hosts whose statd stopped reporting age out of the table.  A
footer line shows the trace compiler's shared code-cache health (the
``vmcache`` pseudo-call): warm versus cold arrivals answers "are
migrated processes paying recompilation on landing" at a glance.

Usage: ``migtop [-p]``
"""

from repro.errors import iserr, UnixError
from repro.net.statd import REPORT_NAME, StatReport
from repro.programs.base import parse_options, println, print_err
from repro.programs.statd import GAUGES

USAGE = "usage: migtop [-p]"

_HEADER = "HOST        AGE  RUNQ  PROCS  SOCKS  SUSP  RUNQ HISTORY"
_ROW = "%-10s  %3ds  %4d  %5d  %5d  %4d  %s"

_PHASE_HEADER = ("PHASE       N     P50(us)     P95(us)     MAX(us)"
                 "  SHARE")
_PHASE_ROW = "%-8s  %3d  %10d  %10d  %10d  %5.1f%%"


def migtop_main(argv, env):
    opts, __ = parse_options(argv, {"-p": False})
    if not isinstance(opts, dict):
        yield from print_err(USAGE)
        return 1
    spool_dir = yield ("sysctl0", "stat_spool_dir")
    now_s = yield ("time",)
    names = yield ("readdir", spool_dir)
    if iserr(names):
        yield from println("migtop: no statd spool at %s" % spool_dir)
    else:
        yield from _show_hosts(spool_dir, sorted(names), now_s)
    report = yield ("critpath",)
    if iserr(report):
        yield from print_err("migtop: critpath unavailable")
        return 1
    cache = yield ("vmcache",)
    if not iserr(cache):
        total = cache["shared_cache_hits"] + cache["cache_rebuilds"]
        warm = (100.0 * cache["shared_cache_hits"] / total) \
            if total else 0.0
        yield from println("vm cache: %d/%d arrivals warm (%.0f%%), "
                           "%d texts cached"
                           % (cache["shared_cache_hits"], total, warm,
                              cache["cached_texts"]))
    yield from _show_alerts(report)
    if opts.get("-p"):
        yield from _show_critpath(report)
    return 0


def _show_hosts(spool_dir, names, now_s):
    """The per-host table from the spooled reports."""
    shown = 0
    for name in names:
        data = yield from _read(spool_dir, name)
        if data is None:
            continue
        try:
            report = StatReport.unpack(data)
        except UnixError:
            continue  # torn: the spooler will toss it
        series = report.to_series()
        if not shown:
            yield from println(_HEADER)
        shown += 1
        last = {key: (series.get(key).last()
                      if series.get(key) else 0) for key in GAUGES}
        runq = series.get("runq")
        yield from println(_ROW % (
            report.host, max(0, now_s - report.time_s),
            last["runq"], last["procs"], last["socks"],
            last["hb_suspects"],
            runq.sparkline() if runq else ""))
    if not shown:
        yield from println("statd spool: empty")


def _read(spool_dir, host):
    """yield-from: one spooled report's bytes, or None."""
    from repro.programs.base import read_file
    data = yield from read_file("%s/%s/%s"
                                % (spool_dir, host, REPORT_NAME))
    return None if iserr(data) else data


def _show_alerts(report):
    alerts = report.get("alerts") or []
    if not alerts:
        yield from println("alerts: none")
        return
    for alert in alerts:
        yield from println("ALERT %s: %s over limit %s"
                           % (alert["name"], alert["value"],
                              alert["limit"]))


def _show_critpath(report):
    """The -p report: phase breakdown plus rollups."""
    yield from println("critical path (%d migrations):"
                       % report["migrations"])
    if not report["phases"]:
        yield from println("  no complete migration timelines "
                           "recorded (is tracing on?)")
        return
    yield from println(_PHASE_HEADER)
    for row in report["phases"]:
        yield from println(_PHASE_ROW % (
            row["phase"], row["count"], row["p50_ns"] // 1000,
            row["p95_ns"] // 1000, row["max_ns"] // 1000,
            row["share"] * 100.0))
    e2e = report["end_to_end"]
    yield from println("end-to-end  n=%d p50=%dus p95=%dus max=%dus"
                       % (e2e["count"], e2e["p50_ns"] // 1000,
                          e2e["p95_ns"] // 1000, e2e["max_ns"] // 1000))
    yield from println("dominant phase: %s" % report["dominant"])
    for pair in sorted(report["pairs"]):
        stats = report["pairs"][pair]
        yield from println("  %-20s n=%d p95=%dus"
                           % (pair, stats["count"], stats["p95_ns"] // 1000))
