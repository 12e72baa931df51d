"""The ``migstat`` command: live per-host migration statistics.

In the spirit of ``ps``: where ps snapshots the process table via
``getproctab``, migstat snapshots the cluster's labelled metrics via
the ``migstat`` pseudo-call and prints one row per host — dumps
taken, processes restarted, migrations completed, jobs recovered,
crashes, and heartbeat suspicions raised by that host's detector.
The footer reports the trace compiler's shared code-cache health
(the ``vmcache`` pseudo-call: warm arrivals versus recompiles, and
how many distinct text segments are cached) and whether event
tracing is currently on (the ``trace_status`` syscall).

``-m`` additionally lists the in-flight records of the migration
intent ledger (DESIGN.md section 12): one row per record with its
phase, fencing epoch, endpoints and age — the operator's view of
what a recovery sweep would find.

``-s`` additionally lists the statd telemetry spool (DESIGN.md
section 13): one row per reporting host with the virtual age of its
last report and how many series/samples it carries — the operator's
view of which hosts' telemetry is flowing.
"""

from repro.errors import iserr, errno_name, UnixError
from repro.net.migledger import PHASE_NAMES, ledger_read
from repro.net.statd import StatReport, spool_path
from repro.programs.base import (parse_options, println, print_err,
                                 read_file)

_HEADER = ("HOST        UP  DUMPS  RESTARTS  MIGR  RECOV"
           "  CRASH  SUSP")
_ROW = "%-10s  %2s  %5d  %8d  %4d  %5d  %5d  %4d"

_LEDGER_HEADER = "LEDGER           PHASE       EPOCH  DEST      ORCH      AGE"
_LEDGER_ROW = "%-15s  %-10s  %5d  %-8s  %-8s  %ds"

_SPOOL_HEADER = "SPOOL       AGE  SEQ  SERIES  SAMPLES"
_SPOOL_ROW = "%-10s  %3ds  %3d  %6d  %7d"


def migstat_main(argv, env):
    opts, __ = parse_options(argv, {"-m": False, "-s": False})
    if not isinstance(opts, dict):
        yield from print_err("usage: migstat [-m] [-s]")
        return 1
    rows = yield ("migstat",)
    if iserr(rows):
        yield from print_err("migstat: %s" % errno_name(-rows))
        return 1
    yield from println(_HEADER)
    for row in rows:
        yield from println(_ROW % (
            row["host"], "up" if row["up"] else "dn",
            row["dumps"], row["restarts"], row["migrations"],
            row["recoveries"], row["crashes"], row["suspects"]))
    if opts.get("-m"):
        yield from _show_ledger()
    if opts.get("-s"):
        yield from _show_spool()
    cache = yield ("vmcache",)
    if not iserr(cache):
        yield from println(
            "vm cache: %d warm arrivals, %d rebuilds, %d texts "
            "(%d blocks, %d links)"
            % (cache["shared_cache_hits"], cache["cache_rebuilds"],
               cache["cached_texts"], cache["blocks_compiled"],
               cache["traces_linked"]))
    tracing = yield ("trace_status",)
    yield from println("tracing: %s" % ("on" if tracing == 1
                                        else "off"))
    return 0


def _show_ledger():
    """yield-from: list the migration ledger's records, if any."""
    ledgerdir = yield ("sysctl0", "migration_ledger_dir")
    names = yield ("readdir", ledgerdir)
    if iserr(names):
        yield from println("no migration ledger at %s" % ledgerdir)
        return
    now = yield ("time",)
    shown = 0
    for name in sorted(names):
        directory = "%s/%s" % (ledgerdir, name)
        stat = yield ("stat", directory)
        if iserr(stat) or not stat.is_dir():
            continue
        record = yield from ledger_read(directory)
        if iserr(record):
            continue  # reaped or torn: not an in-flight record
        if not shown:
            yield from println(_LEDGER_HEADER)
        shown += 1
        yield from println(_LEDGER_ROW % (
            record.mig_id(), PHASE_NAMES.get(record.phase, "?"),
            record.epoch, record.destination, record.orchestrator,
            max(0, now - record.time_s)))
    if not shown:
        yield from println("migration ledger: empty")


def _show_spool():
    """yield-from: list the statd spool's reports, if any."""
    spool_dir = yield ("sysctl0", "stat_spool_dir")
    names = yield ("readdir", spool_dir)
    if iserr(names):
        yield from println("no statd spool at %s" % spool_dir)
        return
    now = yield ("time",)
    shown = 0
    for name in sorted(names):
        data = yield from read_file(spool_path(spool_dir, name))
        if iserr(data):
            continue
        try:
            report = StatReport.unpack(data)
        except UnixError:
            continue  # torn: the spooler will toss it
        if not shown:
            yield from println(_SPOOL_HEADER)
        shown += 1
        samples = sum(len(samples) for __, __, samples
                      in report.series)
        yield from println(_SPOOL_ROW % (
            report.host, max(0, now - report.time_s), report.seq,
            len(report.series), samples))
    if not shown:
        yield from println("statd spool: empty")
