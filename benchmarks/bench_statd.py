"""statd telemetry-overhead benchmark: a migration storm with and
without cluster telemetry.

The observability contract measured end to end: an imbalanced storm
— every CPU hog starts on workstation ``w0`` — runs to completion
twice, once with the cluster's ``statd`` daemons sampling and
shipping reports and once without.  Three gates:

* **statd off** — the storm with telemetry never enabled must be
  byte-identical between the ``scan`` and ``fast`` engines, show
  zero ``st_*`` counter activity and carry no ``statd``/``alert``
  trace events: the subsystem is doubly opt-in and its mere
  existence perturbs nothing;
* **statd on** — the instrumented storm must also be
  engine-identical, including the spooled report bytes on the file
  server and the critical-path report: sampling, shipping and
  analysis are all deterministic virtual-time events;
* **overhead** — telemetry must stay cheap: the instrumented
  storm's virtual makespan may exceed the bare storm's by at most
  5%.

The critical-path analyzer runs over the instrumented storm's
migration timelines and its per-phase breakdown is included in the
report (and must telescope to the measured end-to-end latencies).

The rows, the overhead and the critical-path report are merged into
``--out`` under a ``statd`` key.

Usage::

    python benchmarks/bench_statd.py [--smoke] [--out BENCH_perf.json]
"""

import sys

# harness puts src/ on sys.path
from harness import arg_parser, loadd_storm, say, write_report

from repro.bench import DRIVERS, drivers_agree
from repro.errors import UnixError
from repro.net.statd import SPOOL_DIR, spool_path
from repro.obs.critpath import critical_path_report

#: the full storm: 6 hogs piled on one of 8 workstations, telemetry
#: sampling every virtual second while the migrations drain the pile
FULL = dict(hosts=8, hogs=6, iterations=300_000)
#: the CI smoke variant: half the storm on half the cluster
SMOKE = dict(hosts=4, hogs=3, iterations=150_000)

#: low-volume categories for the byte-identity comparisons
TRACE_CATEGORIES = ("fault", "hb", "dump", "restart", "migrate",
                    "recovery", "statd", "alert")

#: maximum virtual-time overhead telemetry may add to the storm
OVERHEAD_CEILING = 1.05


def run_storm(engine, telemetry, shape):
    """One storm to completion; returns (row, trace, spool, report).
    loadd balances it to give the analyzer real migrations."""
    site = loadd_storm(engine, categories=TRACE_CATEGORIES,
                       loadd_rounds=12,
                       statd_rounds=12 if telemetry else 0, **shape)
    spool = {}
    server = site.machine("brador")
    for name in ("w%d" % i for i in range(shape["hosts"])):
        try:
            spool[name] = server.fs.read_file(
                spool_path(SPOOL_DIR, name)).hex()
        except UnixError:
            spool[name] = None
    critpath = critical_path_report(site.cluster)
    row = dict(shape, statd=telemetry,
               makespan_s=round(site.wall_seconds(), 3),
               migrations=critpath["migrations"],
               st={k: v for k, v in site.cluster.perf.snapshot().items()
                   if k.startswith("st_")})
    return row, site.cluster.tracer.to_jsonl(), spool, critpath


def run_benchmark(shape, out):
    say("telemetry storm: %(hogs)d hogs piled on w0 of %(hosts)d "
        "workstations, %(iterations)d iterations each" % shape)
    # the determinism gates: each storm engine-identical, rows, trace,
    # spooled reports and critical path alike
    runs = {}
    for telemetry in (False, True):
        runs[telemetry] = drivers_agree(
            lambda engine: run_storm(engine, telemetry, shape))
        row = runs[telemetry][0]
        say("  statd=%-5s makespan=%8.2fs migrations=%d"
            % (telemetry, row["makespan_s"], row["migrations"]))
    off, off_trace, off_spool, __ = runs[False]
    on, __, __, critpath = runs[True]
    if any(off["st"].values()):
        raise AssertionError("statd-off run shows statd activity")
    if any(off_spool.values()):
        raise AssertionError("statd-off run populated the spool")
    for needle in ('"cat":"statd"', '"cat": "statd"',
                   '"cat":"alert"', '"cat": "alert"'):
        if needle in off_trace:
            raise AssertionError("statd-off trace has statd events")

    # -- the telemetry flowed and the analyzer telescopes ------------
    if not on["st"]["st_reports_recv"]:
        raise AssertionError("no report reached the spool")
    if critpath["migrations"]:
        total = sum(r["total_us"] for r in critpath["phases"])
        if total != critpath["end_to_end"]["total_us"]:
            raise AssertionError("phase durations do not telescope "
                                 "to the end-to-end latency")

    # -- the headline: telemetry is nearly free ----------------------
    overhead = on["makespan_s"] / off["makespan_s"]
    say("overhead: %.3fx (%.2fs -> %.2fs, %d reports spooled)"
        % (overhead, off["makespan_s"], on["makespan_s"],
           on["st"]["st_reports_recv"]))
    if overhead > OVERHEAD_CEILING:
        raise AssertionError(
            "telemetry overhead %.3fx above the %.2fx ceiling"
            % (overhead, OVERHEAD_CEILING))
    rows = [dict(row, engine=engine)
            for row in (off, on) for engine in DRIVERS]
    write_report(out, {"statd": {"rows": rows,
                                 "overhead": round(overhead, 4),
                                 "critical_path": critpath}})


def main(argv=None):
    args = arg_parser(__doc__, "half-size storm for CI").parse_args(argv)
    run_benchmark(SMOKE if args.smoke else FULL, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
