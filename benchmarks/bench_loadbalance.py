"""loadd migration-storm benchmark: makespan with and without the
load-balancing daemon.

The paper's section 8 application, measured the way its evaluation
section measures everything else: an imbalanced storm — every CPU
hog starts on workstation ``w0`` of an 8-host cluster — runs to
completion twice, once with the cluster's ``loadd`` daemons running
and once without.  The makespan (virtual time until the last job
finishes) must improve by at least 1.5x with loadd on: the daemons
notice the pile-up from the LOADREPORT exchange and drain ``w0``
through the migrationd pipeline while the jobs run.

Both storms run under ``scan_checked``: every step the driver takes
is checked against the O(M) reference scan.  Two more gates ride
along, on the low-volume trace categories:

* **loadd off** — the storm with the daemon never started must show
  zero ``ld_*`` counter activity and no ``loadd`` trace events: the
  subsystem is opt-in and its mere existence perturbs nothing;
* **loadd on** — the balanced storm must move jobs without a failed
  move: daemon scheduling, report exchange and the migrations
  themselves are all deterministic virtual-time events.

The rows and the speedup are merged into ``--out`` under a
``loadbalance`` key.

Usage::

    python benchmarks/bench_loadbalance.py [--smoke] [--out BENCH_perf.json]
"""

import sys

# harness puts src/ on sys.path
from harness import arg_parser, loadd_storm, say, write_report

from repro.bench import scan_checked

#: the full storm: 12 hogs piled on one of 8 workstations.  Each
#: hog is ~10 CPU-seconds of work — long enough that a ~4s migration
#: (dump under contention + restart ack) amortizes, which is exactly
#: the regime loadd is for
FULL = dict(hosts=8, hogs=12, iterations=400_000)
#: the CI smoke variant: a third of the storm on half the cluster
SMOKE = dict(hosts=4, hogs=4, iterations=600_000)

#: low-volume categories for the loadd-off check
TRACE_CATEGORIES = ("fault", "hb", "dump", "restart", "migrate",
                    "recovery", "loadd")


def run_storm(balance, shape):
    """One storm to completion; returns (row, trace_jsonl)."""
    site = loadd_storm(categories=TRACE_CATEGORIES,
                       loadd_rounds=20 if balance else 0, **shape)
    perf = site.cluster.perf
    row = dict(shape, loadd=balance,
               makespan_s=round(site.wall_seconds(), 3),
               ld_moves=perf.ld_moves,
               ld_move_failures=perf.ld_move_failures,
               ld_reports_sent=perf.ld_reports_sent)
    return row, site.cluster.tracer.to_jsonl()


def run_benchmark(shape, out):
    say("migration storm: %(hogs)d hogs piled on w0 of %(hosts)d "
        "workstations, %(iterations)d iterations each" % shape)
    # each storm's schedule is checked against the reference scan
    runs = {}
    for balance in (False, True):
        runs[balance] = scan_checked(lambda: run_storm(balance, shape))
        row = runs[balance][0]
        say("  loadd=%-5s makespan=%8.2fs moves=%d"
            % (balance, row["makespan_s"], row["ld_moves"]))
    (off, off_trace), (on, __) = runs[False], runs[True]
    if off["ld_moves"] or off["ld_reports_sent"]:
        raise AssertionError("loadd-off run shows loadd activity")
    if '"cat":"loadd"' in off_trace or '"cat": "loadd"' in off_trace:
        raise AssertionError("loadd-off trace has loadd events")

    # -- the headline: balancing pays for itself ---------------------
    speedup = off["makespan_s"] / on["makespan_s"]
    say("speedup: %.2fx (%.2fs -> %.2fs, %d moves)"
        % (speedup, off["makespan_s"], on["makespan_s"],
           on["ld_moves"]))
    if speedup < 1.5:
        raise AssertionError(
            "loadd speedup %.2fx below the 1.5x floor" % speedup)
    if on["ld_move_failures"]:
        raise AssertionError("moves failed during the storm")
    write_report(out, {"loadbalance": {"rows": [off, on],
                                       "speedup": round(speedup, 3)}})


def main(argv=None):
    args = arg_parser(__doc__, "quarter-size storm for CI") \
        .parse_args(argv)
    run_benchmark(SMOKE if args.smoke else FULL, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
