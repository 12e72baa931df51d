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

Two determinism gates ride along, both engine-pair comparisons on
the low-volume trace categories:

* **loadd off** — the storm with the daemon never started must be
  byte-identical between the ``scan`` and ``fast`` engines and show
  zero ``ld_*`` counter activity: the subsystem is opt-in and its
  mere existence perturbs nothing;
* **loadd on** — the balanced storm must also be engine-identical:
  daemon scheduling, report exchange and the migrations themselves
  are all deterministic virtual-time events.

Writes the report to ``--out``; with ``--perf-report FILE`` the rows
and the speedup are also merged into an existing ``BENCH_perf.json``
under a ``loadbalance`` key.

Usage::

    PYTHONPATH=src python benchmarks/bench_loadbalance.py [--smoke]
        --out /tmp/BENCH_loadbalance.json [--perf-report BENCH_perf.json]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__) or ".",
                                os.pardir, "src"))

from repro.core.api import MigrationSite
from repro.costmodel import CostModel

#: the full storm: 12 hogs piled on one of 8 workstations.  Each
#: hog is ~10 CPU-seconds of work — long enough that a ~4s migration
#: (dump under contention + restart ack) amortizes, which is exactly
#: the regime loadd is for
FULL = dict(hosts=8, hogs=12, iterations=400_000)
#: the CI smoke variant: a third of the storm on half the cluster
SMOKE = dict(hosts=4, hogs=4, iterations=600_000)

#: retry/poll knobs shrunk exactly as in the chaos tests, plus an
#: aggressive balancing cadence so the storm drains while it runs
FAST_KNOBS = dict(migrate_backoff_s=0.5, connect_backoff_s=0.5,
                  net_read_timeout_s=5.0, restart_poll_tries=30,
                  restart_poll_sleep_s=0.5, loadd_interval_s=1.0,
                  loadd_min_cpu_s=0.1, loadd_max_moves=4)

#: low-volume categories for the byte-identity comparisons
TRACE_CATEGORIES = ("fault", "hb", "dump", "restart", "migrate",
                    "recovery", "loadd")


def run_storm(engine, balance, hosts, hogs, iterations, rounds=20):
    """One storm to completion; returns (row, trace_jsonl)."""
    workstations = ["w%d" % i for i in range(hosts)]
    site = MigrationSite(costs=CostModel(**FAST_KNOBS),
                         workstations=workstations, engine=engine)
    site.cluster.tracer.enable(*TRACE_CATEGORIES)
    site.run_quiet()
    for __ in range(hogs):
        site.start("w0", "/bin/cpuhog",
                   ["cpuhog", str(iterations)], uid=100)
    if balance:
        site.start_loadd(rounds=rounds)

    def all_done():
        return all(p.zombie() or not p.is_vm()
                   for m in site.cluster.machines.values()
                   for p in m.kernel.procs.all_procs())

    site.run_until(all_done, max_steps=400_000_000)
    if not all_done():
        raise AssertionError("storm did not finish (engine=%s "
                             "balance=%s)" % (engine, balance))
    perf = site.cluster.perf
    row = {
        "engine": engine,
        "loadd": bool(balance),
        "hosts": hosts,
        "hogs": hogs,
        "iterations": iterations,
        "makespan_s": round(site.wall_seconds(), 3),
        "ld_moves": perf.ld_moves,
        "ld_move_failures": perf.ld_move_failures,
        "ld_reports_sent": perf.ld_reports_sent,
    }
    return row, site.cluster.tracer.to_jsonl()


def run_benchmark(shape, out, perf_report=None, verbose=True):
    def say(msg):
        if verbose:
            print(msg, flush=True)

    say("migration storm: %(hogs)d hogs piled on w0 of %(hosts)d "
        "workstations, %(iterations)d iterations each" % shape)
    rows = []
    traces = {}
    for balance in (False, True):
        for engine in ("scan", "fast"):
            row, trace = run_storm(engine, balance, **shape)
            rows.append(row)
            traces[(balance, engine)] = trace
            say("  loadd=%-5s engine=%-4s makespan=%8.2fs moves=%d"
                % (row["loadd"], engine, row["makespan_s"],
                   row["ld_moves"]))

    by = {(r["loadd"], r["engine"]): r for r in rows}

    # -- determinism gates -------------------------------------------
    def comparable(row):
        return {k: v for k, v in row.items() if k != "engine"}

    for balance in (False, True):
        scan, fast = by[(balance, "scan")], by[(balance, "fast")]
        if comparable(scan) != comparable(fast) or \
                traces[(balance, "scan")] != traces[(balance, "fast")]:
            raise AssertionError(
                "engines disagree with loadd=%s" % balance)
    off = by[(False, "fast")]
    if off["ld_moves"] or off["ld_reports_sent"]:
        raise AssertionError("loadd-off run shows loadd activity")
    if '"cat":"loadd"' in traces[(False, "fast")] or \
            '"cat": "loadd"' in traces[(False, "fast")]:
        raise AssertionError("loadd-off trace has loadd events")

    # -- the headline: balancing pays for itself ---------------------
    on = by[(True, "fast")]
    speedup = off["makespan_s"] / on["makespan_s"]
    say("speedup: %.2fx (%.2fs -> %.2fs, %d moves)"
        % (speedup, off["makespan_s"], on["makespan_s"],
           on["ld_moves"]))
    if speedup < 1.5:
        raise AssertionError(
            "loadd speedup %.2fx below the 1.5x floor" % speedup)
    if on["ld_move_failures"]:
        raise AssertionError("moves failed during the storm")

    report = {"benchmark": "bench_loadbalance",
              "speedup": round(speedup, 3), "rows": rows}
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    say("written to %s" % out)

    if perf_report and os.path.exists(perf_report):
        with open(perf_report) as fh:
            merged = json.load(fh)
        merged["loadbalance"] = {"rows": rows,
                                 "speedup": report["speedup"]}
        with open(perf_report, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
        say("merged into %s" % perf_report)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--perf-report", default=None,
                        help="existing BENCH_perf.json to append the "
                             "loadbalance rows to")
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size storm for CI")
    args = parser.parse_args(argv)
    run_benchmark(SMOKE if args.smoke else FULL, out=args.out,
                  perf_report=args.perf_report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
