"""Crash-sweep benchmark: what the migration ledger costs and buys.

Two measurements (DESIGN.md section 12):

* **overhead** — the same successful daemon-relayed migration is
  timed with the ``migration_ledger`` knob off and on; the difference
  is the price of the intent record, the phase advances and the
  chunk-store archive, paid on every ledgered migration;
* **recovery** — the orchestrator host crashes at the DUMPED phase
  advance (the victim is captured, nobody owns it), the host is
  rebooted, and a ``recoveryd -m`` sweep brings the job back up; the
  virtual latency from sweeper start to the recovered job is measured
  for each sweep interval.

The rows are merged into ``--out`` under a ``crash_sweep`` key.

Usage::

    python benchmarks/bench_crash_sweep.py [--smoke] [--out BENCH_perf.json]
"""

import sys

# harness puts src/ on sys.path
from harness import arg_parser, say, write_report

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.programs import start_network_daemons

DEFAULT_INTERVALS = (0.5, 1.0, 2.0)
SMOKE_INTERVALS = (1.0,)

LEDGER_DIR = "/n/brador/usr/spool/migledger"

#: detection/staleness shrunk as in tests/test_migledger_sweep.py
KNOBS = dict(ledger_stale_s=3.0, hb_interval_s=1.0, hb_timeout_s=3.0,
             migrate_backoff_s=0.5, connect_backoff_s=0.5,
             net_read_timeout_s=5.0, restart_poll_tries=20,
             restart_poll_sleep_s=0.5, dump_poll_tries=10,
             dump_poll_sleep_s=0.5)


def _site(ledger_on):
    costs = CostModel(migration_ledger=ledger_on, **KNOBS)
    site = MigrationSite(costs=costs,
                         workstations=("brick", "schooner", "tanker"))
    site.run_quiet()
    # the operator-provisioned ledger spool (migledger.5)
    site.machine("brador").fs.makedirs("/usr/spool/migledger",
                                       mode=0o777)
    return site


def _start_victim(site):
    handle = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    return handle


def measure_migrate(ledger_on):
    """Virtual seconds for one successful fully-remote migration."""
    site = _site(ledger_on)
    victim = _start_victim(site)
    t0 = site.wall_seconds()
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", uid=100, use_daemon=True,
                          wait_resumed=False)
    site.run_until(lambda: handle.exited, max_steps=60_000_000)
    elapsed = site.wall_seconds() - t0
    if handle.exit_status != 0:
        raise AssertionError("migrate failed (ledger %s): status %r"
                             % ("on" if ledger_on else "off",
                                handle.exit_status))
    return elapsed


def measure_sweep(sweep_interval_s):
    """One orchestrator-crash-at-DUMPED cell; returns a result row."""
    site = _site(ledger_on=True)
    victim = _start_victim(site)
    site.cluster.inject_faults("ledger.advance crash n=1", seed=77)
    site.migrate(victim.pid, "brick", "schooner", typed_on="tanker",
                 uid=100, use_daemon=True, wait_resumed=False)
    site.run_until(lambda: not site.machine("tanker").running,
                   max_steps=60_000_000)
    site.run_quiet(max_steps=20_000_000)

    # heal: the orchestrator host reboots (losing migrate), then a
    # recovery sweep finds the DUMPED record and restages the archive
    site.cluster.reboot_host("tanker")
    tanker = site.machine("tanker")
    start_network_daemons(tanker)
    site.run_quiet(max_steps=20_000_000)
    sweeper = tanker.spawn(
        "/bin/recoveryd", ["recoveryd", "-m", LEDGER_DIR,
                           "-i", str(sweep_interval_s), "-n", "60"],
        uid=0, cwd="/tmp")
    start_us = tanker.clock.now_us
    site.run_until(
        lambda: "recoveryd: recovered" in site.console("tanker"),
        max_steps=60_000_000)
    recovery_s = (tanker.clock.now_us - start_us) / 1e6
    del sweeper
    perf = site.cluster.perf
    if perf.ml_sweeps != 1:
        raise AssertionError("expected exactly one sweep recovery, "
                             "got %d" % perf.ml_sweeps)
    return {
        "sweep_interval_s": sweep_interval_s,
        "recovery_s": round(recovery_s, 3),
        "ml_sweeps": perf.ml_sweeps,
        "ml_claims": perf.ml_claims,
    }


def run_benchmark(intervals, out):
    plain_s = measure_migrate(ledger_on=False)
    ledgered_s = measure_migrate(ledger_on=True)
    overhead_pct = 100.0 * (ledgered_s - plain_s) / plain_s
    say("migration latency (virtual seconds, fully remote, daemon):")
    say("  ledger off %.2f s, on %.2f s (overhead %.1f%%)"
        % (plain_s, ledgered_s, overhead_pct))

    rows = []
    say("sweep recovery latency after an orchestrator crash at "
        "DUMPED (virtual seconds from sweeper start):")
    say("%12s  %12s" % ("interval", "recovery"))
    for sweep_interval_s in intervals:
        row = measure_sweep(sweep_interval_s)
        row.update(migrate_plain_s=round(plain_s, 3),
                   migrate_ledgered_s=round(ledgered_s, 3),
                   ledger_overhead_pct=round(overhead_pct, 1))
        rows.append(row)
        say("%12.1f  %12.2f" % (row["sweep_interval_s"],
                                row["recovery_s"]))

    write_report(out, {"crash_sweep": rows})


def main(argv=None):
    args = arg_parser(__doc__, "single sweep interval for CI") \
        .parse_args(argv)
    run_benchmark(SMOKE_INTERVALS if args.smoke else DEFAULT_INTERVALS,
                  args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
