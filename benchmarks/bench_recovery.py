"""Recovery benchmark: detection and recovery latency vs heartbeat
interval.

For each heartbeat interval, the scripted crash-recovery scenario
from ``tests/test_recovery.py`` runs: a counter job on ``brick`` is
checkpointed to the file server by ``ckptd``, ``brick`` crashes, and
a ``recoveryd`` on ``schooner`` detects the death and restarts the
job from the archived round.  Two virtual
latencies are measured on the survivor's clock, from the moment its
recovery daemon starts:

* **detection** — the failure detector first suspecting ``brick``
  (bounded by ``hb_timeout_s`` + one probe interval);
* **recovery** — the job restarted on the survivor (detection plus
  the claim, restage and restart machinery).

The rows are merged into ``--out`` under a ``recovery`` key.

Usage::

    python benchmarks/bench_recovery.py [--smoke] [--out BENCH_perf.json]
"""

import sys

# harness puts src/ on sys.path
from harness import arg_parser, say, write_report

from repro.core.api import MigrationSite
from repro.costmodel import CostModel

DEFAULT_INTERVALS = (0.5, 1.0, 2.0)
SMOKE_INTERVALS = (1.0,)

#: retry/poll knobs shrunk exactly as in the chaos/recovery tests
FAST_KNOBS = dict(migrate_backoff_s=0.5, connect_backoff_s=0.5,
                  net_read_timeout_s=5.0, restart_poll_tries=30,
                  restart_poll_sleep_s=0.5)


def run_recovery(hb_interval_s):
    """One crash-recovery pass; returns a result row (virtual times)."""
    costs = CostModel(hb_interval_s=hb_interval_s, **FAST_KNOBS)
    site = MigrationSite(costs=costs)
    site.run_quiet()
    site.machine("brador").fs.makedirs("/tmp/ckpt", mode=0o777)

    job = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    site.machine("brick").spawn(
        "/bin/ckptd", ["ckptd", str(job.pid), "2", "2",
                       "/n/brador/tmp/ckpt/job1"], uid=100, cwd="/tmp")

    def archived():
        from repro.errors import UnixError
        from repro.programs.ckmeta import parse_meta
        try:
            blob = site.machine("brador").fs.read_file(
                "/tmp/ckpt/job1/meta")
            return parse_meta(blob).get("round", -1) >= 0
        except (UnixError, ValueError):
            return False

    site.run_until(archived, max_steps=10_000_000)
    site.cluster.crash_host("brick")
    # latencies are measured on the *survivor's* clock, from the
    # moment its recovery daemon starts — a crashed machine's frozen
    # clock (which may be ahead of an idle survivor's) says nothing
    # about how long the survivor took to react
    schooner = site.machine("schooner")
    schooner.spawn(
        "/bin/recoveryd", ["recoveryd", "-i", str(hb_interval_s),
                           "-n", "60", "/n/brador/tmp/ckpt"],
        uid=100, cwd="/tmp")
    start_us = schooner.clock.now_us

    perf = site.cluster.perf
    site.run_until(lambda: perf.hb_suspects >= 1,
                   max_steps=20_000_000)
    detect_us = schooner.clock.now_us
    site.run_until(
        lambda: "recoveryd: recovered" in site.console("schooner"),
        max_steps=20_000_000)
    recover_us = schooner.clock.now_us

    detection_s = (detect_us - start_us) / 1e6
    recovery_s = (recover_us - start_us) / 1e6
    # the detector's contract: the first scan activates the monitor
    # with benefit-of-the-doubt, so suspicion lands no earlier than
    # hb_timeout_s after that and within two probe intervals past it
    # (one scan sleep before the first query, one tick of phase)
    low_s = costs.hb_timeout_s
    high_s = costs.hb_timeout_s + 2 * hb_interval_s + 1.0
    if not low_s <= detection_s <= high_s:
        raise AssertionError(
            "hb_interval=%.1f: detection took %.2f s (want %.2f..%.2f)"
            % (hb_interval_s, detection_s, low_s, high_s))
    if recovery_s < detection_s:
        raise AssertionError("recovered before detecting?")
    return {
        "hb_interval_s": hb_interval_s,
        "hb_timeout_s": costs.hb_timeout_s,
        "detection_s": round(detection_s, 3),
        "recovery_s": round(recovery_s, 3),
        "hb_probes": perf.hb_probes,
        "recoveries": perf.recoveries,
    }


def run_benchmark(intervals, out):
    rows = []
    say("crash recovery latency vs heartbeat interval "
        "(virtual seconds on the survivor, from recoveryd start):")
    say("%12s  %12s  %12s" % ("interval", "detection", "recovery"))
    for hb_interval_s in intervals:
        row = run_recovery(hb_interval_s)
        rows.append(row)
        say("%12.1f  %12.2f  %12.2f" % (row["hb_interval_s"],
                                        row["detection_s"],
                                        row["recovery_s"]))

    write_report(out, {"recovery": rows})


def main(argv=None):
    args = arg_parser(__doc__, "single heartbeat interval for CI") \
        .parse_args(argv)
    run_benchmark(SMOKE_INTERVALS if args.smoke else DEFAULT_INTERVALS,
                  args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
