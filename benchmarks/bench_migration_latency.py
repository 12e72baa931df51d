"""Migration-latency storm: eager vs incremental vs lazy dumps.

A data-heavy guest (the section 6.2 counter carrying a 160 KB static
buffer it barely touches) ping-pongs between ``brick`` and
``schooner``.  Three dump/restart modes run the identical storm:

* **eager** — the baseline: every dump writes the whole image, every
  restart reads it back inside the freeze window;
* **incremental** — dumps write content-addressed chunks, so a
  re-migration pays only for pages dirtied since the last dump;
* **lazy** — incremental dumps plus copy-on-reference restart: only
  the text restores eagerly, data/stack chunks fault in on first
  touch *after* the process is running again.

**Freeze latency** is the span from the dump beginning on the source
to ``rest_proc`` completing on the destination — the window in which
the process exists nowhere.  It is measured from the trace timeline
(virtual time), so every mode runs under ``scan_checked``: every
step the driver takes is checked against the O(M) reference scan.

The storm runs on a *fast-metadata* cost profile (creates and remove
RPCs at mid-90s speeds instead of the paper's 190-215 ms): with the
period-accurate metadata costs, three file creates plus three NFS
unlinks put ~1.2 s of identical fixed overhead inside every freeze
window, burying the data-path difference this benchmark measures.
Data transfer rates stay period-accurate.

Gates (CI runs ``--smoke``) compare *warm* hops — every hop after the
first, where the chunk store is already populated; the first hop is
the cold fill and is reported but not gated:

* incremental and lazy must never exceed eager's warm freeze latency;
* lazy must cut the warm freeze latency by at least 3x;
* in incremental mode the second dump of the storm must write at
  least 5x fewer chunk-store bytes than the first (the counter-only
  ``counter_dedup`` row asserts the same for the paper's unmodified
  section 6.2 program);
* the driver must step exactly as the reference scan would.

The report is merged into ``--out`` under a ``migration_latency`` key.

Usage::

    python benchmarks/bench_migration_latency.py [--smoke]
        [--out BENCH_perf.json]
"""

import sys

# harness puts src/ on sys.path
from harness import arg_parser, say, write_report

from repro.bench import scan_checked
from repro.core.api import MigrationSite
from repro.costmodel import CostModel

#: the big mostly-clean static buffer that makes restores expensive
BIG_BYTES = 160 * 1024
#: leader word per 1 KB chunk so every chunk digests differently
#: (an all-zero buffer would self-dedup inside the *first* dump)
CHUNK_STRIDE = 1024

DEFAULT_HOPS = 4
SMOKE_HOPS = 2

#: sub-second polling so fixed sleeps don't floor the latency figures
#: (dumpproc and migrate read these via sysctl at run time), plus
#: mid-90s metadata costs so the data path dominates the freeze window
POLL_KNOBS = dict(dump_poll_sleep_s=0.05, dump_poll_tries=200,
                  restart_poll_sleep_s=0.05, restart_poll_tries=200,
                  disk_create_us=5_000.0, nfs_meta_op_us=10_000.0)

MODES = (
    ("eager", dict()),
    ("incremental", dict(incremental_dumps=True)),
    ("lazy", dict(incremental_dumps=True, lazy_restart=True)),
)


def _big_counter_aout():
    from repro.programs.guest.counter import BODY, DATA
    from repro.programs.guest.libasm import program
    chunks = []
    for i in range(BIG_BYTES // CHUNK_STRIDE):
        chunks.append("big%d: .word %d" % (i, 0x5ABE0001 + i))
        chunks.append("        .space %d" % (CHUNK_STRIDE - 4))
    return program(BODY, DATA + "\n" + "\n".join(chunks) + "\n").aout


def _site(overrides):
    costs = CostModel().with_overrides(**dict(POLL_KNOBS, **overrides))
    site = MigrationSite(costs)
    site.run_quiet()
    return site


def _freeze_spans(events):
    """Pair each dump begin with the next successful rest_proc end."""
    spans = []
    begin = None
    for event in events:
        if event["cat"] == "dump" and event.get("span") == "B":
            begin = event["ts"]
        elif (event["cat"] == "restart" and event["name"] == "rest_proc"
              and event.get("span") == "E" and event.get("ok")
              and begin is not None):
            spans.append(event["ts"] - begin)
            begin = None
    return spans


def run_storm(overrides, hops, program="dcounter"):
    """Ping-pong one guest ``hops`` times; returns a result row."""
    site = _site(overrides)
    if program == "dcounter":
        aout = _big_counter_aout()
        site.machine("brick").install_aout("dcounter", aout)
    site.cluster.tracer.enable("dump", "restart", "chunk")
    perf = site.cluster.perf

    handle = site.start("brick", "/bin/%s" % program, uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    pid, source = handle.pid, "brick"
    hop_bytes = []
    for hop in range(hops):
        destination = "schooner" if source == "brick" else "brick"
        before = perf.chunk_bytes_written
        mh = site.migrate(pid, source, destination,
                          typed_on=destination, uid=100)
        if mh.exit_status != 0:
            raise AssertionError("hop %d failed with %d"
                                 % (hop, mh.exit_status))
        moved = site.find_restarted(destination)
        if moved is None:
            raise AssertionError("hop %d: nothing restarted" % hop)
        hop_bytes.append(perf.chunk_bytes_written - before)
        pid, source = moved.pid, destination

    freezes = _freeze_spans(site.cluster.tracer.events)
    if len(freezes) != hops:
        raise AssertionError("expected %d freeze spans, got %d"
                             % (hops, len(freezes)))
    warm = freezes[1:] if len(freezes) > 1 else freezes
    return {
        "hops": hops,
        "freeze_ms": [round(f / 1e3, 3) for f in freezes],
        "mean_freeze_ms": round(sum(freezes) / len(freezes) / 1e3, 3),
        "warm_freeze_ms": round(sum(warm) / len(warm) / 1e3, 3),
        "hop_chunk_bytes": hop_bytes,
        "chunk_bytes_written": perf.chunk_bytes_written,
        "chunks_clean_skipped": perf.chunks_clean_skipped,
        "lazy_faults": perf.lazy_faults,
        "wall_us": site.cluster.wall_time_us(),
    }


def run_mode(mode_name, overrides, hops, program="dcounter"):
    """One storm, checked against the reference scan."""
    row = scan_checked(lambda: run_storm(overrides, hops, program))
    return dict(row, mode=mode_name)


def run_benchmark(hops, out):
    say("migration storm: %d hops of a counter carrying a %d KB "
        "buffer (virtual freeze = dump begin -> rest_proc end):"
        % (hops, BIG_BYTES // 1024))
    say("%12s  %16s  %16s  %14s  %12s"
        % ("mode", "mean freeze ms", "warm freeze ms",
           "chunk bytes", "lazy faults"))
    rows = []
    for mode_name, overrides in MODES:
        row = run_mode(mode_name, overrides, hops)
        rows.append(row)
        say("%12s  %16.1f  %16.1f  %14d  %12d"
            % (mode_name, row["mean_freeze_ms"], row["warm_freeze_ms"],
               row["chunk_bytes_written"], row["lazy_faults"]))

    by_mode = {row["mode"]: row for row in rows}
    eager = by_mode["eager"]["warm_freeze_ms"]
    for mode_name in ("incremental", "lazy"):
        warm = by_mode[mode_name]["warm_freeze_ms"]
        if warm > eager:
            raise AssertionError(
                "%s warm freeze %.1f ms exceeds eager's %.1f ms"
                % (mode_name, warm, eager))
    lazy = by_mode["lazy"]["warm_freeze_ms"]
    if lazy * 3 > eager:
        raise AssertionError(
            "lazy warm freeze %.1f ms is not 3x below eager's %.1f ms"
            % (lazy, eager))
    first, second = by_mode["incremental"]["hop_chunk_bytes"][:2]
    if second * 5 > first:
        raise AssertionError(
            "second dump wrote %d chunk bytes, first %d: less than "
            "the 5x dedup gate" % (second, first))
    say("gates: warm freeze(incremental) <= eager, "
        "warm freeze(lazy) <= eager/3, dedup >= 5x: all hold")

    # the paper's unmodified section 6.2 program, for the record:
    # an immediate re-migration re-writes (almost) no chunk bytes
    counter = run_mode("incremental", dict(incremental_dumps=True),
                       hops=2, program="counter")
    c_first, c_second = counter["hop_chunk_bytes"][:2]
    if c_second * 5 > c_first:
        raise AssertionError(
            "counter re-dump wrote %d chunk bytes vs %d: less than "
            "the 5x dedup gate" % (c_second, c_first))
    counter_row = {"program": "counter", "first_dump_bytes": c_first,
                   "second_dump_bytes": c_second,
                   "freeze_ms": counter["freeze_ms"]}
    say("counter dedup: first dump %d bytes, second %d bytes"
        % (c_first, c_second))

    write_report(out, {"migration_latency": {
        "big_buffer_bytes": BIG_BYTES,
        "rows": rows,
        "counter_dedup": counter_row,
        "warm_lazy_freeze_speedup":
            round(eager / lazy, 2) if lazy else None,
    }})


def main(argv=None):
    args = arg_parser(__doc__, "fewer hops for CI").parse_args(argv)
    run_benchmark(SMOKE_HOPS if args.smoke else DEFAULT_HOPS, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
