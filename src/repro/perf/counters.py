"""Counters for the fast-path engine.

One :class:`PerfCounters` instance is owned by each
:class:`~repro.machine.cluster.Cluster` and shared with every machine's
CPU, so a run's scheduler work (steps, bursts, horizon invalidations)
and VM work (instructions, trace-compiler and shared-code-cache
traffic) land in one place.

The flat attributes are the hot-path counters (``perf.steps += 1``
from the innermost driver loop); the labelled per-host/per-phase
statistics live in the attached :class:`~repro.obs.metrics.
MetricsRegistry` (``perf.metrics``).  Both appear in
:meth:`snapshot`, and every flat counter must be documented in
:data:`COUNTER_DOCS` — ``tests/test_docs.py`` enforces that the
generated reference table (``docs/perf_counters.md``) stays complete.
"""

from repro.obs.metrics import MetricsRegistry

#: one-line reference for every flat counter, in display order.
#: ``counter_reference()`` renders these into docs/perf_counters.md;
#: the docs test fails if a counter exists without an entry here.
COUNTER_DOCS = {
    "steps": "machine steps executed by the cluster driver",
    "bursts": "event-horizon bursts (fast engine only)",
    "horizon_invalidations": "horizons recomputed mid-burst",
    "horizon_memo_hits": "mid-burst activity absorbed by the memoized "
                         "horizon without a recompute",
    "heap_pushes": "machine re-insertions into the fast engine's "
                   "lazy heap",
    "vm_instructions": "instructions retired by all CPUs",
    "instructions_decoded": "instructions decoded: by the interpreter, "
                            "or in traces on their first use in this "
                            "cluster",
    "blocks_compiled": "straight-line blocks in traces first used in "
                       "this cluster",
    "traces_linked": "block-to-block links in traces first used in this "
                     "cluster",
    "reg_spills": "cached registers spilled back at trace exits",
    "shared_cache_hits": "exec/restart arrivals whose text this cluster "
                         "had already seen",
    "cache_rebuilds": "text segments first seen in this cluster (their "
                      "traces may come from the process-wide store)",
    "faults_injected": "fault rules that fired",
    "fault_delay_us": "virtual time added by delay rules",
    "fault_corruptions": "blobs mangled by corrupt rules",
    "retries": "retry rounds taken by hardened commands",
    "timeouts": "read/poll timeouts hit by hardened commands",
    "host_crashes": "crash_host() invocations",
    "host_reboots": "reboot_host() invocations",
    "net_partitions": "partition() link cuts installed",
    "net_drops": "messages dropped by dead hosts or cuts",
    "hb_ticks": "heartbeat rounds run by all monitors",
    "hb_probes": "individual peer probes sent",
    "hb_suspects": "suspected-dead verdicts declared",
    "hb_recoveries": "suspected peers seen alive again",
    "recoveries": "jobs recoveryd restarted elsewhere",
    "chunk_puts": "chunks written into the chunk store",
    "chunk_dedup_hits": "chunk writes elided because the store "
                        "already held the digest",
    "chunks_clean_skipped": "baseline chunks skipped by a re-dump "
                            "because their pages stayed clean",
    "chunk_gets": "chunk reads served by the store",
    "chunk_remote_fetches": "chunk reads that crossed the network "
                            "to another holder",
    "chunk_bytes_written": "payload bytes written by chunk puts",
    "chunk_bytes_fetched": "payload bytes fetched from remote holders",
    "lazy_faults": "copy-on-reference chunks faulted in on first touch",
    "ld_reports_sent": "load reports loadd delivered to peers",
    "ld_reports_recv": "load reports loadd-recv accepted and spooled",
    "ld_reports_dropped": "load reports lost, refused, corrupt or "
                          "unparsable",
    "ld_stale_drops": "spooled load reports older than load_stale_s",
    "ld_suspect_skips": "peers skipped because the failure detector "
                        "suspects them",
    "ld_rounds": "balance rounds completed by all loadd daemons",
    "ld_moves": "jobs loadd migrated successfully",
    "ld_move_failures": "loadd moves that failed (victim restored "
                        "or lost)",
    "ml_records": "migration intent records written to the ledger",
    "ml_advances": "ledger phase advances written",
    "ml_claims": "sweep fences (claim files) created on records",
    "ml_archives": "ledgered dumps archived through the chunk store",
    "ml_completions": "migrations marked DONE by their orchestrator",
    "ml_aborts": "migrations aborted or rolled back to their source",
    "ml_sweeps": "in-flight records resolved by the recovery sweep",
    "ml_reaps": "settled ledger records reaped",
    "st_samples": "telemetry sampling rounds completed by all statds",
    "st_series_points": "samples recorded into time-series rings",
    "st_reports_sent": "stat reports statd shipped to the spooler",
    "st_reports_recv": "stat reports statd-recv accepted and spooled",
    "st_reports_dropped": "stat reports lost, refused, corrupt or "
                          "unparsable",
    "st_stale_drops": "spooled stat reports aged out past "
                      "stat_stale_s",
    "st_suspect_skips": "report shipments skipped because the "
                        "failure detector suspects the spooler",
    "st_alerts": "SLO alerts raised by the critical-path analyzer",
}

#: the labelled metrics the subsystems record into ``perf.metrics``
METRIC_DOCS = {
    "dumps": "successful SIGDUMP dumps, by source host",
    "restarts": "successful rest_proc() overlays, by destination host",
    "migrations": "migrate(1) runs that saw the process restarted, "
                  "by the host migrate ran on",
    "recoveries": "jobs recoveryd restarted, by surviving host",
    "host_crashes": "crash_host() invocations, by crashed host",
    "host_reboots": "reboot_host() invocations, by rebooted host",
    "hb_suspects": "suspected-dead verdicts, by observing host and "
                   "suspected peer",
    "span_us": "histogram: span durations in virtual microseconds, "
               "by phase (dump / rest_proc / migrate / recovery / "
               "loadd)",
}


def counter_reference():
    """The generated counter reference table (docs/perf_counters.md).

    Regenerate with ``python -m repro.perf.gendocs`` after adding a
    counter; ``tests/test_docs.py`` diffs the file against this.
    """
    lines = [
        "# Performance counter reference",
        "",
        "Generated by `python -m repro.perf.gendocs` from",
        "`repro.perf.counters` — do not edit by hand.",
        "",
        "## Flat counters (`cluster.perf.<name>`)",
        "",
        "| counter | meaning |",
        "| --- | --- |",
    ]
    for name, doc in COUNTER_DOCS.items():
        lines.append("| `%s` | %s |" % (name, doc))
    lines += [
        "",
        "## Labelled metrics (`cluster.perf.metrics`)",
        "",
        "| metric | meaning |",
        "| --- | --- |",
    ]
    for name, doc in METRIC_DOCS.items():
        lines.append("| `%s` | %s |" % (name, doc))
    lines.append("")
    return "\n".join(lines)


class PerfCounters:
    """Real-time engine statistics for one cluster."""

    def __init__(self):
        self.reset()

    def reset(self):
        # scheduler driver
        self.steps = 0  #: machine steps executed by the cluster driver
        self.bursts = 0  #: event-horizon bursts (fast engine only)
        self.burst_hist = {}  #: bucket exponent -> burst count
        self.horizon_invalidations = 0  #: horizons recomputed mid-burst
        self.horizon_memo_hits = 0  #: activity absorbed by the memo
        self.heap_pushes = 0  #: machine re-insertions into the heap
        # VM / shared code cache
        self.vm_instructions = 0  #: instructions retired by all CPUs
        self.instructions_decoded = 0  #: instructions decoded
        self.blocks_compiled = 0  #: blocks in traces first used here
        self.traces_linked = 0  #: block-to-block links in those
        self.reg_spills = 0  #: cached registers spilled at trace exits
        self.shared_cache_hits = 0  #: arrivals with text already seen
        self.cache_rebuilds = 0  #: text segments first seen here
        # fault injection / pipeline hardening
        self.faults_injected = 0  #: fault rules that fired
        self.fault_delay_us = 0.0  #: virtual time added by delay rules
        self.fault_corruptions = 0  #: blobs mangled by corrupt rules
        self.retries = 0  #: retry rounds taken by hardened commands
        self.timeouts = 0  #: read/poll timeouts hit by hardened commands
        # host failure model / recovery
        self.host_crashes = 0  #: crash_host() invocations
        self.host_reboots = 0  #: reboot_host() invocations
        self.net_partitions = 0  #: partition() link cuts installed
        self.net_drops = 0  #: messages dropped by dead hosts or cuts
        self.hb_ticks = 0  #: heartbeat rounds run by all monitors
        self.hb_probes = 0  #: individual peer probes sent
        self.hb_suspects = 0  #: suspected-dead verdicts declared
        self.hb_recoveries = 0  #: suspected peers seen alive again
        self.recoveries = 0  #: jobs recoveryd restarted elsewhere
        # chunk store / incremental dumps
        self.chunk_puts = 0  #: chunks written into the store
        self.chunk_dedup_hits = 0  #: writes elided by dedup
        self.chunks_clean_skipped = 0  #: clean baseline chunks skipped
        self.chunk_gets = 0  #: chunk reads served
        self.chunk_remote_fetches = 0  #: reads crossing the network
        self.chunk_bytes_written = 0  #: payload bytes written
        self.chunk_bytes_fetched = 0  #: payload bytes fetched remotely
        self.lazy_faults = 0  #: copy-on-reference fault-ins
        # loadd load balancing
        self.ld_reports_sent = 0  #: load reports delivered to peers
        self.ld_reports_recv = 0  #: load reports accepted + spooled
        self.ld_reports_dropped = 0  #: reports lost/refused/corrupt
        self.ld_stale_drops = 0  #: spooled reports past load_stale_s
        self.ld_suspect_skips = 0  #: peers skipped as suspected dead
        self.ld_rounds = 0  #: balance rounds completed
        self.ld_moves = 0  #: jobs migrated by loadd
        self.ld_move_failures = 0  #: failed loadd moves
        # migration intent ledger
        self.ml_records = 0  #: intent records written
        self.ml_advances = 0  #: phase advances written
        self.ml_claims = 0  #: sweep fences created
        self.ml_archives = 0  #: ledgered dumps archived
        self.ml_completions = 0  #: migrations marked DONE by migrate
        self.ml_aborts = 0  #: migrations aborted / rolled back
        self.ml_sweeps = 0  #: records resolved by the sweep
        self.ml_reaps = 0  #: settled records reaped
        # statd cluster telemetry
        self.st_samples = 0  #: sampling rounds completed
        self.st_series_points = 0  #: ring samples recorded
        self.st_reports_sent = 0  #: reports shipped to the spooler
        self.st_reports_recv = 0  #: reports accepted + spooled
        self.st_reports_dropped = 0  #: reports lost/refused/corrupt
        self.st_stale_drops = 0  #: spooled reports aged out
        self.st_suspect_skips = 0  #: shipments skipped (suspect)
        self.st_alerts = 0  #: SLO alerts raised by the analyzer
        #: labelled counters and virtual-time histograms (per-host,
        #: per-phase statistics the flat counters cannot express)
        self.metrics = MetricsRegistry()

    def note(self, name, amount=1):
        """Bump a counter by name (used by the ``perf_note`` syscall).

        Rejects bool-typed attributes (``True`` is an ``int`` in
        Python, but flags like a hypothetical ``enabled`` must never
        be silently incremented) and non-numeric bumps.
        """
        if isinstance(amount, bool) \
                or not isinstance(amount, (int, float)):
            raise TypeError("perf counter bump must be a number, "
                            "got %r" % (amount,))
        value = getattr(self, name, None)
        if isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            raise ValueError("unknown perf counter %r" % name)
        setattr(self, name, value + amount)

    # -- recording -------------------------------------------------------

    def note_burst(self, length):
        """Record one completed burst of ``length`` machine steps."""
        self.bursts += 1
        bucket = length.bit_length()  # 0, [1], [2-3], [4-7], ...
        self.burst_hist[bucket] = self.burst_hist.get(bucket, 0) + 1

    # -- derived figures -------------------------------------------------

    def decode_hit_rate(self):
        """Fraction of retired instructions that skipped decoding."""
        if not self.vm_instructions:
            return 0.0
        hits = self.vm_instructions - self.instructions_decoded
        return max(0.0, hits) / self.vm_instructions

    def burst_histogram(self):
        """The burst-length histogram with human-readable bucket labels."""
        out = {}
        for exponent in sorted(self.burst_hist):
            if exponent == 0:
                label = "0"
            elif exponent == 1:
                label = "1"
            else:
                label = "%d-%d" % (1 << (exponent - 1),
                                   (1 << exponent) - 1)
            out[label] = self.burst_hist[exponent]
        return out

    def snapshot(self, elapsed_s=None):
        """A JSON-ready dict of everything, for BENCH_perf.json."""
        snap = {
            "steps": self.steps,
            "bursts": self.bursts,
            "burst_histogram": self.burst_histogram(),
            "horizon_invalidations": self.horizon_invalidations,
            "horizon_memo_hits": self.horizon_memo_hits,
            "heap_pushes": self.heap_pushes,
            "vm_instructions": self.vm_instructions,
            "instructions_decoded": self.instructions_decoded,
            "blocks_compiled": self.blocks_compiled,
            "traces_linked": self.traces_linked,
            "reg_spills": self.reg_spills,
            "shared_cache_hits": self.shared_cache_hits,
            "cache_rebuilds": self.cache_rebuilds,
            "decode_hit_rate": round(self.decode_hit_rate(), 6),
            "faults_injected": self.faults_injected,
            "fault_delay_us": self.fault_delay_us,
            "fault_corruptions": self.fault_corruptions,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "host_crashes": self.host_crashes,
            "host_reboots": self.host_reboots,
            "net_partitions": self.net_partitions,
            "net_drops": self.net_drops,
            "hb_ticks": self.hb_ticks,
            "hb_probes": self.hb_probes,
            "hb_suspects": self.hb_suspects,
            "hb_recoveries": self.hb_recoveries,
            "recoveries": self.recoveries,
            "chunk_puts": self.chunk_puts,
            "chunk_dedup_hits": self.chunk_dedup_hits,
            "chunks_clean_skipped": self.chunks_clean_skipped,
            "chunk_gets": self.chunk_gets,
            "chunk_remote_fetches": self.chunk_remote_fetches,
            "chunk_bytes_written": self.chunk_bytes_written,
            "chunk_bytes_fetched": self.chunk_bytes_fetched,
            "lazy_faults": self.lazy_faults,
            "ld_reports_sent": self.ld_reports_sent,
            "ld_reports_recv": self.ld_reports_recv,
            "ld_reports_dropped": self.ld_reports_dropped,
            "ld_stale_drops": self.ld_stale_drops,
            "ld_suspect_skips": self.ld_suspect_skips,
            "ld_rounds": self.ld_rounds,
            "ld_moves": self.ld_moves,
            "ld_move_failures": self.ld_move_failures,
            "ml_records": self.ml_records,
            "ml_advances": self.ml_advances,
            "ml_claims": self.ml_claims,
            "ml_archives": self.ml_archives,
            "ml_completions": self.ml_completions,
            "ml_aborts": self.ml_aborts,
            "ml_sweeps": self.ml_sweeps,
            "ml_reaps": self.ml_reaps,
            "st_samples": self.st_samples,
            "st_series_points": self.st_series_points,
            "st_reports_sent": self.st_reports_sent,
            "st_reports_recv": self.st_reports_recv,
            "st_reports_dropped": self.st_reports_dropped,
            "st_stale_drops": self.st_stale_drops,
            "st_suspect_skips": self.st_suspect_skips,
            "st_alerts": self.st_alerts,
            "metrics": self.metrics.snapshot(),
        }
        if elapsed_s is not None:
            snap["elapsed_s"] = round(elapsed_s, 6)
            snap["steps_per_sec"] = round(
                self.steps / elapsed_s, 3) if elapsed_s else 0.0
            snap["instructions_per_sec"] = round(
                self.vm_instructions / elapsed_s, 3) if elapsed_s else 0.0
        return snap

    def __repr__(self):
        return ("PerfCounters(steps=%d bursts=%d vm=%d hit=%.3f)"
                % (self.steps, self.bursts, self.vm_instructions,
                   self.decode_hit_rate()))
