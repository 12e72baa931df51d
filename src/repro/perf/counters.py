"""Counters for the simulation driver and the VM.

One :class:`PerfCounters` instance is owned by each
:class:`~repro.machine.cluster.Cluster` and shared with every machine's
CPU, so a run's scheduler work (steps, bursts, horizon invalidations)
and VM work (instructions, trace-compiler and shared-code-cache
traffic) land in one place.

The flat attributes are the hot-path counters (``perf.steps += 1``
from the innermost driver loop); the labelled per-host/per-phase
statistics live in the attached :class:`~repro.obs.metrics.
MetricsRegistry` (``perf.metrics``).  Both appear in
:meth:`snapshot`.  Every flat counter is one row of :data:`COUNTERS`,
which carries its doc line and whether user commands may bump it;
``tests/test_docs.py`` enforces that the generated reference table
(``docs/perf_counters.md``) stays in step with it.
"""

from typing import NamedTuple

from repro.obs.metrics import MetricsRegistry


class FlatCounter(NamedTuple):
    """One flat counter: a plain ``int`` (or ``float``) attribute of
    :class:`PerfCounters`, bumped in place on the hot path."""

    name: str
    doc: str  #: the one-line reference in docs/perf_counters.md
    guest: bool = False  #: user commands may bump it via ``perf_note``
    zero: object = 0  #: the value ``reset()`` starts it at


#: marks a counter user commands may bump (the ``perf_note`` syscall)
GUEST = True

#: every flat counter, in display order: ``reset()``, ``snapshot()``,
#: the generated docs/perf_counters.md and the kernel's ``perf_note``
#: allowlist are all driven by this one table
COUNTERS = (
    FlatCounter("steps", "machine steps executed by the cluster driver"),
    FlatCounter("bursts", "event-horizon bursts (laggard picks)"),
    FlatCounter("horizon_invalidations", "horizons recomputed mid-burst"),
    FlatCounter("horizon_memo_hits",
                "mid-burst activity absorbed by the memoized horizon without "
                "a recompute"),
    FlatCounter("heap_pushes",
                "machine re-insertions into the driver's lazy heap"),
    FlatCounter("vm_instructions", "instructions retired by all CPUs"),
    FlatCounter("instructions_decoded",
                "instructions decoded: by the interpreter, or in traces "
                "(quantum-tail traces included) on their first use in this "
                "cluster"),
    FlatCounter("blocks_compiled",
                "straight-line blocks in traces first used in this cluster"),
    FlatCounter("traces_linked",
                "block-to-block links in traces first used in this cluster"),
    FlatCounter("reg_spills",
                "cached registers spilled back at trace exits: each call "
                "spills every register its trace writes"),
    FlatCounter("shared_cache_hits",
                "exec/restart arrivals whose text this cluster had already "
                "seen"),
    FlatCounter("cache_rebuilds",
                "text segments first seen in this cluster (their traces may "
                "come from the process-wide store)"),
    FlatCounter("faults_injected", "fault rules that fired"),
    FlatCounter("fault_delay_us",
                "virtual time added by delay rules", zero=0.0),
    FlatCounter("fault_corruptions", "blobs mangled by corrupt rules"),
    FlatCounter("retries", "retry rounds taken by hardened commands", GUEST),
    FlatCounter("timeouts",
                "read/poll timeouts hit by hardened commands", GUEST),
    FlatCounter("host_crashes", "crash_host() invocations"),
    FlatCounter("host_reboots", "reboot_host() invocations"),
    FlatCounter("net_partitions", "partition() link cuts installed"),
    FlatCounter("net_drops", "messages dropped by dead hosts or cuts"),
    FlatCounter("hb_ticks", "heartbeat rounds run by all monitors"),
    FlatCounter("hb_probes", "individual peer probes sent"),
    FlatCounter("hb_suspects", "suspected-dead verdicts declared"),
    FlatCounter("hb_recoveries", "suspected peers seen alive again"),
    FlatCounter("recoveries", "jobs recoveryd restarted elsewhere", GUEST),
    FlatCounter("chunk_puts", "chunks written into the chunk store"),
    FlatCounter("chunk_dedup_hits",
                "chunk writes elided because the store already held the "
                "digest"),
    FlatCounter("chunks_clean_skipped",
                "baseline chunks skipped by a re-dump because their pages "
                "stayed clean"),
    FlatCounter("chunk_gets", "chunk reads served by the store"),
    FlatCounter("chunk_remote_fetches",
                "chunk reads that crossed the network to another holder"),
    FlatCounter("chunk_bytes_written", "payload bytes written by chunk puts"),
    FlatCounter("chunk_bytes_fetched",
                "payload bytes fetched from remote holders"),
    FlatCounter("lazy_faults",
                "copy-on-reference chunks faulted in on first touch"),
    FlatCounter("ld_reports_sent",
                "load reports loadd delivered to peers", GUEST),
    FlatCounter("ld_reports_recv",
                "load reports loadd-recv accepted and spooled", GUEST),
    FlatCounter("ld_reports_dropped",
                "load reports lost, refused, corrupt or unparsable", GUEST),
    FlatCounter("ld_stale_drops",
                "spooled load reports older than load_stale_s", GUEST),
    FlatCounter("ld_suspect_skips",
                "peers skipped because the failure detector suspects them",
                GUEST),
    FlatCounter("ld_rounds",
                "balance rounds completed by all loadd daemons", GUEST),
    FlatCounter("ld_moves", "jobs loadd migrated successfully", GUEST),
    FlatCounter("ld_move_failures",
                "loadd moves that failed (victim restored or lost)", GUEST),
    FlatCounter("ml_records",
                "migration intent records written to the ledger", GUEST),
    FlatCounter("ml_advances", "ledger phase advances written", GUEST),
    FlatCounter("ml_claims",
                "sweep fences (claim files) created on records", GUEST),
    FlatCounter("ml_archives",
                "ledgered dumps archived through the chunk store"),
    FlatCounter("ml_completions",
                "migrations marked DONE by their orchestrator", GUEST),
    FlatCounter("ml_aborts",
                "migrations aborted or rolled back to their source", GUEST),
    FlatCounter("ml_sweeps",
                "in-flight records resolved by the recovery sweep", GUEST),
    FlatCounter("ml_reaps", "settled ledger records reaped", GUEST),
    FlatCounter("st_samples",
                "telemetry sampling rounds completed by all statds", GUEST),
    FlatCounter("st_series_points",
                "samples recorded into time-series rings", GUEST),
    FlatCounter("st_reports_sent",
                "stat reports statd shipped to the spooler", GUEST),
    FlatCounter("st_reports_recv",
                "stat reports statd-recv accepted and spooled", GUEST),
    FlatCounter("st_reports_dropped",
                "stat reports lost, refused, corrupt or unparsable", GUEST),
    FlatCounter("st_stale_drops",
                "spooled stat reports aged out past stat_stale_s", GUEST),
    FlatCounter("st_suspect_skips",
                "report shipments skipped because the failure detector "
                "suspects the spooler", GUEST),
    FlatCounter("st_alerts",
                "SLO alerts raised by the critical-path analyzer"),
)

COUNTER_DOCS = {counter.name: counter.doc for counter in COUNTERS}

#: the counters a user command may bump: the pipeline-hardening trio
#: and the ``ld_*``/``ml_*``/``st_*`` families.  The engine counters
#: stay kernel-private, and so do ``ml_archives`` (only the dump
#: writer archives) and ``st_alerts`` (only the critical-path
#: analyzer raises alerts).
GUEST_COUNTERS = frozenset(counter.name for counter in COUNTERS
                           if counter.guest)

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
    for counter in COUNTERS:
        lines.append("| `%s` | %s |" % (counter.name, counter.doc))
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
        for counter in COUNTERS:
            setattr(self, counter.name, counter.zero)
        self.burst_hist = {}  #: bucket exponent -> burst count
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
        snap = {counter.name: getattr(self, counter.name)
                for counter in COUNTERS}
        snap["burst_histogram"] = self.burst_histogram()
        snap["decode_hit_rate"] = round(self.decode_hit_rate(), 6)
        snap["metrics"] = self.metrics.snapshot()
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
