"""Deterministic, virtual-time event tracing for the whole cluster.

One :class:`Tracer` is owned by the :class:`~repro.machine.cluster.
Cluster` and shared by every kernel, the network, the fault injector
and the heartbeat monitors.  Events are stamped with the *emitting
machine's* virtual clock (microseconds), never wall time, so a trace
is a pure function of the simulation schedule — the driver's
deterministic step order, which ``repro.bench.scan_checked`` checks
against the reference scan step for step — so the same run traced
twice yields byte-identical JSONL.

Design rules:

* tracing off costs one attribute check (``if tracer.enabled``) at
  every emission site, mirroring the old ``Network.trace`` guard;
* events are plain dicts (JSON-ready) appended to one global ordered
  list — ordering comes from the driver's deterministic step order;
* **spans** bracket migration phases.  ``span_begin``/``span_end``
  always maintain phase timing (feeding the ``span_us`` histograms in
  the metrics registry even when event emission is off) and
  additionally emit ``"span": "B"``/``"E"`` events when their
  category is enabled;
* a migration is keyed ``"<source-host>:<pid>"`` — derivable
  independently at every stage of the pipeline, including on the
  destination host from the dump-file path alone
  (:func:`dump_migration_id`).
"""

from repro.obs import export

#: every known event category; ``enable()`` with no args turns on all
CATEGORIES = frozenset({
    "syscall",   # kernel syscall dispatch (VM traps + native requests)
    "signal",    # post_signal delivery
    "sched",     # scheduler giving a process a run slot
    "net.msg",   # a message handed to the network for delivery
    "net.sock",  # socket lifecycle
    "fault",     # fault injector firings + host crash/reboot
    "hb",        # heartbeat detector ticks / suspicion flips
    "dump",      # kernel dump_process spans
    "restart",   # rest_proc spans
    "migrate",   # the migrate user command's end-to-end span + marks
    "recovery",  # recoveryd claiming + restarting a lost job
    "chunk",     # chunk-store puts/gets/dedup hits + lazy fault-ins
    "loadd",     # loadd balance-decision spans + move marks
    "statd",     # statd sampling marks (cluster telemetry)
    "alert",     # SLO threshold breaches raised by the analyzer
})

#: the migration-phase timeline, as (category, name, span, phase).
#: Each marker is one timestamp; consecutive markers delimit one
#: phase, so the phases telescope and their durations sum exactly to
#: the end-to-end latency.  ``span`` is "B"/"E" for span events, None
#: for plain marks.
_TIMELINE_MARKERS = (
    ("migrate", "migrate", "B", "begin"),
    ("dump", "dump", "B", "signal"),       # begin -> SIGDUMP honoured
    ("dump", "dump", "E", "dump"),         # state written to files
    ("migrate", "rewrite", None, "rewrite"),  # dumpproc path rewrite
    ("restart", "rest_proc", "B", "transfer"),  # files read remotely
    ("restart", "rest_proc", "E", "restart"),   # process overlaid
    ("migrate", "migrate", "E", "ack"),    # migrate saw it running
)


def dump_migration_id(aout_path, local_host):
    """Derive the ``host:pid`` migration id from a dump-file path.

    Dump files are named ``a.out<pid>`` (plus ``NNN.<pid>`` segment
    files) and a remote dump is addressed ``/n/<host>/...``; a local
    path means the dump was taken on ``local_host`` itself.
    """
    host = local_host
    if aout_path.startswith("/n/"):
        parts = aout_path.split("/", 3)
        if len(parts) >= 3 and parts[2]:
            host = parts[2]
    tail = aout_path.rsplit("/", 1)[-1]
    if tail.startswith("a.out"):
        tail = tail[len("a.out"):]
    try:
        pid = int(tail)
    except ValueError:
        pid = -1
    return "%s:%d" % (host, pid)


class Tracer:
    """Cluster-wide virtual-time event recorder."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.enabled = False  #: the single hot-path guard
        self.categories = frozenset()
        self.events = []
        self._open = {}  #: (cat, name, mig) -> begin timestamp us

    # -- control ---------------------------------------------------------

    def enable(self, *categories):
        """Turn tracing on for ``categories`` (default: all)."""
        wanted = frozenset(categories) if categories else CATEGORIES
        unknown = wanted - CATEGORIES
        if unknown:
            raise ValueError("unknown trace categories: %s"
                             % ", ".join(sorted(unknown)))
        self.categories = wanted
        self.enabled = True
        return self

    def disable(self):
        self.enabled = False
        self.categories = frozenset()
        return self

    def clear(self):
        """Drop recorded events (keeps enablement and open spans)."""
        self.events = []
        return self

    # -- recording -------------------------------------------------------

    def emit(self, cat, name, machine, **fields):
        """Record one event at ``machine``'s virtual clock.

        Callers guard with ``if tracer.enabled`` so a disabled tracer
        costs one attribute load; the category filter lives here.
        """
        if not self.enabled or cat not in self.categories:
            return
        event = {"ts": machine.clock.now_us, "cat": cat,
                 "name": name, "host": machine.name}
        if fields:
            event.update(fields)
        self.events.append(event)

    def span_begin(self, cat, name, mig, machine, **fields):
        """Open a span for migration ``mig``.  Phase timing is always
        tracked (for the ``span_us`` histograms); the event itself is
        only recorded when the category is enabled."""
        self._open[(cat, name, mig)] = machine.clock.now_us
        if self.enabled and cat in self.categories:
            event = {"ts": machine.clock.now_us, "cat": cat,
                     "name": name, "host": machine.name,
                     "mig": mig, "span": "B"}
            if fields:
                event.update(fields)
            self.events.append(event)

    def span_end(self, cat, name, mig, machine, ok=True, **fields):
        """Close a span; feeds the phase-duration histogram."""
        now = machine.clock.now_us
        begin = self._open.pop((cat, name, mig), None)
        if begin is not None:
            self.cluster.perf.metrics.observe("span_us", now - begin,
                                              phase=name)
        if self.enabled and cat in self.categories:
            event = {"ts": now, "cat": cat, "name": name,
                     "host": machine.name, "mig": mig, "span": "E",
                     "ok": bool(ok)}
            if fields:
                event.update(fields)
            self.events.append(event)

    # -- analysis --------------------------------------------------------

    def migration_timeline(self, mig):
        """Stitch the recorded events for migration ``mig`` into the
        paper's phase breakdown (Figures 2-4).

        Returns ``None`` unless at least a begin and an end marker
        were captured; otherwise a dict with contiguous ``phases``
        whose durations sum to ``end_to_end_ns`` exactly: each marker
        stamp is rounded once, to integer nanoseconds.
        """
        marks = {}
        for event in self.events:
            if event.get("mig") != mig:
                continue
            if event.get("span") == "E" and not event.get("ok", True):
                continue  # failed phases don't make a timeline
            marks[(event["cat"], event["name"],
                   event.get("span"))] = event["ts"]
        points = []
        for cat, name, span, phase in _TIMELINE_MARKERS:
            ts = marks.get((cat, name, span))
            if ts is not None:
                ts = round(ts * 1000)
                # markers are stamped on different hosts' clocks, and
                # a later stage can observe an earlier one through
                # synchronous NFS before its own clock catches up
                # (e.g. migrate seeing the consumed dump), so clamp
                # to keep the stitched timeline monotone
                if points and ts < points[-1][1]:
                    ts = points[-1][1]
                points.append((phase, ts))
        if len(points) < 2:
            return None
        # the interval *ending* at each marker is named for the work
        # that completed there
        phases = []
        for (__, begin), (phase, end) in zip(points, points[1:]):
            phases.append({"phase": phase, "begin_ns": begin,
                           "end_ns": end,
                           "duration_ns": end - begin})
        return {
            "mig": mig,
            "begin_ns": points[0][1],
            "end_ns": points[-1][1],
            "end_to_end_ns": points[-1][1] - points[0][1],
            "phases": phases,
        }

    # -- export ----------------------------------------------------------

    def to_jsonl(self):
        return export.to_jsonl(self.events)

    def to_chrome(self):
        return export.to_chrome(
            self.events, self.cluster.perf.metrics.snapshot())

    def __repr__(self):
        state = ("on:%s" % ",".join(sorted(self.categories))
                 if self.enabled else "off")
        return "Tracer(%s, %d events)" % (state, len(self.events))
