"""The migration critical-path analyzer (DESIGN.md section 13).

The paper's evaluation hinges on knowing *where* migration time goes
(signal -> dump -> rewrite -> transfer -> restart -> ack).  The
tracer already stitches each migration's recorded events into the
phase timeline (:meth:`~repro.obs.tracer.Tracer.migration_timeline`,
whose phases telescope exactly to the end-to-end latency); this
module aggregates those timelines across *every* recorded migration
into one deterministic report.  Durations stay integer nanoseconds
throughout, so the phase totals sum to the end-to-end total exactly:

* per-phase p50/p95/max/total durations and each phase's share of
  total migration time, with dominant-phase attribution;
* per-source-host and per-pair ``src->dst`` rollups;
* threshold-based SLO alerts (``migrate_p95_us``, ``hb_suspect``,
  ``ledger_sweep_age``) emitted through the tracer as the ``alert``
  category.

Everything here is a pure function of the recorded trace and the
current cluster state — byte-identical across runs and across the two
VMs, because the traces are.
"""

from repro.obs.tracer import _TIMELINE_MARKERS

#: the phase names, in pipeline order (the interval *ending* at each
#: timeline marker after the first)
PHASE_ORDER = tuple(phase for __, __, __, phase
                    in _TIMELINE_MARKERS[1:])


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil
    rank = min(max(rank, 1), len(ordered))
    return ordered[rank - 1]


def _stats(values):
    return {
        "count": len(values),
        "p50_ns": percentile(values, 50),
        "p95_ns": percentile(values, 95),
        "max_ns": max(values) if values else 0,
        "total_ns": sum(values),
    }


def critical_path_report(cluster):
    """Aggregate every recorded migration timeline into one report."""
    tracer = cluster.tracer
    migs = []
    seen = set()
    destinations = {}
    for event in tracer.events:
        mig = event.get("mig")
        if not mig:
            continue
        if mig not in seen:
            seen.add(mig)
            migs.append(mig)
        # the restart-category events run on the destination host
        if event.get("cat") == "restart":
            destinations.setdefault(mig, event["host"])
    timelines = []
    for mig in migs:
        timeline = tracer.migration_timeline(mig)
        if timeline is not None:
            timelines.append(timeline)

    phase_durations = {}
    end_to_end = []
    hosts = {}
    pairs = {}
    for timeline in timelines:
        end_to_end.append(timeline["end_to_end_ns"])
        source = timeline["mig"].rsplit(":", 1)[0]
        pair = "%s->%s" % (source,
                           destinations.get(timeline["mig"], "?"))
        hosts.setdefault(source, []).append(
            timeline["end_to_end_ns"])
        pairs.setdefault(pair, []).append(timeline["end_to_end_ns"])
        for interval in timeline["phases"]:
            phase_durations.setdefault(
                interval["phase"], []).append(interval["duration_ns"])

    total_all = sum(sum(durations)
                    for durations in phase_durations.values())
    phases = []
    dominant = None
    dominant_total = -1
    for phase in PHASE_ORDER:
        durations = phase_durations.get(phase)
        if durations is None:
            continue
        row = _stats(durations)
        row["phase"] = phase
        row["share"] = round(row["total_ns"] / total_all, 6) \
            if total_all else 0.0
        phases.append(row)
        if row["total_ns"] > dominant_total:
            dominant_total = row["total_ns"]
            dominant = phase

    return {
        "migrations": len(timelines),
        "end_to_end": _stats(end_to_end),
        "phases": phases,
        "dominant": dominant,
        "hosts": {host: _stats(values)
                  for host, values in sorted(hosts.items())},
        "pairs": {pair: _stats(values)
                  for pair, values in sorted(pairs.items())},
    }


def _ledger_max_age_s(cluster, now_s):
    """Oldest in-flight ledger record's age, scanned server-side.

    Reads the record files straight out of the file server's local
    filesystem tree (an analyzer convenience, not a syscall path);
    torn or reaped records are skipped, like the sweep does.
    """
    from repro.errors import UnixError
    from repro.net.migledger import (MigRecord, PH_DONE, PH_ABORTED,
                                     REC_NAME)
    ledger_dir = cluster.costs.migration_ledger_dir
    host = None
    local = ledger_dir
    if ledger_dir.startswith("/n/"):
        parts = ledger_dir.split("/", 3)
        if len(parts) >= 4 and parts[2]:
            host, local = parts[2], "/" + parts[3]
    machine = cluster.machines.get(host) if host else None
    if machine is None or not machine.running:
        return None
    try:
        root = machine.fs.resolve_local(local)
    except UnixError:
        return None
    oldest = None
    for name in sorted(getattr(root, "entries", {})):
        entry = root.entries[name]
        if not entry.is_dir():
            continue
        rec = entry.entries.get(REC_NAME)
        if rec is None or not rec.is_reg():
            continue
        try:
            record = MigRecord.unpack(bytes(rec.data))
        except UnixError:
            continue
        if record.phase in (PH_DONE, PH_ABORTED):
            continue
        age_s = max(0, int(now_s) - record.time_s)
        if oldest is None or age_s > oldest:
            oldest = age_s
    return oldest


def slo_alerts(cluster, report, machine, now_s):
    """Evaluate the SLO thresholds; emit ``alert`` events and return
    the raised alerts as ``{name, value, limit}`` rows (fixed order,
    so the report stays deterministic)."""
    costs = cluster.costs
    alerts = []
    e2e = report["end_to_end"]
    p95_us = e2e["p95_ns"] / 1000
    if e2e["count"] and p95_us > costs.slo_migrate_p95_us:
        alerts.append({"name": "migrate_p95_us",
                       "value": p95_us,
                       "limit": costs.slo_migrate_p95_us})
    suspects = 0
    for name in cluster.hosts():
        peer = cluster.machines[name]
        monitor = peer.kernel.hb_monitor
        if peer.running and monitor is not None:
            suspects += len(monitor.suspected)
    if suspects >= costs.slo_hb_suspects:
        alerts.append({"name": "hb_suspect", "value": suspects,
                       "limit": costs.slo_hb_suspects})
    ledger_age = _ledger_max_age_s(cluster, now_s)
    if ledger_age is not None \
            and ledger_age > costs.slo_ledger_sweep_age_s:
        alerts.append({"name": "ledger_sweep_age",
                       "value": ledger_age,
                       "limit": costs.slo_ledger_sweep_age_s})
    for alert in alerts:
        cluster.perf.st_alerts += 1
        if cluster.tracer.enabled:
            cluster.tracer.emit("alert", alert["name"], machine,
                                value=alert["value"],
                                limit=alert["limit"])
    return alerts
