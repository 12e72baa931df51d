"""The observability layer: tracer, spans, metrics, exporters.

DESIGN.md section 9.  Chaos and recovery traces are checked against
the reference scan where those scenarios already run
(tests/test_faults.py, tests/test_recovery.py); here the layer itself
is exercised: category filtering, the migration-phase timeline, the
metrics registry and the guest-visible surface (``trace_status``,
``migstat``).
"""

import json

import pytest

from repro.core.api import MigrationSite
from repro.obs import (CATEGORIES, MetricsRegistry, dump_migration_id,
                       to_chrome, validate_chrome)
from repro.perf.counters import (PerfCounters, COUNTER_DOCS,
                                 METRIC_DOCS)
from tests.conftest import scan_checked, start_counter

PHASES = ["signal", "dump", "rewrite", "transfer", "restart", "ack"]


def _migrated_site(categories=()):
    """A site that has completed one brick->schooner migration."""
    site = MigrationSite()
    if categories is not None:
        site.cluster.tracer.enable(*categories)
    site.run_quiet()
    handle = start_counter(site)
    mig = "brick:%d" % handle.pid
    mh = site.migrate(handle.pid, "brick", "schooner", uid=100)
    assert mh.exit_status == 0
    site.run_quiet()
    return site, mig


# -- the tracer ------------------------------------------------------------


def test_tracing_is_off_by_default_and_records_nothing(site):
    handle = start_counter(site)
    assert site.cluster.tracer.enabled is False
    assert site.cluster.tracer.events == []
    assert handle.pid > 0


def test_category_filtering():
    site = MigrationSite()
    site.cluster.tracer.enable("sched")
    site.run_quiet()
    cats = {e["cat"] for e in site.cluster.tracer.events}
    assert cats == {"sched"}


def test_unknown_category_is_rejected():
    site = MigrationSite()
    with pytest.raises(ValueError, match="nonsense"):
        site.cluster.tracer.enable("sched", "nonsense")


def test_kernel_layers_emit_events():
    site, mig = _migrated_site(categories=())  # () -> all categories
    events = site.cluster.tracer.events
    cats = {e["cat"] for e in events}
    for expected in ("syscall", "signal", "sched", "net.msg",
                     "net.sock", "dump", "restart", "migrate"):
        assert expected in cats, expected
    # SIGDUMP delivery to the victim is on the record
    assert any(e["cat"] == "signal" and e["name"] == "SIGDUMP"
               for e in events)
    # timestamps are virtual microseconds, monotone per host
    by_host = {}
    for e in events:
        assert e["ts"] >= by_host.get(e["host"], 0.0)
        by_host[e["host"]] = e["ts"]


def test_migration_timeline_phases_sum_to_end_to_end():
    site, mig = _migrated_site(
        categories=("dump", "restart", "migrate"))
    timeline = site.cluster.tracer.migration_timeline(mig)
    assert timeline is not None
    assert [p["phase"] for p in timeline["phases"]] == PHASES
    assert all(p["duration_ns"] >= 0 for p in timeline["phases"])
    total = sum(p["duration_ns"] for p in timeline["phases"])
    assert total == timeline["end_to_end_ns"]


def test_trace_jsonl_byte_identical_across_engines(interpreter):
    """One migration, every category on: compiled traces and the
    interpreter produce the same bytes, and the driver steps as the
    reference scan would (the global event order is the schedule)."""
    def run():
        site, __ = _migrated_site(categories=())
        return site.cluster.tracer.to_jsonl()

    trace = scan_checked(run)
    assert interpreter(run) == trace
    assert trace  # non-empty
    for line in trace.splitlines():
        json.loads(line)  # every line is one JSON event


def test_span_histograms_recorded_even_with_tracing_off():
    site, __ = _migrated_site(categories=None)  # tracing fully off
    assert site.cluster.tracer.events == []
    metrics = site.cluster.perf.metrics
    assert metrics.sample_count("span_us", phase="dump") >= 1
    assert metrics.sample_count("span_us", phase="rest_proc") >= 1
    assert metrics.total("dumps", host="brick") == 1
    assert metrics.total("restarts", host="schooner") == 1
    assert metrics.total("migrations") == 1


def test_chrome_export_validates_and_nests():
    site, mig = _migrated_site(
        categories=("dump", "restart", "migrate"))
    doc = site.cluster.tracer.to_chrome()
    count = validate_chrome(doc)
    assert count > len(site.cluster.tracer.events)  # + metadata rows
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "b", "e", "i"} <= phs
    spans = [e for e in doc["traceEvents"] if e["ph"] in "be"]
    assert all(e["id"] == mig for e in spans)


def test_validate_chrome_rejects_dangling_spans():
    doc = to_chrome([{"ts": 1.0, "cat": "dump", "name": "dump",
                      "host": "brick", "mig": "brick:3",
                      "span": "B"}])
    with pytest.raises(ValueError, match="unclosed"):
        validate_chrome(doc)


def test_dump_migration_id():
    assert dump_migration_id("/usr/tmp/a.out42", "brick") == "brick:42"
    assert dump_migration_id("/n/brick/usr/tmp/a.out42",
                             "schooner") == "brick:42"
    assert dump_migration_id("/usr/tmp/garbage", "x") == "x:-1"


# -- the guest-visible surface ---------------------------------------------


def test_trace_status_syscall_and_migstat_command(site):
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner", uid=100)
    assert mh.exit_status == 0
    site.run_quiet()
    assert site.run_command("brick", ["migstat"], uid=100) == 0
    console = site.console("brick")
    assert "HOST" in console and "tracing: off" in console
    # one dump on brick, one restart on schooner, one migration
    lines = [l for l in console.splitlines() if l.startswith("brick")]
    assert lines and lines[-1].split()[1:4] == ["up", "1", "0"]
    lines = [l for l in console.splitlines()
             if l.startswith("schooner")]
    assert lines and lines[-1].split()[1:5] == ["up", "0", "1", "1"]

    site.cluster.tracer.enable("migrate")
    assert site.run_command("schooner", ["migstat"], uid=100) == 0
    assert "tracing: on" in site.console("schooner")


def test_vmcache_pseudo_call_and_footers():
    """migstat and migtop surface the shared code cache's counters;
    after a migration of unchanged text, arrivals are warm."""
    site, __ = _migrated_site(categories=None)
    assert site.run_command("brick", ["migstat"], uid=100) == 0
    console = site.console("brick")
    line = [l for l in console.splitlines()
            if l.startswith("vm cache:")]
    assert line, console
    perf = site.cluster.perf
    assert ("%d warm arrivals" % perf.shared_cache_hits) in line[0]
    assert ("%d rebuilds" % perf.cache_rebuilds) in line[0]
    # the guest's text recompiled at most once; the migrated
    # re-arrival found it in the shared cache
    assert perf.shared_cache_hits > 0
    assert site.run_command("schooner", ["migtop"], uid=100) == 0
    top = site.console("schooner")
    assert any(l.startswith("vm cache:") and "arrivals warm" in l
               for l in top.splitlines()), top


# -- the metrics registry --------------------------------------------------


def test_metrics_registry_counters_and_labels():
    metrics = MetricsRegistry()
    metrics.inc("dumps", host="brick")
    metrics.inc("dumps", 2, host="schooner")
    metrics.inc("dumps", host="brick")
    assert metrics.total("dumps") == 4
    assert metrics.total("dumps", host="brick") == 2
    assert metrics.total("other") == 0
    snap = metrics.snapshot()
    assert snap["counters"] == {"dumps{host=brick}": 2,
                                "dumps{host=schooner}": 2}


def test_metrics_registry_histograms():
    metrics = MetricsRegistry()
    for value in (0, 1, 3, 1000):
        metrics.observe("span_us", value, phase="dump")
    snap = metrics.snapshot()["histograms"]["span_us{phase=dump}"]
    assert snap["count"] == 4
    assert snap["sum"] == 1004
    assert snap["buckets"] == {"0": 1, "1": 1, "2": 1, "10": 1}
    assert metrics.sample_count("span_us") == 4


def test_metrics_registry_rejects_bools_and_junk():
    metrics = MetricsRegistry()
    with pytest.raises(TypeError):
        metrics.inc("x", True)
    with pytest.raises(TypeError):
        metrics.observe("x", "fast")


# -- PerfCounters hardening + docs contract --------------------------------


def test_perf_note_rejects_bool_attributes_and_bumps():
    perf = PerfCounters()
    perf.note("retries")
    assert perf.retries == 1
    with pytest.raises(TypeError):
        perf.note("retries", True)
    with pytest.raises(TypeError):
        perf.note("retries", "lots")
    # a bool-typed attribute is not a counter, even though
    # isinstance(True, int) holds
    perf.flag = True
    with pytest.raises(ValueError):
        perf.note("flag")
    with pytest.raises(ValueError):
        perf.note("no_such_counter")


#: the counters user commands may bump through ``perf_note``
GUEST_COUNTERS = (
    "retries", "timeouts", "recoveries",
    "ld_reports_sent", "ld_reports_recv", "ld_reports_dropped",
    "ld_stale_drops", "ld_suspect_skips", "ld_rounds", "ld_moves",
    "ld_move_failures",
    "ml_records", "ml_advances", "ml_claims", "ml_completions",
    "ml_aborts", "ml_sweeps", "ml_reaps",
    "st_samples", "st_series_points", "st_reports_sent",
    "st_reports_recv", "st_reports_dropped", "st_stale_drops",
    "st_suspect_skips",
)


def test_perf_note_allowlist_from_a_user_command(site):
    """A user command may bump exactly the pipeline counters; driver
    and VM counters and the kernel-private ``ml_archives``/``st_alerts``
    are refused with EINVAL and left untouched."""
    from repro.errors import EINVAL
    from tests.conftest import run_native

    refused = ("steps", "vm_instructions", "ml_archives", "st_alerts")
    results = {}

    def bump_all(argv, env):
        for name in GUEST_COUNTERS + refused:
            results[name] = yield ("perf_note", name)
        return 0

    perf = site.cluster.perf
    before = {name: getattr(perf, name)
              for name in GUEST_COUNTERS + refused}
    run_native(site.machine("brick"), bump_all)
    assert len(GUEST_COUNTERS) == 25
    for name in GUEST_COUNTERS:
        assert results[name] == 0, name
        assert getattr(perf, name) == before[name] + 1, name
    for name in ("ml_archives", "st_alerts"):
        assert results[name] == -EINVAL
        assert getattr(perf, name) == before[name]
    assert results["steps"] == -EINVAL
    assert results["vm_instructions"] == -EINVAL


def test_snapshot_keeps_flat_keys_and_adds_metrics():
    perf = PerfCounters()
    perf.metrics.inc("dumps", host="brick")
    snap = perf.snapshot(elapsed_s=2.0)
    assert snap["steps"] == 0  # the historical flat keys survive
    assert "burst_histogram" in snap
    assert snap["steps_per_sec"] == 0.0
    assert snap["metrics"]["counters"] == {"dumps{host=brick}": 1}
    json.dumps(snap)  # BENCH_perf.json compatibility


def test_every_flat_counter_is_documented():
    perf = PerfCounters()
    flat = {name for name, value in vars(perf).items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)}
    assert flat == set(COUNTER_DOCS)
    assert METRIC_DOCS  # and the labelled metrics have docs too


def test_all_emission_categories_are_known():
    assert CATEGORIES == {"syscall", "signal", "sched", "net.msg",
                          "net.sock", "fault", "hb", "dump",
                          "restart", "migrate", "recovery", "chunk",
                          "loadd", "statd", "alert"}


def test_chrome_export_emits_metric_counter_events():
    from repro.obs import to_chrome
    events = [{"ts": 5, "cat": "hb", "name": "tick", "host": "brick"}]
    metrics = {"counters": {"dumps{host=brick}": 2, "flag": True},
               "histograms": {}}
    doc = to_chrome(events, metrics)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert [e["name"] for e in counters] == ["dumps{host=brick}"]
    assert counters[0]["args"] == {"value": 2}
    assert counters[0]["ts"] == 5  # stamped at the trace's end
    metas = [e for e in doc["traceEvents"]
             if e["ph"] == "M" and e["pid"] == 0]
    assert metas and metas[0]["args"] == {"name": "cluster"}
    assert validate_chrome(doc) == len(doc["traceEvents"])


def test_validate_chrome_rejects_non_numeric_counters():
    doc = {"traceEvents": [
        {"ph": "C", "pid": 0, "tid": 0, "ts": 1, "name": "x",
         "args": {"value": "not a number"}}]}
    with pytest.raises(ValueError):
        validate_chrome(doc)
    doc = {"traceEvents": [
        {"ph": "C", "pid": 0, "tid": 0, "ts": 1, "name": "x",
         "args": {}}]}
    with pytest.raises(ValueError):
        validate_chrome(doc)


def test_tracer_chrome_export_carries_metric_snapshots():
    site, __ = _migrated_site(("migrate", "dump", "restart"))
    doc = site.cluster.tracer.to_chrome()
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert any(e["name"].startswith("dumps") for e in counters)
    assert validate_chrome(doc) == len(doc["traceEvents"])
