"""Tests for statd, the cluster telemetry subsystem (DESIGN.md
section 13).

Three layers:

* **time-series units** — the power-of-two ring buffers behind the
  spool: capacity enforcement, wrap-around, bucketing, sparklines;
* **daemon tests** — statd end to end on the simulated site: it
  samples kernel gauges and migstat deltas, ships STATREPORTs to the
  spooler on the file server, ages out stale peers, and the whole
  subsystem is doubly opt-in (a site that never starts statd, or
  starts it with ``stat_interval_s`` at its zero default, shows no
  trace of it);
* **the analyzer** — ``critpath`` aggregates recorded migration
  timelines into a per-phase report whose durations telescope exactly
  to the end-to-end latencies, raises SLO alerts, and is surfaced by
  ``migtop`` / ``migstat -s``; everything byte-identical across the
  scan and fast engines.
"""

import json

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.errors import UnixError
from repro.net.statd import (SPOOL_DIR, STATD_PORT, StatReport,
                             spool_path)
from repro.obs.critpath import PHASE_ORDER, percentile
from repro.obs.timeseries import Series, SeriesSet
from tests.conftest import drivers_agree, run_native, start_counter

PHASES = ["signal", "dump", "rewrite", "transfer", "restart", "ack"]


# -- time series -------------------------------------------------------------


def test_series_capacity_must_be_a_power_of_two():
    for bad in (0, -4, 3, 6, 100):
        with pytest.raises(ValueError):
            Series("x", bad)
        with pytest.raises(ValueError):
            SeriesSet(bad)
    assert Series("x", 1).capacity == 1


def test_series_ring_wraps_and_keeps_the_newest_samples():
    series = Series("runq", 4)
    for i in range(10):
        series.record(i, i * 2)
    assert series.count == 10
    assert series.samples() == [(6, 12), (7, 14), (8, 16), (9, 18)]
    assert series.values() == [12, 14, 16, 18]
    assert series.last() == 18


def test_series_clamps_values_to_u32():
    series = Series("x", 2)
    series.record(-5, -7)
    series.record(1 << 40, 1 << 40)
    assert series.samples() == [(0, 0),
                                ((1 << 32) - 1, (1 << 32) - 1)]


def test_series_buckets_and_sparkline_are_power_of_two():
    series = Series("x", 8)
    for value in (0, 1, 1, 3, 7, 200):
        series.record(0, value)
    assert series.buckets() == {0: 1, 1: 2, 2: 1, 3: 1, 8: 1}
    spark = series.sparkline()
    assert len(spark) == 6
    assert spark[0] == " " and spark[-1] == "%"


def test_series_snapshot_is_json_ready_and_deterministic():
    series_set = SeriesSet(4)
    series_set.record("b", 1, 2)
    series_set.record("a", 1, 3)
    snap = series_set.snapshot()
    assert [s["name"] for s in snap] == ["b", "a"]  # insertion order
    assert json.dumps(snap) == json.dumps(series_set.snapshot())


# -- the wire format (property damage tests live in
#    tests/test_formats_property.py) ----------------------------------------


def test_statreport_round_trips_through_a_series_set():
    series_set = SeriesSet(4)
    for i in range(9):
        series_set.record("runq", i, i)
    series_set.record("procs", 3, 12)
    report = StatReport.from_series("brick", 9, 4, series_set)
    blob = report.pack()
    again = StatReport.unpack(blob)
    assert again == report and again.pack() == blob
    rebuilt = again.to_series()
    assert rebuilt.get("runq").count == 9   # samples *ever*
    assert rebuilt.get("runq").values() == [5, 6, 7, 8]
    assert rebuilt.get("procs").last() == 12


def test_percentile_is_nearest_rank():
    assert percentile([], 95) == 0
    assert percentile([7], 50) == 7
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([3, 1, 2], 100) == 3


# -- the daemon on the simulated site ----------------------------------------

#: shrunk knobs so daemon runs stay cheap in virtual time
STATD_KNOBS = dict(stat_interval_s=1.0, stat_rounds=4,
                   stat_stale_s=30.0, net_read_timeout_s=5.0)


def _statd_site(engine="fast", **overrides):
    knobs = dict(STATD_KNOBS)
    knobs.update(overrides)
    site = MigrationSite(costs=CostModel(**knobs), engine=engine)
    site.run_quiet()
    return site


def _await_statd(site, handles, drain_us=3_000_000):
    """Run until every statd exited (the spooler blocks in accept
    forever), plus a drain window so in-flight reports land."""
    statds = [h for h in handles if h.proc.command == "statd"]
    site.run_until(lambda: all(h.exited for h in statds),
                   max_steps=80_000_000)
    site.run(until_us=site.cluster.wall_time_us() + drain_us,
             max_steps=80_000_000)
    return statds


def test_statd_samples_and_spools_to_the_server():
    site = _statd_site()
    site.cluster.tracer.enable("statd")
    start_counter(site)
    handles = site.start_statd()
    statds = _await_statd(site, handles)

    assert [h.exit_status for h in statds] == [0, 0]
    perf = site.cluster.perf
    assert perf.st_samples == 8          # 4 rounds x 2 daemons
    assert perf.st_reports_sent == 8
    assert perf.st_reports_recv == 8
    assert perf.st_reports_dropped == 0
    server = site.machine("brador")
    for host in ("brick", "schooner"):
        blob = server.fs.read_file(spool_path(SPOOL_DIR, host))
        report = StatReport.unpack(blob)
        assert report.host == host and report.seq == 3
        names = [name for name, __, __ in report.series]
        for expected in ("runq", "procs", "socks", "hb_suspects",
                         "dumps", "restarts"):
            assert expected in names
        # the counter machinery saw every ring sample
    assert perf.st_series_points == 64   # 8 points x 8 rounds
    marks = [e for e in site.cluster.tracer.events
             if e["cat"] == "statd"]
    assert len(marks) == 8
    assert {e["name"] for e in marks} == {"sample"}


def test_statd_gauges_reflect_kernel_state():
    site = _statd_site()
    start_counter(site)   # one live VM job on brick
    gauges = []

    def prober(argv, env):
        gauges.append((yield ("statgauges",)))
        return 0

    handle = run_native(site.machine("brick"), prober)
    assert handle.exit_status == 0
    g = gauges[0]
    assert g["procs"] >= 3   # counter + daemons + the prober
    assert g["socks"] >= 2   # rshd + migrationd well-known ports
    assert g["hb_suspects"] == 0
    assert set(g) == {"runq", "procs", "socks", "hb_suspects"}


def test_statd_recv_spools_a_wire_report_and_ages_stale_peers():
    site = _statd_site(stat_stale_s=1.0)
    server = site.machine("brador")
    server.spawn("/bin/statd-recv", uid=0, cwd="/tmp")
    site.run(until_us=site.cluster.wall_time_us() + 200_000)
    # a long-quiet peer is already in the spool
    ghost = StatReport("ghost", 0, 0, [("runq", 1, ((0, 1),))])
    server.fs.install_file(spool_path(SPOOL_DIR, "ghost"),
                           ghost.pack())
    # carry virtual time past the staleness horizon (time only moves
    # while something is scheduled)
    def sleeper(argv, env):
        yield ("sleep", 3)
        return 0

    run_native(server, sleeper, name="sleeper")
    report = StatReport("schooner", 1000, 7,
                        [("runq", 3, ((1000, 2),))])
    blob = report.pack()

    def sender(argv, env):
        from repro.programs.base import write_all
        sock = yield ("socket",)
        result = yield ("connect", sock, "brador", STATD_PORT)
        assert result == 0
        yield from write_all(sock, blob)
        yield ("close", sock)
        return 0

    handle = run_native(site.machine("schooner"), sender,
                        name="sendreport")
    assert handle.exit_status == 0
    site.run(until_us=site.cluster.wall_time_us() + 2_000_000)
    assert server.fs.read_file(spool_path(SPOOL_DIR,
                                          "schooner")) == blob
    assert site.cluster.perf.st_reports_recv == 1
    # the ghost's ancient report was aged out by the spooler
    assert site.cluster.perf.st_stale_drops == 1
    with pytest.raises(UnixError):
        server.fs.read_file(spool_path(SPOOL_DIR, "ghost"))


def test_statd_off_leaves_no_trace():
    """Doubly opt-in: even a *spawned* statd exits silently when
    ``stat_interval_s`` sits at its zero default, and a site that
    never starts one shows no spool, no st_* counts, no events."""
    site = MigrationSite()
    site.cluster.tracer.enable()
    site.run_quiet()
    handles = site.start_statd()   # interval knob still 0.0
    site.run_until(lambda: all(h.exited for h in handles
                               if h.proc.command == "statd"))
    assert all(h.exit_status == 0 for h in handles
               if h.proc.command == "statd")
    snapshot = site.cluster.perf.snapshot()
    assert all(v == 0 for k, v in snapshot.items()
               if k.startswith("st_"))
    for name in ("brick", "schooner"):
        with pytest.raises(UnixError):
            site.machine(name).fs.resolve_local(SPOOL_DIR)
    assert not [e for e in site.cluster.tracer.events
                if e.get("cat") in ("statd", "alert")]


def test_statd_fault_namespace_is_allowed(brick):
    results = []

    def prober(argv, env):
        results.append((yield ("fault_point", "statd.send", "peer")))
        results.append((yield ("fault_data", "statd.spool", b"ok",
                               "")))
        return 0

    handle = run_native(brick, prober)
    assert handle.exit_status == 0
    assert results == [0, b"ok"]


# -- engine identity ---------------------------------------------------------


def _telemetry_run(engine):
    """One traced telemetry run: hogs + a migration + statd."""
    site = _statd_site(engine=engine)
    site.cluster.tracer.enable("statd", "alert", "migrate", "dump",
                               "restart")
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner", uid=100)
    assert mh.exit_status == 0
    statd_handles = site.start_statd()
    _await_statd(site, statd_handles)
    server = site.machine("brador")
    spool = {}
    for host in ("brick", "schooner"):
        try:
            spool[host] = server.fs.read_file(
                spool_path(SPOOL_DIR, host))
        except UnixError:
            spool[host] = None
    snapshot = site.cluster.perf.snapshot()
    counters = {k: v for k, v in snapshot.items()
                if k.startswith("st_")}
    reports = []

    def prober(argv, env):
        reports.append((yield ("critpath",)))
        return 0

    run_native(site.machine("brick"), prober)
    return {
        "spool": spool,
        "counters": counters,
        "clock_us": {name: site.machine(name).clock.now_us
                     for name in ("brick", "schooner", "brador")},
        "trace": site.cluster.tracer.to_jsonl(),
        "critpath": json.dumps(reports[0], sort_keys=True),
    }


def test_telemetry_is_byte_identical_across_engines():
    assert drivers_agree(_telemetry_run)["spool"]["brick"] is not None


# -- the critical-path analyzer ----------------------------------------------


def _migrated_site(engine="fast", categories=("migrate", "dump",
                                              "restart")):
    site = MigrationSite(engine=engine)
    site.cluster.tracer.enable(*categories)
    site.run_quiet()
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner", uid=100)
    assert mh.exit_status == 0
    site.run_quiet()
    return site, "brick:%d" % handle.pid


def _critpath(site, host="brick"):
    reports = []

    def prober(argv, env):
        reports.append((yield ("critpath",)))
        return 0

    handle = run_native(site.machine(host), prober)
    assert handle.exit_status == 0
    return reports[0]


def test_critpath_phases_telescope_to_end_to_end():
    site, mig = _migrated_site()
    report = _critpath(site)
    assert report["migrations"] == 1
    assert [row["phase"] for row in report["phases"]] == PHASES
    assert list(PHASE_ORDER) == PHASES
    total = sum(row["total_us"] for row in report["phases"])
    assert total == report["end_to_end"]["total_us"]
    timeline = site.cluster.tracer.migration_timeline(mig)
    assert report["end_to_end"]["max_us"] \
        == timeline["end_to_end_us"]
    assert abs(sum(row["share"] for row in report["phases"])
               - 1.0) < 1e-5
    assert report["dominant"] in PHASES
    assert report["hosts"] == {"brick": report["end_to_end"]}
    assert report["pairs"] == {
        "brick->schooner": report["end_to_end"]}
    assert report["alerts"] == []   # default SLOs are generous


def test_critpath_with_no_timelines_is_empty():
    site = MigrationSite()
    site.run_quiet()
    report = _critpath(site)
    assert report["migrations"] == 0
    assert report["phases"] == []
    assert report["dominant"] is None
    assert report["end_to_end"]["count"] == 0


def test_critpath_raises_slo_alerts():
    """With an absurdly tight latency SLO, one migration trips the
    alert: an event in the ``alert`` category plus st_alerts."""
    site, __ = _migrated_site()
    site.cluster.costs.slo_migrate_p95_us = 1.0
    site.cluster.tracer.enable("migrate", "dump", "restart", "alert")
    report = _critpath(site)
    assert [a["name"] for a in report["alerts"]] == ["migrate_p95_us"]
    assert report["alerts"][0]["value"] \
        == report["end_to_end"]["p95_us"]
    assert site.cluster.perf.st_alerts == 1
    alerts = [e for e in site.cluster.tracer.events
              if e["cat"] == "alert"]
    assert len(alerts) == 1 and alerts[0]["name"] == "migrate_p95_us"


# -- the commands ------------------------------------------------------------


def test_migtop_shows_hosts_and_critical_path():
    site = _statd_site()
    site.cluster.tracer.enable("migrate", "dump", "restart", "statd")
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner", uid=100)
    assert mh.exit_status == 0
    _await_statd(site, site.start_statd())
    status = site.run_command("brick", ["migtop", "-p"], uid=100)
    assert status == 0
    out = site.console("brick")
    assert "HOST" in out and "RUNQ HISTORY" in out
    assert "brick" in out and "schooner" in out
    assert "alerts: none" in out
    assert "critical path (1 migrations):" in out
    for phase in PHASES:
        assert phase in out
    assert "dominant phase:" in out
    assert "brick->schooner" in out


def test_migtop_without_a_spool_says_so():
    site = MigrationSite()
    site.run_quiet()
    status = site.run_command("brick", ["migtop"], uid=100)
    assert status == 0
    assert "no statd spool" in site.console("brick")


def test_migstat_s_lists_the_spool():
    site = _statd_site()
    _await_statd(site, site.start_statd())
    status = site.run_command("brick", ["migstat", "-s"], uid=100)
    assert status == 0
    out = site.console("brick")
    assert "SPOOL" in out and "SERIES" in out
    assert "brick" in out and "schooner" in out


def test_migstat_s_with_empty_spool(site):
    status = site.run_command("brick", ["migstat", "-s"], uid=100)
    assert status == 0
    assert "no statd spool" in site.console("brick")
