"""The fast-path engine: horizon batching, decode cache, satellites.

The fast driver and the predecoded-block VM must be *invisible* in
virtual time: every test here pins some part of the contract that the
reference scan engine defines and the fast engine must reproduce.
"""

from repro.core.api import MigrationSite
from repro.machine.cluster import Cluster
from repro.programs.guest.cpuhog import expected_checksum


def _message_scenario(engine):
    """Machine a bursts through dense events; its first event messages
    idle machine b, which replies.  Returns the observed event log."""
    cluster = Cluster(engine=engine)
    a = cluster.add_machine("a")
    b = cluster.add_machine("b")
    net = cluster.network
    log = []

    def on_reply():
        log.append(("a-reply", a.clock.now_us))

    def on_b():
        log.append(("b", b.clock.now_us))
        net.deliver(b, a, 0, on_reply)

    def make(t):
        def fire():
            log.append(("a", a.clock.now_us))
            if t == 0:
                net.deliver(a, b, 0, on_b)
        return fire

    for t in range(0, 10001, 500):
        a.post_event(float(t), make(t))
    cluster.run(max_steps=1000)
    return log, cluster


def test_mid_burst_message_arrives_causally():
    """A cross-machine message posted mid-burst must shrink the event
    horizon: the receiver reacts and its reply interleaves with the
    sender's remaining events exactly as in the reference schedule."""
    scan_log, __ = _message_scenario("scan")
    fast_log, fast_cluster = _message_scenario("fast")
    assert fast_log == scan_log
    # the reply really did land mid-stream, not after a's events
    kinds = [kind for kind, __ in fast_log]
    assert kinds.index("b") < kinds.index("a-reply") < len(kinds) - 1
    assert kinds[-1] == "a"
    # and the horizon machinery was exercised, not bypassed
    assert fast_cluster.perf.horizon_invalidations >= 1
    assert fast_cluster.perf.bursts >= 1


def test_run_until_stops_exactly_like_scan():
    """Bursts must not overshoot a predicate: run_until stops after
    the same number of events on both engines."""
    for engine in ("scan", "fast"):
        cluster = Cluster(engine=engine)
        a = cluster.add_machine("a")
        log = []
        for t in range(10):
            a.post_event(float(t * 100), lambda: log.append(len(log)))
        cluster.run_until(lambda: len(log) >= 3, max_steps=100)
        assert len(log) == 3, engine


def test_run_until_us_bound_matches_scan():
    def drive(engine):
        cluster = Cluster(engine=engine)
        a = cluster.add_machine("a")
        fired = []
        for t in range(10):
            a.post_event(float(t * 1000),
                         lambda: fired.append(a.clock.now_us))
        cluster.run(until_us=4500, max_steps=100)
        return fired, cluster.wall_time_us()

    assert drive("fast") == drive("scan")


def test_perf_counters_populated():
    cluster = Cluster()
    a = cluster.add_machine("a")
    a.post_event(10.0, lambda: None)
    a.post_event(20.0, lambda: None)
    cluster.run(max_steps=100)
    perf = cluster.perf
    assert perf.steps == 2
    assert perf.bursts >= 1
    assert sum(perf.burst_hist.values()) == perf.bursts
    snap = perf.snapshot(elapsed_s=1.0)
    assert snap["steps_per_sec"] == 2.0
    assert "burst_histogram" in snap


def test_decode_cache_invalidated_on_rest_proc_overlay():
    """rest_proc overlays the whole image; the predecoded cache of
    the pre-migration program must not survive into the overlay."""
    site = MigrationSite()
    site.run_quiet()
    handle = site.start("brick", "/bin/cpuhog", ["cpuhog", "60000"],
                        uid=100)
    site.run(until_us=site.cluster.wall_time_us() + 200_000)
    source_image = handle.proc.image.image
    assert source_image._decode_cache is not None  # the hog has run
    site.dumpproc("brick", handle.pid, uid=100)
    restart = site.restart("schooner", handle.pid, from_host="brick",
                           uid=100)
    moved = restart.proc
    assert moved.is_vm()
    overlaid = moved.image.image
    assert overlaid is not source_image
    # invalidated at the overlay, rebuilt only when the CPU next runs
    assert overlaid._decode_cache is None
    site.run_until(lambda: restart.exited)
    assert ("checksum=%d" % expected_checksum(60000)) \
        in site.console("schooner")


def test_lazy_arrival_counts_against_the_lazy_variant():
    """A lazily restarted process arrives with chunks pending; its
    arrival is accounted against the lazy trace variant it will run,
    so the second lazy arrival of unchanged text is a shared-cache hit
    and adds no rebuild."""
    from repro.costmodel import CostModel
    costs = CostModel().with_overrides(incremental_dumps=True,
                                       lazy_restart=True)
    site = MigrationSite(costs)
    site.run_quiet()
    perf = site.cluster.perf
    handle = site.start("brick", "/bin/cpuhog", ["cpuhog", "60000"])
    site.run(until_us=site.cluster.wall_time_us() + 100_000)
    site.dumpproc("brick", handle.pid)
    rebuilds = perf.cache_rebuilds
    first = site.restart("schooner", handle.pid, from_host="brick")
    assert first.proc.image.image._lazy is not None
    assert perf.cache_rebuilds == rebuilds + 1  # the lazy variant is new
    site.run(until_us=site.cluster.wall_time_us() + 100_000)
    site.dumpproc("schooner", first.proc.pid)
    rebuilds, hits = perf.cache_rebuilds, perf.shared_cache_hits
    second = site.restart("brick", first.proc.pid, from_host="schooner")
    assert second.proc.image.image._lazy is not None
    assert perf.cache_rebuilds == rebuilds
    assert perf.shared_cache_hits > hits
    site.run_until(lambda: second.exited)
    assert ("checksum=%d" % expected_checksum(60000)) \
        in site.console("brick")


def test_exec_invalidates_decode_cache():
    cluster = Cluster()
    machine = cluster.add_machine("a")
    from repro.programs import install_standard_programs
    install_standard_programs(machine)
    handle = machine.spawn("/bin/cpuhog", ["cpuhog", "10"], uid=100,
                           cwd="/tmp")
    # freshly exec'd, never run: the explicit exec hook left it clean
    assert handle.proc.image.image._decode_cache is None
    cluster.run_until(lambda: handle.exited)
    assert handle.exit_status == 0


def test_socket_ids_are_per_network():
    """Regression: socket ids used to come from a class-level iterator
    shared by every cluster in the process, so ids depended on what
    had run before.  Fresh clusters must hand out fresh ids."""
    first = Cluster()
    second = Cluster()
    sock1 = first.network.sock_create(first.add_machine("a"))
    sock2 = second.network.sock_create(second.add_machine("a"))
    assert sock1.id == 1
    assert sock2.id == 1


def test_engines_agree_on_idle_and_stuck():
    import pytest
    from repro.machine.cluster import SimulationStuck
    for engine in ("scan", "fast"):
        cluster = Cluster(engine=engine)
        cluster.add_machine("a")
        assert cluster.run(max_steps=10) is True  # idle is not an error
        with pytest.raises(SimulationStuck):
            cluster.run_until(lambda: False, max_steps=10)


def test_storm_burst_median_exceeds_one():
    """Regression for the 1-step-burst pathology: under the overlap
    window, the benchmark storm's typical burst must be longer than a
    single step (the old horizon rule collapsed every burst to 1, so
    the fast driver paid a full O(M) scan per step)."""
    import os
    import sys
    bench = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from bench_perf_scale import run_storm
    __, stats = run_storm("fast", 8, 32, 12000)
    hist = stats["burst_histogram"]
    single = hist.get("0", 0) + hist.get("1", 0)
    multi = sum(count for label, count in hist.items()
                if label not in ("0", "1"))
    assert multi > single, hist  # median burst length > 1
    assert stats["heap_pushes"] > 0
    # every hog runs the same binary: one compile, shared ever after
    assert stats["cache_rebuilds"] == 1
    assert stats["shared_cache_hits"] > 0
    assert stats["traces_linked"] > 0


def test_horizon_memo_absorbs_mid_burst_activity():
    """note_activity mid-burst: a late peer event is absorbed O(1)
    (memo hit), an earlier one lowers the horizon in place, and the
    horizon machine itself moving away forces a recompute."""
    cluster = Cluster(engine="fast")
    a = cluster.add_machine("a")
    b = cluster.add_machine("b")
    c = cluster.add_machine("c")
    b.post_event(50_000.0, lambda: None)

    cluster._bursting = a  # pretend a is mid-burst
    cluster._recompute_horizon()
    assert cluster._horizon_src is b

    c.post_event(90_000.0, lambda: None)  # beyond the horizon
    assert cluster.perf.horizon_memo_hits == 1
    assert cluster._horizon_src is b
    assert not cluster._horizon_stale

    c.post_event(10_000.0, lambda: None)  # below: shrink in place
    assert cluster._horizon_src is c
    assert cluster._horizon[0] == 10_000.0
    assert not cluster._horizon_stale
    assert cluster.perf.horizon_invalidations == 1

    c.crash()  # the horizon machine vanishes: memo can't stand
    assert cluster._horizon_stale
    assert cluster.perf.horizon_invalidations == 2
    cluster._bursting = None
