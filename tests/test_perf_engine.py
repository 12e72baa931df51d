"""The fast path: horizon batching, decode cache, satellites.

Two drivers; the VM is chosen separately.  The heap driver
(``engine="fast"``) and the compiled-trace VM (``CPU.use_predecode``)
must each be *invisible* in virtual time: every driver test here pins
some part of the contract that the reference scan driver defines and
the heap driver must reproduce, on whichever VM the CPUs run.
"""

import pytest

from repro.core.api import MigrationSite
from repro.machine.cluster import Cluster, SimulationStuck
from repro.programs.guest.cpuhog import expected_checksum
from tests.conftest import drivers_agree


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
    the same number of events on both drivers."""
    def run(engine):
        cluster = Cluster(engine=engine)
        a = cluster.add_machine("a")
        log = []
        for t in range(10):
            a.post_event(float(t * 100), lambda: log.append(len(log)))
        cluster.run_until(lambda: len(log) >= 3, max_steps=100)
        return len(log)
    assert drivers_agree(run) == 3


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

    drivers_agree(drive)


def test_clock_moved_outside_the_driver_rekeys_the_heap():
    """A clock advanced from outside the driver (as sync_clocks does)
    moves a machine's next action past its heap key: the heap driver
    re-keys the entry instead of picking the machine early."""
    def run(engine):
        cluster = Cluster(engine=engine)
        a = cluster.add_machine("a")
        b = cluster.add_machine("b")
        log = []
        for machine, when in ((a, 10.0), (a, 100.0), (b, 500.0)):
            machine.post_event(when, lambda m=machine: log.append(
                (m.name, m.clock.now_us)))
        cluster.run_until(lambda: log, max_steps=10)
        a.clock.advance_to(1000.0)
        cluster.run(max_steps=10)
        return log
    assert drivers_agree(run) == [("a", 10.0), ("b", 500.0), ("a", 1000.0)]


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
    """Both drivers answer one status protocol (``Cluster._run``): a
    time bound, a predicate that turns true on the last allowed step,
    an exhausted step bound, and idle with the predicate false."""
    def run(engine):
        cluster = Cluster(engine=engine)
        a = cluster.add_machine("a")
        assert cluster.run(max_steps=10) is True  # idle is not an error
        with pytest.raises(SimulationStuck, match="idle"):
            cluster.run_until(lambda: False, max_steps=10)
        fired = []
        for t in range(10):
            a.post_event(float(t * 1000),
                         lambda: fired.append(a.clock.now_us))
        statuses = [
            cluster._run(100, until_us=2500),
            cluster._run(2, predicate=lambda: len(fired) >= 6),
            cluster._run(1, predicate=lambda: False),
        ]
        assert len(fired) == 7
        # the public wrappers: success on the last allowed step, a
        # stuck step bound, and the time bound
        cluster.run_until(lambda: len(fired) >= 8, max_steps=1)
        with pytest.raises(SimulationStuck, match="exceeded"):
            cluster.run_until(lambda: False, max_steps=1)
        assert cluster.run(until_us=9500) is True
        statuses.append(cluster._run(100, predicate=lambda: False))
        return statuses, fired, cluster.wall_time_us()

    statuses, fired, wall_us = drivers_agree(run)
    assert statuses == ["until", "predicate", "steps", "idle"]
    assert fired == [t * 1000.0 for t in range(10)]
    assert wall_us == 9000.0


def _bench_module():
    """``benchmarks/bench_perf_scale.py``, imported as a module."""
    import os
    import sys
    bench = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import bench_perf_scale
    return bench_perf_scale


def test_storm_burst_median_exceeds_one():
    """Regression for the 1-step-burst pathology: under the overlap
    window, the benchmark storm's typical burst must be longer than a
    single step (the old horizon rule collapsed every burst to 1, so
    the fast driver paid a full O(M) scan per step)."""
    __, stats = _bench_module().run_storm("fast", 8, 32, 12000)
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


# -- the process-wide caches behind each cluster ---------------------------


def _observed_lazy_migration():
    """One traced migration of a cpuhog carrying an untouched 64 KB
    buffer, restarted lazily (so both trace variants run and lazy bails
    leave pcs to the interpreter); returns everything the run lets
    anyone observe."""
    from repro.costmodel import CostModel
    from repro.programs.guest import cpuhog
    from repro.programs.guest.libasm import program
    costs = CostModel().with_overrides(incremental_dumps=True,
                                       lazy_restart=True)
    site = MigrationSite(costs)
    site.cluster.tracer.enable()
    site.run_quiet()
    aout = program(cpuhog.BODY,
                   cpuhog.DATA + "bigbuf: .space 65536\n").aout
    for name in ("brick", "schooner"):
        site.machine(name).install_aout("bighog", aout)
    handle = site.start("brick", "/bin/bighog", ["bighog", "60000"])
    site.run(until_us=site.cluster.wall_time_us() + 100_000)
    site.dumpproc("brick", handle.pid)
    moved = site.restart("schooner", handle.pid, from_host="brick")
    site.run_until(lambda: moved.exited)
    machines = site.cluster.machines
    observed = {
        "perf": site.cluster.perf.snapshot(),
        "clocks": {name: m.clock.now_us for name, m in machines.items()},
        "consoles": {name: site.console(name) for name in machines},
        "trace": site.cluster.tracer.to_jsonl(),
    }
    # last: the pseudo-call charges the calling host's clock
    observed["vmcache"] = site.machine("brick").kernel.sys_vmcache(None)
    return observed


def test_process_wide_caches_are_invisible(fresh_code_caches):
    """A cluster's counters, vmcache reply, trace and clocks are the
    same whether the process-wide assembly memo and trace store start
    cold, warm from an identical run, or cleared again."""
    from tests.conftest import clear_process_caches
    cold = _observed_lazy_migration()
    warm = _observed_lazy_migration()
    clear_process_caches()
    cleared = _observed_lazy_migration()
    assert cold["perf"]["blocks_compiled"] > 0
    assert cold["perf"]["lazy_faults"] > 0
    assert cold["vmcache"]["cached_texts"] > 0
    assert ("checksum=%d" % expected_checksum(60000)) \
        in cold["consoles"]["schooner"]
    for key in cold:
        assert warm[key] == cold[key], key
        assert cleared[key] == cold[key], key


def test_storm_counters_survive_an_earlier_storm(fresh_code_caches):
    """The burst-median storm's counter assertions hold in a process
    where another storm already compiled every cpuhog trace."""
    _bench_module().run_storm("fast", 2, 4, 12000)
    test_storm_burst_median_exceeds_one()


def test_storm_roots_no_trace_in_the_quantum_tail(monkeypatch,
                                                  fresh_code_caches):
    """A pc reached with less budget left than its trace's entry block
    does not root the trace yet: in a storm, the cpuhog's entry holds no
    trace whose every call bailed with zero progress.  Virtual time is
    unaffected (the engine tests pin fast == scan)."""
    from repro.vm import cpu as cpu_module
    from repro.vm.predecode import INTERP, SIG_BAIL
    compile_trace = cpu_module.compile_trace
    calls = {}  # entry pc -> [(executed, sig)] for each call

    def recording(model, image, entry, lazy=False):
        fn, ndecoded, nlinked = compile_trace(model, image, entry,
                                              lazy=lazy)
        if fn is INTERP:
            return fn, ndecoded, nlinked
        log = calls.setdefault(entry, [])

        def trace(*args):
            result = fn(*args)
            log.append((result[0], result[4]))
            return result
        trace.__dict__.update(fn.__dict__)
        return trace, ndecoded, nlinked

    monkeypatch.setattr(cpu_module, "compile_trace", recording)
    _bench_module().run_storm("fast", 8, 32, 12000)
    # a trace the entry holds ran at once when it was rooted; one that
    # was compiled but never called was never rooted
    held = {entry: log for entry, log in calls.items() if log}
    assert len(held) > 1
    tail_only = sorted(hex(entry) for entry, log in held.items()
                       if all(n == 0 and sig == SIG_BAIL
                              for n, sig in log))
    assert not tail_only


def _loop_image(k):
    """A fresh image whose text (an endless counting loop) is distinct
    for every ``k``."""
    from repro.vm import ProcessImage, assemble, parse_aout
    out = assemble("start: move #%d, d0\nloop: add #1, d1\n"
                   "        bra loop\n" % k)
    header, text, __ = parse_aout(out.aout)
    image = ProcessImage(mem_size=64 * 1024)
    image.text_size = header.text_size
    image.write_bytes(image.text_base, text)
    image.regs.pc = header.entry
    image.regs.sp = image.stack_top
    return image


def test_trace_store_evicts_oldest_first(monkeypatch, fresh_code_caches):
    """The store never holds more than STORE_TEXTS texts and drops the
    oldest first; a cluster whose text was dropped keeps running on the
    traces its own view holds, without recompiling or re-storing."""
    from repro.vm import cpu as cpu_module
    from repro.vm import CPU, MC68010
    monkeypatch.setattr(cpu_module, "STORE_TEXTS", 3)
    first_cpu = CPU(MC68010)
    first = _loop_image(0)
    first_cpu.run(first, 100)
    keys = [first_cpu.code_cache.key_for(MC68010, first, False)]
    for k in range(1, 6):
        cpu, image = CPU(MC68010), _loop_image(k)
        cpu.run(image, 100)
        keys.append(cpu.code_cache.key_for(MC68010, image, False))
        assert len(cpu_module._STORE) <= 3
    assert list(cpu_module._STORE) == keys[-3:]

    def no_compiles(*args, **kwargs):
        raise AssertionError("recompiled an evicted text")
    monkeypatch.setattr(cpu_module, "compile_trace", no_compiles)
    counted = first.regs.d[1]
    first.regs.pc = first.text_base  # re-enter at the compiled entry
    first_cpu.run(first, 1000)
    assert first.regs.d[1] > counted
    assert keys[0] not in cpu_module._STORE
