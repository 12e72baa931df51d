"""Chaos suite for the fault-injection layer (DESIGN.md section 7).

Two halves:

* unit tests for the plan grammar and rule semantics — firing is a
  pure function of the plan, never of the clock;
* a scenario matrix driving a full daemon-based migration with one
  fault recipe armed, run with the driver checked step by step
  against the reference scan, and once more with the trace compiler
  off.  Every scenario must either *recover* (the migration completes
  despite the faults) or *degrade gracefully* (the pipeline gives up
  with a non-zero status) — and in all cases the invariants hold: no
  orphaned dump files anywhere, no zombie processes, the cluster
  still schedules work, and the two runs observed the *identical* run
  (same fault firings, same statuses, same virtual clocks).
"""

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.errors import ENOSPC, EIO, UnixError
from repro.faults import FaultPlan, FaultRule
from repro.faults.injector import _mangle
from tests.conftest import scan_checked, start_counter

#: knobs shrunk so degrade scenarios stay cheap in virtual time
FAST_KNOBS = dict(migrate_backoff_s=0.5, connect_backoff_s=0.5,
                  net_read_timeout_s=5.0, restart_poll_tries=30,
                  restart_poll_sleep_s=0.5)


# -- plan grammar and rule semantics ---------------------------------------


def test_parse_multi_clause_spec():
    plan = FaultPlan.parse("""
        # dump failures
        dump.write.files fail n=1 errno=ENOSPC
        net.read delay n=2 delay=0.8; nfs.read corrupt skip=1
        net.connect fail n=* host=brick
    """, seed=42)
    assert len(plan.rules) == 4
    first = plan.rules[0]
    assert (first.site, first.kind, first.count, first.errno) == \
        ("dump.write.files", "fail", 1, ENOSPC)
    assert plan.rules[1].delay_us == 800_000
    assert plan.rules[2].skip == 1
    last = plan.rules[3]
    assert last.count is None and last.host == "brick"
    # every rule got its own deterministic RNG
    assert all(r.rng is not None for r in plan.rules)


def test_parse_rejects_nonsense():
    with pytest.raises(ValueError):
        FaultPlan.parse("justasite")
    with pytest.raises(ValueError):
        FaultPlan.parse("fs.read explode n=1")
    with pytest.raises(ValueError):
        FaultPlan.parse("fs.read fail frequency=9")
    with pytest.raises(ValueError):
        FaultPlan.parse("fs.read fail errno=EWHATEVER")


def test_rule_counting_n_and_skip():
    rule = FaultRule("fs.read", "fail", count=2, skip=1)
    # hit 0 skipped; hits 1 and 2 fire; hit 3 is past the window
    assert [rule.note_hit() for __ in range(4)] == \
        [False, True, True, False]
    assert rule.fired == 2 and rule.seen == 4


def test_rule_count_star_fires_forever():
    rule = FaultRule("fs.read", "fail", count=None)
    assert all(rule.note_hit() for __ in range(10))


def test_rule_prefix_and_host_matching():
    rule = FaultRule("dump.write.*", "fail", host="brick")
    assert rule.matches("dump.write.aout", "brick")
    assert rule.matches("dump.write.stack", "brick")
    assert not rule.matches("dump.write.aout", "schooner")
    assert not rule.matches("fs.read", "brick")
    exact = FaultRule("net.read", "fail")
    assert exact.matches("net.read", "anyhost")
    assert not exact.matches("net.read.extra", "anyhost")


def test_mangle_kills_magic_and_is_seeded():
    import random
    blob = bytes(range(64))
    out1 = _mangle(blob, random.Random("7/0"))
    out2 = _mangle(blob, random.Random("7/0"))
    assert out1 == out2          # deterministic under the same seed
    assert out1 != blob
    assert out1[0] != blob[0] and out1[1] != blob[1]  # magic dead
    assert _mangle(b"", random.Random(0)) == b""


def test_injected_fault_raises_named_errno():
    from repro.machine import Cluster
    cluster = Cluster()
    brick = cluster.add_machine("brick")
    cluster.inject_faults("fs.kwrite fail n=1 errno=ENOSPC")
    with pytest.raises(UnixError) as err:
        brick.kernel.fault_check("fs.kwrite", "/tmp/x")
    assert err.value.errno == ENOSPC
    # the one-shot rule is spent: the next hit goes through
    brick.kernel.fault_check("fs.kwrite", "/tmp/x")
    assert cluster.perf.faults_injected == 1
    assert cluster.faults.hits["fs.kwrite"] == 2


# -- the chaos matrix -------------------------------------------------------

#: (name, fault spec, expectation).  Sites covered: dump.write.aout,
#: dump.write.files, dump.write.stack, fs.kwrite, nfs.read,
#: net.connect, net.read, net.send, proc.spawn, restproc.overlay
#: (10 sites); kinds covered: fail, delay, corrupt.
SCENARIOS = [
    ("aout-write-fails-once",
     "dump.write.aout fail n=1", "recovers"),
    ("files-write-corrupted-once",
     "dump.write.files corrupt n=1", "recovers"),
    ("stack-write-fails-once",
     "dump.write.stack fail n=1 errno=ENOSPC", "recovers"),
    ("disk-full-once-on-source",
     "fs.kwrite fail n=1 errno=ENOSPC host=brick", "recovers"),
    ("nfs-read-corrupted-once",
     "nfs.read corrupt n=1 host=schooner", "recovers"),
    ("nfs-read-fails-once",
     "nfs.read fail n=1 host=schooner", "recovers"),
    ("connect-refused-once",
     "net.connect fail n=1", "recovers"),
    ("network-reads-delayed",
     "net.read delay n=2 delay=0.8", "recovers"),
    ("network-send-delayed",
     "net.send delay n=1 delay=0.5", "recovers"),
    ("restart-overlay-fails-once",
     "restproc.overlay fail n=1", "recovers"),
    ("three-faults-one-migration",
     "dump.write.files fail n=1; net.connect fail n=1; "
     "restproc.overlay fail n=1", "recovers"),
    ("connect-always-refused",
     "net.connect fail n=*", "degrades"),
    ("command-line-corrupted",
     "net.send corrupt n=1", "degrades"),
    ("helper-spawn-fails",
     "proc.spawn fail n=1 host=brick", "degrades"),
    ("dump-never-writable",
     "dump.write.* fail n=*", "degrades"),
    ("restart-never-lands",
     "restproc.overlay fail n=*", "degrades"),
]


#: the low-volume trace categories enabled during chaos runs, so the
#: interpreter comparison also covers byte-identical JSONL traces
#: (the high-volume sched/syscall/net.msg firehose is exercised by
#: tests/test_obs.py instead — 16 scenarios x 2 runs of it would
#: dominate the suite's memory for no extra signal)
TRACE_CATEGORIES = ("fault", "hb", "dump", "restart", "migrate",
                    "recovery", "net.sock")


def _run_scenario(spec, seed):
    site = MigrationSite(costs=CostModel(**FAST_KNOBS))
    site.cluster.tracer.enable(*TRACE_CATEGORIES)
    site.run_quiet()
    victim = start_counter(site)
    plan = site.cluster.inject_faults(spec, seed=seed)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          use_daemon=True)
    site.run_quiet()
    return site, victim, plan, handle


def _orphan_dump_files(site):
    found = []
    for name in ("brick", "schooner", "brador"):
        machine = site.machine(name)
        try:
            tmp = machine.fs.resolve_local("/usr/tmp")
        except UnixError:
            continue
        for entry in sorted(machine.fs.entry_names(tmp)):
            if entry.startswith(("a.out", "files", "stack")):
                found.append("%s:%s" % (name, entry))
    return tuple(found)


def _zombies(site):
    found = []
    for name in ("brick", "schooner", "brador"):
        kernel = site.machine(name).kernel
        found.extend("%s:%d" % (name, p.pid)
                     for p in kernel.procs.all_procs() if p.zombie())
    return tuple(found)


def _summarize(site, victim, plan, handle):
    victim_proc = site.machine("brick").kernel.procs.lookup(victim.pid)
    perf = site.cluster.perf
    return {
        "status": handle.exit_status,
        "victim_alive": victim_proc is not None
        and not victim_proc.zombie(),
        "restarted": site.find_restarted("schooner") is not None,
        "orphans": _orphan_dump_files(site),
        "zombies": _zombies(site),
        "fired": plan.fired(),
        "faults_injected": perf.faults_injected,
        "retries": perf.retries,
        "timeouts": perf.timeouts,
        "clocks_us": tuple(site.machine(n).clock.now_us
                           for n in ("brick", "schooner", "brador")),
        # byte-identical across VMs (the trace determinism contract:
        # virtual-time stamps, deterministic event order)
        "trace_jsonl": site.cluster.tracer.to_jsonl(),
    }


@pytest.mark.parametrize("name,spec,expectation", SCENARIOS,
                         ids=[s[0] for s in SCENARIOS])
def test_chaos_scenario_on_both_engines(name, spec, expectation,
                                       interpreter):
    def run():
        site, victim, plan, handle = _run_scenario(spec, seed=1234)
        summary = _summarize(site, victim, plan, handle)

        # -- universal invariants ------------------------------------
        assert summary["orphans"] == (), \
            "%s left dump files: %r" % (name, summary["orphans"])
        assert summary["zombies"] == (), \
            "%s left zombies: %r" % (name, summary["zombies"])
        assert summary["fired"], \
            "%s: the fault plan never fired" % name
        # the cluster still schedules fresh work on both workstations
        for host in ("brick", "schooner"):
            assert site.run_command(host, ["ps"], uid=100) == 0

        # -- per-expectation outcome ---------------------------------
        if expectation == "recovers":
            assert summary["status"] == 0, \
                "%s: migration did not recover" % name
            assert summary["restarted"]
            assert not summary["victim_alive"]  # it moved
        else:
            assert summary["status"] != 0, \
                "%s: expected a graceful failure" % name
            assert not summary["restarted"]
        return summary

    # -- the reference schedule, and the interpreter saw the same run --
    summary = scan_checked(run)
    assert interpreter(run) == summary, \
        "%s: the interpreter disagrees with compiled traces" % name


def test_recovery_scenarios_consume_retry_counters():
    """The hardened pipeline reports its extra work on repro.perf."""
    site, victim, plan, handle = _run_scenario(
        "dump.write.files fail n=1; restproc.overlay fail n=1",
        seed=9)
    assert handle.exit_status == 0
    perf = site.cluster.perf
    assert perf.faults_injected >= 2
    assert perf.retries >= 2           # one dump retry, one restart retry
    snapshot = perf.snapshot()
    for key in ("faults_injected", "fault_delay_us",
                "fault_corruptions", "retries", "timeouts"):
        assert key in snapshot


def test_delay_faults_cost_virtual_time_only():
    """A delay rule slows the migration but cannot break it."""
    plain = _run_scenario("net.read delay n=0", seed=3)
    slowed = _run_scenario("net.read delay n=2 delay=2.0",
                           seed=3)
    assert plain[3].exit_status == 0 and slowed[3].exit_status == 0
    fired = sum(f[2] for f in slowed[2].fired())
    assert fired == 2
    assert slowed[0].cluster.perf.fault_delay_us == 2_000_000 * fired
    assert slowed[0].wall_seconds() > plain[0].wall_seconds()


def test_unfaulted_run_identical_to_no_plan():
    """Arming an empty plan must not perturb the simulation at all."""
    bare = _run_scenario("", seed=0)
    assert bare[3].exit_status == 0
    assert bare[0].cluster.perf.faults_injected == 0


# -- host-level chaos: crashes and partitions -------------------------------
#
# The crash/partition fault kinds (DESIGN.md section 8).  Every
# scenario is checked against the reference scan — a crashed host is
# still a deterministic event.


def test_parse_crash_and_partition_kinds():
    plan = FaultPlan.parse("""
        restproc.overlay crash n=1
        net.connect crash n=1 target=brador
        net.connect partition n=1 peer=schooner
    """)
    assert [r.kind for r in plan.rules] == \
        ["crash", "crash", "partition"]
    assert plan.rules[1].target == "brador"
    assert plan.rules[2].peer == "schooner"
    with pytest.raises(ValueError):
        FaultPlan.parse("net.connect partition n=1")  # peer missing


def _summarize_hosts(site, victim, plan, handle):
    """The outcome of a scenario where hosts die."""
    perf = site.cluster.perf
    hosts = ("brick", "schooner", "brador")
    summary = {
        "status": handle.exit_status if handle.exited else None,
        "alive": tuple(n for n in hosts if site.machine(n).running),
        "restarted": site.find_restarted("schooner") is not None,
        "fired": plan.fired(),
        "host_crashes": perf.host_crashes,
        "net_partitions": perf.net_partitions,
        "consoles": tuple(site.console(n) for n in hosts),
        "victim_alive": (site.machine("brick").running
                         and site.machine("brick").kernel.procs.lookup(
                             victim.pid) is not None),
    }
    # every surviving workstation still schedules fresh work
    for host in ("brick", "schooner"):
        if site.machine(host).running:
            assert site.run_command(host, ["ps"], uid=100) == 0
    return summary


def _host_scenario(spec, typed_on="schooner"):
    site = MigrationSite(costs=CostModel(**FAST_KNOBS))
    site.cluster.tracer.enable(*TRACE_CATEGORIES)
    site.run_quiet()
    victim = start_counter(site)
    plan = site.cluster.inject_faults(spec, seed=77)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on=typed_on, use_daemon=True,
                          wait_resumed=False)
    site.run_until(lambda: handle.exited, max_steps=20_000_000)
    site.run_quiet(max_steps=20_000_000)
    return site, victim, plan, handle


def test_crash_mid_dump_kills_the_source_host():
    """The source host dies while the dump files are being written:
    migrate degrades, the survivors keep working."""
    summary = scan_checked(
        lambda: _summarize_hosts(*_host_scenario(
            "dump.write.files crash n=1")))
    assert summary["alive"] == ("schooner", "brador")
    assert summary["status"] not in (None, 0)
    assert not summary["restarted"]
    assert summary["host_crashes"] == 1
    assert ("dump.write.files", "crash", 1) in summary["fired"]


def test_crash_mid_restart_kills_the_destination_host():
    """The destination dies inside rest_proc; migrate (typed on the
    surviving source) rolls the job back to the source."""
    def run():
        site, victim, plan, handle = _host_scenario(
            "restproc.overlay crash n=1", typed_on="brick")
        proc = site.find_restarted("brick")
        assert proc is not None and not proc.zombie() \
            and proc.command == "a.out%d" % victim.pid
        # the restored counter resumes where the dump left it
        site.type_at("brick", "two\n")
        site.run_until(lambda: "r=2 s=2 k=2" in site.console("brick"),
                       max_steps=10_000_000)
        return _summarize_hosts(site, victim, plan, handle)

    summary = scan_checked(run)
    assert summary["alive"] == ("brick", "brador")
    assert summary["status"] not in (None, 0)
    assert not summary["restarted"]
    # the dump consumed the victim and the restart never landed on
    # schooner: the pipeline said so instead of hanging, and restarted
    # the job on brick from its own dump (a new process, not the
    # victim's pid)
    assert summary["victim_alive"] is False
    assert "rolled back to brick" in summary["consoles"][0]


def test_crash_of_the_file_server_spares_the_migration():
    """brador (the NFS home-directory server) dies mid-migration; the
    workstation-to-workstation pipeline doesn't touch it and wins."""
    summary = scan_checked(
        lambda: _summarize_hosts(*_host_scenario(
            "net.connect crash n=1 target=brador")))
    assert summary["alive"] == ("brick", "schooner")
    assert summary["status"] == 0
    assert summary["restarted"]


def test_partition_during_migrate_then_heal():
    """A partition between the hosts makes connects time out; the
    victim survives in place, and after heal() the same migration
    succeeds."""
    def run():
        site, victim, plan, handle = _host_scenario(
            "net.connect partition n=1 peer=brick")
        assert handle.exit_status != 0
        # the victim never left: the dump request could not even
        # reach the source host
        proc = site.machine("brick").kernel.procs.lookup(victim.pid)
        assert proc is not None and not proc.zombie()
        site.cluster.heal()
        again = site.migrate(victim.pid, "brick", "schooner",
                             use_daemon=True)
        site.run_quiet(max_steps=20_000_000)
        assert again.exit_status == 0
        return _summarize_hosts(site, victim, plan, again)

    summary = scan_checked(run)
    assert summary["alive"] == ("brick", "schooner", "brador")
    assert summary["net_partitions"] == 1
    assert summary["restarted"]


def test_reboot_then_rejoin():
    """A crashed host comes back with a wiped /usr/tmp, re-serves its
    NFS exports, and (daemons restarted) accepts a migration."""
    from repro.programs import start_network_daemons

    def run():
        site = MigrationSite(costs=CostModel(**FAST_KNOBS))
        site.run_quiet()
        brick = site.machine("brick")
        brick.fs.install_file("/usr/tmp/stale", b"leftover")
        site.cluster.crash_host("brick")
        assert not brick.running
        # dead hosts export nothing
        with pytest.raises(UnixError):
            site.cluster.exported_fs("brick")
        site.run_quiet(max_steps=20_000_000)

        site.cluster.reboot_host("brick")
        assert brick.running
        with pytest.raises(UnixError):
            brick.fs.resolve_local("/usr/tmp/stale")  # wiped at boot
        start_network_daemons(brick)
        site.run_quiet()
        victim = start_counter(site, host="schooner")
        site.cluster.inject_faults("")  # no faults: clean rejoin
        handle = site.migrate(victim.pid, "schooner", "brick",
                              typed_on="brick", use_daemon=True)
        site.run_quiet(max_steps=20_000_000)
        assert handle.exit_status == 0
        assert site.find_restarted("brick") is not None
        perf = site.cluster.perf
        assert perf.host_crashes == 1 and perf.host_reboots == 1

    scan_checked(run)


# -- loadd chaos: the balancing daemon under report loss, delays, -----------
#    crashes and partitions (DESIGN.md section 11).  Every scenario
#    is checked against the reference scan, and the
#    exactly-one-live-copy invariant holds for every job: however the
#    reports are lost or mangled, no job is ever duplicated, and none
#    is lost short of a host crash.


LOADD_CHAOS_KNOBS = dict(loadd_interval_s=1.0, loadd_min_cpu_s=0.1,
                         connect_timeout_s=2.0, **FAST_KNOBS)

#: iterations that keep a cpuhog alive past every scenario cutoff
LOADD_HOG_ITERS = 5_000_000


def _loadd_scenario(spec, rounds=8, heal_after_us=None):
    site = MigrationSite(costs=CostModel(loadd_rounds=rounds,
                                         **LOADD_CHAOS_KNOBS))
    site.cluster.tracer.enable(*(TRACE_CATEGORIES + ("loadd",)))
    site.run_quiet()
    jobs = [site.start("brick", "/bin/cpuhog",
                       ["cpuhog", str(LOADD_HOG_ITERS)], uid=100)
            for __ in range(3)]
    plan = site.cluster.inject_faults(spec, seed=4321)
    handles = site.start_loadd()
    if heal_after_us is not None:
        site.run(until_us=site.cluster.wall_time_us() + heal_after_us,
                 max_steps=120_000_000)
        site.cluster.heal()
    names = ("brick", "schooner")
    site.run_until(
        lambda: all(h.exited for h, n in zip(handles, names)
                    if site.machine(n).running),
        max_steps=120_000_000)
    # a bounded drain window lets in-flight restarts and relays land;
    # the hogs outlive all of it, so live copies are countable
    site.run(until_us=site.cluster.wall_time_us() + 3_000_000,
             max_steps=120_000_000)
    return site, jobs, plan, handles


def _job_copies(site, jobs):
    """Where each original job is live right now: still a cpuhog
    under its own pid on brick, or a restarted ``a.out<pid>`` on any
    surviving host (loadd and its local-restart fallback both keep
    the original pid in the image name)."""
    copies = {h.pid: [] for h in jobs}
    for name in ("brick", "schooner", "brador"):
        machine = site.machine(name)
        if not machine.running:
            continue
        for proc in machine.kernel.procs.all_procs():
            if not proc.is_vm() or proc.zombie():
                continue
            if (name == "brick" and proc.command == "cpuhog"
                    and proc.pid in copies):
                copies[proc.pid].append(name)
            elif proc.command.startswith("a.out"):
                try:
                    orig = int(proc.command[len("a.out"):])
                except ValueError:
                    continue
                if orig in copies:
                    copies[orig].append(name)
    return {pid: tuple(hosts) for pid, hosts in copies.items()}


def _summarize_loadd(site, jobs, plan, handles):
    perf = site.cluster.perf
    snapshot = perf.snapshot()
    return {
        "statuses": tuple(h.exit_status if h.exited else None
                          for h in handles),
        "copies": _job_copies(site, jobs),
        "alive": tuple(n for n in ("brick", "schooner", "brador")
                       if site.machine(n).running),
        "fired": plan.fired(),
        "ld": {k: v for k, v in snapshot.items()
               if k.startswith("ld_")},
        "host_crashes": perf.host_crashes,
        "net_partitions": perf.net_partitions,
        "fault_delay_us": perf.fault_delay_us,
    }


def test_loadd_chaos_report_loss_leaves_jobs_in_place():
    """Every report is lost: each daemon only ever sees itself, so no
    moves happen and every job stays exactly where it was."""
    summary = scan_checked(
        lambda: _summarize_loadd(*_loadd_scenario(
            "loadd.send fail n=*")))
    assert summary["statuses"] == (0, 0)
    assert all(hosts == ("brick",)
               for hosts in summary["copies"].values())
    assert summary["ld"]["ld_moves"] == 0
    assert summary["ld"]["ld_reports_sent"] == 0
    assert summary["ld"]["ld_reports_dropped"] == 16  # 8 rounds x 2
    assert ("loadd.send", "fail", 16) in summary["fired"]


def test_loadd_chaos_delayed_reports_still_balance():
    """Delivery delays shift the rounds but the view still forms:
    exactly one job moves, none is lost or duplicated."""
    summary = scan_checked(
        lambda: _summarize_loadd(*_loadd_scenario(
            "loadd.recv delay n=4 delay=0.4")))
    assert summary["statuses"] == (0, 0)
    assert summary["ld"]["ld_moves"] == 1
    assert summary["ld"]["ld_move_failures"] == 0
    assert summary["fault_delay_us"] == 4 * 400_000
    placements = sorted(summary["copies"].values())
    assert placements == [("brick",), ("brick",), ("schooner",)]


def test_loadd_chaos_host_crash_mid_balance():
    """The destination dies at the first report exchange: no report
    ever crosses, so nothing moves toward the corpse; the failure
    detector kicks in and the jobs all survive at home."""
    summary = scan_checked(
        lambda: _summarize_loadd(*_loadd_scenario(
            "loadd.send crash n=1 target=schooner")))
    assert summary["alive"] == ("brick", "brador")
    assert summary["host_crashes"] == 1
    assert summary["ld"]["ld_moves"] == 0
    assert summary["ld"]["ld_suspect_skips"] >= 1
    assert all(hosts == ("brick",)
               for hosts in summary["copies"].values())
    # brick's daemon finished its rounds despite the dead peer
    assert summary["statuses"][0] == 0


def test_loadd_chaos_partition_then_heal_balances_late():
    """A partition cuts the report flow mid-run; after heal() the
    reports resume and the overdue balance lands — exactly one copy
    of every job throughout."""
    summary = scan_checked(
        lambda: _summarize_loadd(*_loadd_scenario(
            "loadd.send partition n=1 host=brick peer=schooner",
            rounds=12, heal_after_us=6_000_000)))
    assert summary["statuses"] == (0, 0)
    assert summary["alive"] == ("brick", "schooner", "brador")
    assert summary["net_partitions"] == 1
    assert summary["ld"]["ld_moves"] == 1
    placements = sorted(summary["copies"].values())
    assert placements == [("brick",), ("brick",), ("schooner",)]


def test_double_recovery_race_partition_then_heal():
    """The exactly-once guarantee: a partitioned-away recovery daemon
    claims the job with a higher epoch; the home ckptd sees the claim
    (the file server stayed reachable) and kills its copy.  After the
    heal exactly one live copy exists cluster-wide."""
    from repro.programs.exitcodes import EX_FENCED

    def run():
        site = MigrationSite(costs=CostModel(**FAST_KNOBS))
        site.run_quiet()
        site.machine("brador").fs.makedirs("/tmp/ckpt", mode=0o777)
        victim = start_counter(site)
        job_dir = "/n/brador/tmp/ckpt/job1"
        ckptd = site.machine("brick").spawn(
            "/bin/ckptd", ["ckptd", str(victim.pid), "3", "5",
                           job_dir], uid=100, cwd="/tmp")
        recoveryd = site.machine("schooner").spawn(
            "/bin/recoveryd", ["recoveryd", "-i", "1", "-n", "40",
                               "/n/brador/tmp/ckpt"], uid=100,
            cwd="/tmp")
        site.run_until(
            lambda: "checkpoint 0 taken" in site.console("brick"),
            max_steps=20_000_000)
        # cut brick off from schooner only — brador (where the
        # checkpoints and the fence live) stays reachable from both
        site.cluster.partition("brick", "schooner")
        site.run_until(lambda: ckptd.exited and recoveryd.exited,
                       max_steps=40_000_000)
        site.cluster.heal()
        site.run_quiet(max_steps=20_000_000)

        assert ckptd.exit_status == EX_FENCED
        assert "fenced at epoch 0" in site.console("brick")
        assert "recoveryd: recovered" in site.console("schooner")
        # exactly one live copy of the job in the whole cluster
        live = []
        for name in ("brick", "schooner", "brador"):
            kernel = site.machine(name).kernel
            live.extend(
                "%s:%d" % (name, p.pid)
                for p in kernel.procs.all_procs()
                if p.is_vm() and p.command.startswith("a.out")
                and not p.zombie())
        assert len(live) == 1 and live[0].startswith("schooner:")
        perf = site.cluster.perf
        assert perf.recoveries == 1
        assert perf.hb_suspects >= 1

    scan_checked(run)


# -- statd chaos: the telemetry pipeline under report loss, spool ------------
#    delays and host crashes (DESIGN.md section 13).  Telemetry is
#    best-effort by design: every scenario leaves the daemons exiting
#    cleanly and the cluster scheduling work, and the driver keeps to
#    the reference schedule.


STATD_CHAOS_KNOBS = dict(stat_interval_s=1.0, stat_rounds=6,
                         stat_stale_s=30.0, **FAST_KNOBS)


def _statd_scenario(spec, rounds=None):
    knobs = dict(STATD_CHAOS_KNOBS)
    if rounds is not None:
        knobs["stat_rounds"] = rounds
    site = MigrationSite(costs=CostModel(**knobs))
    site.cluster.tracer.enable(*(TRACE_CATEGORIES + ("statd",)))
    site.run_quiet()
    plan = site.cluster.inject_faults(spec, seed=4321)
    handles = site.start_statd()
    statds = [h for h in handles if h.proc.command == "statd"]
    names = ("brick", "schooner")
    site.run_until(
        lambda: all(h.exited for h, n in zip(statds, names)
                    if site.machine(n).running),
        max_steps=120_000_000)
    site.run(until_us=site.cluster.wall_time_us() + 3_000_000,
             max_steps=120_000_000)
    return site, plan, statds


def _statd_spool(site):
    """The spooled report bytes per host, from the server's disk."""
    from repro.net.statd import SPOOL_DIR, spool_path
    server = site.machine("brador")
    spool = {}
    for name in ("brick", "schooner"):
        try:
            spool[name] = server.fs.read_file(
                spool_path(SPOOL_DIR, name))
        except UnixError:
            spool[name] = None
    return spool


def _summarize_statd(site, plan, handles):
    perf = site.cluster.perf
    snapshot = perf.snapshot()
    return {
        "statuses": tuple(h.exit_status if h.exited else None
                          for h in handles),
        "alive": tuple(n for n in ("brick", "schooner", "brador")
                       if site.machine(n).running),
        "fired": plan.fired(),
        "spool": _statd_spool(site),
        "st": {k: v for k, v in snapshot.items()
               if k.startswith("st_")},
        "host_crashes": perf.host_crashes,
        "fault_delay_us": perf.fault_delay_us,
    }


def test_statd_chaos_report_loss_leaves_spool_empty():
    """Every report is lost in flight: sampling continues unharmed,
    nothing reaches the spool, every loss is counted."""
    summary = scan_checked(
        lambda: _summarize_statd(*_statd_scenario(
            "statd.send fail n=*")))
    assert summary["statuses"] == (0, 0)
    assert summary["st"]["st_samples"] == 12  # 6 rounds x 2 daemons
    assert summary["st"]["st_reports_sent"] == 0
    assert summary["st"]["st_reports_dropped"] == 12
    assert summary["st"]["st_reports_recv"] == 0
    assert summary["spool"] == {"brick": None, "schooner": None}
    assert ("statd.send", "fail", 12) in summary["fired"]


def test_statd_chaos_spool_delay_still_lands():
    """A slow spool shifts virtual time but loses nothing: every
    report still lands and the delay is pure virtual time."""
    summary = scan_checked(
        lambda: _summarize_statd(*_statd_scenario(
            "statd.spool delay n=2 delay=0.4")))
    assert summary["statuses"] == (0, 0)
    assert summary["st"]["st_reports_sent"] == 12
    assert summary["st"]["st_reports_recv"] == 12
    assert summary["st"]["st_reports_dropped"] == 0
    assert summary["fault_delay_us"] == 2 * 400_000
    assert summary["spool"]["brick"] is not None
    assert summary["spool"]["schooner"] is not None


def test_statd_chaos_server_crash_mid_report():
    """The file server dies on the first report: the spool dies with
    it, the daemons shrug — they skip the suspect spooler, finish
    their rounds and exit cleanly."""
    summary = scan_checked(
        lambda: _summarize_statd(*_statd_scenario(
            "statd.send crash n=1 target=brador",
            rounds=10)))
    assert summary["alive"] == ("brick", "schooner")
    assert summary["host_crashes"] == 1
    assert summary["statuses"] == (0, 0)
    assert summary["st"]["st_reports_recv"] == 0
    assert summary["st"]["st_samples"] == 20
    assert summary["st"]["st_suspect_skips"] >= 1
    assert summary["spool"] == {"brick": None, "schooner": None}
