"""Tests for loadd, the load-balancing daemon (DESIGN.md section 11).

Two halves:

* **property tests for the policy layer** — seeded ``random`` views
  and threshold parameters, no extra dependencies, holding
  :class:`ThresholdPolicy` to the contract :mod:`repro.apps.policy`
  documents: never a move from an idle host, never more than
  ``max_moves_per_round`` moves, decisions a pure function of the
  view (no mutation, no hidden state, same answer twice);
* **daemon tests** — loadd end to end on the simulated site: it
  samples, broadcasts, builds a view and migrates a job through
  migrationd; the userland fault sites are namespace-restricted; the
  whole subsystem is opt-in (a site that never starts loadd shows no
  trace of it).
"""

import random

import pytest

from repro.apps.policy import HostLoad, ThresholdPolicy
from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.errors import EINVAL, UnixError
from repro.net.loadd import (LOADD_PORT, MAX_CANDIDATES, SPOOL_DIR,
                             LoadReport)
from tests.conftest import run_native, start_counter

CASES = 150  #: random views per policy


# -- random view generation --------------------------------------------------


def _random_view(rng):
    """A random but well-formed load view (insertion-ordered)."""
    hosts = ["h%d" % i for i in range(rng.randrange(2, 9))]
    view = {}
    pid = 100
    for host in hosts:
        runnable = rng.randrange(0, 8)
        count = rng.randrange(0, runnable + 1)
        candidates = []
        for __ in range(count):
            candidates.append((pid, round(rng.random() * 5.0, 3)))
            pid += 1
        view[host] = HostLoad(host, runnable, tuple(candidates))
    return view


def _random_policy(rng):
    knobs = dict(min_cpu_seconds=rng.choice((0.0, 0.5, 2.0)),
                 max_moves_per_round=rng.randrange(0, 5),
                 imbalance_threshold=rng.randrange(0, 4))
    return "threshold %r" % (knobs,), ThresholdPolicy(**knobs)


# -- the policy contract, property-tested ------------------------------------


def test_policy_never_moves_from_an_idle_host():
    rng = random.Random(0x10AD)
    for case in range(CASES):
        view = _random_view(rng)
        name, policy = _random_policy(rng)
        for move in policy.select(view):
            label = "case %d (%s): %r" % (case, name, move)
            assert view[move.source].runnable > 0, label
            eligible = [pid for pid, cpu in view[move.source].candidates
                        if cpu >= policy.min_cpu_seconds]
            assert move.pid in eligible, label
            assert move.source != move.destination, label
            assert move.destination in view, label


def test_policy_never_exceeds_max_moves_per_round():
    rng = random.Random(0x10AE)
    for case in range(CASES):
        view = _random_view(rng)
        name, policy = _random_policy(rng)
        moves = policy.select(view)
        assert len(moves) <= policy.max_moves_per_round, \
            "case %d (%s): %r" % (case, name, moves)
        # a pid moves at most once per round
        pids = [m.pid for m in moves]
        assert len(pids) == len(set(pids))


def test_policy_is_a_pure_function_of_the_view():
    rng = random.Random(0x10AF)
    for case in range(CASES):
        view = _random_view(rng)
        name, policy = _random_policy(rng)
        before = {host: (view[host].runnable, view[host].candidates)
                  for host in view}
        first = policy.select(view)
        second = policy.select(view)
        assert first == second, "case %d (%s) not deterministic" % \
            (case, name)
        # the view was not mutated (HostLoad is frozen; the mapping
        # and the candidate tuples must come back untouched)
        after = {host: (view[host].runnable, view[host].candidates)
                 for host in view}
        assert after == before, "case %d (%s) mutated view" % \
            (case, name)


def test_policy_moves_strictly_reduce_the_spread():
    """Simulating each round's moves in order never inverts a pair:
    the source stays at least as loaded as the destination."""
    rng = random.Random(0x10B0)
    for case in range(CASES):
        view = _random_view(rng)
        name, policy = _random_policy(rng)
        runnable = {h: view[h].runnable for h in view}
        for move in policy.select(view):
            assert runnable[move.source] - runnable[move.destination] \
                >= 2, "case %d (%s): churn move %r" % (case, name, move)
            runnable[move.source] -= 1
            runnable[move.destination] += 1


# -- the daemon on the simulated site ----------------------------------------

#: shrunk knobs so daemon runs stay cheap in virtual time; the hogs
#: accumulate CPU fast, so a low candidate floor suffices
LOADD_KNOBS = dict(loadd_interval_s=1.0, loadd_rounds=6,
                   loadd_min_cpu_s=0.1, connect_backoff_s=0.5,
                   net_read_timeout_s=5.0, restart_poll_tries=30,
                   restart_poll_sleep_s=0.5)

#: iterations that keep a cpuhog busy well past a whole daemon run —
#: loadd's workload is CPU-bound jobs (interactive programs lose
#: their tty when migrated by a daemon, and the min-CPU floor is what
#: keeps loadd away from them in real configurations)
HOG_ITERS = 5_000_000


def _loadd_site(**overrides):
    knobs = dict(LOADD_KNOBS)
    knobs.update(overrides)
    site = MigrationSite(costs=CostModel(**knobs))
    site.run_quiet()
    return site


def _start_hogs(site, n, host="brick"):
    return [site.start(host, "/bin/cpuhog",
                       ["cpuhog", str(HOG_ITERS)], uid=100)
            for __ in range(n)]


def _await_loadd(site, handles, drain_us=3_000_000):
    """Run until every daemon exited, plus a bounded drain window so
    in-flight restarts and relays land (the hogs outlive all of it)."""
    site.run_until(lambda: all(h.exited for h in handles),
                   max_steps=80_000_000)
    site.run(until_us=site.cluster.wall_time_us() + drain_us,
             max_steps=80_000_000)


def _live_jobs(site, host):
    """Non-zombie VM jobs on ``host`` (hogs and restarted a.outs)."""
    kernel = site.machine(host).kernel
    return [p for p in kernel.procs.all_procs()
            if p.is_vm() and not p.zombie()]


def test_loadd_balances_a_loaded_host():
    """Three hogs on brick, none on schooner: loadd moves exactly one
    (spread 3 -> 1, then the anti-churn floor stops it — and the
    settling ledger stops the stale-report herd effect)."""
    site = _loadd_site()
    site.cluster.tracer.enable("loadd")
    _start_hogs(site, 3)
    handles = site.start_loadd()
    _await_loadd(site, handles)

    assert [h.exit_status for h in handles] == [0, 0]
    perf = site.cluster.perf
    assert perf.ld_moves == 1
    assert perf.ld_move_failures == 0
    assert perf.ld_rounds == 12      # 6 rounds x 2 daemons
    assert perf.ld_reports_sent >= 6
    # exactly one hog became an a.out on schooner, two stayed home
    moved = site.find_restarted("schooner")
    assert moved is not None and not moved.zombie()
    assert len(_live_jobs(site, "schooner")) == 1
    assert len(_live_jobs(site, "brick")) == 2
    # the balance rounds left spans in the loadd trace category
    spans = [e for e in site.cluster.tracer.events
             if e.get("cat") == "loadd" and e.get("span") == "E"]
    assert spans and all(e["ok"] == 1 for e in spans)


def test_loadd_settles_one_job_per_landing():
    """Six hogs on brick, two moves a round: each job landed on
    schooner counts while schooner's own report catches up, so three
    rounds end 3/3.  Counting the two landings as one job made the
    next round move two more and overshoot to 2/4."""
    site = _loadd_site(loadd_max_moves=2, loadd_rounds=3)
    _start_hogs(site, 6)
    handles = site.start_loadd()
    _await_loadd(site, handles)
    assert [h.exit_status for h in handles] == [0, 0]
    assert site.cluster.perf.ld_moves == 3
    assert len(_live_jobs(site, "brick")) == 3
    assert len(_live_jobs(site, "schooner")) == 3


def test_loadd_leaves_a_balanced_cluster_alone():
    """One hog per workstation: no spread, no moves, no churn."""
    site = _loadd_site()
    _start_hogs(site, 1, host="brick")
    _start_hogs(site, 1, host="schooner")
    handles = site.start_loadd()
    _await_loadd(site, handles)
    assert [h.exit_status for h in handles] == [0, 0]
    perf = site.cluster.perf
    assert perf.ld_moves == 0 and perf.ld_move_failures == 0
    assert site.find_restarted("schooner") is None
    assert site.find_restarted("brick") is None


def test_loadd_respects_the_min_cpu_floor():
    """Jobs below the candidate floor are never touched, however
    lopsided the cluster looks — the paper's 'running for more than a
    certain amount of time' rule."""
    site = _loadd_site(loadd_min_cpu_s=1e9)
    _start_hogs(site, 3)
    handles = site.start_loadd()
    _await_loadd(site, handles)
    assert [h.exit_status for h in handles] == [0, 0]
    assert site.cluster.perf.ld_moves == 0
    assert len(_live_jobs(site, "brick")) == 3
    assert site.find_restarted("schooner") is None


def test_loadd_takes_no_flags():
    """The schedule and the policy are knobs only: a flag is a usage
    error, and no balance round runs."""
    site = _loadd_site()
    handle = site.machine("brick").spawn(
        "/bin/loadd", ["loadd", "-n", "3", "brick", "schooner"],
        uid=0, cwd="/tmp")
    site.run_until(lambda: handle.exited, max_steps=1_000_000)
    assert handle.exit_status != 0
    assert "usage: loadd peer..." in site.console("brick")
    assert site.cluster.perf.ld_rounds == 0


def test_loadd_drops_corrupt_reports_and_survives():
    """A corrupted report is counted and dropped; the daemons finish
    their rounds and still balance with the clean ones."""
    site = _loadd_site()
    _start_hogs(site, 3)
    site.cluster.inject_faults("loadd.recv corrupt n=1", seed=11)
    handles = site.start_loadd()
    _await_loadd(site, handles)
    assert [h.exit_status for h in handles] == [0, 0]
    perf = site.cluster.perf
    assert perf.ld_reports_dropped >= 1
    assert perf.fault_corruptions == 1
    assert perf.ld_moves == 1        # later rounds still balanced


def test_loadd_off_leaves_no_trace():
    """The subsystem is opt-in: a site that never starts loadd has no
    spool directory, no ld_* activity and no loadd trace events."""
    site = MigrationSite()
    site.cluster.tracer.enable()
    site.run_quiet()
    handle = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: "> " in site.console("brick"))
    assert not handle.exited
    snapshot = site.cluster.perf.snapshot()
    assert all(v == 0 for k, v in snapshot.items()
               if k.startswith("ld_"))
    for name in ("brick", "schooner", "brador"):
        with pytest.raises(UnixError):
            site.machine(name).fs.resolve_local(SPOOL_DIR)
    assert not [e for e in site.cluster.tracer.events
                if e.get("cat") == "loadd"]


# -- the userland fault sites ------------------------------------------------


def test_fault_point_is_restricted_to_the_loadd_namespace(brick):
    """Userland programs may only arm loadd.* sites — the kernel's
    own sites cannot be poked from a native request."""
    results = []

    def prober(argv, env):
        results.append((yield ("fault_point", "dump.write.aout", "")))
        results.append((yield ("fault_data", "net.send", b"x", "")))
        results.append((yield ("fault_point", "loadd.send", "peer")))
        results.append((yield ("fault_data", "loadd.recv", b"ok", "")))
        return 0

    handle = run_native(brick, prober)
    assert handle.exit_status == 0
    assert results[0] == -EINVAL
    assert results[1] == -EINVAL
    assert results[2] == 0           # no plan armed: clean pass
    assert results[3] == b"ok"       # ...and data passes unmangled


def test_getproctab_reports_the_vm_flag(site):
    """loadd's sampler keys off the new per-row ``vm`` field."""
    start_counter(site)
    rows = []

    def sampler(argv, env):
        rows.extend((yield ("getproctab",)))
        return 0

    handle = run_native(site.machine("brick"), sampler,
                        name="sampler")
    assert handle.exit_status == 0
    by_command = {row["command"]: row for row in rows}
    assert by_command["counter"]["vm"] == 1
    assert by_command["sampler"]["vm"] == 0


def test_loadd_recv_spools_a_wire_report(site):
    """A report sent to the well-known port lands in the spool,
    byte-identical."""
    brick = site.machine("brick")
    recv = brick.spawn("/bin/loadd-recv", uid=0, cwd="/tmp")
    site.run(until_us=site.cluster.wall_time_us() + 200_000)
    report = LoadReport("schooner", 42, 3, [(7, 1500)])
    blob = report.pack()

    def sender(argv, env):
        from repro.programs.base import write_all
        sock = yield ("socket",)
        result = yield ("connect", sock, "brick", LOADD_PORT)
        assert result == 0
        yield from write_all(sock, blob)
        yield ("close", sock)
        return 0

    handle = run_native(site.machine("schooner"), sender,
                        name="sendreport")
    assert handle.exit_status == 0
    site.run(until_us=site.cluster.wall_time_us() + 2_000_000)
    spooled = brick.fs.read_file("%s/schooner" % SPOOL_DIR)
    assert spooled == blob
    assert LoadReport.unpack(spooled) == report
    assert site.cluster.perf.ld_reports_recv == 1
