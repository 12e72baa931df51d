"""Tests for the section 8 applications."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (CheckpointManager, HostLoad, LoadBalancer,
                        LoadBalancerPolicy, Move,
                        NightBatchScheduler)
from repro.core.api import MigrationSite
from repro.programs.guest.cpuhog import expected_checksum
from tests.conftest import start_counter


# -- checkpointing ---------------------------------------------------------


def test_checkpoint_and_resume(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    manager = CheckpointManager(site, "brick", uid=100)
    record, resumed = manager.checkpoint(handle.pid)
    assert record.index == 0
    assert resumed.proc.is_vm()
    # the job continues where it was
    site.type_at("brick", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))


def test_checkpoint_archives_dump_and_files(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    manager = CheckpointManager(site, "brick", uid=100)
    record, __ = manager.checkpoint(handle.pid)
    brick = site.machine("brick")
    for path in record.saved_dump_names():
        assert brick.fs.read_file(path)
    # the open output file was snapshotted
    copies = {orig.split("/")[-1]: saved
              for orig, saved in record.file_copies.items()}
    assert "counter.out" in copies
    assert brick.fs.read_file(copies["counter.out"]) == b"one\n"


def test_restore_nth_checkpoint_with_file_rollback(site):
    """Restore an old checkpoint: the data file is rolled back so the
    program sees a consistent world (the paper's whole point)."""
    handle = start_counter(site)
    manager = CheckpointManager(site, "brick", uid=100)

    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    ck0, resumed = manager.checkpoint(handle.pid)

    site.type_at("brick", "two\n")
    site.run_until(lambda: "r=3" in site.console("brick"))
    brick = site.machine("brick")
    assert brick.fs.read_file("/tmp/counter.out") == b"one\ntwo\n"
    # kill the live process (the "crash")
    from repro.kernel.signals import SIGKILL
    brick.kernel.post_signal(resumed.proc, SIGKILL)
    site.run_until(lambda: resumed.exited)

    # restore checkpoint 0: file content rolled back to "one\n"
    revived = manager.restore(0)
    assert revived.proc.is_vm()
    assert brick.fs.read_file("/tmp/counter.out") == b"one\n"
    brick.console.clear_output()
    site.type_at("brick", "again\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))
    assert brick.fs.read_file("/tmp/counter.out") == b"one\nagain\n"


def test_restore_on_another_machine(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    manager = CheckpointManager(site, "brick", uid=100)
    ck, resumed = manager.checkpoint(handle.pid)
    from repro.kernel.signals import SIGKILL
    site.machine("brick").kernel.post_signal(resumed.proc, SIGKILL)
    site.run_until(lambda: resumed.exited)
    revived = manager.restore(ck, host="schooner")
    assert revived.proc.is_vm()
    site.type_at("schooner", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("schooner"))


def test_multiple_checkpoints_accumulate(site):
    handle = start_counter(site)
    manager = CheckpointManager(site, "brick", uid=100)
    pid = handle.pid
    for round_no in range(3):
        site.type_at("brick", "x\n")
        site.run_until(
            lambda: site.console("brick").count("> ") >= round_no + 2)
        record, resumed = manager.checkpoint(pid)
        pid = resumed.pid
    assert [c.index for c in manager.checkpoints] == [0, 1, 2]


# -- load balancing ----------------------------------------------------------------


def hog(site, host, iters, uid=100):
    handle = site.start(host, "/bin/cpuhog",
                        ["cpuhog", str(iters)], uid=uid)
    return handle


def test_balancer_measures_load(site):
    balancer = LoadBalancer(site, ["brick", "schooner"], uid=100)
    assert balancer.loads() == {"brick": 0, "schooner": 0}
    hog(site, "brick", 400_000)
    hog(site, "brick", 400_000)
    assert balancer.load_of("brick") == 2
    assert balancer.load_of("schooner") == 0


def test_balancer_moves_old_enough_jobs(site):
    balancer = LoadBalancer(
        site, ["brick", "schooner"], uid=100,
        policy=LoadBalancerPolicy(min_cpu_seconds=0.2,
                                  imbalance_threshold=2))
    h1 = hog(site, "brick", 3_000_000)
    h2 = hog(site, "brick", 3_000_000)
    # too young: nothing moves
    assert balancer.step() == []
    # let them accumulate CPU
    site.run(until_us=site.cluster.wall_time_us() + 1_000_000)
    moves = balancer.step()
    assert len(moves) == 1
    assert moves[0].source == "brick"
    assert moves[0].destination == "schooner"
    assert balancer.loads() == {"brick": 1, "schooner": 1}


def test_balancing_preserves_results(site):
    """A migrated hog computes the same checksum it would have."""
    iters = 600_000
    h1 = hog(site, "brick", iters)
    h2 = hog(site, "brick", iters)
    site.run(until_us=site.cluster.wall_time_us() + 1_500_000)
    balancer = LoadBalancer(
        site, ["brick", "schooner"], uid=100,
        policy=LoadBalancerPolicy(min_cpu_seconds=0.2))
    moves = balancer.step()
    assert moves
    moved = moves[0].new_proc
    site.run_until(lambda: moved.zombie(), max_steps=10_000_000)
    expected = "checksum=%d" % expected_checksum(iters)
    assert expected in site.console("schooner")


def _checksum_by_loop(iterations):
    """The guest's loop, run on the host: the oracle's reference."""
    total = 0
    for i in range(1, iterations + 1):
        total = (total + ((i * 7) + 3) % 123) & 0xFFFFFFFF
    if total & 0x80000000:
        total -= 1 << 32
    return total


def test_expected_checksum_matches_the_loop():
    storm_ladder = [40_000 + 640 * k for k in range(32)]
    for n in [*range(-3, 4 * 123), *storm_ladder, 12_000, 60_000, 600_000]:
        assert expected_checksum(n) == _checksum_by_loop(n), n


@given(n=st.integers(min_value=0, max_value=10 ** 12))
@settings(max_examples=200, deadline=None)
def test_expected_checksum_adds_one_period_sum_per_period(n):
    """Any 123 consecutive iterations add 0 + 1 + ... + 122."""
    step = expected_checksum(n + 123) - expected_checksum(n)
    assert step % 2 ** 32 == 7503


def test_expected_checksum_is_closed_form():
    """A loop over 10**12 iterations would never return."""
    periods, rest = divmod(10 ** 12, 123)
    step = expected_checksum(10 ** 12) - _checksum_by_loop(rest)
    assert step % 2 ** 32 == periods * 7503 % 2 ** 32


def test_balancing_improves_makespan():
    """Two hogs on one machine finish sooner if one is moved —
    the paper's future-work 'systemwide application' measurement."""
    iters = 800_000

    def run_one(balance):
        site = MigrationSite(daemons=False)
        h1 = hog(site, "brick", iters)
        h2 = hog(site, "brick", iters)
        site.run(until_us=500_000)
        if balance:
            balancer = LoadBalancer(
                site, ["brick", "schooner"], uid=100,
                policy=LoadBalancerPolicy(min_cpu_seconds=0.1))
            assert balancer.step()
        site.run_until(lambda: h1.exited and all(
            p.zombie() or not p.is_vm()
            for m in site.cluster.machines.values()
            for p in m.kernel.procs.all_procs()),
            max_steps=30_000_000)
        return site.wall_seconds()

    unbalanced = run_one(False)
    balanced = run_one(True)
    assert balanced < unbalanced * 0.75


# -- policy edge cases (pure, no site) ---------------------------------------


def _view(*entries):
    """Build an insertion-ordered view from (host, runnable, jobs)."""
    return {host: HostLoad(host, runnable, tuple(jobs))
            for host, runnable, jobs in entries}


def test_policy_tie_breaking_prefers_the_first_listed_host():
    """Equally-busy hosts: the one listed first in the view sheds;
    flipping the view order flips the decision — deterministic, no
    RNG, no clock."""
    policy = LoadBalancerPolicy(min_cpu_seconds=0.0)
    brick = ("brick", 3, [(1, 1.0), (2, 2.0), (3, 3.0)])
    schooner = ("schooner", 3, [(4, 1.0)])
    idle = ("brador", 0, [])
    # the busiest candidate (most CPU) of the first-listed host moves
    assert policy.select(_view(brick, schooner, idle)) == \
        [Move(3, "brick", "brador")]
    assert policy.select(_view(schooner, brick, idle)) == \
        [Move(4, "schooner", "brador")]
    # equally-idle destinations tie-break the same way
    two_idle = _view(brick, ("x", 0, []), ("y", 0, []))
    assert policy.select(two_idle) == [Move(3, "brick", "x")]


def test_policy_min_cpu_seconds_boundary():
    """Exactly at the floor is eligible; a hair below is not."""
    policy = LoadBalancerPolicy(min_cpu_seconds=0.5)
    at_floor = _view(("brick", 2, [(1, 0.5), (2, 0.499)]),
                     ("schooner", 0, []))
    assert policy.select(at_floor) == [Move(1, "brick", "schooner")]
    below = _view(("brick", 2, [(1, 0.499), (2, 0.3)]),
                  ("schooner", 0, []))
    assert policy.select(below) == []


def test_policy_zero_threshold_never_churns():
    """imbalance_threshold=0 must not ping-pong jobs between equally
    (or nearly equally) busy hosts: a move still has to strictly
    improve the spread."""
    policy = LoadBalancerPolicy(min_cpu_seconds=0.0,
                                imbalance_threshold=0,
                                max_moves_per_round=8)
    equal = _view(("brick", 2, [(1, 1.0), (2, 1.0)]),
                  ("schooner", 2, [(3, 1.0), (4, 1.0)]))
    assert policy.select(equal) == []
    off_by_one = _view(("brick", 2, [(1, 1.0), (2, 1.0)]),
                       ("schooner", 1, [(3, 1.0)]))
    assert policy.select(off_by_one) == []
    # ...but a real spread still gets balanced
    lopsided = _view(("brick", 2, [(1, 1.0), (2, 1.0)]),
                     ("schooner", 0, []))
    assert policy.select(lopsided) == [Move(1, "brick", "schooner")]


def test_policy_max_moves_per_round_saturation():
    """A big allowance stops at the useful spread; a small one stops
    at the allowance."""
    jobs = [(pid, float(pid)) for pid in range(1, 7)]
    lopsided = _view(("brick", 6, jobs), ("schooner", 0, []))
    greedy = LoadBalancerPolicy(min_cpu_seconds=0.0,
                                max_moves_per_round=10)
    moves = greedy.select(lopsided)
    # 6/0 -> 5/1 -> 4/2 -> 3/3: the fourth move would not improve
    assert len(moves) == 3
    assert [m.pid for m in moves] == [6, 5, 4]  # busiest first
    capped = LoadBalancerPolicy(min_cpu_seconds=0.0,
                                max_moves_per_round=2)
    assert len(capped.select(lopsided)) == 2
    none = LoadBalancerPolicy(min_cpu_seconds=0.0,
                              max_moves_per_round=0)
    assert none.select(lopsided) == []


def test_balancer_zero_threshold_leaves_equal_site_alone(site):
    """Integration flavor of the no-churn rule: a live balanced site
    with threshold 0 produces no moves."""
    start_counter(site, host="brick")
    start_counter(site, host="schooner")
    balancer = LoadBalancer(
        site, ["brick", "schooner"], uid=100,
        policy=LoadBalancerPolicy(min_cpu_seconds=0.0,
                                  imbalance_threshold=0))
    assert balancer.step() == []
    assert balancer.loads() == {"brick": 1, "schooner": 1}


# -- night batch ------------------------------------------------------------------------


def test_nightfall_spreads_and_daybreak_corrals(site):
    sched = NightBatchScheduler(site, "brador",
                                ["brick", "schooner"], uid=100)
    jobs = [sched.submit("/bin/cpuhog", ["cpuhog", "5000000"])
            for __ in range(4)]
    site.run(until_us=site.cluster.wall_time_us() + 500_000)
    assert sched.placement() == {"brador": 4}

    moved = sched.nightfall()
    assert moved == 4
    assert sched.placement() == {"brick": 2, "schooner": 2}

    site.run(until_us=site.cluster.wall_time_us() + 500_000)
    moved = sched.daybreak()
    assert moved == 4
    assert sched.placement() == {"brador": 4}
    # jobs still alive and computing after two moves each
    assert all(job.moves == 2 for job in sched.jobs)
    assert all(job.alive for job in sched.jobs)


def test_finished_jobs_are_not_moved(site):
    sched = NightBatchScheduler(site, "brador", ["brick"], uid=100)
    job = sched.submit("/bin/cpuhog", ["cpuhog", "1000"])
    site.run_until(lambda: job.proc.zombie())
    assert sched.nightfall() == 0
