"""Tests for the section 8 applications."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (CheckpointManager, HostLoad, Move,
                        NightBatchScheduler, ThresholdPolicy)
from repro.bench import app_load_balancing
from repro.core.api import MigrationSite
from repro.programs.guest.cpuhog import expected_checksum
from tests.conftest import start_counter
from tests.test_loadd import _await_loadd, _loadd_site, _start_hogs


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
    for kind in ("aout", "files", "stack"):
        assert brick.fs.read_file(record.archive(kind))
    # the open output file was snapshotted
    copies = {orig.split("/")[-1]: saved
              for orig, saved in manager.file_copies(record).items()}
    assert copies == {"counter.out": record.archive("fd3")}
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


def test_balancing_preserves_results(site):
    """A hog that nightfall spread to another machine computes the
    same checksum it would have."""
    iters = 600_000
    sched = NightBatchScheduler(site, "brick", ["brick", "schooner"],
                                uid=100)
    for __ in range(2):
        sched.submit("/bin/cpuhog", ["cpuhog", str(iters)])
    site.run(until_us=site.cluster.wall_time_us() + 500_000)
    assert sched.nightfall() == 1
    moved = sched.jobs[1]
    assert moved.host == "schooner"
    site.run_until(lambda: moved.proc.zombie(), max_steps=10_000_000)
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
    """Two hogs on one machine finish sooner if loadd moves one —
    the paper's future-work 'systemwide application' measurement."""
    unbalanced, balanced = app_load_balancing(iterations=800_000)["rows"]
    assert balanced["makespan_us"] < unbalanced["makespan_us"] * 0.75


# -- policy edge cases (pure, no site) ---------------------------------------


def _view(*entries):
    """Build an insertion-ordered view from (host, runnable, jobs)."""
    return {host: HostLoad(host, runnable, tuple(jobs))
            for host, runnable, jobs in entries}


def test_policy_tie_breaking_prefers_the_first_listed_host():
    """Equally-busy hosts: the one listed first in the view sheds;
    flipping the view order flips the decision — deterministic, no
    RNG, no clock."""
    policy = ThresholdPolicy(min_cpu_seconds=0.0)
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
    policy = ThresholdPolicy(min_cpu_seconds=0.5)
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
    policy = ThresholdPolicy(min_cpu_seconds=0.0,
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
    greedy = ThresholdPolicy(min_cpu_seconds=0.0,
                             max_moves_per_round=10)
    moves = greedy.select(lopsided)
    # 6/0 -> 5/1 -> 4/2 -> 3/3: the fourth move would not improve
    assert len(moves) == 3
    assert [m.pid for m in moves] == [6, 5, 4]  # busiest first
    capped = ThresholdPolicy(min_cpu_seconds=0.0,
                             max_moves_per_round=2)
    assert len(capped.select(lopsided)) == 2
    none = ThresholdPolicy(min_cpu_seconds=0.0,
                           max_moves_per_round=0)
    assert none.select(lopsided) == []


def test_balancer_zero_threshold_leaves_equal_site_alone():
    """Integration flavor of the no-churn rule: loadd with threshold
    0 on a balanced live site makes no moves."""
    site = _loadd_site(loadd_min_cpu_s=0.0, loadd_imbalance=0)
    _start_hogs(site, 1, host="brick")
    _start_hogs(site, 1, host="schooner")
    handles = site.start_loadd()
    _await_loadd(site, handles)
    assert [h.exit_status for h in handles] == [0, 0]
    assert site.cluster.perf.ld_moves == 0
    assert site.find_restarted("schooner") is None
    assert site.find_restarted("brick") is None


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


def test_failed_night_move_rolls_back_to_the_day_host():
    """A night host that never lands the restart: the pipeline rolls
    the job back to the day host, and the scheduler still tracks it
    there — exactly one live copy, counted by ``placement()``."""
    site = MigrationSite(faults="restproc.overlay fail n=* host=brick")
    site.run_quiet()
    sched = NightBatchScheduler(site, "brador", ["brick"], uid=100)
    job = sched.submit("/bin/cpuhog", ["cpuhog", "5000000"])
    site.run(until_us=site.cluster.wall_time_us() + 500_000)

    assert sched.nightfall() == 0
    live = [(name, p) for name, m in site.cluster.machines.items()
            for p in m.kernel.procs.all_procs()
            if p.is_vm() and not p.zombie()]
    assert live == [("brador", job.proc)]
    assert job.host == "brador" and job.moves == 0
    assert sched.placement() == {"brador": 1}


def test_lost_night_job_is_not_bound_to_another_jobs_copy():
    """The first job's rollback lands, the second's does not: the
    second job is lost, and it must not claim the first job's
    restarted copy as its own."""
    site = MigrationSite(faults="restproc.overlay fail n=* host=brick; "
                                "restproc.overlay fail n=* skip=1 "
                                "host=brador")
    site.run_quiet()
    sched = NightBatchScheduler(site, "brador", ["brick"], uid=100)
    first, second = [sched.submit("/bin/cpuhog", ["cpuhog", "5000000"])
                     for __ in range(2)]
    site.run(until_us=site.cluster.wall_time_us() + 500_000)

    assert sched.nightfall() == 0
    assert sched.live_jobs() == [first]
    assert second.proc.zombie()
    assert sched.placement() == {"brador": 1}
