"""Tests for ckptd, the in-universe checkpoint daemon."""

import pytest

from repro.core.formats import FilesInfo, StackInfo
from repro.kernel.signals import SIGKILL
from tests.conftest import start_counter


def run_ckptd(site, pid, rounds=2, interval=1):
    brick = site.machine("brick")
    daemon = brick.spawn("/bin/ckptd",
                         ["ckptd", str(pid), str(interval),
                          str(rounds)], uid=100, cwd="/tmp")
    return daemon


def test_ckptd_takes_checkpoints_and_job_survives(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    daemon = run_ckptd(site, handle.pid, rounds=2)
    site.run_until(lambda: daemon.exited, max_steps=10_000_000)
    assert daemon.exit_status == 0
    text = site.console("brick")
    assert "checkpoint 0 taken" in text
    assert "checkpoint 1 taken" in text
    # the job is alive (a VM child of ckptd's final restart) and
    # responds with its counters intact
    brick = site.machine("brick")
    site.type_at("brick", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))


def test_ckptd_archives_valid_dumps(site):
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    daemon = run_ckptd(site, handle.pid, rounds=1)
    site.run_until(lambda: daemon.exited, max_steps=10_000_000)
    brick = site.machine("brick")
    # the archive parses with the real format readers
    files_blob = brick.fs.read_file("/tmp/ckpt/ck0.files")
    info = FilesInfo.unpack(files_blob)
    assert info.hostname == "brick"
    stack_blob = brick.fs.read_file("/tmp/ckpt/ck0.stack")
    StackInfo.unpack(stack_blob)
    aout = brick.fs.read_file("/tmp/ckpt/ck0.aout")
    from repro.vm.aout import parse_aout
    parse_aout(aout)
    # the a.out copy kept its exec permission
    assert brick.fs.resolve_local("/tmp/ckpt/ck0.aout").mode & 0o100
    # the open output file was snapshotted (as fd slot 3)
    assert brick.fs.read_file("/tmp/ckpt/ck0.fd3") == b"one\n"


def test_ckptd_archive_restores_after_crash(site):
    """End to end: ckptd snapshots, the job dies, the archive lives."""
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    daemon = run_ckptd(site, handle.pid, rounds=1)
    site.run_until(lambda: daemon.exited, max_steps=10_000_000)
    brick = site.machine("brick")

    # the final restart may still be rebuilding its fd table when the
    # daemon exits; run until the job image is in place, then kill it
    site.run_until(lambda: site.find_restarted("brick") is not None,
                   max_steps=10_000_000)
    job = site.find_restarted("brick")
    assert job is not None
    old_pid = int(site.console("brick").rsplit("-> ", 1)[1].split()[0])
    brick.kernel.post_signal(job, SIGKILL)
    site.run_until(lambda: job.zombie())

    # stage the archive back under /usr/tmp and restart it; the dump
    # was of the ORIGINAL pid (the one ckptd was told to watch)
    from repro.core.formats import dump_file_names
    targets = dump_file_names(handle.pid)
    for kind, target in zip(("aout", "files", "stack"), targets):
        data = brick.fs.read_file("/tmp/ckpt/ck0.%s" % kind)
        inode = brick.fs.install_file(target, data)
        inode.uid = 100
        inode.mode = 0o700 if kind == "aout" else 0o600
    brick.fs.install_file("/tmp/counter.out",
                          brick.fs.read_file("/tmp/ckpt/ck0.fd3"))
    revived = site.restart("brick", handle.pid, uid=100)
    assert revived.proc.is_vm()
    brick.console.clear_output()
    site.type_at("brick", "back\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))


def test_ckptd_usage_and_bad_pid(site):
    assert site.run_command("brick", ["ckptd"], uid=100) == 1
    assert site.run_command("brick", ["ckptd", "x", "y", "z"],
                            uid=100) == 1
    status = site.run_command("brick",
                              ["ckptd", "4242", "1", "1"], uid=100)
    assert status == 1
    assert "failed" in site.console("brick")


def test_ckptd_retries_a_failed_resume(site):
    """A restart that fails its overlay keeps the dump (``-k``) and is
    retried until the kernel acks it: the job lives on and ckptd
    finishes both rounds instead of losing the job."""
    handle = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    plan = site.cluster.inject_faults("restproc.overlay fail n=1 "
                                      "host=brick", seed=5)
    daemon = run_ckptd(site, handle.pid, rounds=2)
    site.run_until(lambda: daemon.exited, max_steps=10_000_000)
    assert plan.fired() == (("restproc.overlay", "fail", 1),)
    assert daemon.exit_status == 0
    text = site.console("brick")
    assert "retrying restart" in text
    assert "checkpoint 1 taken" in text
    site.type_at("brick", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))
