"""End-to-end crash recovery: ckptd + heartbeat detector + recoveryd.

The headline scenario (DESIGN.md section 8): a job checkpointed to
the file server crashes with its host; a recovery daemon on a
surviving workstation notices via the failure detector, claims the
job with an epoch fence, and restarts it from the latest checkpoint,
with the driver checked step by step against the reference scan.
"""

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.errors import UnixError
from repro.kernel.signals import SIGKILL
from repro.programs.base import println
from repro.programs.ckmeta import parse_meta
from repro.programs.exitcodes import EX_JOBLOST, EX_TRANSIENT
from tests.conftest import run_native, scan_checked, start_counter

#: knobs shrunk so failure paths stay cheap in virtual time
FAST_KNOBS = dict(migrate_backoff_s=0.5, connect_backoff_s=0.5,
                  net_read_timeout_s=5.0, restart_poll_tries=30,
                  restart_poll_sleep_s=0.5)


def _job_meta(site, job="job1"):
    """The advisory meta for a job, as stored on the file server."""
    try:
        blob = site.machine("brador").fs.read_file(
            "/tmp/ckpt/%s/meta" % job)
        return blob, parse_meta(blob)
    except (UnixError, ValueError):
        return b"", {}


def _run_demo():
    """The scripted demo: checkpoint on brick, crash, recover on
    schooner."""
    site = MigrationSite(costs=CostModel(**FAST_KNOBS))
    # low-volume categories only (see tests/test_faults.py)
    site.cluster.tracer.enable("fault", "hb", "dump", "restart",
                               "migrate", "recovery", "net.sock")
    site.run_quiet()
    site.machine("brador").fs.makedirs("/tmp/ckpt", mode=0o777)

    victim = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    site.machine("brick").spawn(
        "/bin/ckptd", ["ckptd", str(victim.pid), "2", "2",
                       "/n/brador/tmp/ckpt/job1"], uid=100, cwd="/tmp")
    # wait for round 0 to be archived AND recorded in meta — only
    # then is there anything for recovery to find
    site.run_until(lambda: _job_meta(site)[1].get("round", -1) >= 0,
                   max_steps=10_000_000)

    site.cluster.crash_host("brick")
    recoveryd = site.machine("schooner").spawn(
        "/bin/recoveryd", ["recoveryd", "-i", "1", "-n", "30",
                           "/n/brador/tmp/ckpt"], uid=100, cwd="/tmp")
    # latency is measured on the survivor's own clock from the moment
    # its recovery daemon starts (the crashed host's frozen clock may
    # be ahead of an idle survivor's, so cluster wall time is useless)
    start_us = site.machine("schooner").clock.now_us
    site.run_until(
        lambda: "recoveryd: recovered" in site.console("schooner"),
        max_steps=20_000_000)
    recovered_us = site.machine("schooner").clock.now_us

    # recovery latency is bounded by the detector: one timeout plus a
    # few heartbeat/scan intervals plus the restage itself
    costs = site.costs
    bound_s = costs.hb_timeout_s + 3 * costs.hb_interval_s + 10.0
    assert costs.hb_timeout_s <= (recovered_us - start_us) / 1e6 \
        <= bound_s

    site.run_until(lambda: recoveryd.exited, max_steps=20_000_000)
    site.run_quiet(max_steps=20_000_000)

    # the recovered job answers with its state intact (same counter
    # arithmetic as test_ckptd: one input + two dump/restart cycles)
    site.type_at("schooner", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("schooner"),
                   max_steps=10_000_000)

    __, meta = _job_meta(site)
    assert meta["host"] == "schooner"
    assert meta["epoch"] == 1
    assert meta["status"] == "done"
    # the fence claim is on the server
    site.machine("brador").fs.resolve_local("/tmp/ckpt/job1/claim.1")

    perf = site.cluster.perf
    assert perf.recoveries == 1
    assert perf.hb_suspects >= 1
    assert "ckptd: checkpoint 1 taken" in site.console("schooner")


def test_crash_recovery_demo_identical_on_both_engines():
    scan_checked(_run_demo)


def test_ckptd_reports_job_lost_between_rounds(site):
    """Satellite: a tracked job that dies between rounds gives ckptd a
    distinct exit status naming the last saved round."""
    handle = start_counter(site)
    daemon = site.machine("brick").spawn(
        "/bin/ckptd", ["ckptd", str(handle.pid), "3", "3"],
        uid=100, cwd="/tmp")
    site.run_until(
        lambda: "checkpoint 0 taken" in site.console("brick")
        and site.find_restarted("brick") is not None,
        max_steps=10_000_000)
    job = site.find_restarted("brick")
    site.machine("brick").kernel.post_signal(job, SIGKILL)
    site.run_until(lambda: daemon.exited, max_steps=10_000_000)
    assert daemon.exit_status == EX_JOBLOST
    assert "died, last saved round 0" in site.console("brick")


def _hb_probe_main(argv, env):
    """Query the failure detector twice, 8 virtual seconds apart."""
    yield ("hb_status", argv[1])  # activates the monitor lane
    yield ("sleep", 8)
    status = yield ("hb_status", argv[1])
    yield from println("hb=%d" % status)
    return status


def test_migrationd_run_fails_fast_on_suspected_host(site):
    """Satellite: once the detector declares a host dead, the client
    stops burning its retry budget on it."""
    site.cluster.crash_host("brick")
    probe = run_native(site.machine("schooner"), _hb_probe_main,
                       ["hb-probe", "brick"], name="hb-probe")
    assert probe.exit_status == 1  # suspected after the 8 s wait
    assert "hb=1" in site.console("schooner")

    retries_before = site.cluster.perf.retries
    status = site.run_command("schooner",
                              ["migrationd-run", "brick", "echo", "hi"],
                              uid=100)
    assert status == EX_TRANSIENT
    assert "migrationd-run: brick: host is down" \
        in site.console("schooner")
    # it gave up on the first failed connect: no retry rounds burned
    assert site.cluster.perf.retries == retries_before


def test_detection_latency_is_bounded_by_timeout_plus_interval():
    """The detector suspects a silent host no earlier than the timeout
    and no later than one heartbeat interval past it."""
    def run():
        site = MigrationSite()
        site.run_quiet()

        def activate(argv, env):
            yield ("hb_status", "brick")
            return 0

        run_native(site.machine("schooner"), activate, ["hb-on"],
                   name="hb-on")
        t0_us = site.machine("schooner").clock.now_us
        site.cluster.crash_host("brick")
        perf = site.cluster.perf
        site.run_until(lambda: perf.hb_suspects >= 1,
                       max_steps=10_000_000)
        latency_s = (site.machine("schooner").clock.now_us - t0_us) \
            / 1e6
        costs = site.costs
        assert costs.hb_timeout_s - 1.0 <= latency_s \
            <= costs.hb_timeout_s + costs.hb_interval_s, \
            "detection took %.2f s" % latency_s

    scan_checked(run)
