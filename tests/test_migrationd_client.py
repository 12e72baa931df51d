"""Regression tests for the remote-execution clients.

Both clients, ``rsh`` and the hardened ``migrationd-run``, share one
relay (``net/remote.py``).  It must parse the ``\\x00EXIT:<status>\\n``
sentinel even when the network delivers it in pieces, stream output
that arrives before it, and *fail*, promptly and with a distinct
status, when the server dies before the sentinel — the original
``migrationd-run`` looped forever on empty reads (a real hang that
``migrate -d`` would inherit).
"""

import pytest

from repro.core.api import MigrationSite
from repro.errors import iserr
from repro.net.migrationd import MIGRATIOND_PORT
from repro.net.rsh import RSH_PORT
from repro.programs.exitcodes import (EX_FAIL, EX_REJECTED,
                                      EX_TRANSIENT)

#: client program -> the port its server listens on
CLIENTS = {"migrationd-run": MIGRATIOND_PORT, "rsh": RSH_PORT}


@pytest.fixture
def quiet_site():
    """The testbed with NO daemons: ports 514 and 515 are free for
    fakes."""
    site = MigrationSite(daemons=False)
    site.run_quiet()
    return site


@pytest.fixture(params=sorted(CLIENTS))
def client(request):
    return request.param


def _serve_one(body, port):
    """A native server on ``port`` that accepts once, reads the CMD
    line, then runs ``body(conn)`` (a generator function)."""
    def server_main(argv, env):
        sock = yield ("socket",)
        result = yield ("bind", sock, port)
        if iserr(result):
            return 1
        yield ("listen", sock)
        conn = yield ("accept", sock)
        yield ("read", conn, 1024)  # the "CMD ..." line
        yield from body(conn)
        yield ("close", conn)
        return 0
    return server_main


def _start_fake(site, body, client="migrationd-run", host="schooner"):
    machine = site.machine(host)
    machine.install_native_program(
        "fakeserver", _serve_one(body, CLIENTS[client]))
    server = machine.spawn("/bin/fakeserver", uid=0)
    site.run(max_steps=100_000)  # bring it to accept()
    return server


def _spawn_client(site, client="migrationd-run", host="brick",
                  target="schooner"):
    return site.machine(host).spawn(
        "/bin/" + client, [client, target, "true"], uid=100, cwd="/tmp")


def _run_client(site, client="migrationd-run", host="brick",
                target="schooner"):
    handle = _spawn_client(site, client, host, target)
    site.run_until(lambda: handle.exited)
    return handle


def test_sentinel_split_across_two_reads(quiet_site, client):
    """The sentinel may straddle a packet boundary mid-'EXIT:'."""
    def body(conn):
        yield ("write", conn, b"partial output\n\x00EX")
        yield ("sleep", 1)  # force a second read on the client
        yield ("write", conn, b"IT:7\n")

    _start_fake(quiet_site, body, client)
    handle = _run_client(quiet_site, client)
    assert handle.exit_status == 7
    assert "partial output" in quiet_site.console("brick")
    # the sentinel itself never reaches the user's terminal
    assert "EXIT" not in quiet_site.console("brick")


def test_sentinel_split_byte_by_byte(quiet_site, client):
    def body(conn):
        for byte in b"out\n\x00EXIT:5\n":
            yield ("write", conn, bytes([byte]))
            yield ("sleep", 0.01)

    _start_fake(quiet_site, body, client)
    handle = _run_client(quiet_site, client)
    assert handle.exit_status == 5
    assert "out" in quiet_site.console("brick")
    assert "EXIT" not in quiet_site.console("brick")


def test_server_death_before_sentinel_fails_promptly(quiet_site, client):
    """EOF before the sentinel: report failure, do not hang."""
    def body(conn):
        yield ("write", conn, b"half an answ")
        # ...and the helper dies: close without any sentinel

    _start_fake(quiet_site, body, client)
    brick = quiet_site.machine("brick")
    t0 = brick.clock.now_us
    handle = _run_client(quiet_site, client)
    assert handle.exit_status == EX_FAIL
    # the held-back output was still delivered
    assert "half an answ" in quiet_site.console("brick")
    # prompt: EOF is detected well before the 30 s read timeout
    assert brick.clock.now_us - t0 < 10_000_000


def test_output_streams_before_the_exit_status(quiet_site, client):
    """What the remote command writes while it still runs reaches the
    caller's terminal before the command exits, the way a remotely
    restarted job's output keeps flowing."""
    def body(conn):
        yield ("write", conn, b"early output, well before the exit\n")
        yield ("sleep", 20)  # still running, inside the read timeout
        yield ("write", conn, b"late\n\x00EXIT:0\n")

    _start_fake(quiet_site, body, client)
    handle = _spawn_client(quiet_site, client)
    quiet_site.run_until(
        lambda: "early output" in quiet_site.console("brick")
        or handle.exited)
    assert not handle.exited
    quiet_site.run_until(lambda: handle.exited)
    assert handle.exit_status == 0
    console = quiet_site.console("brick")
    assert "well before the exit" in console and "late" in console
    assert "EXIT" not in console


def test_silent_server_times_out_with_transient_status(quiet_site):
    """A server that never replies costs a bounded wait, not a hang."""
    def body(conn):
        while True:
            yield ("sleep", 60)

    _start_fake(quiet_site, body)
    timeouts_before = quiet_site.cluster.perf.timeouts
    handle = _run_client(quiet_site)
    assert handle.exit_status == EX_TRANSIENT
    assert "timed out" in quiet_site.console("brick")
    assert quiet_site.cluster.perf.timeouts == timeouts_before + 1


def test_connection_refused_after_retries(quiet_site):
    """No daemon at all: bounded connect retries, then EX_FAIL."""
    retries_before = quiet_site.cluster.perf.retries
    handle = _run_client(quiet_site)  # nothing listens on 515
    assert handle.exit_status == EX_FAIL
    assert "connection refused" in quiet_site.console("brick")
    # connect_attempts=3 means two retry sleeps were taken
    assert quiet_site.cluster.perf.retries == retries_before + 2


def test_real_daemon_round_trip_still_works(site):
    """End to end against the real daemon (sanity anchor)."""
    status = site.run_command(
        "brick", ["migrationd-run", "schooner", "ps", "-a"], uid=100)
    assert status == 0


def test_daemon_rejects_commands_off_the_allowlist(site):
    """The helper relays migration commands, not a remote shell: any
    command outside the fixed allowlist is refused with a distinct
    status, and nothing is spawned on the server host."""
    status = site.run_command(
        "brick", ["migrationd-run", "schooner", "sh", "-c", "boom"],
        uid=100)
    assert status == EX_REJECTED
    assert "migrationd: sh: not permitted" in site.console("brick")
    # the refused command never ran on the server host
    assert not any(
        proc.command == "sh"
        for proc in site.machine("schooner").kernel.procs.all_procs())
