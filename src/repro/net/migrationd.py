"""The migration daemon: the paper's proposed faster alternative.

Section 6.4: "it is always possible to write a better application
which, by use of a UNIX daemon process and a well known port can
achieve more satisfactory results: instead of using rsh to start
processes remotely, applications will simply send messages to the
daemon, who will start the processes on their behalf."

``migrationd`` speaks the protocol of ``net/remote.py``, rshd's, but
performs no per-connection authentication dance — only a light
``daemon_setup`` cost — and runs only the allowlisted ``_ALLOWED``
commands.  ``migrationd-run`` is the matching client, a drop-in for rsh
(it is what ``migrate -d`` uses).  Ablation A1 measures the
difference.

Hardening (see DESIGN.md section 7): helpers are spawned *detached*
so a crashed helper can neither zombify nor stall the accept loop;
the client retries refused connections with backoff and bounds every
reply read with a timeout, so a daemon that dies before emitting the
exit-status sentinel costs the caller a bounded wait, not a hang.
"""

from repro.errors import ETIMEDOUT, iserr
from repro.net.remote import relay, serve, serve_one
from repro.programs.base import print_err
from repro.programs.exitcodes import EX_FAIL, EX_REJECTED, EX_TRANSIENT

MIGRATIOND_PORT = 515

#: commands the helper will spawn.  The daemon performs no
#: authentication, so relaying arbitrary binaries would hand any
#: network peer a shell on this host; only the migration pipeline's
#: own helpers are permitted.  (``kill`` is the killprog module —
#: installed as ``/bin/kill``.)
_ALLOWED = ("dumpproc", "restart", "kill", "ps")


def migrationd_main(argv, env):
    """The daemon proper: accept and dispatch to helpers."""
    yield ("hb_start",)  # this host now participates in failure
    # detection; clients consult the verdict before retrying us
    return (yield from serve("migrationd", MIGRATIOND_PORT,
                             "migrationd-helper"))


def migrationd_helper_main(argv, env):
    """Serve one request (stdio = the connection)."""
    # cheap: no rexec dance, no shell startup
    return (yield from serve_one("daemon_setup", _allowed))


def _allowed(line):
    """The request's words, or a refusal unless ``_ALLOWED`` names
    its command."""
    words = line.split()
    if words and words[0] in _ALLOWED:
        return words
    what = words[0] if words else "(empty)"
    return EX_REJECTED, b"migrationd: %s: not permitted\n" % what.encode(
        "latin-1")


def migrationd_run_main(argv, env):
    """Client: ``migrationd-run host command...`` (rsh drop-in)."""
    if len(argv) < 3:
        yield from print_err("usage: migrationd-run host command ...")
        return EX_FAIL
    host = argv[1]
    attempts = yield ("sysctl", "connect_attempts")
    backoff = yield ("sysctl", "connect_backoff_s")
    timeout = yield ("sysctl", "net_read_timeout_s")

    sock = None
    for attempt in range(max(1, attempts)):
        if attempt:
            yield ("perf_note", "retries")
            yield ("sleep", backoff * attempt)
        sock = yield ("socket",)
        result = yield ("connect", sock, host, MIGRATIOND_PORT)
        if not iserr(result):
            break
        yield ("close", sock)
        sock = None
        dead = yield ("hb_status", host)
        if dead == 1:
            # the failure detector already suspects this host:
            # retrying a corpse wastes the whole backoff budget.
            # EX_TRANSIENT, not EX_FAIL — the host may come back.
            yield from print_err("migrationd-run: %s: host is down"
                                 % host)
            return EX_TRANSIENT
    if sock is None:
        yield from print_err("migrationd-run: %s: connection refused"
                             % host)
        return EX_FAIL

    status = yield from relay(sock, " ".join(argv[2:]), timeout)
    if status == -ETIMEDOUT:
        yield from print_err(
            "migrationd-run: %s: timed out waiting for reply" % host)
        status = EX_TRANSIENT
    yield ("close", sock)
    return status
