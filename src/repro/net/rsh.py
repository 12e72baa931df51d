"""The remote shell: ``rsh`` client, ``rshd`` server, per-connection
helper.

"Rsh requires a lot of time to establish a connection with another
machine" — per connection, rshd's helper performs the expensive
``rsh_setup`` pseudo-call (reverse host lookup, privileged-port dance,
hosts.equiv scan, remote login-shell startup), whose calibrated cost
dominates Figure 4.

The request, the reply and both loops are the protocol of
``net/remote.py``, which migrationd shares; what is rsh's own is port
514, ``rsh_setup`` and running any command line through ``sh -c``.
"""

from repro.errors import iserr
from repro.net.remote import relay, serve, serve_one
from repro.programs.base import print_err
from repro.programs.exitcodes import EX_FAIL

RSH_PORT = 514

USAGE = "usage: rsh host command [args ...]"


def rsh_main(argv, env):
    if len(argv) < 3:
        yield from print_err(USAGE)
        return EX_FAIL
    host = argv[1]
    sock = yield ("socket",)
    result = yield ("connect", sock, host, RSH_PORT)
    if iserr(result):
        yield from print_err("rsh: %s: connection refused" % host)
        return EX_FAIL
    status = yield from relay(sock, " ".join(argv[2:]))
    yield ("close", sock)
    return status


def rshd_main(argv, env):
    """The daemon: accept, hand each connection to a helper, loop."""
    return (yield from serve("rshd", RSH_PORT, "rshd-helper"))


def rshd_helper_main(argv, env):
    """One connection's worth of rshd work (stdio = the connection)."""
    return (yield from serve_one("rsh_setup", _shell))


def _shell(line):
    """Any command line runs through ``sh -c``, like the real rshd
    handing it to the remote user's login shell."""
    command = line.strip()
    return ["sh", "-c", command] if command else (EX_FAIL, b"")
