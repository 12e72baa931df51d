"""The remote-execution protocol ``rsh`` and ``migrationd`` share.

Newline-framed over a stream socket:

* client → server: ``CMD <command line>\\n``;
* server: runs the command with its stdio wired to the connection —
  so the remote command has **no controlling terminal**, the reason
  migrate cannot preserve terminal modes remotely;
* server → client: the command's output, verbatim, then the sentinel
  ``\\x00EXIT:<status>\\n`` once the command exits.

The two services differ only in their port, their per-connection
setup cost and which command lines they run (``net/rsh.py``,
``net/migrationd.py``).  The rest is here, once: the daemon loop
:func:`serve`, the per-connection helper :func:`serve_one` and the
client :func:`relay`.  The client streams the remote output to its
own stdout and exits with the remote status.  (Stdin is not
forwarded; the tools run this way — dumpproc, restart — never read
it.)
"""

from repro.errors import ETIMEDOUT, iserr
from repro.programs.base import LineReader, print_err, wait_for, write_all
from repro.programs.exitcodes import EX_FAIL

_REQUEST = "CMD "
_SENTINEL = b"\x00EXIT:"
#: the longest tail that may be a sentinel line still arriving
_HOLD = len(_SENTINEL) + 12


def serve(name, port, helper):
    """yield-from: the daemon: bind ``port``, then accept and hand
    each connection to ``/bin/<helper>``, forever."""
    sock = yield ("socket",)
    result = yield ("bind", sock, port)
    if iserr(result):
        yield from print_err("%s: cannot bind port %d" % (name, port))
        return EX_FAIL
    yield ("listen", sock)
    while True:
        conn = yield ("accept", sock)
        if iserr(conn):
            # transient accept failure: don't spin on a hot error
            yield ("sleep", 1)
            continue
        # detached: a crashed helper must neither zombify nor take
        # the loop down
        yield ("spawn", "/bin/" + helper, [helper], conn, True)
        yield ("close", conn)


def serve_one(setup_call, resolve):
    """yield-from: serve one request (stdio = the connection) and
    return its exit status.

    ``resolve(line)`` maps the requested command line to the argv to
    run as ``/bin/<argv[0]>``, or to a ``(status, message)`` refusal.
    """
    yield (setup_call,)
    line = yield from LineReader(0).readline()
    if line and line.startswith(_REQUEST):
        request = resolve(line[len(_REQUEST):])
    else:
        request = (EX_FAIL, b"")
    if isinstance(request, tuple):
        status, message = request
        if message:
            yield from write_all(1, message)
    else:
        child = yield ("spawn", "/bin/" + request[0], request, 0)
        status = EX_FAIL if iserr(child) else (yield from wait_for(child))
        if iserr(status):
            status = EX_FAIL
    yield from write_all(1, _SENTINEL + b"%d\n" % status)
    return status


def relay(sock, command, timeout=None):
    """yield-from: request ``command`` over ``sock``, copy the reply's
    output to stdout as it arrives, and return the remote exit status.

    Only the last ``_HOLD`` bytes read, where a sentinel split across
    reads may start, are held back.  The connection ending before the sentinel gives
    ``EX_FAIL``; a read that outlasts ``timeout`` seconds (no read
    times out without one) gives ``-ETIMEDOUT``.
    """
    yield from write_all(sock, "%s%s\n" % (_REQUEST, command))
    buffer = bytearray()
    while True:
        if timeout is None:
            data = yield ("read", sock, 1024)
        else:
            data = yield ("read_timeout", sock, 1024, timeout)
        if iserr(data) or data == b"":
            yield from _flush(buffer)
            return data if data == -ETIMEDOUT else EX_FAIL
        buffer.extend(data)
        index = buffer.find(_SENTINEL)
        if index >= 0 and b"\n" in buffer[index:]:
            yield from _flush(buffer[:index])
            digits = buffer[index + len(_SENTINEL):
                            buffer.index(b"\n", index)]
            try:
                return int(digits)
            except ValueError:
                return EX_FAIL
        safe = len(buffer) if index == -1 else index
        safe -= min(_HOLD, safe)
        yield from _flush(buffer[:safe])
        del buffer[:safe]


def _flush(data):
    if data:
        yield from write_all(1, bytes(data))
