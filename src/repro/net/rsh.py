"""The remote shell: ``rsh`` client, ``rshd`` server, per-connection
helper.

"Rsh requires a lot of time to establish a connection with another
machine" — per connection, rshd's helper performs the expensive
``rsh_setup`` pseudo-call (reverse host lookup, privileged-port dance,
hosts.equiv scan, remote login-shell startup), whose calibrated cost
dominates Figure 4.

Protocol (newline-framed over the stream socket):

* client → server: ``CMD <command line>\\n``
* server: runs the command with its stdio wired to the connection —
  so the remote command has **no controlling terminal**, the reason
  migrate cannot preserve terminal modes remotely;
* server → client: the command's output, verbatim, then the sentinel
  ``\\x00EXIT:<status>\\n`` once the command exits.

The client relays output to its own stdout and exits with the remote
status.  (Stdin is not forwarded; the tools run this way — dumpproc,
restart — never read it.)
"""

from repro.errors import iserr
from repro.programs.base import LineReader, print_err, write_all

RSH_PORT = 514

_SENTINEL = b"\x00EXIT:"

USAGE = "usage: rsh host command [args ...]"


def rsh_main(argv, env):
    if len(argv) < 3:
        yield from print_err(USAGE)
        return 1
    host = argv[1]
    command = " ".join(argv[2:])

    sock = yield ("socket",)
    result = yield ("connect", sock, host, RSH_PORT)
    if iserr(result):
        yield from print_err("rsh: %s: connection refused" % host)
        return 1
    yield from write_all(sock, "CMD %s\n" % command)

    # relay remote output until the EXIT sentinel (or EOF)
    buffer = bytearray()
    status = 1
    while True:
        data = yield ("read", sock, 1024)
        if iserr(data) or data == b"":
            yield from _flush(buffer)
            break
        buffer.extend(data)
        index = buffer.find(_SENTINEL)
        if index >= 0 and b"\n" in buffer[index:]:
            yield from _flush(buffer[:index])
            line_end = buffer.index(b"\n", index)
            digits = bytes(buffer[index + len(_SENTINEL):line_end])
            try:
                status = int(digits)
            except ValueError:
                status = 1
            break
        # keep a potential partial sentinel; flush the rest
        safe = len(buffer) if index == -1 else index
        hold = min(len(_SENTINEL) + 12, safe)
        yield from _flush(buffer[:safe - hold])
        del buffer[:safe - hold]
    yield ("close", sock)
    return status


def _flush(data):
    if data:
        yield from write_all(1, bytes(data))


def rshd_main(argv, env):
    """The daemon: accept, hand each connection to a helper, loop."""
    sock = yield ("socket",)
    result = yield ("bind", sock, RSH_PORT)
    if iserr(result):
        yield from print_err("rshd: cannot bind port %d" % RSH_PORT)
        return 1
    yield ("listen", sock)
    while True:
        conn = yield ("accept", sock)
        if iserr(conn):
            # transient accept failure: don't spin on a hot error
            yield ("sleep", 1)
            continue
        # detached: a crashed helper must not zombify or kill the loop
        child = yield ("spawn", "/bin/rshd-helper", ["rshd-helper"],
                       conn, True)
        yield ("close", conn)
        if iserr(child):
            continue


def rshd_helper_main(argv, env):
    """One connection's worth of rshd work (stdio = the connection).

    The command line runs through ``sh -c``, like the real rshd
    handing it to the remote user's login shell.
    """
    yield ("rsh_setup",)  # the expensive part
    reader = LineReader(0)
    line = yield from reader.readline()
    if not line or not line.startswith("CMD "):
        yield from write_all(1, _SENTINEL + b"1\n")
        return 1
    command = line[4:].strip()
    if not command:
        yield from write_all(1, _SENTINEL + b"1\n")
        return 1
    child = yield ("spawn", "/bin/sh", ["sh", "-c", command], 0)
    if iserr(child):
        yield from write_all(1, b"rsh: cannot run the shell\n")
        yield from write_all(1, _SENTINEL + b"1\n")
        return 1
    while True:
        result = yield ("wait",)
        if iserr(result):
            status = 1
            break
        reaped, raw = result
        if reaped == child:
            status = (raw >> 8) & 0xFF if not raw & 0x7F else 1
            break
    yield from write_all(1, _SENTINEL + b"%d\n" % status)
    return status
