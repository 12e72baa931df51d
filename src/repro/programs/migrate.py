"""The ``migrate`` command (sections 4.1 and 6.4).

"Move a process from one machine to another.  This is simply a
combination of the two previous commands ... Migrate calls dumpproc
and restart internally, by using the remote shell command rsh ... if
necessary."

``migrate -p pid [-f fromhost] [-t tohost]`` — both hosts default to
the machine the command is typed on.  With ``-d`` the remote execution
goes through the migration daemon (``migrationd``) instead of rsh —
the faster alternative the paper sketches in section 6.4; this is
ablation A1.

The combination itself — retries, the restart ack, rollback to the
source and the opt-in intent ledger — is the shared migration
pipeline (:mod:`repro.programs.pipeline`); this module only parses
the command line.
"""

from repro.programs.base import parse_options, print_err
from repro.programs.exitcodes import EX_FAIL
from repro.programs.pipeline import move

USAGE = "usage: migrate -p pid [-f fromhost] [-t tohost] [-d]"


def migrate_main(argv, env):
    opts, __ = parse_options(argv, {"-p": True, "-f": True, "-t": True,
                                    "-d": False})
    if not isinstance(opts, dict) or "-p" not in opts:
        yield from print_err(USAGE)
        return EX_FAIL
    try:
        pid = int(opts["-p"])
    except ValueError:
        yield from print_err(USAGE)
        return EX_FAIL
    local = yield ("gethostname",)
    source = opts.get("-f") or local
    destination = opts.get("-t") or local
    runner = "migrationd-run" if opts.get("-d") else "rsh"
    return (yield from move(pid, source, destination, local, runner))
