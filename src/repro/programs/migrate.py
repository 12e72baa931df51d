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

Hardening (DESIGN.md section 7).  The paper's migrate assumed both
phases succeed; this one owns the pipeline end to end:

* the dump phase is retried (with backoff) on transient failures —
  a failed kernel dump leaves the victim *running*, so another
  ``dumpproc`` round can simply try again;
* the restart phase cannot learn success from an exit status (a
  successful restart never exits — it *becomes* the migrated
  process), so the kernel's behaviour of consuming the dump files at
  the end of ``rest_proc()`` is the ack: migrate polls for
  ``a.outXXXXX`` to disappear.  Restart is run with ``-k`` so a
  *failed* attempt keeps the files (and the retry loop its chances);
  migrate itself removes them when it finally gives up;
* every retry round is counted on the cluster perf counters.

Crash atomicity (DESIGN.md section 12).  With the ``migration_ledger``
knob on, migrate brackets the pipeline with a durable intent record on
the file server: the record is written before SIGDUMP, advanced at
every phase boundary, and the dump itself is archived through the
cluster chunk store (``dumpproc -L``).  If migrate — or the host it
runs on — dies mid-pipeline, ``recoveryd -m`` finds the record and
finishes or rolls back the migration exactly once; if the sweep fences
the record first, migrate stands down (``EX_FENCED``) rather than
race it.  When restart retries are exhausted, a ledgered migrate
rolls the job back to the *source* host from its own dump, so a
reachable-but-unreceptive destination costs nothing but time.
"""

from repro.errors import iserr, ECHILD
from repro.core.formats import dump_file_names
from repro.net.migledger import (LEDGER_FENCED, MigRecord, PH_ABORTED,
                                 PH_DONE, PH_DUMPED, PH_RESTARTING,
                                 ledger_advance, ledger_put,
                                 ledger_reap, mkdir_p, record_dir)
from repro.programs.base import (await_restart, parse_options,
                                 print_err, remove_files)
from repro.programs.exitcodes import (EX_FAIL, EX_FENCED, EX_OK,
                                      EX_TRANSIENT)

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
    remote_runner = "migrationd-run" if opts.get("-d") else "rsh"
    # bracket the whole pipeline for the trace timeline (DESIGN.md
    # section 9); the id matches the kernel's dump/restart spans
    mig = "%s:%d" % (source, pid)
    yield ("trace_span", "migrate", "B", mig)

    attempts = yield ("sysctl", "migrate_attempts")
    backoff = yield ("sysctl", "migrate_backoff_s")
    # the dump files as seen from *this* machine (the ack we poll)
    directory = "/usr/tmp" if source == local \
        else "/n/%s/usr/tmp" % source
    dump_paths = dump_file_names(pid, directory)

    # -- phase 0: durable intent (opt-in, DESIGN.md section 12) -------------
    # ("sysctl0" keeps the ledger-off path byte-identical: the read is
    # free, untraced and never dispatched)
    recdir = record = None
    if (yield ("sysctl0", "migration_ledger")):
        ledger_dir = yield ("sysctl0", "migration_ledger_dir")
        recdir = record_dir(ledger_dir, source, pid)
        yield from mkdir_p(recdir)
        now = yield ("time",)
        record = MigRecord(source, pid, destination, local, time_s=now)
        result = yield from ledger_put(recdir, record)
        if iserr(result):
            yield from print_err("migrate: cannot write intent record "
                                 "%s" % recdir)
            yield ("trace_span", "migrate", "E", mig, 0)
            return EX_FAIL

    # -- phase 1: dump on the source host (waited for) ----------------------
    dump_args = ["dumpproc", "-p", str(pid)]
    if record:
        dump_args += ["-L", recdir]
    status = None
    for attempt in range(max(1, attempts)):
        if attempt:
            yield ("perf_note", "retries")
            yield from print_err("migrate: retrying dump on %s"
                                 % source)
            yield ("sleep", backoff * attempt)
        status = yield from _run(source, local, dump_args,
                                 remote_runner, wait=True)
        if status == EX_OK:
            break
        if status == EX_FAIL:
            break  # permanent (no such process, permission): no retry
    if status != EX_OK:
        yield from remove_files(dump_paths)
        if record:
            yield from _ledger_abort(recdir, record)
        yield from print_err("migrate: dump on %s failed" % source)
        yield ("trace_span", "migrate", "E", mig, 0)
        return EX_FAIL
    if record:
        result = yield from ledger_advance(recdir, record, PH_DUMPED)
        if result == LEDGER_FENCED:
            return (yield from _fenced(mig, "dump"))
        # an unreachable ledger is not fatal here: the dump exists
        # and the sweep resolves stale records by probing reality

    # -- phase 2: restart on the destination host ---------------------------
    # -k: a failed restart must keep the dump files, both for the next
    # attempt and so the files' disappearance can only mean success
    if record:
        result = yield from ledger_advance(recdir, record,
                                           PH_RESTARTING)
        if result == LEDGER_FENCED:
            return (yield from _fenced(mig, "restart"))
    restart_args = ["restart", "-k", "-p", str(pid), "-h", source]
    for attempt in range(max(1, attempts)):
        if attempt:
            yield ("perf_note", "retries")
            yield from print_err("migrate: retrying restart on %s"
                                 % destination)
            yield ("sleep", backoff * attempt)
        done = yield from _restart_once(destination, local,
                                        restart_args, remote_runner,
                                        dump_paths[0])
        if done:
            if record:
                result = yield from ledger_advance(recdir, record,
                                                   PH_DONE)
                if result == 0:
                    yield ("perf_note", "ml_completions")
                    yield from ledger_reap(recdir)
                # fenced: a sweeper claimed the record, but the copy
                # is live — its probe finds it and settles the record;
                # the migration itself still succeeded
            yield ("trace_span", "migrate", "E", mig, 1)
            return EX_OK

    if record:
        # roll the job back home: the source restarts it from its own
        # dump (the /n/<self> loopback mount serves the rewritten
        # names), so a dead-end destination never strands the victim
        yield from print_err("migrate: restart on %s failed, rolling "
                             "back to %s" % (destination, source))
        done = yield from _restart_once(source, local, restart_args,
                                        remote_runner, dump_paths[0])
        if done:
            yield from _ledger_abort(recdir, record)
            yield from print_err("migrate: %s rolled back to %s"
                                 % (mig, source))
        else:
            # leave the record and the archived dump: the recovery
            # sweep owns this migration now
            yield from print_err("migrate: %s left for recovery" % mig)
        yield ("trace_span", "migrate", "E", mig, 0)
        return EX_FAIL

    yield from remove_files(dump_paths)
    yield from print_err("migrate: restart on %s failed" % destination)
    yield ("trace_span", "migrate", "E", mig, 0)
    return EX_FAIL


def _ledger_abort(recdir, record):
    """yield-from: mark the record ABORTED and reap it (best effort).

    A fenced or unreachable record is left alone: whoever fenced it
    owns its fate now.
    """
    result = yield from ledger_advance(recdir, record, PH_ABORTED)
    if result == 0:
        yield ("perf_note", "ml_aborts")
        yield from ledger_reap(recdir)


def _fenced(mig, phase):
    """yield-from: stand down — a recovery sweep claimed this record."""
    yield from print_err("migrate: %s fenced by a recovery sweep "
                         "during %s; standing down" % (mig, phase))
    yield ("trace_span", "migrate", "E", mig, 0)
    return EX_FENCED


def _restart_once(destination, local, restart_args, remote_runner,
                  aout_path):
    """One restart attempt; True when the ack (consumed dump) lands.

    The attempt is over when either the a.out file disappears (the
    kernel consumed the dump: success) or the spawned child dies (the
    restart — or its remote relay — failed).  A child that does
    neither within the poll budget counts as a failed attempt.
    """
    poll_tries = yield ("sysctl", "restart_poll_tries")
    poll_sleep = yield ("sysctl", "restart_poll_sleep_s")
    if destination == local:
        child = yield ("spawn", "/bin/%s" % restart_args[0],
                       restart_args)
    else:
        runner_argv = [remote_runner, destination,
                       " ".join(restart_args)]
        child = yield ("spawn", "/bin/%s" % remote_runner, runner_argv)
    if iserr(child):
        return False
    return (yield from await_restart(child, aout_path, poll_tries,
                                     poll_sleep))


def _run(host, local, command_argv, remote_runner, wait):
    """Run a command locally or through rsh/migrationd."""
    if host == local:
        child = yield ("spawn", "/bin/%s" % command_argv[0],
                       command_argv)
    else:
        runner_argv = [remote_runner, host, " ".join(command_argv)]
        child = yield ("spawn", "/bin/%s" % remote_runner, runner_argv)
    if iserr(child):
        return EX_FAIL
    if not wait:
        return EX_OK
    while True:
        result = yield ("wait",)
        if iserr(result):
            if result == -ECHILD:
                # our child vanished without us reaping it (something
                # else consumed the exit): we cannot know whether the
                # command worked, so report it as transient — retrying
                # is safe (dumpproc is idempotent) and may yet succeed
                yield from print_err("migrate: wait: no child to reap")
                return EX_TRANSIENT
            return EX_FAIL
        reaped, status = result
        if reaped == child:
            return (status >> 8) & 0xFF if not status & 0x7F \
                else EX_FAIL
