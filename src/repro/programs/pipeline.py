"""The migration pipeline: one move, dump to restart (sections 4.1, 6.4).

"Move a process from one machine to another.  This is simply a
combination of the two previous commands ... Migrate calls dumpproc
and restart internally, by using the remote shell command rsh ... if
necessary."

:func:`move` is that combination, owned end to end, and the only code
that moves a live process: ``migrate`` calls it after parsing its
options and ``loadd`` calls it for every balancing decision.  Where
to move a job is policy (:mod:`repro.apps.policy`); how is here.

Hardening (DESIGN.md section 7).  The paper's migrate assumed both
phases succeed; this pipeline does not:

* the dump phase is retried (with backoff) on transient failures —
  a failed kernel dump leaves the victim *running*, so another
  ``dumpproc`` round can simply try again;
* the restart phase cannot learn success from an exit status (a
  successful restart never exits — it *becomes* the migrated
  process), so the kernel's behaviour of consuming the dump files at
  the end of ``rest_proc()`` is the ack: the pipeline polls for
  ``a.outXXXXX`` to disappear.  Restart is run with ``-k`` so a
  *failed* attempt keeps the files (and the retry loop its chances);
* when the restart attempts run out, the job is rolled back to the
  *source* host from its own dump, so a reachable-but-unreceptive
  destination costs nothing but time;
* every retry round is counted on the cluster perf counters.

Crash atomicity (DESIGN.md section 12).  With the ``migration_ledger``
knob on, the pipeline is bracketed by a durable intent record on the
file server: the record is written before SIGDUMP, advanced at every
phase boundary, and the dump itself is archived through the cluster
chunk store (``dumpproc -L``).  If the orchestrator — or the host it
runs on — dies mid-pipeline, ``recoveryd -m`` finds the record and
finishes or rolls back the migration exactly once; if the sweep fences
the record first, the pipeline stands down (``EX_FENCED``) rather than
race it.
"""

from repro.errors import iserr, ECHILD
from repro.core.formats import dump_file_names
from repro.net.migledger import (LEDGER_FENCED, MigRecord, PH_ABORTED,
                                 PH_DONE, PH_DUMPED, PH_RESTARTING,
                                 ledger_advance, ledger_put,
                                 ledger_reap, mkdir_p, record_dir)
from repro.programs.base import (await_restart, print_err, remove_files,
                                 wait_for)
from repro.programs.exitcodes import (EX_FAIL, EX_FENCED, EX_OK,
                                      EX_TRANSIENT)


def move(pid, source, destination, local, runner):
    """yield-from: move ``pid`` from ``source`` to ``destination``.

    ``local`` is the host this pipeline runs on (the orchestrator);
    work on any other host goes through ``runner`` (``rsh`` or
    ``migrationd-run``).  Returns ``EX_OK`` once the job runs on the
    destination, ``EX_FENCED`` if a recovery sweep took the migration
    over, and ``EX_FAIL`` otherwise — after a rollback, the job runs
    on the source again.
    """
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
        status = yield from _run(source, local, dump_args, runner)
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
                                        restart_args, runner,
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

    # -- phase 3: roll the job back home ------------------------------------
    # the source restarts it from its own dump (the /n/<self> loopback
    # mount serves the rewritten names), so a dead-end destination
    # never strands the victim
    yield from print_err("migrate: restart on %s failed, rolling "
                         "back to %s" % (destination, source))
    done = yield from _restart_once(source, local, restart_args,
                                    runner, dump_paths[0])
    if done:
        if record:
            yield from _ledger_abort(recdir, record)
        yield from print_err("migrate: %s rolled back to %s"
                             % (mig, source))
    elif record:
        # leave the record and the archived dump: the recovery sweep
        # owns this migration now
        yield from print_err("migrate: %s left for recovery" % mig)
    else:
        yield from remove_files(dump_paths)
        yield from print_err("migrate: %s lost" % mig)
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


def _spawn(host, local, command_argv, runner):
    """Start a command here, or on ``host`` through ``runner``."""
    if host == local:
        return (yield ("spawn", "/bin/%s" % command_argv[0],
                       command_argv))
    runner_argv = [runner, host, " ".join(command_argv)]
    return (yield ("spawn", "/bin/%s" % runner, runner_argv))


def _restart_once(destination, local, restart_args, runner, aout_path):
    """One restart attempt; True when the ack (consumed dump) lands.

    The attempt is over when either the a.out file disappears (the
    kernel consumed the dump: success) or the spawned child dies (the
    restart — or its remote relay — failed).  A child that does
    neither within the poll budget counts as a failed attempt.
    """
    poll_tries = yield ("sysctl", "restart_poll_tries")
    poll_sleep = yield ("sysctl", "restart_poll_sleep_s")
    child = yield from _spawn(destination, local, restart_args, runner)
    if iserr(child):
        return False
    return (yield from await_restart(child, aout_path, poll_tries,
                                     poll_sleep))


def _run(host, local, command_argv, runner):
    """Run a command to completion; its exit status."""
    child = yield from _spawn(host, local, command_argv, runner)
    if iserr(child):
        return EX_FAIL
    status = yield from wait_for(child)
    if status == -ECHILD:
        # our child vanished without us reaping it (something else
        # consumed the exit): we cannot know whether the command
        # worked, so report it as transient — retrying is safe
        # (dumpproc is idempotent) and may yet succeed
        yield from print_err("migrate: wait: no child to reap")
        return EX_TRANSIENT
    return status
