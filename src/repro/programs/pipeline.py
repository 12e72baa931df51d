"""The migration pipeline: one move, dump to restart (sections 4.1, 6.4).

"Move a process from one machine to another.  This is simply a
combination of the two previous commands ... Migrate calls dumpproc
and restart internally, by using the remote shell command rsh ... if
necessary."

:func:`move` is that combination, owned end to end: ``migrate``
calls it after parsing its options and ``loadd`` calls it for every
balancing decision.  Where to move a job is policy
(:mod:`repro.apps.policy`); how is here.  Its phases are the only
code that spawns ``dumpproc`` or ``restart``: ``ckptd`` snapshots a
job with :func:`dump` and resumes it with :func:`restart`, and
``recoveryd`` and :class:`repro.apps.CheckpointManager` bring an
archived dump back with :func:`restage`.

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

from repro.errors import iserr, ECHILD, ENOENT, UnixError
from repro.core.formats import (StackInfo, dump_dir, dump_file_names,
                                ledger_record_dir, migration_id)
from repro.kernel.constants import O_RDONLY
from repro.net.migledger import (LEDGER_FENCED, MigRecord, PH_ABORTED,
                                 PH_DONE, PH_DUMPED, PH_RESTARTING,
                                 ledger_advance, ledger_put,
                                 ledger_reap)
from repro.programs.base import (mkdir_p, print_err, remove_files,
                                 wait_for, write_file)
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
    mig = migration_id(source, pid)
    yield ("trace_span", "migrate", "B", mig)

    attempts = yield ("sysctl", "migrate_attempts")
    backoff = yield ("sysctl", "migrate_backoff_s")
    # the dump files as seen from *this* machine
    dump_paths = dump_file_names(pid, dump_dir(source, local))

    # -- phase 0: durable intent (opt-in, DESIGN.md section 12) -------------
    # ("sysctl0" keeps the ledger-off path byte-identical: the read is
    # free, untraced and never dispatched)
    recdir = record = None
    if (yield ("sysctl0", "migration_ledger")):
        ledger_dir = yield ("sysctl0", "migration_ledger_dir")
        recdir = ledger_record_dir(ledger_dir, source, pid)
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
    status = yield from dump(pid, source, local, runner, attempts,
                             backoff, recdir)
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
    if record:
        result = yield from ledger_advance(recdir, record,
                                           PH_RESTARTING)
        if result == LEDGER_FENCED:
            return (yield from _fenced(mig, "restart"))
    child = yield from restart(pid, destination, local, runner, source,
                               attempts, backoff)
    if child is not None:
        if record:
            result = yield from ledger_advance(recdir, record, PH_DONE)
            if result == 0:
                yield ("perf_note", "ml_completions")
                yield from ledger_reap(recdir)
            # fenced: a sweeper claimed the record, but the copy is
            # live — its probe finds it and settles the record; the
            # migration itself still succeeded
        yield ("trace_span", "migrate", "E", mig, 1)
        return EX_OK

    # -- phase 3: roll the job back home ------------------------------------
    # the source restarts it from its own dump (the /n/<self> loopback
    # mount serves the rewritten names), so a dead-end destination
    # never strands the victim
    yield from print_err("migrate: restart on %s failed, rolling "
                         "back to %s" % (destination, source))
    child = yield from restart(pid, source, local, runner, source)
    if child is not None:
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


def dump(pid, host, local, runner, attempts, backoff, recdir=None):
    """yield-from: ``dumpproc -p pid`` on ``host``, up to ``attempts``
    runs unless it fails for good (``EX_FAIL``); its exit status.
    ``recdir`` also archives the dump for the intent ledger (``-L``).
    """
    dump_args = ["dumpproc", "-p", str(pid)]
    if recdir:
        dump_args += ["-L", recdir]
    status = None
    for attempt in range(max(1, attempts)):
        if attempt:
            yield from _backoff("dump", host, backoff, attempt)
        status = yield from _run(host, local, dump_args, runner)
        if status in (EX_OK, EX_FAIL):
            break
    return status


def restart(pid, host, local, runner=None, from_host=None,
            attempts=1, backoff=0):
    """yield-from: ``restart -k`` ``pid`` on ``host`` from
    ``from_host``'s dump (``-h``; default ``host``'s own), up to
    ``attempts`` runs; the spawned child's pid once the kernel acks
    it, else None.  A local restart's child *is* the restored job.
    """
    restart_args = ["restart", "-k", "-p", str(pid)]
    if from_host:
        restart_args += ["-h", from_host]
    aout_path = dump_file_names(pid, dump_dir(from_host or host, local))[0]
    for attempt in range(max(1, attempts)):
        if attempt:
            yield from _backoff("restart", host, backoff, attempt)
        poll_tries = yield ("sysctl", "restart_poll_tries")
        poll_sleep = yield ("sysctl", "restart_poll_sleep_s")
        child = yield from _spawn(host, local, restart_args, runner)
        if not iserr(child) and (yield from _await_ack(
                child, aout_path, poll_tries, poll_sleep)):
            return child
    return None


def restage(pid, blobs, local):
    """yield-from: stage a dump's (a.out, files, stack) blobs under
    the names ``restart`` expects and restart it on ``local``; the
    restored job's pid, or None after unstaging.

    ``restart`` takes the dump owner's identity before ``rest_proc``
    execs the a.out, so the files go back to the owner the stack
    header names (a non-root caller gets EPERM, but stages under the
    only uid that may restart them anyway).
    """
    targets = dump_file_names(pid)
    for target, data in zip(targets, blobs):
        result = yield from write_file(target, data)
        if iserr(result):
            yield from remove_files(targets)
            return None
    yield ("chmod", targets[0], 0o700)
    try:
        cred = StackInfo.peek_header(blobs[2])[0]
    except UnixError:
        cred = None  # restart rejects the stack itself
    if cred is not None:
        for target in targets:
            yield ("chown", target, cred.uid, cred.gid)
    child = yield from restart(pid, local, local)
    if child is None:
        yield from remove_files(targets)
    return child


def _await_ack(child, aout_path, tries, sleep_s):
    """yield-from: True once ``aout_path`` disappears; False if the
    child (the restart, or its relay) dies first or ``tries`` polls
    ``sleep_s`` apart see neither."""
    for __ in range(max(1, tries)):
        fd = yield ("open", aout_path, O_RDONLY, 0)
        if fd == -ENOENT:
            return True  # rest_proc consumed the dump: it took
        if not iserr(fd):
            yield ("close", fd)
        reaped = yield ("reap",)
        if isinstance(reaped, tuple) and reaped[0] == child:
            return False  # the restart (or its relay) died
        yield ("sleep", sleep_s)
    return False


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


def _backoff(phase, host, backoff, attempt):
    """yield-from: count and announce a retry, then back off."""
    yield ("perf_note", "retries")
    yield from print_err("migrate: retrying %s on %s" % (phase, host))
    yield ("sleep", backoff * attempt)


def _spawn(host, local, command_argv, runner):
    """Start a command here, or on ``host`` through ``runner``."""
    if host == local:
        return (yield ("spawn", "/bin/%s" % command_argv[0],
                       command_argv))
    runner_argv = [runner, host, " ".join(command_argv)]
    return (yield ("spawn", "/bin/%s" % runner, runner_argv))


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
