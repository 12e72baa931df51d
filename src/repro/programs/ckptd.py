"""``ckptd`` — the section 8 checkpointing application, in-universe.

"We may write an application to take periodic snapshots of it and
save those snapshots by moving them to a directory managed by the
application (perhaps renaming them appropriately) ... The application
should also make copies of all files that were open when the process
was checkpointed."

``ckptd`` is a *native user program*: everything it does — killing
the job, archiving the dump, copying the open files, resuming the
job — happens through system calls, exactly as the paper's
application would have.  The dump and the resume are the migration
pipeline's (:mod:`repro.programs.pipeline`): ``dumpproc`` is retried
on transient failures, and the job is resumed by ``restart -k``,
retried until the kernel acks it by consuming the dump.  The
archive layout is :mod:`repro.programs.ckmeta`'s.  The host-side
:class:`repro.apps.CheckpointManager` takes each of its snapshots
with one ``ckptd`` round.

Usage: ``ckptd [-e epoch] [-s round] <pid> <interval-seconds>
<rounds> [<directory>]``.  After each snapshot the job continues
under a new pid (a child of ckptd); the daemon tracks it and prints
one status line per round.

For crash recovery (see ``recoveryd(8)``) the daemon also maintains a
``meta`` file in the checkpoint directory and honours the epoch fence
(see :mod:`repro.programs.ckmeta`): ``-e`` names the epoch this
incarnation runs under, ``-s`` resumes round numbering after a
restart elsewhere.  Distinct exit statuses tell the caller what
happened: ``EX_JOBLOST`` (5) — the job died between rounds, the last
saved round is announced; ``EX_FENCED`` (6) — a recovery daemon
claimed a higher epoch (or the checkpoint directory became
unreachable, so it *may* have), and the local copy killed itself.
"""

from repro.errors import iserr, EEXIST
from repro.kernel.signals import SIGKILL
from repro.programs.base import parse_options, print_err, println
from repro.programs.ckmeta import archive_round, highest_claim, write_meta
from repro.programs.exitcodes import EX_FENCED, EX_JOBLOST, EX_OK
from repro.programs.pipeline import dump, restart

DEFAULT_DIRECTORY = "/tmp/ckpt"

USAGE = "usage: ckptd [-e epoch] [-s round] pid interval rounds " \
        "[directory]"


def ckptd_main(argv, env):
    options, positional = parse_options(argv, {"-e": True, "-s": True})
    if positional is None or not 3 <= len(positional) <= 4:
        yield from print_err(USAGE)
        return 1
    try:
        pid = int(positional[0])
        interval = int(positional[1])
        rounds = int(positional[2])
        epoch = int(options.get("-e", 0))
        start = int(options.get("-s", 0))
    except ValueError:
        yield from print_err(USAGE)
        return 1
    directory = positional[3] if len(positional) > 3 \
        else DEFAULT_DIRECTORY
    result = yield ("mkdir", directory, 0o755)
    if iserr(result) and result != -EEXIST:
        yield from print_err("ckptd: cannot create %s" % directory)
        return 1

    probe = yield ("kill", pid, 0)
    if iserr(probe):
        yield from print_err("ckptd: probe of pid %d failed" % pid)
        return 1
    host = yield ("gethostname",)
    saved = start - 1  #: latest round safely archived

    def meta(pid, status, rounds_left):
        return {"host": host, "pid": pid, "round": saved,
                "epoch": epoch, "interval": interval,
                "rounds_left": rounds_left, "status": status}

    yield from write_meta(directory, meta(pid, "running", rounds))

    for round_no in range(start, start + rounds):
        yield ("sleep", interval)
        left = start + rounds - round_no  #: incl. this round

        fenced = yield from _check_fence(directory, epoch)
        if fenced:
            yield ("kill", pid, SIGKILL)
            yield ("reap",)
            yield from print_err(
                "ckptd: fenced at epoch %d, killed pid %d" % (epoch,
                                                              pid))
            return EX_FENCED

        yield ("reap",)  # collect a dead job before probing it
        probe = yield ("kill", pid, 0)
        if iserr(probe):
            yield from print_err(
                "ckptd: pid %d died, last saved round %d" % (pid,
                                                             saved))
            yield from write_meta(directory, meta(pid, "lost", left))
            return EX_JOBLOST

        new_pid = yield from _snapshot(pid, round_no, directory, host)
        if new_pid is None:
            yield from print_err("ckptd: checkpoint %d of pid %d "
                                 "failed" % (round_no, pid))
            return 1
        yield from println("ckptd: checkpoint %d taken, pid %d -> %d"
                           % (round_no, pid, new_pid))
        pid = new_pid
        saved = round_no
        yield from write_meta(directory,
                              meta(pid, "running", left - 1))
    yield from write_meta(directory, meta(pid, "done", 0))
    return 0


def _check_fence(directory, epoch):
    """True if a higher-epoch claim exists — or might (directory
    unreachable, so a partitioned-away recoveryd could have claimed
    without us seeing it): the job must not keep running here."""
    names = yield ("readdir", directory)
    if iserr(names):
        return True
    return highest_claim(names) > epoch


def _snapshot(pid, round_no, directory, host):
    """One checkpoint: dump, archive, resume.

    Returns the resumed job's pid, or None.
    """
    attempts = yield ("sysctl", "migrate_attempts")
    backoff = yield ("sysctl", "migrate_backoff_s")
    status = yield from dump(pid, host, host, None, attempts, backoff)
    if status != EX_OK:
        return None
    result = yield from archive_round(directory, round_no, pid)
    if iserr(result):
        return None
    # the restart child *becomes* the job
    return (yield from restart(pid, host, host, attempts=attempts,
                               backoff=backoff))
