"""``recoveryd`` — restart checkpointed jobs whose host crashed.

The missing half of the section 8 checkpointing story: ``ckptd``
archives snapshots to a directory on the file server, and this daemon
— run on any surviving workstation — watches that directory and
brings orphaned jobs back from their latest checkpoint.

Each scan round, for every job directory under the watch directory:

1. read the advisory ``meta`` file (skip jobs that are done, lost,
   or homed on *this* host);
2. ask the kernel's failure detector about the job's home host
   (``hb_status``); only **suspected-dead** homes are touched;
3. claim the job by creating ``claim.<epoch+1>`` with
   ``O_CREAT|O_EXCL`` — an atomic test-and-set on the server.  Losing
   the race (or failing to reach the server) means somebody else owns
   the recovery, so skip.  The name follows the meta, so while one
   daemon's restage runs, every other daemon finds the claim taken;
4. read the archived round *N* (:mod:`repro.programs.ckmeta`),
   restore the snapshotted open files, and restage the dump through
   the migration pipeline (:func:`repro.programs.pipeline.restage`):
   staged under the names ``restart`` expects and restarted with
   ``restart -k``; like ``migrate``, success is observed as the
   kernel consuming the staged a.out;
5. rewrite ``meta`` for the new home/pid/epoch and, if checkpoint
   rounds remain, hand the job to a fresh local ``ckptd -e <epoch+1>``
   so it keeps being checkpointed (and keeps honouring the fence).
   A restage that fails still moves ``meta`` to the claimed epoch,
   home unchanged, so the next round claims the epoch above it.

Exactly-once across a partition heal: the claim file is the fence.  A
``ckptd`` cut off from the server cannot *disprove* a claim, so it
kills its copy (``EX_FENCED``); one that can see the directory dies
the moment it reads a higher claim.  Either way at most one live copy
survives the heal.

``-m ledgerdir`` adds the **migration-ledger sweep** (DESIGN.md
section 12): each round also walks the migration intent ledger and
settles every record whose orchestrator is suspected dead (or that
has simply gone stale).  A claimed record is re-read (the claim only
fences the orchestrator's *next* advance) and resolved by looking at
reality — if the destination already runs the migrated copy the
record is marked DONE; if a crash hit before the dump was captured
the intent is aborted, but only once it is also *stale*, because the
dumpproc a dead orchestrator fired outlives it and the dump may
still land (the victim either still runs at home or is the one
documented loss); otherwise the original dump files are neutralised
and the job is brought up *here* from its chunk-store archive, with
the record re-pointed at this host as both destination and
orchestrator — peers then defer to this sweeper's liveness and
staleness clock instead of retrying a record forever pinned to the
dead host.  A sweeper that is itself fenced after its restage kills
the copy it just made (the EX_FENCED discipline) unless the new
owner's record shows it committed to that very copy.  Never zero
live copies of a captured job, never two.

Usage: ``recoveryd -i interval -n rounds [-m ledgerdir] [watchdir]``.
The schedule comes from the command line only: ``-i`` and ``-n`` are
both required, and a missing one is a usage error.
"""

from repro.errors import iserr, EIO, ENOENT, UnixError
from repro.core.formats import (ChunkManifest, FilesInfo, OK_NAME,
                                dump_dir, dump_file_names,
                                dump_pid, ledger_archive_names)
from repro.fs.paths import remote_name, split_remote
from repro.kernel.signals import SIGKILL
from repro.net.migledger import (LEDGER_FENCED, PH_ABORTED, PH_DONE,
                                 PH_INTENT, PH_RESTARTING,
                                 ledger_advance, ledger_claim,
                                 ledger_read, ledger_reap)
from repro.programs.base import (exit_status, parse_options, print_err,
                                 println, read_file, remove_files)
from repro.programs.ckmeta import (claim_epoch, read_meta, read_round,
                                   restore_copies, write_meta)
from repro.programs.exitcodes import EX_FAIL, EX_OK
from repro.programs.pipeline import restage

USAGE = "usage: recoveryd -i interval -n rounds [-m ledgerdir] [watchdir]"


def recoveryd_main(argv, env):
    options, positional = parse_options(argv, {"-i": True, "-n": True,
                                               "-m": True})
    if positional is None or len(positional) > 1 \
            or (not positional and "-m" not in options):
        yield from print_err(USAGE)
        return EX_FAIL
    watchdir = positional[0] if positional else None
    ledgerdir = options.get("-m")
    try:
        interval = float(options["-i"])
        rounds = int(options["-n"])
    except (KeyError, ValueError):
        yield from print_err(USAGE)
        return EX_FAIL

    yield ("hb_start",)
    local = yield ("gethostname",)
    for __ in range(rounds):
        yield ("sleep", interval)
        if watchdir:
            names = yield ("readdir", watchdir)
            if iserr(names):
                names = ()  # the server may be down; next round
            for name in names:
                stat = yield ("stat", "%s/%s" % (watchdir, name))
                if iserr(stat) or not stat.is_dir():
                    continue
                yield from _consider("%s/%s" % (watchdir, name), local)
        if ledgerdir:
            yield from _sweep(ledgerdir, local)
    return EX_OK


def _consider(directory, local):
    """Recover one job directory if its home host is suspected dead."""
    meta = yield from read_meta(directory)
    if iserr(meta) or meta.get("status") != "running":
        return
    home = meta.get("host")
    if not home or home == local:
        return
    suspected = yield ("hb_status", home)
    if suspected != 1:
        return

    # the fence: atomically claim the next epoch.  EEXIST = somebody
    # beat us to it; any other error = server unreachable.  Either
    # way this job is not ours this round.
    epoch = yield from claim_epoch(directory, meta.get("epoch", 0) + 1)
    if iserr(epoch):
        return

    saved = meta.get("round", -1)
    if saved < 0:
        # crashed before the first checkpoint landed: nothing to
        # restart from — record the loss so nobody keeps trying
        meta.update(host=local, epoch=epoch, status="lost")
        yield from write_meta(directory, meta)
        yield from print_err("recoveryd: %s: no checkpoint to recover"
                             % directory)
        return

    archived = yield from read_round(directory, saved)
    new_pid = None
    if not iserr(archived):
        aout_blob, info, stack_blob = archived
        _rehome(info, home, local)
        yield from restore_copies(directory, saved, info)
        new_pid = yield from restage(
            meta["pid"], (aout_blob, info.pack(), stack_blob), local)
    if new_pid is None:
        # release the job: with the meta at the claimed epoch (home
        # unchanged) the next round claims the epoch above it, not
        # this claim, which stays taken
        meta["epoch"] = epoch
        yield from write_meta(directory, meta)
        yield from print_err("recoveryd: %s: restart of round %d "
                             "failed" % (directory, saved))
        return
    yield ("perf_note", "recoveries")
    rounds_left = meta.get("rounds_left", 0)
    interval = meta.get("interval", 1)
    meta.update(host=local, pid=new_pid, epoch=epoch)
    yield from write_meta(directory, meta)
    if rounds_left > 0:
        yield ("spawn", "/bin/ckptd",
               ["ckptd", "-e", str(epoch), "-s", str(saved + 1),
                str(new_pid), str(interval), str(rounds_left),
                directory])
    yield from println(
        "recoveryd: recovered %s from %s round %d, pid %d epoch %d"
        % (directory, home, saved, new_pid, epoch))


def _rehome(info, home, local):
    """Point a dump's paths at *this* host instead of the dead home.

    ``dumpproc`` rewrote every path to ``/n/<home>/...`` so a migrated
    process keeps using its home machine's files (section 4.4).  In
    recovery the home is gone — the snapshots of those files are being
    restored locally — so strip the prefix back off and adopt the job.
    """
    def strip(path):
        host, there = split_remote(path)
        return there if host == home else path

    info.hostname = local
    info.cwd = strip(info.cwd)
    for entry in info.entries:
        if entry.path:
            entry.path = strip(entry.path)


# -- the migration-ledger sweep (DESIGN.md section 12) ---------------------


def _sweep(ledgerdir, local):
    """yield-from: one pass over the migration intent ledger."""
    names = yield ("readdir", ledgerdir)
    if iserr(names):
        return  # the server may be down; try again next round
    for name in sorted(names):
        directory = "%s/%s" % (ledgerdir, name)
        stat = yield ("stat", directory)
        if iserr(stat) or not stat.is_dir():
            continue
        yield from _sweep_one(directory, local)


def _sweep_one(directory, local):
    """Settle one ledger record, exactly once."""
    record = yield from ledger_read(directory)
    if iserr(record):
        return  # already reaped, torn, or unreachable
    if record.phase in (PH_DONE, PH_ABORTED):
        yield from ledger_reap(directory)  # straggler cleanup
        return

    # eligibility: only records whose orchestrator is suspected dead
    # — or that have gone stale, since an orchestrator *process* can
    # die without its host being suspected — may be touched.  An
    # orchestrator on this very host is never "suspected"; staleness
    # is the only signal for it.
    if record.orchestrator == local:
        suspected = 0
    else:
        suspected = yield ("hb_status", record.orchestrator)
    if suspected != 1:
        now = yield ("time",)
        stale_s = yield ("sysctl0", "ledger_stale_s")
        if now - record.time_s <= stale_s:
            return

    ok_stat = yield ("stat", "%s/%s" % (directory, OK_NAME))
    if record.phase == PH_INTENT and iserr(ok_stat):
        # an uncaptured intent gets the full staleness grace even
        # when the orchestrator is suspected: the dumpproc it fired
        # outlives it on the source, so the dump may still be in
        # flight — aborting now would reap the record out from under
        # a dump that then lands with nobody left to restart it
        now = yield ("time",)
        stale_s = yield ("sysctl0", "ledger_stale_s")
        if now - record.time_s <= stale_s:
            return

    # the fence: whoever creates claim.<E> owns the record at epoch E.
    # The orchestrator checks for claims at every phase advance and
    # stands down (EX_FENCED) once one exists.
    epoch = yield from ledger_claim(directory, record)
    if iserr(epoch):
        return  # lost the race, or the server is unreachable

    # the claim only fences the orchestrator's *next* advance; one
    # already past its fence check may still land.  Re-read so this
    # sweep acts on the last state anybody managed to publish.
    record = yield from ledger_read(directory)
    if iserr(record):
        return
    if record.phase in (PH_DONE, PH_ABORTED):
        yield from ledger_reap(directory)
        return

    ok_stat = yield ("stat", "%s/%s" % (directory, OK_NAME))
    if record.phase == PH_INTENT and iserr(ok_stat):
        # the crash hit before the dump was captured: nothing exists
        # to restart from.  Either SIGDUMP never landed (the victim
        # still runs at home, untouched) or the victim died mid-dump
        # — the one documented loss.  Abort the intent.  (The kernel
        # refuses to commit an archive once the record is reaped, so
        # a dump still racing this abort fails and spares its victim.)
        result = yield from ledger_advance(directory, record,
                                           PH_ABORTED,
                                           fence_epoch=epoch)
        if result == 0:
            yield ("perf_note", "ml_aborts")
            yield from ledger_reap(directory)
            yield from println("recoveryd: aborted pre-capture %s"
                               % record.mig_id())
        return

    # the dump was captured: finish the migration.  Reality first —
    # the destination may already be running the copy.
    verdict = yield from _probe_destination(record, local)
    if verdict == "busy":
        return  # a restart is in flight there; decide next round
    if verdict == "live":
        result = yield from ledger_advance(directory, record, PH_DONE,
                                           fence_epoch=epoch)
        if result == 0:
            yield ("perf_note", "ml_sweeps")
            yield from ledger_reap(directory)
            yield from println("recoveryd: %s already live on %s"
                               % (record.mig_id(), record.destination))
        return

    # no copy at the destination: make sure a straggling restart can
    # never produce one (the originals are its only source), then
    # bring the job up *here* from the chunk-store archive.  The
    # record is re-pointed at this host *before* the restage: this
    # sweeper becomes the migration's orchestrator (so peers judge
    # eligibility against a live daemon's host and staleness clock,
    # not the dead orchestrator's) as well as its destination (so
    # any later probe looks at the right host).
    yield from _neutralize(record, local)
    record.destination = local
    record.orchestrator = local
    record.epoch = epoch
    result = yield from ledger_advance(directory, record,
                                       PH_RESTARTING,
                                       fence_epoch=epoch)
    if result != 0:
        return  # fenced by a later claim, or the server went away
    new_pid = yield from _restage_ledger(directory, record, local)
    if new_pid is None:
        yield from print_err("recoveryd: %s: restage failed; will "
                             "retry" % record.mig_id())
        return  # the record stands; a later round (or peer) retries
    result = yield from ledger_advance(directory, record, PH_DONE,
                                       fence_epoch=epoch)
    if result == LEDGER_FENCED:
        # superseded after the restage: a later claim owns the record
        # now.  Unless its owner already committed to *this* copy
        # (record gone or DONE), mirror EX_FENCED and kill it — the
        # new owner settles from its own probe and must never find
        # a second copy racing its restage.
        record = yield from ledger_read(directory)
        if not iserr(record) and record.phase == PH_DONE \
                and record.destination == local:
            yield from println("recoveryd: recovered %s on %s as "
                               "pid %d, epoch %d"
                               % (record.mig_id(), local, new_pid,
                                  epoch))
            return
        if iserr(record) and record == -ENOENT:
            return  # reaped: the claimant committed to this copy
        yield ("kill", new_pid, SIGKILL)
        yield ("reap",)
        yield from print_err("recoveryd: fenced after restage of %s; "
                             "killed local pid %d" % (directory,
                                                      new_pid))
        return
    if result != 0:
        return  # unreachable server: the record stands, the copy is
                # live here, and a later probe settles it as DONE
    yield ("perf_note", "ml_sweeps")
    yield from ledger_reap(directory)
    yield from println("recoveryd: recovered %s on %s as pid %d, "
                       "epoch %d" % (record.mig_id(), local, new_pid,
                                     epoch))


def _probe_destination(record, local):
    """yield-from: "live", "busy" or "clear" for the record's dest.

    Fail-stop model: a destination the failure detector suspects
    holds no copy (a crashed host loses its processes, and its disk
    — though it survives — cannot host a *running* process).  An
    unreachable-but-unsuspected destination defers the verdict.  A
    native ``restart`` seen on the destination also defers: its
    ``rest_proc`` may be about to produce the copy.
    """
    if record.destination == local:
        rows = yield ("getproctab",)
        if iserr(rows):
            return "busy"
        if any(row["vm"] and dump_pid(row["command"]) == record.pid
               for row in rows):
            return "live"
        if any(not row["vm"] and row["command"] == "restart"
               for row in rows):
            return "busy"
        return "clear"
    suspected = yield ("hb_status", record.destination)
    if suspected == 1:
        return "clear"
    output, status = yield from _relay_ps(record.destination)
    if status != EX_OK:
        return "busy"  # reachable host, failed probe: retry later
    live = busy = False
    for line in output.decode("latin-1", "replace").split("\n"):
        words = line.split()
        if not words:
            continue
        if dump_pid(words[-1]) == record.pid:
            live = True
        elif words[-1] == "restart":
            busy = True
    return "live" if live else ("busy" if busy else "clear")


def _relay_ps(dest):
    """yield-from: (output bytes, exit status) of ``ps -a`` on dest."""
    pipe = yield ("pipe",)
    if iserr(pipe):
        return b"", EX_FAIL
    rfd, wfd = pipe
    child = yield ("spawn", "/bin/migrationd-run",
                   ["migrationd-run", dest, "ps -a"],
                   (None, wfd, wfd))
    yield ("close", wfd)
    if iserr(child):
        yield ("close", rfd)
        return b"", EX_FAIL
    output = bytearray()
    while True:
        data = yield ("read", rfd, 1024)
        if iserr(data) or data == b"":
            break
        output.extend(data)
    yield ("close", rfd)
    status = EX_FAIL
    for __ in range(10):
        reaped = yield ("reap",)
        if isinstance(reaped, tuple):
            if reaped[0] != child:
                continue  # somebody else's zombie; keep looking
            status = exit_status(reaped[1])
            break
        yield ("sleep", 1)
    return bytes(output), status


def _neutralize(record, local):
    """yield-from: unlink the original dump files on the source.

    Any restart still straggling toward the old destination reads
    these files; removing them guarantees it can only fail.  Errors
    are ignored — a source that is down cannot serve a straggler
    either, and its ``/usr/tmp`` does not survive the reboot that
    brings it back.
    """
    yield from remove_files(dump_file_names(
        record.pid, dump_dir(record.source, local)))


def _fetch_archive(manifest):
    """yield-from: reassemble one manifest from the chunk store."""
    parts = []
    for index, digest in enumerate(manifest.digests):
        blob = yield ("store_get", digest)
        if iserr(blob):
            return blob
        if len(blob) != manifest.chunk_size(index):
            return -EIO
        parts.append(blob)
    return b"".join(parts)


def _rewrite_archived(path, source, terminal_check=True):
    """yield-from: the section 4.4 rewrite for an *archived* name.

    The kernel archives the files info at dump time, *before*
    ``dumpproc``'s rewrite pass runs on the source, so the sweep
    applies the same rules here — from the far end: the name is made
    remote first, then checked against the source's devices.
    Idempotent when a name already carries a ``/n/`` prefix.
    """
    path = remote_name(source, path)
    if terminal_check:
        stat = yield ("stat", path)
        if not iserr(stat) and stat.is_terminal():
            return "/dev/tty"
    return path


def _restage_ledger(directory, record, local):
    """Restart the record's chunk-store archive here; the restarted
    job's pid, or None.

    The bytes come from the cluster chunk store via the record's
    manifests, so not even a source reboot (which wipes ``/usr/tmp``)
    can have lost the dump.
    """
    blobs = []
    for path in ledger_archive_names(directory):
        manifest_blob = yield from read_file(path)
        if iserr(manifest_blob):
            return None
        try:
            manifest = ChunkManifest.unpack(manifest_blob)
        except UnixError:
            return None
        blob = yield from _fetch_archive(manifest)
        if iserr(blob):
            return None
        blobs.append(blob)
    aout_blob, files_blob, stack_blob = blobs
    try:
        info = FilesInfo.unpack(files_blob)
    except UnixError:
        return None
    info.cwd = yield from _rewrite_archived(info.cwd, record.source,
                                            terminal_check=False)
    for entry in info.entries:
        if entry.is_file() and entry.path:
            entry.path = yield from _rewrite_archived(entry.path,
                                                      record.source)
    return (yield from restage(record.pid,
                               (aout_blob, info.pack(), stack_blob),
                               local))
