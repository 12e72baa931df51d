"""The migration intent ledger (DESIGN.md section 12).

The hardened ``migrate`` pipeline (section 7) survives *transient*
faults, but a crash of the source, destination or orchestrating host
between SIGDUMP and the restart acknowledgment leaves the victim dead
with nobody responsible for it.  The ledger closes that window: before
the dump is even requested, ``migrate`` writes a durable **intent
record** to a shared directory on the file server and advances it
through a small phase machine as the pipeline progresses::

    INTENT -> DUMPED -> RESTARTING -> DONE
         \\-> ABORTED (dump failed, or rolled back to the source)

Alongside the record, the kernel archives a ledgered dump through the
cluster chunk store (``dump.aout``/``dump.files``/``dump.stack``
manifests plus the ``dump.ok`` commit marker), so not even a source
*reboot* — which wipes ``/usr/tmp`` — can destroy the only copy of a
captured process.

``recoveryd -m`` sweeps the ledger: a record whose orchestrator is
suspected dead (or that has simply gone stale) is epoch-fenced with a
``claim.<E>`` file — the same ``O_CREAT|O_EXCL`` atomic test-and-set
as checkpoint recovery (section 8) — and then completed or aborted,
exactly once.  Orchestrators check the fence at every phase advance
and stand down (``EX_FENCED``) when a sweeper has claimed their
migration.

Record layout (little endian)::

    magic         u16   MIGLEDGER_MAGIC (octal 450)
    version       u8    MIGLEDGER_VERSION
    phase         u8    PH_INTENT .. PH_ABORTED
    epoch         u16   fencing epoch (grows with each claim)
    pid           i32   the victim's pid on the source host
    time_s        u32   virtual time of the last phase write
    source        u16-prefixed string
    destination   u16-prefixed string
    orchestrator  u16-prefixed string (the host running migrate)

Like every dump and wire format, a truncated or doctored record
raises :class:`~repro.errors.UnixError` (``EINVAL``) instead of
misparsing — the sweep skips what it cannot parse.
"""

from repro.errors import iserr, UnixError, EINVAL
from repro.kernel.constants import MIGLEDGER_MAGIC
from repro.core.formats import (_Reader, _Writer, LEDGER_ARCHIVE_NAMES,
                                OK_NAME, REC_NAME, migration_id)
from repro.programs.base import read_file, replace_file
from repro.programs.ckmeta import claim_next, highest_claim

MIGLEDGER_VERSION = 1

#: the phase machine
PH_INTENT = 0      #: record written, SIGDUMP not yet sent
PH_DUMPED = 1      #: dump durable (originals + chunk-store archive)
PH_RESTARTING = 2  #: a restart has been (or is being) attempted
PH_DONE = 3        #: restart acknowledged: the migration committed
PH_ABORTED = 4     #: dump failed or the job was rolled back home

PHASE_NAMES = {PH_INTENT: "intent", PH_DUMPED: "dumped",
               PH_RESTARTING: "restarting", PH_DONE: "done",
               PH_ABORTED: "aborted"}

#: ``ledger_advance`` return value when a higher claim fences us out
LEDGER_FENCED = 1


class MigRecord:
    """One migration's ledger record, as stored on the file server."""

    def __init__(self, source, pid, destination, orchestrator,
                 phase=PH_INTENT, epoch=0, time_s=0):
        self.source = source
        self.pid = int(pid)
        self.destination = destination
        self.orchestrator = orchestrator
        self.phase = int(phase)
        self.epoch = int(epoch)
        self.time_s = int(time_s)
        if self.phase not in PHASE_NAMES:
            raise UnixError(EINVAL, "bad ledger phase %d" % self.phase)
        if not 0 <= self.epoch < 1 << 16:
            raise UnixError(EINVAL, "bad ledger epoch %d" % self.epoch)

    def mig_id(self):
        """The migration id, matching the trace spans: source:pid."""
        return migration_id(self.source, self.pid)

    def pack(self):
        writer = _Writer()
        writer.u16(MIGLEDGER_MAGIC)
        writer.raw(bytes((MIGLEDGER_VERSION,)))
        writer.raw(bytes((self.phase,)))
        writer.u16(self.epoch)
        writer.i32(self.pid)
        writer.u32(self.time_s)
        writer.string(self.source)
        writer.string(self.destination)
        writer.string(self.orchestrator)
        return writer.getvalue()

    @classmethod
    def unpack(cls, blob):
        reader = _Reader(blob, "migledger")
        if reader.u16() != MIGLEDGER_MAGIC:
            raise UnixError(EINVAL, "bad migledger magic")
        version = reader.raw(1)[0]
        if version != MIGLEDGER_VERSION:
            raise UnixError(EINVAL, "migledger version %d" % version)
        phase = reader.raw(1)[0]
        if phase not in PHASE_NAMES:
            raise UnixError(EINVAL, "bad ledger phase %d" % phase)
        epoch = reader.u16()
        pid = reader.i32()
        time_s = reader.u32()
        source = reader.string()
        destination = reader.string()
        orchestrator = reader.string()
        return cls(source, pid, destination, orchestrator,
                   phase=phase, epoch=epoch, time_s=time_s)

    def __eq__(self, other):
        return (isinstance(other, MigRecord)
                and self.source == other.source
                and self.pid == other.pid
                and self.destination == other.destination
                and self.orchestrator == other.orchestrator
                and self.phase == other.phase
                and self.epoch == other.epoch
                and self.time_s == other.time_s)

    def __repr__(self):
        return ("MigRecord(%s -> %s by %s phase=%s epoch=%d t=%d)"
                % (self.mig_id(), self.destination, self.orchestrator,
                   PHASE_NAMES.get(self.phase, "?"), self.epoch,
                   self.time_s))


# -- generator helpers (run inside native programs) ------------------------


def _write_rec(directory, record, tag=None):
    """yield-from: atomically (re)write the record file; 0 or -errno.

    ``tag`` names the scratch file.  Concurrent writers — an
    orchestrator racing a claiming sweeper, or two sweepers at
    different epochs — must not share one scratch name, or the
    loser's rename ships the winner's half-written bytes; every
    phase advance therefore tags the scratch file with the writer's
    fencing epoch, which is unique among live writers (the
    orchestrator writes under the epoch it was fenced at, each
    sweeper under the strictly higher epoch it claimed).
    """
    return (yield from replace_file("%s/%s" % (directory, REC_NAME),
                                    record.pack(), tag))


def ledger_put(directory, record):
    """yield-from: write the initial INTENT record; 0 or -errno."""
    yield ("fault_point", "ledger.put", record.mig_id())
    result = yield from _write_rec(directory, record)
    if iserr(result):
        return result
    yield ("perf_note", "ml_records")
    yield ("trace_mark", "migrate", "ledger-intent", record.mig_id())
    return 0


def ledger_read(directory):
    """yield-from: the parsed MigRecord, or -errno (EINVAL if torn)."""
    blob = yield from read_file("%s/%s" % (directory, REC_NAME))
    if iserr(blob):
        return blob
    try:
        return MigRecord.unpack(blob)
    except UnixError:
        return -EINVAL


def ledger_advance(directory, record, phase, fence_epoch=None):
    """yield-from: advance the record to ``phase``.

    Returns 0 on success, :data:`LEDGER_FENCED` when the caller has
    been superseded and must stand down, or -errno when the ledger
    directory is unreachable.  Superseded means a claim above
    ``fence_epoch`` (default: the record's epoch) exists, or the
    record is settled: reaped or being reaped (see :func:`_settled`),
    which the advance never undoes by rewriting it.  The write also
    refreshes the record's timestamp, restarting its staleness clock.

    The fence is checked on *both* sides of the write: the
    readdir/rename pair is not atomic, so a claim created in between
    is invisible to the first check and this write may overwrite the
    claimant's record.  The post-write re-check turns that into a
    stand-down — the brief wrong record is harmless because a
    claiming sweeper re-reads the record *after* its claim and every
    sweep settles against reality (the destination probe), never the
    record alone.
    """
    yield ("fault_point", "ledger.advance", PHASE_NAMES[phase])
    fence = record.epoch if fence_epoch is None else fence_epoch
    names = yield ("readdir", directory)
    if iserr(names):
        return names
    if highest_claim(names) > fence or _settled(names, phase):
        return LEDGER_FENCED
    record.phase = phase
    record.time_s = yield ("time",)
    result = yield from _write_rec(directory, record, tag=fence)
    if iserr(result):
        return result
    names = yield ("readdir", directory)
    if iserr(names):
        return names  # written but unverifiable: report unreachable
    if highest_claim(names) > fence or _settled(names, phase):
        return LEDGER_FENCED
    yield ("perf_note", "ml_advances")
    yield ("trace_mark", "migrate", "ledger-" + PHASE_NAMES[phase],
           record.mig_id())
    return 0


def _settled(names, phase):
    """Whether the record directory listing ``names`` shows a record
    that has been reaped, or is being reaped.

    Either the record is gone, or an advance past the capture
    (DUMPED, RESTARTING, DONE) finds no ``dump.ok``: a ledgered dump
    that succeeded always committed one, and only :func:`ledger_reap`
    removes it.  The reap unlinks the marker first and the claims
    before the record, so at every point of a reap such an advance
    sees a claim, a missing marker or a missing record.
    """
    return REC_NAME not in names or (
        phase in (PH_DUMPED, PH_RESTARTING, PH_DONE)
        and OK_NAME not in names)


def ledger_claim(directory, record):
    """yield-from: fence the record with the next epoch's claim file.

    ``O_CREAT|O_EXCL`` on the server makes the create an atomic
    test-and-set: whoever creates ``claim.<E>`` owns the record at
    epoch *E*.  Returns the claimed epoch, or -errno (EEXIST means
    another sweeper won the race).
    """
    yield ("fault_point", "ledger.claim", record.mig_id())
    epoch = yield from claim_next(directory, record.epoch)
    if not iserr(epoch):
        yield ("perf_note", "ml_claims")
    return epoch


def ledger_reap(directory):
    """yield-from: remove a settled record's files; 0 or -errno.

    Unlinks the record, the archive manifests, the commit marker and
    every claim file.  (There is no rmdir in this kernel, so the
    empty directory itself remains — the sweep skips directories
    without a ``rec``.)  The commit marker goes first, so a concurrent
    :func:`ledger_advance` that no longer sees a claim sees the record
    settled instead (:func:`_settled`).  The record goes last: a reap
    cut short leaves it DONE or ABORTED, and the next sweep's
    straggler cleanup reaps the rest.
    """
    names = yield ("readdir", directory)
    if iserr(names):
        return names
    for name in sorted(names, key=lambda name: (
            name == REC_NAME, name != OK_NAME, name)):
        if (name == REC_NAME or name == OK_NAME
                or name in LEDGER_ARCHIVE_NAMES
                or name.startswith("claim.")
                or name.endswith(".tmp")):
            yield ("unlink", "%s/%s" % (directory, name))
    yield ("perf_note", "ml_reaps")
    return 0
