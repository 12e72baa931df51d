"""The on-disk protocol between ``ckptd`` and ``recoveryd``.

A checkpointed job's shared directory (on the NFS file server, so it
survives the home workstation) holds:

* ``ck<N>.aout`` / ``ck<N>.files`` / ``ck<N>.stack`` — the archived
  dump of round *N*, plus a ``ck<N>.fd<slot>`` snapshot of each open
  regular file: the first slot per path, nothing under ``/dev/``
  and no terminal (:func:`archive_round` writes a round,
  :func:`read_round` and :func:`restore_copies` read one back);
* ``meta`` — advisory state: where the job lives, its current pid,
  the latest saved round, the owner's epoch.  Written atomically
  (temp file + same-directory rename) so a reader never sees a torn
  update;
* ``claim.<E>`` — the **fence**.  Claim files are created with
  ``O_CREAT|O_EXCL`` and never written again, so creation is an
  atomic test-and-set on the server: whoever creates ``claim.<E>``
  owns epoch *E*.  A checkpoint daemon that finds a claim with an
  epoch above its own has been superseded — some recovery daemon
  declared its host dead and restarted the job elsewhere — and must
  kill its copy (see ``EX_FENCED``).  This is what keeps a healed
  partition from leaving two live copies of one job.
"""

from repro.errors import iserr, EINVAL, UnixError
from repro.core.formats import (ARCHIVE_KINDS, FilesInfo,
                                checkpoint_archive_name,
                                checkpoint_snapshot_name, dump_file_names)
from repro.kernel.constants import O_CREAT, O_EXCL, O_WRONLY
from repro.programs.base import read_file, replace_file, write_file

#: meta keys parsed as integers
_INT_KEYS = ("pid", "round", "epoch", "interval", "rounds_left")


def pack_meta(meta):
    """Serialise a meta dict to sorted ``key=value`` lines."""
    return "".join("%s=%s\n" % (key, meta[key]) for key in sorted(meta))


def parse_meta(blob):
    """Parse ``key=value`` lines; ints where the protocol says int."""
    meta = {}
    for line in blob.decode("latin-1").splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            continue
        meta[key] = int(value) if key in _INT_KEYS else value
    return meta


def read_meta(directory):
    """yield-from: the parsed meta dict, or -errno."""
    blob = yield from read_file("%s/meta" % directory)
    if iserr(blob):
        return blob
    try:
        return parse_meta(blob)
    except ValueError:
        return -EINVAL


def write_meta(directory, meta):
    """yield-from: atomically replace ``meta``; 0 or -errno."""
    return (yield from replace_file("%s/meta" % directory,
                                    pack_meta(meta)))


def claim_name(epoch):
    return "claim.%d" % epoch


def highest_claim(names):
    """The largest epoch among ``claim.<E>`` entries; -1 if none."""
    best = -1
    for name in names:
        if name.startswith("claim."):
            try:
                best = max(best, int(name[6:]))
            except ValueError:
                pass
    return best


def claim_epoch(directory, epoch):
    """yield-from: create ``claim.<epoch>`` with ``O_CREAT|O_EXCL``;
    ``epoch``, or -errno (EEXIST: somebody else holds that epoch)."""
    fd = yield ("open", "%s/%s" % (directory, claim_name(epoch)),
                O_WRONLY | O_CREAT | O_EXCL, 0o644)
    if iserr(fd):
        return fd
    yield ("close", fd)
    return epoch


def claim_next(directory, epoch):
    """yield-from: claim the first epoch above ``epoch`` and every
    claim already in ``directory``; the claimed epoch, or -errno
    (EEXIST: a concurrent claimant won the race)."""
    names = yield ("readdir", directory)
    if iserr(names):
        return names
    return (yield from claim_epoch(
        directory, max(epoch, highest_claim(names)) + 1))


def snapshot_slots(info):
    """(slot, path) of every open file a round snapshots."""
    seen = set()
    for slot, entry in enumerate(info.entries):
        if entry.is_file() and entry.path not in seen \
                and not entry.path.startswith("/dev/"):
            seen.add(entry.path)
            yield slot, entry.path


def archive_round(directory, round_no, pid):
    """yield-from: archive ``pid``'s dump in ``/usr/tmp`` as round
    ``round_no``, with its open files; 0 or -errno.

    The dump files are copied, not moved, so ``restart`` still finds
    them under the names it expects.
    """
    blobs = []
    for kind, source in zip(ARCHIVE_KINDS, dump_file_names(pid)):
        data = yield from read_file(source)
        if iserr(data):
            return data
        target = checkpoint_archive_name(directory, round_no, kind)
        result = yield from write_file(target, data)
        if iserr(result):
            return result
        if kind == "aout":
            yield ("chmod", target, 0o700)
        blobs.append(data)
    try:
        info = FilesInfo.unpack(blobs[1])
    except UnixError:
        return -EINVAL
    for slot, path in snapshot_slots(info):
        stat = yield ("stat", path)
        if iserr(stat) or stat.is_terminal():
            continue
        data = yield from read_file(path)
        if not iserr(data):
            yield from write_file(
                checkpoint_snapshot_name(directory, round_no, slot), data)
    return 0


def read_round(directory, round_no):
    """yield-from: round ``round_no``'s (a.out, FilesInfo, stack), or
    -errno."""
    blobs = []
    for kind in ARCHIVE_KINDS:
        data = yield from read_file(checkpoint_archive_name(
            directory, round_no, kind))
        if iserr(data):
            return data
        blobs.append(data)
    try:
        return blobs[0], FilesInfo.unpack(blobs[1]), blobs[2]
    except UnixError:
        return -EINVAL


def restore_copies(directory, round_no, info):
    """yield-from: write round ``round_no``'s open-file snapshots back
    over the paths ``info`` names for them."""
    for slot, path in snapshot_slots(info):
        data = yield from read_file(checkpoint_snapshot_name(
            directory, round_no, slot))
        if iserr(data):
            continue  # not snapshotted: a terminal, or unreadable then
        yield from write_file(path, data)
