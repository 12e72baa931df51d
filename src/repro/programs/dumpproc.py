"""The ``dumpproc`` command (sections 4.1 and 4.4).

"Terminate a process (kill it) dumping to disk all the information
that is necessary to restart it."

Implementation, following section 4.4 step for step:

* kill the specified process with a SIGDUMP signal;
* wait for the dump to appear (the dump is written by the *victim*
  when it is next scheduled, so dumpproc "simply sleeps for one second
  after each unsuccessful attempt to open a.outXXXXX (aborting after
  ten tries)");
* read in the filesXXXXX file;
* resolve symbolic links for the cwd and all open files;
* file names that point to a terminal become ``/dev/tty``;
* names still local to this machine get ``/n/<machinename>``
  prepended;
* overwrite the modified information onto the filesXXXXX file.

Only the superuser or the owner of the process can do this — the
``kill()`` permission check enforces it.

Hardening (DESIGN.md section 7): dumpproc is idempotent — if the
process is already gone but its dump exists (a previous round died
between dump and acknowledgment), it picks up from the dump; it
verifies the dump (magic + length) before shipping; and its exit
status tells the caller whether retrying can help (see
``repro.programs.exitcodes``).
"""

from repro.errors import iserr, errno_name, UnixError, ESRCH
from repro.kernel.constants import O_RDONLY
from repro.kernel.signals import SIGDUMP
from repro.core.formats import (CHUNKED_STACK_HEADER_SIZE, FilesInfo,
                                STACK_HEADER_SIZE, StackInfo,
                                dump_file_names, is_aout, migration_id,
                                stack_file_size, stack_is_chunked)
from repro.core.symlinks import resolve_symlinks_syscalls
from repro.fs.paths import remote_name
from repro.programs.base import (parse_options, print_err, read_file,
                                 read_prefix, write_file)
from repro.programs.exitcodes import EX_FAIL, EX_TRANSIENT

USAGE = "usage: dumpproc -p pid [-L recdir]"


def dumpproc_main(argv, env):
    opts, __ = parse_options(argv, {"-p": True, "-L": True})
    if not isinstance(opts, dict) or "-p" not in opts:
        yield from print_err(USAGE)
        return EX_FAIL
    try:
        pid = int(opts["-p"])
    except ValueError:
        yield from print_err(USAGE)
        return EX_FAIL

    aout_path, files_path, stack_path = dump_file_names(pid)

    recdir = opts.get("-L")
    if recdir:
        # ledgered dump (DESIGN.md section 12): arm the kernel so the
        # SIGDUMP below also archives through the chunk store.  ESRCH
        # falls through to the idempotent already-dumped pickup.
        result = yield ("dump_ledger", pid, recdir)
        if iserr(result) and result != -ESRCH:
            yield from print_err("dumpproc: cannot ledger %d: %s"
                                 % (pid, errno_name(-result)))
            return EX_FAIL

    result = yield ("kill", pid, SIGDUMP)
    if iserr(result):
        probe = yield ("open", aout_path, O_RDONLY, 0)
        if result == -ESRCH and not iserr(probe):
            # the process is gone but its dump exists: a previous
            # round was cut off after the dump was written.  The
            # rewriting pass below is idempotent (already-rewritten
            # names start with /n/), so just pick up from the dump.
            yield ("close", probe)
        else:
            yield from print_err("dumpproc: cannot signal %d: %s"
                                 % (pid, errno_name(-result)))
            return EX_FAIL

    # wait for the victim to be scheduled and finish writing its dump
    # (checking the a.out magic through the open we make anyway)
    poll_tries = yield ("sysctl0", "dump_poll_tries")
    poll_sleep = yield ("sysctl0", "dump_poll_sleep_s")
    if isinstance(poll_sleep, float) and poll_sleep.is_integer():
        # whole-second intervals sleep with int arithmetic, keeping
        # virtual timestamps int-valued exactly as the old constant did
        poll_sleep = int(poll_sleep)
    for attempt in range(poll_tries):
        fd = yield ("open", aout_path, O_RDONLY, 0)
        if not iserr(fd):
            magic = yield ("read", fd, 2)
            yield ("close", fd)
            if iserr(magic) or not is_aout(magic):
                yield from print_err("dumpproc: bad dump %s"
                                     % aout_path)
                return EX_TRANSIENT
            break
        yield ("sleep", poll_sleep)
    else:
        yield from print_err("dumpproc: no dump appeared at %s"
                             % aout_path)
        return EX_TRANSIENT

    # -- verify the dump before shipping it ---------------------------------
    # The kernel parsed all three files in full at dump time, so this
    # guards the *read path* only (magic + length, prefix reads — no
    # full re-read): any failure is transient, worth a retry round.
    # The files file gets its magic + full parse in the rewrite pass
    # right below.
    status = yield from _verify_stack(stack_path)
    if status is not None:
        return status

    blob = yield from read_file(files_path)
    if iserr(blob):
        yield from print_err("dumpproc: cannot read %s" % files_path)
        return EX_TRANSIENT
    try:
        info = FilesInfo.unpack(blob)
    except UnixError:
        yield from print_err("dumpproc: bad magic in %s" % files_path)
        return EX_TRANSIENT

    hostname = yield ("gethostname",)
    info.cwd = yield from _rewrite_path(info.cwd, hostname,
                                        terminal_check=False)
    for entry in info.entries:
        if entry.is_file() and entry.path:
            entry.path = yield from _rewrite_path(entry.path, hostname)

    result = yield from write_file(files_path, info.pack())
    if iserr(result):
        yield from print_err("dumpproc: cannot rewrite %s" % files_path)
        return EX_TRANSIENT
    # the rewrite is the boundary between the dump and transfer
    # phases in the trace timeline (dumpproc always runs on the
    # source host, so hostname names the dump's origin)
    yield ("trace_mark", "migrate", "rewrite", migration_id(hostname, pid))
    return 0


def _verify_stack(stack_path):
    """yield-from: an exit status on verification failure, else None.

    Magic + length checks only: the stack header, and the stack
    file's exact expected size.  A chunked stack (incremental dump)
    carries a manifest instead of the raw bytes, so its expected size
    comes from the manifest header, read in a second, longer prefix.
    """
    header = yield from read_prefix(stack_path, STACK_HEADER_SIZE)
    bad_stack = iserr(header)
    if not bad_stack:
        try:
            StackInfo.peek_header(header)
            stat = yield ("stat", stack_path)
            if stack_is_chunked(header):
                header = yield from read_prefix(
                    stack_path, CHUNKED_STACK_HEADER_SIZE)
            bad_stack = iserr(stat) or iserr(header) or \
                stat.size != stack_file_size(header)
        except UnixError:
            bad_stack = True
    if bad_stack:
        yield from print_err("dumpproc: bad dump %s" % stack_path)
        return EX_TRANSIENT
    return None


def _rewrite_path(path, hostname, terminal_check=True):
    """Apply the section 4.4 rewriting rules to one path name."""
    if terminal_check:
        stat = yield ("stat", path)
        if not iserr(stat) and stat.is_terminal():
            # point it at the current terminal of whatever opens it
            return "/dev/tty"
    resolved = yield from resolve_symlinks_syscalls(path)
    if iserr(resolved):
        resolved = path  # keep the name; restart will fall back
    return remote_name(hostname, resolved)
