"""The ``restart`` command (sections 4.1 and 4.4).

"Restart a process that was killed on some host with the dumpproc
command. ... The process will be restarted on the host on which the
command was given and at the terminal (or window) on which the command
was typed."

Section 4.4's recipe:

* verify the three dump files exist and check their magic numbers;
* read the old credentials from stackXXXXX (the only thing read from
  it at user level) and establish them with setreuid();
* establish the old current working directory;
* reopen every file with the right access modes and offset, keeping
  the fd numbers identical; files that cannot be reopened — and all
  sockets — become /dev/null, except stdio which falls back to the
  terminal "so that the user may have some control";
* close the /dev/null placeholders that only existed to keep fd
  numbers in order;
* re-establish the dumped terminal modes on the current terminal;
* call rest_proc().

The fd juggling below keeps copies of restart's own stdio in the top
descriptor slots while the table is rebuilt, so that when a dumped
stdio stream cannot be reattached to a terminal (the rsh case) it can
at least inherit restart's own channel.

Hardening (DESIGN.md section 7): a failed restart reports *why* via
distinct exit statuses (``repro.programs.exitcodes``) and, when the
dump itself is bad, removes the orphaned ``a.out/files/stack`` files
instead of leaving them in ``/usr/tmp`` forever.  ``-k`` suppresses
the cleanup — ``migrate`` passes it so a failed attempt leaves the
files for the next retry round (and so their disappearance remains an
unambiguous success signal).  Permission failures never clean up:
the files belong to somebody else.
"""

from repro.errors import (iserr, errno_name, UnixError, EACCES,
                          ENOENT, EPERM)
from repro.kernel.constants import (NOFILE, O_ACCMODE, O_APPEND,
                                    O_RDWR, SEEK_SET, TIOCSETP)
from repro.core.formats import (FilesInfo, StackInfo, STACK_HEADER_SIZE,
                                dump_dir, dump_file_names, is_aout,
                                FD_FILE, FD_SOCKET, FD_SOCKET_BOUND)
from repro.programs.base import (parse_options, print_err, read_file,
                                 read_prefix, remove_files)
from repro.programs.exitcodes import (EX_BADDUMP, EX_FAIL,
                                      EX_RESTPROC, EX_TRANSIENT)

USAGE = "usage: restart -p pid [-h host] [-k]"

#: descriptor slots used to stash restart's own stdio during rebuild
_SAVE_BASE = NOFILE - 3


def restart_main(argv, env):
    opts, __ = parse_options(argv, {"-p": True, "-h": True,
                                    "-k": False})
    if not isinstance(opts, dict) or "-p" not in opts:
        yield from print_err(USAGE)
        return EX_FAIL
    try:
        pid = int(opts["-p"])
    except ValueError:
        yield from print_err(USAGE)
        return EX_FAIL
    keep = bool(opts.get("-k"))

    local = yield ("gethostname",)
    paths = dump_file_names(pid, dump_dir(opts.get("-h") or local,
                                          local))
    aout_path, files_path, stack_path = paths

    # -- verify the three files and their magic numbers -------------------
    magic = yield from read_prefix(aout_path, 2)
    if iserr(magic) or not is_aout(magic):
        yield from print_err("restart: %s is not a dumped executable"
                             % aout_path)
        return (yield from _fail_dump(magic, paths, keep))

    files_blob = yield from read_file(files_path)
    if iserr(files_blob):
        yield from print_err("restart: cannot read %s" % files_path)
        return (yield from _fail_dump(files_blob, paths, keep))
    try:
        info = FilesInfo.unpack(files_blob)
    except UnixError:
        yield from print_err("restart: bad magic in %s" % files_path)
        return (yield from _fail_dump(0, paths, keep))

    # the credentials are the only thing read from stackXXXXX here
    header = yield from read_prefix(stack_path, STACK_HEADER_SIZE)
    if iserr(header):
        yield from print_err("restart: cannot read %s" % stack_path)
        return (yield from _fail_dump(header, paths, keep))
    try:
        cred, __ = StackInfo.peek_header(header)
    except UnixError:
        yield from print_err("restart: bad magic in %s" % stack_path)
        return (yield from _fail_dump(0, paths, keep))

    # -- adopt the old identity --------------------------------------------
    result = yield ("setreuid", cred.uid, cred.euid)
    if iserr(result):
        yield from print_err("restart: permission denied (%s)"
                             % errno_name(-result))
        return EX_FAIL  # not our files to remove
    result = yield ("chdir", info.cwd)
    if iserr(result):
        yield from print_err("restart: cannot chdir to %s: %s"
                             % (info.cwd, errno_name(-result)))
        return EX_FAIL

    # -- rebuild the descriptor table ----------------------------------------
    for save in range(3):
        yield ("dup2", save, _SAVE_BASE + save)
    placeholders = []
    for fd in range(_SAVE_BASE):
        yield from _restore_slot(fd, info.entries[fd], placeholders,
                                 saved=True)
    for save in range(3):
        yield ("close", _SAVE_BASE + save)
    for fd in range(_SAVE_BASE, NOFILE):
        yield from _restore_slot(fd, info.entries[fd], placeholders,
                                 saved=False)
    for fd in placeholders:
        yield ("close", fd)

    # -- terminal modes -----------------------------------------------------------
    tty_fd = yield ("open", "/dev/tty", O_RDWR, 0)
    if not iserr(tty_fd):
        yield ("ioctl", tty_fd, TIOCSETP, info.tty_flags)
        yield ("close", tty_fd)
    # (under rsh there is no terminal: modes cannot be preserved)

    # -- section 7 extension: remember who we used to be ---------------------------
    yield ("set_oldids", pid, info.hostname)

    # -- and go ----------------------------------------------------------------------
    result = yield ("rest_proc", aout_path, stack_path)
    # reached only on failure
    yield from print_err("restart: rest_proc failed: %s"
                         % errno_name(-result if iserr(result)
                                      else result))
    if not keep:
        yield from remove_files(paths)
    return EX_RESTPROC


def _fail_dump(err, paths, keep):
    """yield-from: classify a dump-verification failure.

    ``err`` is the failing return value (or 0 for a parse failure).
    Permission problems are EX_FAIL and never clean up (the dump
    belongs to somebody else); other read errors are transient (the
    files may be fine — it is the read that failed); a missing or
    corrupt file is EX_BADDUMP, and the orphaned remainder is removed
    unless ``-k`` was given.
    """
    if err in (-EACCES, -EPERM):
        return EX_FAIL
    if iserr(err) and err != -ENOENT:
        return EX_TRANSIENT
    if not keep:
        yield from remove_files(paths)
    return EX_BADDUMP


def _restore_slot(fd, entry, placeholders, saved):
    """Install the right object at descriptor ``fd``.

    Relies on open() assigning the lowest free descriptor: slots are
    rebuilt in ascending order with no holes, so each open lands
    exactly on ``fd``.
    """
    yield ("close", fd)  # whatever we held there (may be EBADF)
    if entry.kind == FD_FILE and entry.path:
        flags = entry.flags & (O_ACCMODE | O_APPEND)
        new_fd = yield ("open", entry.path, flags, 0)
        if not iserr(new_fd):
            if entry.path != "/dev/tty":
                yield ("lseek", new_fd, entry.offset, SEEK_SET)
            return
        if fd < 3:
            # stdio: try the terminal, then restart's own channel
            new_fd = yield ("open", "/dev/tty", O_RDWR, 0)
            if not iserr(new_fd):
                return
            if saved:
                new_fd = yield ("dup2", _SAVE_BASE + fd, fd)
                if not iserr(new_fd):
                    return
        yield ("open", "/dev/null", O_RDWR, 0)
        return
    if entry.kind == FD_SOCKET_BOUND:
        # the section 9 extension: re-establish the service endpoint
        new_fd = yield ("socket",)
        if not iserr(new_fd):
            bound = yield ("bind", new_fd, entry.port)
            if not iserr(bound):
                if entry.listening:
                    yield ("listen", new_fd)
                return
            yield ("close", new_fd)  # port taken: degrade to null
        yield ("open", "/dev/null", O_RDWR, 0)
        return
    if entry.kind == FD_SOCKET:
        # sockets (and pipes) cannot be migrated: /dev/null forever
        yield ("open", "/dev/null", O_RDWR, 0)
        return
    # unused slot: a placeholder only, closed again afterwards
    new_fd = yield ("open", "/dev/null", O_RDWR, 0)
    if not iserr(new_fd):
        placeholders.append(new_fd)
