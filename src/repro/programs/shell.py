"""``sh`` — a small Bourne-flavoured shell.

Supports what the era's scripts leaned on:

* simple commands, resolved under ``/bin`` (or by explicit path);
* pipelines: ``cat /etc/motd | wc``;
* redirections: ``>``, ``>>``, ``<``;
* sequencing with ``;`` and background jobs with ``&``;
* builtins: ``cd``, ``exit``, ``wait``;
* ``sh -c "line"`` one-shot mode (what rshd uses to run remote
  commands) and an interactive prompt otherwise.

No quoting/globbing/variables — this is the 1987 machine room, not a
login environment.
"""

import re

from repro.errors import iserr, errno_name, ECHILD
from repro.kernel.constants import (O_APPEND, O_CREAT, O_RDONLY,
                                    O_TRUNC, O_WRONLY)
from repro.programs.base import (LineReader, exit_status, print_err,
                                 write_all)

_SPECIALS = re.compile(r"(\|{1}|;|&|>>|>|<)")


def tokenize(line):
    """Split a command line, isolating the shell metacharacters."""
    padded = _SPECIALS.sub(r" \1 ", line)
    return padded.split()


class _Command:
    """One simple command with its redirections."""

    def __init__(self):
        self.argv = []
        self.stdin_path = None
        self.stdout_path = None
        self.stdout_append = False


def parse_pipeline(tokens):
    """Tokens (no ``;``/``&``) -> list of _Command, or error string."""
    commands = [_Command()]
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token == "|":
            if not commands[-1].argv:
                return "syntax error near |"
            commands.append(_Command())
        elif token in (">", ">>", "<"):
            if index + 1 >= len(tokens):
                return "syntax error near %s" % token
            target = tokens[index + 1]
            index += 1
            if token == "<":
                commands[-1].stdin_path = target
            else:
                commands[-1].stdout_path = target
                commands[-1].stdout_append = token == ">>"
        else:
            commands[-1].argv.append(token)
        index += 1
    if not commands[-1].argv:
        return "syntax error: empty command"
    return commands


def _resolve(name):
    return name if "/" in name else "/bin/%s" % name


def sh_main(argv, env):
    if len(argv) >= 3 and argv[1] == "-c":
        status = yield from _run_line(" ".join(argv[2:]), [])
        return status

    # interactive: prompt, read, run, repeat
    reader = LineReader(0)
    background = []
    while True:
        yield from write_all(1, "$ ")
        line = yield from reader.readline()
        if line is None:
            return 0
        if not line.strip():
            continue
        status = yield from _run_line(line, background)
        if status is None:  # the exit builtin
            return 0


def _run_line(line, background_jobs):
    """Execute one command line; returns the last status (None=exit)."""
    status = 0
    for chunk in line.split(";"):
        tokens = tokenize(chunk)
        if not tokens:
            continue
        background = False
        if tokens[-1] == "&":
            background = True
            tokens = tokens[:-1]
            if not tokens:
                yield from print_err("sh: syntax error near &")
                status = 2
                continue

        # builtins (standalone only)
        if tokens[0] == "exit":
            return None
        if tokens[0] == "cd":
            target = tokens[1] if len(tokens) > 1 else "/"
            result = yield ("chdir", target)
            if iserr(result):
                yield from print_err("sh: cd: %s: %s"
                                     % (target, errno_name(-result)))
                status = 1
            else:
                status = 0
            continue
        if tokens[0] == "wait":
            while True:
                result = yield ("wait",)
                if iserr(result):
                    break
            background_jobs.clear()
            status = 0
            continue

        commands = parse_pipeline(tokens)
        if isinstance(commands, str):
            yield from print_err("sh: " + commands)
            status = 2
            continue
        status = yield from _run_pipeline(commands, background,
                                          background_jobs)
    return status


def _run_pipeline(commands, background, background_jobs):
    """Spawn every stage, wired through pipes; wait unless ``&``."""
    pids = []
    prev_read = None
    failed = False
    for index, command in enumerate(commands):
        stdin_fd = prev_read
        stdout_fd = None
        next_read = None
        to_close = []

        if command.stdin_path is not None:
            stdin_fd = yield ("open", command.stdin_path, O_RDONLY, 0)
            if iserr(stdin_fd):
                yield from print_err("sh: %s: %s"
                                     % (command.stdin_path,
                                        errno_name(-stdin_fd)))
                failed = True
                stdin_fd = None
            else:
                to_close.append(stdin_fd)
        if command.stdout_path is not None:
            flags = O_WRONLY | O_CREAT | (
                O_APPEND if command.stdout_append else O_TRUNC)
            stdout_fd = yield ("open", command.stdout_path, flags,
                               0o644)
            if iserr(stdout_fd):
                yield from print_err("sh: %s: %s"
                                     % (command.stdout_path,
                                        errno_name(-stdout_fd)))
                failed = True
                stdout_fd = None
            else:
                to_close.append(stdout_fd)
        elif index < len(commands) - 1:
            next_read, pipe_write = yield ("pipe",)
            stdout_fd = pipe_write
            to_close.append(pipe_write)

        if not failed:
            pid = yield ("spawn", _resolve(command.argv[0]),
                         command.argv, (stdin_fd, stdout_fd, None))
            if iserr(pid):
                yield from print_err("sh: %s: %s"
                                     % (command.argv[0],
                                        errno_name(-pid)))
                failed = True
            else:
                pids.append(pid)

        for fd in to_close:
            yield ("close", fd)
        if prev_read is not None:
            yield ("close", prev_read)
        prev_read = next_read
        if failed:
            break
    if prev_read is not None:
        yield ("close", prev_read)

    if background:
        background_jobs.extend(pids)
        return 0
    status = 1 if failed else 0
    remaining = set(pids)
    while remaining:
        result = yield ("wait",)
        if iserr(result):
            if result == -ECHILD:
                break
            return 1
        reaped, raw = result
        if reaped in remaining:
            remaining.discard(reaped)
            if reaped == pids[-1]:
                status = exit_status(raw)
    return status
