"""Tests (incl. property-based) for the dump file formats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnixError
from repro.kernel.constants import NOFILE, FILES_MAGIC, STACK_MAGIC
from repro.kernel.cred import Credentials
from repro.kernel.signals import SigState, SIGUSR1, SIGTERM, SIG_IGN, NSIG
from repro.core.formats import (FdEntry, FilesInfo, StackInfo,
                                FD_FILE, FD_SOCKET, FD_SOCKET_BOUND,
                                FD_UNUSED, dump_file_names)
from repro.vm.image import Registers


def test_dump_file_names():
    assert dump_file_names(1234) == ("/usr/tmp/a.out1234",
                                     "/usr/tmp/files1234",
                                     "/usr/tmp/stack1234")
    assert dump_file_names(7, "/n/brick/usr/tmp")[0] == \
        "/n/brick/usr/tmp/a.out7"


def test_dump_names_map_back_to_their_dump():
    from repro.core.formats import (dump_dir, dump_migration_id, dump_pid,
                                    migration_id, stack_files_name)
    assert dump_dir("brick", "brick") == "/usr/tmp"
    assert dump_dir("brick", "schooner") == "/n/brick/usr/tmp"
    aout, files, stack = dump_file_names(42, dump_dir("brick", "x"))
    assert stack_files_name(stack) == files
    assert stack_files_name("stack7") == "files7"
    for other in ("/tmp/ck1.stack", "/usr/tmp/stack", "/tmp/stackX"):
        assert stack_files_name(other) is None
    assert migration_id("brick", 42) == "brick:42"
    assert dump_migration_id(aout, "x") == "brick:42"
    assert dump_migration_id("/usr/tmp/stack42", "x") == "x:-1"
    # the host is the one namei resolves the name on
    assert dump_migration_id("/n//brick/usr/tmp/a.out5", "x") == "brick:5"
    assert dump_migration_id("/n/./brick/usr/tmp/a.out5", "x") == "brick:5"
    assert dump_migration_id("/n/../usr/tmp/a.out5", "x") == "x:5"
    assert dump_pid("a.out42") == 42 and dump_pid("stack42", "stack") == 42
    assert dump_pid("a.out") is None and dump_pid("restart") is None


def test_stack_file_size_and_aout_sniff():
    from repro.core.formats import (CHUNKED_STACK_HEADER_SIZE,
                                    ChunkManifest, STACK_HEADER_SIZE,
                                    is_aout, stack_file_size)
    from repro.store import chunk_digest
    from repro.vm.aout import build_aout
    assert is_aout(build_aout(1, b"", b"")[:2])
    assert not is_aout(b"\x08\x01") and not is_aout(b"\x07")
    classic = StackInfo(stack=b"s" * 100).pack()
    assert stack_file_size(classic[:STACK_HEADER_SIZE]) == len(classic)
    manifest = ChunkManifest(64, 100, [chunk_digest(b"a"),
                                       chunk_digest(b"b")])
    chunked = StackInfo(stack_manifest=manifest).pack()
    assert stack_file_size(chunked[:CHUNKED_STACK_HEADER_SIZE]) == \
        len(chunked)
    doctored = StackInfo(stack_manifest=ChunkManifest(
        64, 50, [chunk_digest(b"a")])).pack()
    doctored = chunked[:STACK_HEADER_SIZE] + \
        doctored[STACK_HEADER_SIZE:]  # header says 100, manifest 50
    with pytest.raises(UnixError):
        stack_file_size(doctored[:CHUNKED_STACK_HEADER_SIZE])


def test_files_info_roundtrip():
    entries = [FdEntry() for __ in range(NOFILE)]
    entries[0] = FdEntry(FD_FILE, "/dev/console", 2, 0)
    entries[3] = FdEntry(FD_FILE, "/tmp/counter.out", 0o1011, 42)
    entries[5] = FdEntry(FD_SOCKET)
    info = FilesInfo("brick", "/u/alonso/work", entries, 0o30)
    back = FilesInfo.unpack(info.pack())
    assert back.hostname == "brick"
    assert back.cwd == "/u/alonso/work"
    assert back.tty_flags == 0o30
    assert back.entries == entries


def test_files_info_bad_magic():
    blob = FilesInfo("x", "/").pack()
    corrupted = b"\x00\x00" + blob[2:]
    with pytest.raises(UnixError):
        FilesInfo.unpack(corrupted)


def test_files_info_truncated():
    blob = FilesInfo("brick", "/tmp").pack()
    with pytest.raises(UnixError):
        FilesInfo.unpack(blob[:10])


def test_files_magic_is_0445():
    blob = FilesInfo("x", "/").pack()
    assert int.from_bytes(blob[:2], "little") == 0o445 == FILES_MAGIC


def test_stack_magic_is_0444():
    blob = StackInfo().pack()
    assert int.from_bytes(blob[:2], "little") == 0o444 == STACK_MAGIC


def test_stack_info_roundtrip():
    regs = Registers()
    regs.d = list(range(8))
    regs.a = [16 * i for i in range(8)]
    regs.pc = 0x1234
    regs.zf = True
    sig = SigState()
    sig.set_handler(SIGUSR1, 0x2000)
    sig.set_handler(SIGTERM, SIG_IGN)
    info = StackInfo(Credentials(100, 10, 100, 10),
                     b"\x01\x02\x03\x04" * 10, regs, sig)
    back = StackInfo.unpack(info.pack())
    assert back.cred == info.cred
    assert back.stack == info.stack
    assert back.registers == regs
    assert back.sigstate.handlers[SIGUSR1] == 0x2000
    assert back.sigstate.handlers[SIGTERM] == SIG_IGN


def test_stack_peek_header():
    info = StackInfo(Credentials(7, 8, 9, 10), b"S" * 99)
    cred, size = StackInfo.peek_header(info.pack())
    assert cred == Credentials(7, 8, 9, 10)
    assert size == 99


def test_stack_bad_magic():
    with pytest.raises(UnixError):
        StackInfo.unpack(b"\xff\xff" + b"\x00" * 64)
    with pytest.raises(UnixError):
        StackInfo.peek_header(b"\xff\xff" + b"\x00" * 64)


def test_uncatchable_signals_forced_default_on_restore():
    """A tampered stack file cannot smuggle a SIGKILL handler in."""
    from repro.kernel.signals import SIGKILL, SIGDUMP, SIG_DFL
    sig = SigState()
    blob = bytearray(sig.pack())
    import struct
    struct.pack_into("<i", blob, 4 * SIGKILL, 0xDEAD)
    struct.pack_into("<i", blob, 4 * SIGDUMP, 0xBEEF)
    back = SigState.unpack(bytes(blob))
    assert back.handlers[SIGKILL] == SIG_DFL
    assert back.handlers[SIGDUMP] == SIG_DFL


# -- property-based tests ---------------------------------------------------

_path = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters='"'),
    min_size=1, max_size=80).map(lambda s: "/" + s)

_fd_entry = st.one_of(
    st.just(FdEntry(FD_UNUSED)),
    st.just(FdEntry(FD_SOCKET)),
    st.builds(FdEntry, st.just(FD_FILE), _path,
              st.integers(0, 0o7777), st.integers(0, 1 << 30)),
    st.builds(lambda port, listening: FdEntry(
        FD_SOCKET_BOUND, port=port, listening=listening),
        st.integers(1, 65535), st.booleans()),
)


@given(hostname=st.text(alphabet="abcdefgh", min_size=1, max_size=16),
       cwd=_path,
       entries=st.lists(_fd_entry, min_size=NOFILE, max_size=NOFILE),
       tty_flags=st.integers(0, 0xFFFF))
@settings(max_examples=60)
def test_files_info_roundtrip_property(hostname, cwd, entries,
                                       tty_flags):
    info = FilesInfo(hostname, cwd, entries, tty_flags)
    back = FilesInfo.unpack(info.pack())
    assert back.hostname == hostname
    assert back.cwd == cwd
    assert back.entries == entries
    assert back.tty_flags == tty_flags


@given(stack=st.binary(max_size=2048),
       d=st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1),
                  min_size=8, max_size=8),
       a=st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1),
                  min_size=8, max_size=8),
       pc=st.integers(0, 2 ** 32 - 1),
       uid=st.integers(0, 2 ** 16), gid=st.integers(0, 2 ** 16))
@settings(max_examples=60)
def test_stack_info_roundtrip_property(stack, d, a, pc, uid, gid):
    regs = Registers()
    regs.d = d
    regs.a = a
    regs.pc = pc
    info = StackInfo(Credentials(uid, gid), stack, regs)
    back = StackInfo.unpack(info.pack())
    assert back.stack == stack
    assert back.registers.d == d
    assert back.registers.a == a
    assert back.registers.pc == pc
    assert back.cred.uid == uid


@given(blob=st.binary(max_size=300))
@settings(max_examples=80)
def test_unpack_never_crashes_unstructured(blob):
    """Garbage input must raise UnixError, never anything else."""
    for parser in (FilesInfo.unpack, StackInfo.unpack,
                   StackInfo.peek_header):
        try:
            parser(blob)
        except UnixError:
            pass


# -- one owner for the dump-file protocol, the remote-name rule and the
# -- remote-execution protocol ------------------------------------------------

#: the modules that define the protocol: names, ids, sniff and sizes
_PROTOCOL_OWNERS = {"core/formats.py", "kernel/constants.py",
                    "vm/aout.py"}
#: the module that defines ``/n/<host>``: ``remote_name``,
#: ``split_remote`` and ``MOUNT_DIR``
_REMOTE_OWNERS = {"fs/paths.py"}
#: the module that defines rsh's and migrationd's request and reply
_EXEC_OWNERS = {"net/remote.py"}
#: modules that define a struct the stack file embeds, and may spell
#: its own size
_STRUCT_OWNERS = {"kernel/cred.py", "kernel/signals.py", "vm/image.py"}

#: (module, enclosing function, literal) -> uses that only look like
#: the protocol
_ALLOWED = {
    # every machine boots with the dump directory, world-writable, and
    # a reboot wipes it
    ("machine/machine.py", "", "/usr/tmp"): 1,
    ("machine/machine.py", "Machine._setup_fs", "/usr/tmp"): 1,
    ("machine/machine.py", "Machine.reboot", "/usr/tmp"): 1,
    # figure 1 times chdir() into an existing directory
    ("bench/figures.py", "_chdir_workload", "/usr/tmp"): 1,
    # host:number ids that are not migration ids: loadd's balance
    # round, statd's sample, a socket address
    ("programs/loadd.py", "_balance", "%s:%d"): 1,
    ("programs/statd.py", "statd_main", "%s:%d"): 1,
    ("net/network.py", "Network.sock_connect", "%s:%d"): 4,
    # deployment settings: where the ledger and the statd spool live
    ("costmodel.py", "CostModel", "/n/brador/usr/spool/migledger"): 1,
    ("costmodel.py", "CostModel", "/n/brador/usr/spool/statd"): 1,
    # a fault rule's n=<count> option, not a path component
    ("faults/plan.py", "FaultPlan._parse_rule", "n"): 1,
}

#: protocol names that must come from ``repro.core.formats`` itself
_REEXPORTED = {"REC_NAME", "OK_NAME", "dump_migration_id"}

_DUMP_PREFIXES = ("a.out", "files", "stack")
_ARCHIVE_KINDS = ("aout", "files", "stack")


def _literal_leak(value, parent):
    """What rule a string or bytes literal spells, or None."""
    import ast
    import re
    if isinstance(value, bytes):
        value = value.decode("latin-1")
    if "\x00EXIT:" in value or value.startswith("CMD "):
        return "remote protocol"
    if "/n/" in value or (value == "n" and isinstance(parent,
                                                      ast.Compare)):
        return "remote name"
    if "/usr/tmp" in value:
        return "dump directory"
    if re.search(r"(a\.out|files|stack)%", value) or (
            value in _DUMP_PREFIXES and _builds_a_name(parent)):
        return "dump file name"
    if re.search(r"(^|/)(rec|dump\.(ok|aout|files|stack|%s))$", value) \
            or re.search(r"ck%d|fd%d", value):
        return "archive or ledger file name"
    if "%s:%d" in value or re.fullmatch(r"[a-z][\w-]*:%d", value):
        return "migration id"
    if "HIIH" in value:
        return "manifest header layout"
    return None


def _builds_a_name(node):
    """Whether ``node`` (a literal's parent) glues or matches it as
    part of a file name: ``+``, ``%``, ``len()``, ``startswith()``."""
    import ast
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Mod))
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "len") or (
            isinstance(func, ast.Attribute)
            and func.attr in ("startswith", "endswith"))
    return False


def _protocol_leaks(root):
    """``module:line: rule: what`` for every place outside the
    owners that spells a piece of the dump-file protocol, of the
    remote-name rule or of the remote-execution protocol."""
    import ast
    import os
    leaks, counts = [], {}
    for dirpath, __, names in os.walk(root):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            module = os.path.relpath(path, root).replace(os.sep, "/")
            tree = ast.parse(open(path).read())
            docstrings = set()
            parents = {}
            scopes = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef)) and node.body \
                        and isinstance(node.body[0], ast.Expr) \
                        and isinstance(node.body[0].value, ast.Constant):
                    docstrings.add(id(node.body[0].value))
                scope = scopes.get(id(node), "")
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                        scopes[id(child)] = (scope + "." + child.name
                                             ).lstrip(".")
                    else:
                        scopes[id(child)] = scope

            def leak(node, rule, what):
                if module in {"remote name": _REMOTE_OWNERS,
                              "remote protocol": _EXEC_OWNERS}.get(
                                  rule, _PROTOCOL_OWNERS):
                    return
                key = (module, scopes[id(node)], what)
                counts[key] = counts.get(key, 0) + 1
                if counts[key] > _ALLOWED.get(key, 0):
                    leaks.append("%s:%d: %s: %r" % (module, node.lineno,
                                                    rule, what))

            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, (str, bytes)) \
                        and id(node) not in docstrings:
                    rule = _literal_leak(node.value,
                                         parents.get(id(node)))
                    if rule:
                        leak(node, rule, node.value)
                elif isinstance(node, (ast.Tuple, ast.List)) and all(
                        isinstance(elt, ast.Constant)
                        for elt in node.elts) and tuple(
                        elt.value for elt in node.elts) in (
                        _DUMP_PREFIXES, _ARCHIVE_KINDS):
                    leak(node, "dump or archive kinds",
                         tuple(elt.value for elt in node.elts))
                elif isinstance(node, ast.ImportFrom) and any(
                        (node.module, alias.name) in (
                            ("repro.kernel.cred", "PACKED_SIZE"),
                            ("repro.vm.aout", "AOUT_MAGIC"),
                            ("repro.vm", "AOUT_MAGIC"),
                            ("repro.vm.aout", "HEADER_SIZE"))
                        for alias in node.names) \
                        and module != "vm/__init__.py":
                    leak(node, "a.out sniff or size rule",
                         ", ".join(alias.name for alias in node.names))
                elif isinstance(node, ast.ImportFrom) \
                        and node.module != "repro.core.formats" \
                        and (module, node.module) != ("obs/__init__.py",
                                                      "repro.obs.tracer") \
                        and any(alias.name in _REEXPORTED
                                for alias in node.names):
                    leak(node, "protocol name from a second owner",
                         "%s from %s" % (", ".join(
                             alias.name for alias in node.names
                             if alias.name in _REEXPORTED), node.module))
                elif isinstance(node, ast.Attribute) and node.attr in (
                        "PACKED_SIZE", "FORMAT", "HEADER_SIZE") \
                        and module not in _STRUCT_OWNERS:
                    leak(node, "stack-file size rule", node.attr)
    return leaks


def _leaks():
    import os
    import repro
    return _protocol_leaks(os.path.dirname(repro.__file__))


def test_only_formats_spells_the_dump_file_protocol():
    """Dump, archive and ledger file names, the ``host:pid`` migration
    id, the a.out sniff and the stack-file size rule are defined in
    ``core/formats.py`` (with the magics in ``kernel/constants.py``
    and the a.out header in ``vm/aout.py``); every other module calls
    those definitions.  Outside docstrings, no literal or struct size
    elsewhere may respell them, beyond the ``_ALLOWED`` look-alikes."""
    assert [leak for leak in _leaks() if ": remote name: " not in leak
            and ": remote protocol: " not in leak] == []


def test_only_paths_spells_the_remote_name_rule():
    """``/n/<host>`` naming is ``fs/paths.py``'s: outside docstrings no
    other module holds a ``"/n/"`` literal or compares a path
    component with ``"n"``, beyond the ``_ALLOWED`` knob defaults and
    look-alike."""
    assert [leak for leak in _leaks() if ": remote name: " in leak] == []


def test_only_remote_spells_the_remote_execution_protocol():
    """rsh and migrationd share one protocol, ``net/remote.py``'s:
    outside docstrings no other module holds the ``CMD `` request
    prefix or the ``\\x00EXIT:`` reply sentinel."""
    assert [leak for leak in _leaks()
            if ": remote protocol: " in leak] == []
