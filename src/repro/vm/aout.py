"""The ``a.out`` executable format.

The header mirrors the classic BSD ``exec`` structure: a magic number
(0407, OMAGIC — text and data loaded contiguously and writable), a
machine id identifying the CPU the program was built for, segment
sizes and the entry point.

The same format serves two purposes, exactly as in the paper:

* programs on disk are ``a.out`` files produced by the assembler;
* the ``a.outXXXXX`` file produced by ``SIGDUMP`` is a *runnable*
  ``a.out`` whose data segment holds the live values from the dumped
  process ("this gives us, incidentally, the undump utility for
  free").
"""

import struct

from repro.errors import UnixError, ENOEXEC

#: 0407 — OMAGIC, the old impure format
AOUT_MAGIC = 0o407

#: header flag bit: the file carries chunk *manifests* instead of the
#: raw text and data segments (incremental dumps, DESIGN.md section
#: 10).  The magic stays 0407 so a plain two-byte sniff — which is all
#: ``dumpproc`` and ``restart`` do before handing the file to the
#: kernel — accepts both layouts.
AOUT_FLAG_CHUNKED = 0x1

_HEADER = struct.Struct("<HHIIIIII")
HEADER_SIZE = _HEADER.size


class AOutHeader:
    """Parsed ``a.out`` header."""

    def __init__(self, machine_id, text_size, data_size, bss_size,
                 entry, sym_size=0, flags=0):
        self.magic = AOUT_MAGIC
        self.machine_id = machine_id
        self.text_size = text_size
        self.data_size = data_size
        self.bss_size = bss_size
        self.entry = entry
        self.sym_size = sym_size
        self.flags = flags

    def pack(self):
        return _HEADER.pack(self.magic, self.machine_id, self.text_size,
                            self.data_size, self.bss_size, self.entry,
                            self.sym_size, self.flags)

    @classmethod
    def unpack(cls, blob):
        if len(blob) < HEADER_SIZE:
            raise UnixError(ENOEXEC, "short a.out header")
        (magic, machine_id, text_size, data_size, bss_size, entry,
         sym_size, flags) = _HEADER.unpack_from(blob)
        if magic != AOUT_MAGIC:
            raise UnixError(ENOEXEC, "bad a.out magic 0o%o" % magic)
        header = cls(machine_id, text_size, data_size, bss_size, entry,
                     sym_size, flags)
        return header

    def __repr__(self):
        return ("AOutHeader(mid=%d text=%d data=%d bss=%d entry=0x%x)"
                % (self.machine_id, self.text_size, self.data_size,
                   self.bss_size, self.entry))


def build_aout(machine_id, text, data, bss_size=0, entry=None,
               text_base=0x1000):
    """Assemble header + segments into ``a.out`` file bytes."""
    if entry is None:
        entry = text_base
    header = AOutHeader(machine_id, len(text), len(data), bss_size, entry)
    return header.pack() + bytes(text) + bytes(data)


def parse_aout(blob):
    """Split ``a.out`` bytes into ``(header, text, data)``.

    Raises :class:`~repro.errors.UnixError` with ``ENOEXEC`` when the
    file is not a valid executable — the same error ``execve()``
    reports for garbage files.  Chunked files (``AOUT_FLAG_CHUNKED``)
    carry manifests, not segments; callers must split on the flag
    before parsing.
    """
    header = AOutHeader.unpack(blob)
    if header.flags & AOUT_FLAG_CHUNKED:
        raise UnixError(ENOEXEC, "chunked a.out has no inline segments")
    check_length(header, len(blob))
    text_start = HEADER_SIZE
    data_start = text_start + header.text_size
    text = bytes(blob[text_start:data_start])
    data = bytes(blob[data_start:data_start + header.data_size])
    return header, text, data


def check_length(header, size):
    """Raise ``ENOEXEC`` unless ``size`` bytes hold the header and the
    inline segments it describes."""
    need = HEADER_SIZE + header.text_size + header.data_size
    if size < need:
        raise UnixError(ENOEXEC, "truncated a.out: %d < %d" % (size, need))
