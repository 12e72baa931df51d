"""Tests for the assembler and a.out format."""

import pytest

from repro.vm import (assemble, AssemblyError, parse_aout, build_aout,
                      AOUT_MAGIC)
from repro.vm import isa
from repro.vm.isa import Op, Mode
from repro.vm.image import TEXT_BASE
from repro.errors import UnixError, ENOEXEC


def test_empty_source_assembles():
    out = assemble("")
    header, text, data = parse_aout(out.aout)
    assert header.magic == AOUT_MAGIC
    assert text == b""
    assert data == b""
    assert out.entry == TEXT_BASE


def test_simple_move_encoding():
    out = assemble("move #42, d3")
    opcode, src_mode, src, dst_mode, dst = isa.decode(out.text, 0)
    assert opcode == Op.MOVE
    assert src_mode == Mode.IMM and src == 42
    assert dst_mode == Mode.DREG and dst == 3


def test_labels_resolve_to_addresses():
    out = assemble("""
start:  nop
next:   bra start
""")
    assert out.symbols["start"] == TEXT_BASE
    assert out.symbols["next"] == TEXT_BASE + isa.INSTRUCTION_SIZE
    opcode, src_mode, src, _, _ = isa.decode(
        out.text, isa.INSTRUCTION_SIZE)
    assert opcode == Op.BRA
    assert src == TEXT_BASE


def test_data_labels_follow_text():
    out = assemble("""
        move msg, d0
        .data
msg:    .asciz "hi"
""")
    assert out.symbols["msg"] == TEXT_BASE + len(out.text)
    assert out.data == b"hi\x00"


def test_equates_and_expressions():
    out = assemble("""
FOO = 10
BAR = FOO + 5
        move #BAR - 1, d0
""")
    _, _, src, _, _ = isa.decode(out.text, 0)
    assert src == 14


def test_char_literal_immediate():
    out = assemble(r"move #'\n', d0")
    _, _, src, _, _ = isa.decode(out.text, 0)
    assert src == 10


def test_indirect_and_displacement_operands():
    out = assemble("move 8(a2), d1")
    _, src_mode, src, _, _ = isa.decode(out.text, 0)
    assert src_mode == Mode.IND_DISP
    disp, reg = isa.unpack_ind_disp(src)
    assert disp == 8 and reg == 2


def test_sp_is_a7():
    out = assemble("move (sp), d0")
    _, src_mode, src, _, _ = isa.decode(out.text, 0)
    assert src_mode == Mode.IND and src == 7


def test_negative_displacement():
    out = assemble("move -4(sp), d0")
    _, src_mode, src, _, _ = isa.decode(out.text, 0)
    disp, reg = isa.unpack_ind_disp(src)
    assert disp == -4 and reg == 7


def test_word_and_byte_directives():
    out = assemble("""
        .data
vals:   .word 1, 2, 0x10
bs:     .byte 1, 255
""")
    assert out.data[:12] == (b"\x01\x00\x00\x00"
                             b"\x02\x00\x00\x00"
                             b"\x10\x00\x00\x00")
    assert out.data[12:] == b"\x01\xff"


def test_space_and_align():
    out = assemble("""
        .data
a:      .byte 1
        .align 4
b:      .word 2
""")
    assert out.symbols["b"] - out.symbols["a"] == 4


def test_string_escapes():
    out = assemble(r"""
        .data
s:      .asciz "a\tb\n"
""")
    assert out.data == b"a\tb\n\x00"


def test_unknown_instruction_is_error():
    with pytest.raises(AssemblyError):
        assemble("frobnicate d0, d1")


def test_unknown_directive_is_error():
    with pytest.raises(AssemblyError):
        assemble(".bogus 12")


def test_undefined_symbol_is_error():
    with pytest.raises(AssemblyError):
        assemble("move #nosuch, d0")


def test_duplicate_label_is_error():
    with pytest.raises(AssemblyError):
        assemble("x: nop\nx: nop")


def test_wrong_operand_count_is_error():
    with pytest.raises(AssemblyError):
        assemble("move d0")
    with pytest.raises(AssemblyError):
        assemble("rts d0")


def test_68020_instruction_rejected_for_68010():
    with pytest.raises(AssemblyError):
        assemble("mull d0, d1", cpu="mc68010")


def test_68020_instruction_accepted_for_68020():
    out = assemble("mull d0, d1", cpu="mc68020")
    assert out.machine_id == 2
    opcode, _, _, _, _ = isa.decode(out.text, 0)
    assert opcode == Op.MULL


def test_entry_defaults_to_start_label():
    out = assemble("""
        nop
start:  nop
""")
    assert out.entry == TEXT_BASE + isa.INSTRUCTION_SIZE


def test_parse_aout_round_trip():
    blob = build_aout(1, b"T" * 20, b"D" * 8, bss_size=16, entry=0x1000)
    header, text, data = parse_aout(blob)
    assert header.machine_id == 1
    assert text == b"T" * 20
    assert data == b"D" * 8
    assert header.bss_size == 16


def test_parse_aout_bad_magic():
    with pytest.raises(UnixError) as exc:
        parse_aout(b"\x00" * 64)
    assert exc.value.errno == ENOEXEC


def test_parse_aout_truncated():
    blob = build_aout(1, b"T" * 100, b"")
    with pytest.raises(UnixError) as exc:
        parse_aout(blob[:40])
    assert exc.value.errno == ENOEXEC


def test_comment_handling():
    out = assemble("nop ; this is a comment\n; full line comment\n")
    assert len(out.text) == isa.INSTRUCTION_SIZE


# -- the guest-program assembly memo ---------------------------------------

GUESTS = ("counter", "cpuhog", "editor", "pidtemp", "envdep", "waiter",
          "sockuser", "portserver")


def _counting_assemble(monkeypatch):
    """Route the memo's assembler calls through a recorder; returns the
    list of ``(source, cpu)`` it sees."""
    from repro.vm import assembler
    real = assembler.assemble
    seen = []

    def counting(source, cpu="mc68010", **kwargs):
        seen.append((source, cpu))
        return real(source, cpu=cpu, **kwargs)
    monkeypatch.setattr(assembler, "assemble", counting)
    return seen


def test_memoized_guests_match_a_fresh_assembly(monkeypatch,
                                                 fresh_code_caches):
    import importlib
    seen = _counting_assemble(monkeypatch)
    for name in GUESTS:
        module = importlib.import_module("repro.programs.guest." + name)
        build = getattr(module, name + "_aout")
        first = build()
        source, cpu = seen[-1]
        memoized = build()
        assert len(seen) == GUESTS.index(name) + 1  # the second is a hit
        assert memoized is first
        assert memoized == assemble(source, cpu=cpu).aout


def test_memo_key_includes_the_cpu(fresh_code_caches):
    from repro.programs.guest import cpuhog
    from repro.programs.guest.libasm import program
    old = program(cpuhog.BODY, cpuhog.DATA, cpu="mc68010")
    new = program(cpuhog.BODY, cpuhog.DATA, cpu="mc68020")
    assert old.machine_id != new.machine_id
    assert program(cpuhog.BODY, cpuhog.DATA).machine_id == old.machine_id
    assert parse_aout(new.aout)[0].machine_id == new.machine_id


def test_site_setup_assembles_each_guest_once(monkeypatch,
                                              fresh_code_caches):
    from repro.core.api import MigrationSite
    seen = _counting_assemble(monkeypatch)
    MigrationSite()
    assert len(seen) == len(set(seen)) <= len(GUESTS)
    MigrationSite(workstations=["a", "b", "c", "d"])
    assert len(seen) == len(set(seen)) <= len(GUESTS)
