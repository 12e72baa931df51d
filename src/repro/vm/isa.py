"""Instruction set architecture of the simulated 68k-flavoured CPUs.

Instructions are a fixed ten bytes::

    byte 0      opcode
    byte 1      addressing modes (source in the low nibble,
                destination in the high nibble)
    bytes 2-5   source operand, little-endian signed 32-bit
    bytes 6-9   destination operand, little-endian signed 32-bit

Two CPU models are defined.  ``MC68010`` (the Sun-2 processor)
implements the base set; ``MC68020`` (the Sun-3) implements a strict
superset, adding ``MULL``, ``DIVL`` and ``BFEXT``.  A program that was
compiled for the 68020 and uses those instructions will take an
illegal-instruction fault on a 68010 — which is exactly the
heterogeneity limitation of section 7 of the paper.
"""

import struct


class Op:
    """Opcode numbers."""

    NOP = 0
    HALT = 1
    MOVE = 2
    MOVB = 3
    LEA = 4
    ADD = 5
    SUB = 6
    MUL = 7
    DIV = 8
    MOD = 9
    AND = 10
    OR = 11
    XOR = 12
    NOT = 13
    NEG = 14
    SHL = 15
    SHR = 16
    CMP = 17
    TST = 18
    BRA = 19
    BEQ = 20
    BNE = 21
    BLT = 22
    BLE = 23
    BGT = 24
    BGE = 25
    JSR = 26
    RTS = 27
    PUSH = 28
    POP = 29
    TRAP = 30
    # -- 68020-only extensions --
    MULL = 31
    DIVL = 32
    BFEXT = 33


class Mode:
    """Operand addressing modes."""

    IMM = 0  #: immediate value
    DREG = 1  #: data register d0-d7
    AREG = 2  #: address register a0-a7 (a7 is the stack pointer)
    ABS = 3  #: absolute memory address
    IND = 4  #: memory at (aN)
    IND_DISP = 5  #: memory at disp(aN); operand packs (disp << 3) | n


OP_NAMES = {
    value: name.lower()
    for name, value in vars(Op).items()
    if not name.startswith("_")
}

NAME_TO_OP = {name: value for value, name in OP_NAMES.items()}

#: opcodes that take no operands
ZERO_OPERAND = {Op.NOP, Op.HALT, Op.RTS, Op.TRAP}
#: opcodes that take exactly one operand (stored in the src slot,
#: except NOT/NEG/TST/POP which operate on a destination)
ONE_OPERAND_SRC = {Op.BRA, Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT,
                   Op.BGE, Op.JSR, Op.PUSH}
ONE_OPERAND_DST = {Op.NOT, Op.NEG, Op.TST, Op.POP}
#: everything else takes src, dst
TWO_OPERAND = {
    Op.MOVE, Op.MOVB, Op.LEA, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
    Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.CMP,
    Op.MULL, Op.DIVL, Op.BFEXT,
}

#: branch opcodes (target is an absolute address in the src slot)
BRANCHES = {Op.BRA, Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE}

INSTRUCTION_SIZE = 10

_STRUCT = struct.Struct("<BBii")


def encode(opcode, src_mode=0, src=0, dst_mode=0, dst=0):
    """Encode one instruction to its ten-byte form."""
    modes = (src_mode & 0x0F) | ((dst_mode & 0x0F) << 4)
    return _STRUCT.pack(opcode, modes, src, dst)


def decode(blob, offset=0):
    """Decode the instruction at ``offset``.

    Returns ``(opcode, src_mode, src, dst_mode, dst)``.
    """
    opcode, modes, src, dst = _STRUCT.unpack_from(blob, offset)
    return opcode, modes & 0x0F, src, (modes >> 4) & 0x0F, dst


def pack_ind_disp(disp, reg):
    """Pack a displacement-plus-register operand for Mode.IND_DISP."""
    if not 0 <= reg <= 7:
        raise ValueError("address register out of range: %d" % reg)
    if not -(1 << 27) <= disp < (1 << 27):
        raise ValueError("displacement out of range: %d" % disp)
    return (disp << 3) | reg


def unpack_ind_disp(operand):
    """Inverse of :func:`pack_ind_disp`; returns ``(disp, reg)``."""
    return operand >> 3, operand & 0x7


class CpuModel:
    """A CPU model: a name, an a.out machine id, and an opcode set."""

    def __init__(self, name, machine_id, opcodes):
        self.name = name
        self.machine_id = machine_id
        self.opcodes = frozenset(opcodes)

    def supports(self, opcode):
        return opcode in self.opcodes

    def __repr__(self):
        return "CpuModel(%s)" % self.name


_BASE_OPCODES = [op for op in OP_NAMES if op <= Op.TRAP]
_EXT_OPCODES = list(OP_NAMES)

MC68010 = CpuModel("mc68010", 1, _BASE_OPCODES)
MC68020 = CpuModel("mc68020", 2, _EXT_OPCODES)

_MODELS = {m.name: m for m in (MC68010, MC68020)}
_MODELS_BY_ID = {m.machine_id: m for m in (MC68010, MC68020)}


def cpu_model(name_or_id):
    """Look up a CPU model by name (``"mc68010"``) or machine id."""
    if isinstance(name_or_id, CpuModel):
        return name_or_id
    if isinstance(name_or_id, int):
        try:
            return _MODELS_BY_ID[name_or_id]
        except KeyError:
            raise KeyError("unknown machine id %d" % name_or_id) from None
    try:
        return _MODELS[str(name_or_id).lower()]
    except KeyError:
        raise KeyError("unknown CPU model %r" % name_or_id) from None
