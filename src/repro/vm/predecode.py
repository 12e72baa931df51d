"""Trace compiler for the CPU interpreter.

The text segment of a process image never changes between execs (and
``text_version`` tells us when it does), so instead of re-decoding and
re-dispatching every instruction through :meth:`CPU.run`'s if-chain,
we compile whole *traces* once: a trace is a small set of straight-line
blocks linked by their statically-known branch targets, emitted as one
Python function.  A trace function has the signature::

    trace(d, a, mem, dp, lp, budget, zf, nf)
        -> (executed, next_pc, zf, nf, sig)

Six things make traces fast:

* **Block linking.**  A block that ends in a branch, ``jsr`` or
  fall-through whose target is another member block transfers control
  *inside* the generated function (``_pc = <head>; continue`` into a
  small dispatch loop) instead of returning to ``CPU._run``'s dict
  lookup.  A hot loop therefore executes entirely inside one Python
  frame.
* **In-trace register caching.**  Every ``d``/``a`` register the trace
  touches lives in a Python local (``rd0`` … ``ra7``) loaded once in
  the prologue; the registers the trace *writes* are spilled back to
  the register arrays at every exit (return or bail).  Because guards
  fire before the first mutation of their instruction, a spill at a
  bail point writes back exactly the committed pre-instruction values.
* **Budget checks per block, not per instruction.**  Each block is
  guarded once at its head (``if budget - _n < len: return``); the
  check that used to run before every instruction is gone.
  ``CPU._run`` never calls a trace with less budget than its entry
  block (``entry_len``).  A quantum's last ``r < entry_len``
  instructions at a pc run in a *tail trace* instead: the first ``r``
  instructions of that block alone (``compile_trace(..., tail=r)``),
  compiled once per ``(pc, r)``.  A prefix of a block holds no
  terminator and nothing uncompilable, so the tail trace retires its
  ``r`` instructions, leaves at a taken branch, or bails exactly where
  the interpreter would fault: no quantum ends on the interpreter.
* **Loop superblocks.**  A loop head whose in-trace cycle is simple
  (H -> B1 -> ... -> Bk -> H, each block with exactly one successor
  on the cycle) runs the whole cycle as one Python ``while`` loop in
  its dispatch arm, with one budget check per iteration:
  ``_n <= budget - S``, where ``S`` is the cycle's length widened to
  cover every block check the per-block arms would make, so exactly
  the same iterations run.  Side exits leave with their exact
  instruction offset; the not-taken side of an in-cycle conditional
  branch runs the rest of its block inline.  Once fewer than ``S``
  instructions of budget remain, control drops into the head's
  unchanged per-block arm (the loop's ``else``), which spends what is
  left block by block; once not even the next block fits, the trace
  returns and ``CPU._run`` finishes the quantum in a tail trace.
* **Promoted words.**  When an eager superblock's iteration reaches
  memory only through 4-byte-aligned absolute words (no indirect
  operand, stack traffic, byte access or trap), nothing in the loop
  can alias them, so each lives in a local (``m<k>`` for ``mv4[k]``)
  loaded before the ``while``.  Every way out — bail, return, linked
  ``break``, the not-taken tail of an in-cycle branch (which then runs
  on memory) and the ``else`` — first writes back the words the loop
  stores and marks their pages as the interpreter would: dirty once
  this iteration has stored the word, else only if an earlier one has
  (``dp[p] |= _n != _m``, ``_m`` being ``_n`` at loop entry).
* **Range-proven loops.**  A superblock whose wrap or sign tests could
  be proven dead gets a second copy, run first behind one guard at
  loop entry.  Each local an iteration reads is invariant, an
  induction (every write adds a value of known span to it, as
  ``add #1, d7`` or cpuhog's ``add d5, checksum``) or unknown.  With
  ``_k`` the most iterations the budget allows, an induction moved by
  a step in ``[lo, hi]`` stays within ``[x0 + _k * min(lo, 0), x0 + _k
  * max(hi, 0)]``, so one conjunction of linear tests puts every
  iteration's start inside a compile-time *seed* span per local.  The
  same emitter then compiles the copy from those seeds instead of the
  full 32-bit range, which deletes the wraps the spans prove dead and
  turns ``a % c if a >= 0 else -(-a % c)`` into ``a % c`` where the
  dividend's sign is known.  When the guard fails, or the copy's
  iterations are spent, the unchanged loop and its ``else`` run.
  Exits, bails and spills are the same code in both copies.

Flags and wraps are emitted only where they can matter.  A flag write
leaves ``zf``/``nf`` *pending* on the value it came from (``ctx.fsrc``):
conditional branches test the value (``if v2 < 0:``), and the flags are
stored only at exits, linked jumps, bails, before an instruction that
may bail, and at a loop's budget exit.  Results are wrapped to 32 bits
according to their span, given that every register and memory word
holds a signed 32-bit value (in a range-proven copy, that each carried
local starts the iteration in its seed span): no test inside the range,
one test when the result can only leave it on one side (``add #k``),
the two-sided mask otherwise.  A run of add/sub/mul/and/or/xor on one
data register whose intermediate values nobody observes is emitted as
one expression and wrapped once (wrapping is a ring homomorphism mod
2**32); it is never deferred past a div/mod/shift/cmp, a guard, an exit
or a live flag write.  ``move dX, dY`` followed by such an op (or a constant
div/mod, a shift, ``not``/``neg``) on ``dY`` folds into one expression.

``dp`` is the image's per-page dirty bitmap: every memory store marks
the page(s) it touches (a promoted word's, at the loop's exits),
exactly as the interpreter's ``write_u8`` / ``write_i32`` do, so
incremental dumps see the same dirty set on both engines.  ``lp`` is
its per-page *pending* bitmap (``ProcessImage.pending_pages``): a page
is flagged while a copy-on-reference chunk overlapping it has not been
faulted in.  Each text is compiled in two variants.  The eager variant
never reads ``lp``.  The lazy variant (``compile_trace(...,
lazy=True)``, run while an image has chunks pending) gives every
memory operand — absolute, indirect, ``push``/``pop``/``jsr``/``rts``
— a *pending guard*, ``or lp[page]`` chained after its bounds test
(``if lp[page]: <bail>`` for an absolute address; both pages when a
4-byte access straddles a boundary), so the interpreter replays the
access and faults the chunk in at the same instruction, in the same
quantum.

``sig`` is one of the :data:`SIG_OK`/``TRAP``/``HALT``/``BAIL`` codes
below.  ``BAIL`` means the instruction at ``next_pc`` was *not*
executed and **no state was touched for it**: every guard (address out
of range, store into the text segment, divide by a runtime zero) fires
before the first mutation of its instruction (in lazy traces: or a
page it touches is still pending), so the interpreter can
replay the instruction from scratch and produce the exact legacy
fault behaviour — partial-mutation order, fault pc, executed counts
and all.  That bail-before-mutate rule is what lets the fast path be
bit-identical to the reference interpreter.

Flag writes that can never be observed (overwritten before any branch,
bail point or trace exit reads them) are eliminated by a backward
liveness pass over each block and over each loop superblock's cycle;
every observation point — conditional branch, guarded instruction,
transfer, return — is treated as a read, so the architectural flags
are always current whenever anyone can look.

Anything the compiler cannot prove safe (stores through unknown
addressing modes, instructions the CPU model faults on, constant
divides by zero, ``lea`` to a non-address register) simply terminates
the block; the interpreter handles the next instruction.  Program
counters outside the text segment get the :data:`INTERP` marker and
always take the interpreter path, preserving the lazy decode semantics
for code executed out of data or stack.
"""

import sys

from repro.vm import isa
from repro.vm.isa import Op, Mode
from repro.vm.image import to_unsigned, PAGE_SHIFT

#: word-aligned absolute loads/stores go through a ``cast('i')``
#: memoryview — native-endian, so only when native is little like the
#: guest (the byte-slice path stays for the rare big-endian host)
_MV4_OK = sys.byteorder == "little"

#: marker cached for pcs that must go through the interpreter
INTERP = "interp"

SIG_OK = 0  #: ran to the end of what it could (or out of budget)
SIG_TRAP = 1  #: executed a trap instruction
SIG_HALT = 2  #: executed a halt instruction
SIG_BAIL = 3  #: instruction at next_pc needs the interpreter (untouched)

#: longest straight-line run compiled into one block
MAX_BLOCK_LEN = 64
#: most blocks linked into one trace function
TRACE_MAX_BLOCKS = 8

_ISIZE = isa.INSTRUCTION_SIZE

#: the ring ops: their result mod 2**32 depends only on their operands
#: mod 2**32, so a chain of them may wrap once at its end (_fold)
_ALU = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.MULL: "*",
        Op.AND: "&", Op.OR: "|", Op.XOR: "^"}

#: ops that read their destination and write the result back to it
_UPDATES = frozenset(_ALU) | {Op.DIV, Op.DIVL, Op.MOD, Op.SHL, Op.SHR,
                              Op.BFEXT, Op.NOT, Op.NEG}

_COND = {Op.BEQ: "zf", Op.BNE: "not zf", Op.BLT: "nf",
         Op.BLE: "nf or zf", Op.BGT: "not (nf or zf)", Op.BGE: "not nf"}
#: the same conditions tested on the value the flags are pending on
_TEST = {Op.BEQ: "%s == 0", Op.BNE: "%s != 0", Op.BLT: "%s < 0",
         Op.BLE: "%s <= 0", Op.BGT: "%s > 0", Op.BGE: "%s >= 0"}
_NEGATE = {Op.BEQ: Op.BNE, Op.BNE: Op.BEQ, Op.BLT: Op.BGE,
           Op.BGE: Op.BLT, Op.BLE: Op.BGT, Op.BGT: Op.BLE}

_I32_MIN = -2147483648
_I32_MAX = 2147483647
_U32 = 4294967296
#: the span of every register and memory word: always signed 32-bit
_FULL = (_I32_MIN, _I32_MAX)
#: longest deferred-wrap chain (bounds its nesting and operand growth)
_CHAIN_MAX = 16
#: a loop's seed spans leave room for at least this many steps of each
#: carried local (:func:`_prove_ranges`)
_REACH = 1 << 8

_WRAP = ("if %(v)s > 2147483647 or %(v)s < -2147483648: "
         "%(v)s = ((%(v)s & 4294967295) ^ 2147483648) - 2147483648")
_WRAP_HI = "if %(v)s > 2147483647: %(v)s -= 4294967296"
_WRAP_LO = "if %(v)s < -2147483648: %(v)s += 4294967296"

#: modes whose jump target is a compile-time constant
_STATIC = (Mode.IMM, Mode.ABS)
#: modes that need a runtime address guard (and may therefore bail)
_GUARDED = (Mode.IND, Mode.IND_DISP)

#: opcodes that set zf/nf (the flag-liveness pass elides dead writes)
_FLAG_WRITERS = frozenset((
    Op.MOVE, Op.MOVB, Op.ADD, Op.SUB, Op.MUL, Op.MULL, Op.DIV, Op.DIVL,
    Op.MOD, Op.AND, Op.OR, Op.XOR, Op.NOT, Op.NEG, Op.SHL, Op.SHR,
    Op.BFEXT, Op.CMP, Op.TST))


class _Uncompilable(Exception):
    """This instruction must end the block (interpreter handles it)."""


class _Ctx:
    """Compile context: layout constants, register mapping and exits.

    With ``dmap``/``amap`` unset the context is in *probe* mode —
    register references emit plain ``d[i]``/``a[i]`` subscripts — but
    either way every reference is recorded in the ``dused``/``aused``
    (and ``dwritten``/``awritten``) sets, so a probe pass over a block
    discovers exactly the registers the final pass will touch.
    """

    def __init__(self, text_end, mem_size, lazy=False, dmap=None,
                 amap=None, heads=frozenset(), spill=""):
        self.text_end = text_end
        self.mem_size = mem_size
        self.lazy = lazy  #: guard memory operands against pending pages
        self.dmap = dmap  #: reg -> local name, or None (probe mode)
        self.amap = amap
        self.heads = heads  #: pcs dispatchable inside this trace
        self.spill = spill  #: "d[0] = rd0; ..." prefix for every exit
        self.n = 0  #: index of the instruction within its block or loop
        self.pc = 0  #: its program counter
        self.flags_live = True  #: emit this instruction's flag writes?
        self.uses_mv4 = False  #: emit the cast-memoryview prologue?
        #: how a linked transfer re-enters the dispatch loop ("break"
        #: out of a loop superblock's ``while``)
        self.jump = "continue"
        #: pc the in-cycle edge being emitted continues to (no code)
        self.link = None
        #: the value zf/nf are pending on, or None when they are stored
        #: (or overwritten before anyone can look)
        self.fsrc = None
        #: ``[reg, expr, span, length, step]``: ring ops on ``d<reg>``
        #: whose single wrap is deferred to the flush (see :func:`_fold`)
        self.chain = None
        #: ``(reg, expr, span)``: reads of ``d<reg>`` see ``expr``
        self.alias = None
        #: in a promoting loop superblock (:func:`_promotable`): the
        #: aligned absolute words kept in locals ``m<k>``, those the
        #: loop stores (every exit writes them back) and those this
        #: iteration has stored so far
        self.words = frozenset()
        self.wb = ()
        self.stored = set()
        #: in a loop's range-proven copy (:func:`_prove_ranges`): the
        #: span each carried local starts an iteration in; None
        #: elsewhere, where every register and word may hold any signed
        #: 32-bit value
        self.seeds = None
        #: the spans of the locals written so far this iteration, each
        #: one's offset from its value at the iteration's start (None
        #: once anything but an add/sub has written it), the locals
        #: read at a span before any write, and the wrap and sign tests
        #: emitted
        self.spans = {}
        self.steps = {}
        self.exposed = set()
        self.tests = 0
        self.dused = set()
        self.aused = set()
        self.dwritten = set()
        self.awritten = set()

    # -- register references ----------------------------------------------

    def d(self, operand):
        i = operand & 7
        self.dused.add(i)
        if self.alias is not None and self.alias[0] == i:
            return self.alias[1]
        return self.dmap[i] if self.dmap is not None else "d[%d]" % i

    def a(self, operand):
        i = operand & 7
        self.aused.add(i)
        return self.amap[i] if self.amap is not None else "a[%d]" % i

    def dl(self, operand):
        i = operand & 7
        self.dused.add(i)
        self.dwritten.add(i)
        return self.dmap[i] if self.dmap is not None else "d[%d]" % i

    def al(self, operand):
        i = operand & 7
        self.aused.add(i)
        self.awritten.add(i)
        return self.amap[i] if self.amap is not None else "a[%d]" % i

    # -- value spans ----------------------------------------------------------

    def span(self, mode, operand):
        """The span of an operand's value."""
        if mode == Mode.IMM:
            return operand, operand
        if self.seeds is None:
            return _FULL
        if mode == Mode.DREG:
            i = operand & 7
            if self.alias is not None and self.alias[0] == i:
                return self.alias[2]
            return self._local_span(self.dmap[i])
        if mode == Mode.AREG:
            return self._local_span(self.amap[operand & 7])
        if mode == Mode.ABS and not operand % 4 and operand >> 2 in self.words:
            return self._local_span("m%d" % (operand >> 2))
        return _FULL

    def _local_span(self, name):
        span = self.spans.get(name)
        if span is None:
            self.exposed.add(name)
            span = self.seeds.get(name, _FULL)
        return span

    def put(self, name, span, step=None):
        """Record a write of a value in ``span`` to local ``name``;
        ``step``: the value is the local's old one plus a value in
        that span (mod 2**32), else None."""
        if self.seeds is None:
            return
        old = self.steps.get(name, (0, 0))
        self.steps[name] = None if old is None or step is None else (
            old[0] + step[0], old[1] + step[1])
        self.spans[name] = span

    # -- flags ----------------------------------------------------------------

    def flag_stores(self):
        """``zf``/``nf`` stores for pending flags ("" when stored)."""
        var = self.fsrc
        if var is None:
            return ""
        try:  # a constant's flags fold at compile time
            value = int(var)
        except ValueError:
            return "zf = %s == 0; nf = %s < 0; " % (var, var)
        return "zf = %r; nf = %r; " % (value == 0, value < 0)

    def cond(self, opcode):
        """The branch condition of ``opcode`` on the current flags."""
        if self.fsrc is None:
            return _COND[opcode]
        return _TEST[opcode] % self.fsrc

    # -- exits --------------------------------------------------------------

    def writeback(self, whole=False):
        """Stores of the promoted words the loop writes, each marking
        its page as the interpreter would: dirty once this iteration
        (or, ``whole``, any iteration) has stored the word, else only
        if an earlier iteration has (``_m`` is ``_n`` at loop entry)."""
        return "".join("mv4[%d] = m%d; dp[%d] %s; " % (
            k, k, (k << 2) >> PAGE_SHIFT,
            "= 1" if whole or k in self.stored else "|= _n != _m")
            for k in self.wb)

    def bail(self):
        """A return that hands this very instruction to the interpreter."""
        return "%s%s%sreturn _n + %d, %d, zf, nf, 3" % (
            self.flag_stores(), self.writeback(), self.spill, self.n,
            self.pc)

    def stop(self, sig):
        """Return after executing this instruction (trap/halt)."""
        return "%s%s%sreturn _n + %d, %d, zf, nf, %d" % (
            self.flag_stores(), self.writeback(), self.spill, self.n + 1,
            self.pc + _ISIZE, sig)

    def exit(self, count, target):
        """Leave the trace for ``target`` (an expression string)."""
        return "%s%s%sreturn _n + %d, %s, zf, nf, 0" % (
            self.flag_stores(), self.writeback(), self.spill, count, target)

    def transfer(self, count, static, expr):
        """One-line control transfer after ``count`` instructions of
        this block or loop iteration: nothing along the in-cycle edge, a
        linked jump into a member block, or an exit."""
        if static is not None and static == self.link:
            return "pass"
        if static is not None and static in self.heads:
            return "%s%s_n += %d; _pc = %d; %s" % (
                self.flag_stores(), self.writeback(), count, static,
                self.jump)
        return self.exit(count, expr)


def _emit_value(lines, ctx, mode, operand, var, byte=False):
    """Return an expression for the operand's (guarded) value.

    Pure operands — immediates and registers — come back as inline
    expressions and emit no code at all, so ``add #7, d5`` compiles to
    a single statement instead of three.  Memory operands emit their
    guard and load into ``var`` and return it.
    """
    if mode == Mode.IMM:
        return "%d" % ((operand & 0xFF) if byte else operand)
    if mode == Mode.DREG:
        name = ctx.d(operand)
        return "(%s & 255)" % name if byte else name
    if mode == Mode.AREG:
        name = ctx.a(operand)
        return "(%s & 255)" % name if byte else name
    size = 1 if byte else 4
    if mode == Mode.ABS:
        if operand < 0 or operand + size > ctx.mem_size:
            raise _Uncompilable  # interpreter raises the segv
        _emit_guard(lines, ctx, None, "%d" % operand, size)
        if (_MV4_OK and not byte and operand % 4 == 0
                and ctx.mem_size % 4 == 0):
            # aligned word: one signed int32 read, no sign fix
            ctx.uses_mv4 = True
            k = operand >> 2
            return ("m%d" if k in ctx.words else "mv4[%d]") % k
        addr = "%d" % operand
    elif mode == Mode.IND:
        lines.append("t = %s" % ctx.a(operand))
        _emit_guard(lines, ctx, "t < 0 or t + %d > %d"
                    % (size, ctx.mem_size), "t", size)
        addr = "t"
    elif mode == Mode.IND_DISP:
        disp, reg = isa.unpack_ind_disp(operand)
        lines.append("t = %s + %d" % (ctx.a(reg), disp))
        _emit_guard(lines, ctx, "t < 0 or t + %d > %d"
                    % (size, ctx.mem_size), "t", size)
        addr = "t"
    else:
        raise _Uncompilable
    if byte:
        lines.append("%s = mem[%s]" % (var, addr))
    else:
        if addr == "t":
            lines.append("%s = _fb(mem[t:t + 4], 'little')" % var)
        else:
            lines.append("%s = _fb(mem[%d:%d], 'little')"
                         % (var, operand, operand + 4))
        lines.append("if %s & 2147483648: %s -= 4294967296" % (var, var))
    return var


def _emit_store(lines, ctx, mode, operand, var, byte=False, span=_FULL,
                step=None):
    """Emit a store of ``var`` (already signed-32 unless byte) to the
    operand; ``span`` and ``step`` are as for :meth:`_Ctx.put`.  Memory
    stores are guarded against the text segment so a block can never
    invalidate itself mid-run."""
    if mode in (Mode.DREG, Mode.AREG):
        name = ctx.dl(operand) if mode == Mode.DREG else ctx.al(operand)
        if byte:
            lines.append("%s = %s & 255" % (name, var))
            ctx.put(name, (0, 255))
        else:
            lines.append("%s = %s" % (name, var))
            ctx.put(name, span, step)
        return
    size = 1 if byte else 4
    if mode == Mode.ABS:
        if (operand < ctx.text_end
                or operand + size > ctx.mem_size):
            raise _Uncompilable  # text write or segv: interpreter's job
        _emit_guard(lines, ctx, None, "%d" % operand, size)
        if (_MV4_OK and not byte and operand % 4 == 0
                and ctx.mem_size % 4 == 0):
            # aligned word: every value here is already signed 32-bit
            ctx.uses_mv4 = True
            k = operand >> 2
            if k in ctx.words:  # dirtied at the loop's exits
                lines.append("m%d = %s" % (k, var))
                ctx.put("m%d" % k, span, step)
                ctx.stored.add(k)
                return
            lines.append("mv4[%d] = %s" % (k, var))
            _emit_dirty(lines, "%d" % operand, 4)
            return
        addr = "%d" % operand
    elif mode == Mode.IND:
        lines.append("t = %s" % ctx.a(operand))
        _emit_guard(lines, ctx, "t < %d or t + %d > %d"
                    % (ctx.text_end, size, ctx.mem_size), "t", size)
        addr = "t"
    elif mode == Mode.IND_DISP:
        disp, reg = isa.unpack_ind_disp(operand)
        lines.append("t = %s + %d" % (ctx.a(reg), disp))
        _emit_guard(lines, ctx, "t < %d or t + %d > %d"
                    % (ctx.text_end, size, ctx.mem_size), "t", size)
        addr = "t"
    else:
        raise _Uncompilable  # store to immediate / bad mode: segv
    if byte:
        lines.append("mem[%s] = %s & 255" % (addr, var))
    else:
        lines.append("mem[%s:%s + 4] = (%s & 4294967295)"
                     ".to_bytes(4, 'little')" % (addr, addr, var))
    _emit_dirty(lines, addr, 1 if byte else 4)


def _emit_guard(lines, ctx, bounds, addr, size):
    """Emit the bail guard of the ``size``-byte access at ``addr``:
    ``bounds`` (a runtime range test, or None for a compile-time
    checked absolute address) and, in a lazy trace, the pending test
    chained after it — bail when the access touches a page whose
    copy-on-reference chunk is still pending, so the interpreter's
    ``_check`` faults it in.  ``or`` evaluates the pending test only
    once the address is known to be in range."""
    tests = [bounds] if bounds else []
    if ctx.lazy:
        if addr == "t":
            tests.append("lp[t >> %d]" % PAGE_SHIFT)
            if size == 4:
                tests.append("lp[(t + 3) >> %d]" % PAGE_SHIFT)
        else:
            first = int(addr) >> PAGE_SHIFT
            last = (int(addr) + size - 1) >> PAGE_SHIFT
            tests.append("lp[%d]" % first)
            if last != first:
                tests.append("lp[%d]" % last)
    if tests:
        lines.append("if %s: %s" % (" or ".join(tests), ctx.bail()))


def _emit_dirty(lines, addr, size):
    """Mark the page(s) a store of ``size`` bytes at ``addr`` touches,
    mirroring the interpreter's ``write_u8``/``write_i32``."""
    if addr == "t":
        lines.append("dp[t >> %d] = 1" % PAGE_SHIFT)
        if size == 4:
            lines.append("dp[(t + 3) >> %d] = 1" % PAGE_SHIFT)
        return
    first = int(addr) >> PAGE_SHIFT
    last = (int(addr) + size - 1) >> PAGE_SHIFT
    lines.append("dp[%d] = 1" % first)
    if last != first:
        lines.append("dp[%d] = 1" % last)


def _target_expr(ctx, mode, operand):
    """Jump/branch target, matching ``CPU._address`` exactly."""
    if mode in (Mode.IMM, Mode.ABS):
        return "%d" % operand
    if mode == Mode.DREG:
        return ctx.d(operand)
    if mode in (Mode.AREG, Mode.IND):
        return ctx.a(operand)
    if mode == Mode.IND_DISP:
        disp, reg = isa.unpack_ind_disp(operand)
        return "%s + %d" % (ctx.a(reg), disp)
    raise _Uncompilable  # _address would segv; interpreter's job


def _alu_out(ctx, dm, dv):
    """Result variable for an arithmetic op: the destination register
    local itself when the destination is a register (skipping the v2
    copy and the separate store), else ``v2``.  Safe because nothing
    can bail after the operand guards have passed."""
    if dm == Mode.DREG:
        return ctx.dl(dv), True
    if dm == Mode.AREG:
        return ctx.al(dv), True
    return "v2", False


def _emit_result(lines, ctx, dm, dv, out, direct, span, step=None):
    """Finish an op whose result ``out`` (in ``span``) went straight
    to its destination register (``direct``) or must now be stored,
    and leave the flags on it."""
    if direct:
        ctx.put(out, span, step)
    else:
        _emit_store(lines, ctx, dm, dv, out, span=span, step=step)
    _emit_flags(lines, ctx, out)


def _wrap(lines, ctx, var, span):
    """Emit the 32-bit wrap of ``var``, whose value lies in ``span``
    (``None``: unknown), and return the span it has after.  Spans
    assume what every register and memory word holds: a signed 32-bit
    value.  A span inside the range needs no test, one that can leave
    it on one side needs one test (adding or subtracting an immediate:
    ``if v > 2147483647: v -= 4294967296``), anything else gets the
    two-sided mask."""
    if span is not None:
        lo, hi = span
        if lo >= _I32_MIN and hi <= _I32_MAX:
            return span
        ctx.tests += 1
        if lo >= _I32_MIN and hi <= _I32_MAX + _U32:
            lines.append(_WRAP_HI % {"v": var})
            return _FULL
        if hi <= _I32_MAX and lo >= _I32_MIN - _U32:
            lines.append(_WRAP_LO % {"v": var})
            return _FULL
    ctx.tests += 1
    lines.append(_WRAP % {"v": var})
    return _FULL


def _span(opcode, x, y):
    """Span of ``x <op> y`` for a ring op and operand spans ``x``, ``y``
    (``None``: unknown)."""
    if x is None or y is None:
        return None
    if opcode == Op.ADD:
        return x[0] + y[0], x[1] + y[1]
    if opcode == Op.SUB:
        return x[0] - y[1], x[1] - y[0]
    if opcode in (Op.MUL, Op.MULL):
        ends = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
        return min(ends), max(ends)
    # and/or/xor of sign-extended 32-bit values stay sign-extended
    if _FULL[0] <= x[0] and x[1] <= _FULL[1] \
            and _FULL[0] <= y[0] and y[1] <= _FULL[1]:
        return _FULL
    return None


def _step(opcode, span, step=(0, 0)):
    """``x + step`` becomes ``x + step'`` after ``x <opcode>= v`` with
    ``v`` in ``span``: return ``step'``, or None when that op is not
    an add or subtract (or ``step`` is None)."""
    if step is None:
        return None
    if opcode == Op.ADD:
        return step[0] + span[0], step[1] + span[1]
    if opcode == Op.SUB:
        return step[0] - span[1], step[1] - span[0]
    return None


def _tdiv(x, m):
    """``x / m`` truncated toward zero, for ``m > 0``."""
    return x // m if x >= 0 else -(-x // m)


def _emit_flags(lines, ctx, var):
    """Set the flags from ``var``.  A plain local or constant leaves
    them *pending* on it (``ctx.fsrc``): branches test the value itself
    and exits store ``zf``/``nf`` (:meth:`_Ctx.flag_stores`)."""
    if not ctx.flags_live:
        return
    ctx.fsrc = var
    if not (var.isidentifier() or var.lstrip("-").isdigit()):
        _settle_flags(lines, ctx)


def _settle_flags(lines, ctx):
    """Store pending flags now."""
    if ctx.fsrc is not None:
        lines.append(ctx.flag_stores()[:-2])
        ctx.fsrc = None


def _emit_instruction(lines, ctx, inst):
    """Emit one instruction; returns True if it terminates the block."""
    opcode, sm, s, dm, dv = inst
    n, pc = ctx.n, ctx.pc

    if opcode == Op.NOP:
        return False
    if opcode == Op.HALT:
        lines.append(ctx.stop(2))
        return True
    if opcode == Op.TRAP:
        lines.append(ctx.stop(1))
        return True

    if opcode == Op.MOVE:
        val = _emit_value(lines, ctx, sm, s, "v")
        if val.startswith("mv4[") and dm not in (Mode.DREG, Mode.AREG):
            # the store may overlap the word: flags are the value moved
            lines.append("v = %s" % val)
            val = "v"
        _emit_store(lines, ctx, dm, dv, val, span=ctx.span(sm, s))
        _emit_flags(lines, ctx, val)
        return False
    if opcode == Op.MOVB:
        val = _emit_value(lines, ctx, sm, s, "v", byte=True)
        _emit_store(lines, ctx, dm, dv, val, byte=True)
        _emit_flags(lines, ctx, val)
        return False

    if opcode == Op.LEA:
        if dm != Mode.AREG:
            raise _Uncompilable  # "ill" fault with executed - 1
        if sm in (Mode.IMM, Mode.ABS):
            name = ctx.al(dv)
            lines.append("%s = %d" % (name, s))
            ctx.put(name, (s, s))
            return False
        lines.append("v = %s" % _target_expr(ctx, sm, s))
        span = _FULL
        if sm == Mode.IND_DISP:  # the only mode that can overflow
            disp, reg = isa.unpack_ind_disp(s)
            lo, hi = ctx.span(Mode.AREG, reg)
            span = _wrap(lines, ctx, "v", (lo + disp, hi + disp))
        _emit_store(lines, ctx, Mode.AREG, dv, "v", span=span)
        return False

    if opcode in _ALU:
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        by = ctx.span(sm, s)
        out, direct = _alu_out(ctx, dm, dv)
        lines.append("%s = %s %s %s" % (out, dst, _ALU[opcode], src))
        span = _wrap(lines, ctx, out, _span(opcode, ctx.span(dm, dv), by))
        _emit_result(lines, ctx, dm, dv, out, direct, span,
                     _step(opcode, by))
        return False
    if opcode in (Op.DIV, Op.DIVL, Op.MOD):
        if sm == Mode.IMM and s == 0:
            raise _Uncompilable  # certain fpe: interpreter's job
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        out, direct = _alu_out(ctx, dm, dv)
        span = _FULL
        if sm == Mode.IMM:
            # truncated division by a compile-time constant depends
            # only on |divisor|: the sign rides on the dividend (and
            # flips with a negative divisor for the quotient), so a
            # dividend of known sign needs no test
            mag = abs(s)
            lo, hi = ctx.span(dm, dv)
            if opcode == Op.MOD:  # |result| < |divisor|: never wraps
                forms = ("%(d)s %% %(m)d", "-(-%(d)s %% %(m)d)")
                span = (max(lo, 1 - mag) if lo < 0 else 0,
                        min(hi, mag - 1) if hi > 0 else 0)
            elif s > 0:
                forms = ("%(d)s // %(m)d", "-(-%(d)s // %(m)d)")
                span = _tdiv(lo, mag), _tdiv(hi, mag)
            else:
                forms = ("-(%(d)s // %(m)d)", "-%(d)s // %(m)d")
                span = -_tdiv(hi, mag), -_tdiv(lo, mag)
            if lo >= 0:
                form = forms[0]
            elif hi <= 0:
                form = forms[1]
            else:
                ctx.tests += 1
                form = "%s if %%(d)s >= 0 else %s" % forms
            lines.append("%s = %s" % (out, form % {"d": dst, "m": mag}))
            if s == -1:  # -2**31 / -1 is the one overflow
                span = _wrap(lines, ctx, out, span)
        else:
            lines.append("if %s == 0: %s" % (src, ctx.bail()))  # fpe
            # floored-to-truncated correction: one %% plus a branch,
            # in place of the abs/floordiv/multiply round trip
            if opcode == Op.MOD:
                lines.append("q = %s %% %s" % (dst, src))
                lines.append("if q and (%s < 0) != (%s < 0): q -= %s"
                             % (dst, src, src))
                lines.append("%s = q" % out)
            else:
                lines.append("q = %s // %s" % (dst, src))
                lines.append("if q < 0 and %s %% %s: q += 1"
                             % (dst, src))
                lines.append("%s = q" % out)
                _wrap(lines, ctx, out, (_I32_MIN, -_I32_MIN))  # -2**31/-1
        _emit_result(lines, ctx, dm, dv, out, direct, span)
        return False
    if opcode in (Op.SHL, Op.SHR, Op.BFEXT):
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        out, direct = _alu_out(ctx, dm, dv)
        span = _FULL
        if opcode == Op.SHL:
            lines.append("%s = (%s & 4294967295) << (%s & 31)"
                         % (out, dst, src))
            _wrap(lines, ctx, out, None)
        elif opcode == Op.SHR:
            lines.append("%s = (%s & 4294967295) >> (%s & 31)"
                         % (out, dst, src))
            _wrap(lines, ctx, out, (0, _U32 - 1))
        else:  # a byte: never wraps
            lines.append("%s = ((%s & 4294967295) >> (%s & 31)) & 255"
                         % (out, dst, src))
            span = 0, 255
        _emit_result(lines, ctx, dm, dv, out, direct, span)
        return False
    if opcode in (Op.NOT, Op.NEG):
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        lo, hi = ctx.span(dm, dv)
        out, direct = _alu_out(ctx, dm, dv)
        if opcode == Op.NOT:  # ~v never leaves the range
            lines.append("%s = ~(%s)" % (out, dst))
            span = -hi - 1, -lo - 1
        else:
            lines.append("%s = -(%s)" % (out, dst))
            span = _wrap(lines, ctx, out, (-hi, -lo))
        _emit_result(lines, ctx, dm, dv, out, direct, span)
        return False

    if opcode == Op.CMP:
        src = _emit_value(lines, ctx, sm, s, "v1")
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        if ctx.flags_live:  # dead flags leave only the operand guards
            lines.append("v2 = %s - %s" % (dst, src))
            _wrap(lines, ctx, "v2", _span(Op.SUB, ctx.span(dm, dv),
                                          ctx.span(sm, s)))
            _emit_flags(lines, ctx, "v2")
        return False
    if opcode == Op.TST:
        dst = _emit_value(lines, ctx, dm, dv, "v2")
        _emit_flags(lines, ctx, dst)
        return False

    if opcode in isa.BRANCHES:
        static = s if sm in _STATIC else None
        target = _target_expr(ctx, sm, s)
        if opcode == Op.BRA:
            lines.append(ctx.transfer(n + 1, static, target))
            return True
        lines.append("if %s: %s" % (ctx.cond(opcode),
                                    ctx.transfer(n + 1, static, target)))
        return False  # fall through, keep compiling

    if opcode == Op.JSR:
        static = s if sm in _STATIC else None
        target = _target_expr(ctx, sm, s)
        if static is None:
            # capture the target before the push can clobber a7
            lines.append("u = %s" % target)
            target = "u"
        ret = to_unsigned(pc + _ISIZE).to_bytes(4, "little")
        lines.append("t = %s - 4" % ctx.a(7))
        _emit_guard(lines, ctx, "t < %d or t + 4 > %d"
                    % (ctx.text_end, ctx.mem_size), "t", 4)
        lines.append("mem[t:t + 4] = %r" % ret)
        _emit_dirty(lines, "t", 4)
        _emit_store(lines, ctx, Mode.AREG, 7, "t")
        lines.append(ctx.transfer(n + 1, static, target))
        return True
    if opcode == Op.RTS:
        lines.append("t = %s" % ctx.a(7))
        _emit_guard(lines, ctx, "t < 0 or t + 4 > %d" % ctx.mem_size,
                    "t", 4)
        lines.append("v = _fb(mem[t:t + 4], 'little')")
        _emit_store(lines, ctx, Mode.AREG, 7, "t + 4")
        lines.append(ctx.exit(n + 1, "v"))
        return True
    if opcode == Op.PUSH:
        val = _emit_value(lines, ctx, sm, s, "v")
        lines.append("t = %s - 4" % ctx.a(7))
        _emit_guard(lines, ctx, "t < %d or t + 4 > %d"
                    % (ctx.text_end, ctx.mem_size), "t", 4)
        if val.lstrip("-").isdigit():  # constant: pack it now
            packed = to_unsigned(int(val)).to_bytes(4, "little")
            lines.append("mem[t:t + 4] = %r" % packed)
        else:
            lines.append("mem[t:t + 4] = (%s & 4294967295)"
                         ".to_bytes(4, 'little')" % val)
        _emit_dirty(lines, "t", 4)
        _emit_store(lines, ctx, Mode.AREG, 7, "t")
        return False
    if opcode == Op.POP:
        if dm not in (Mode.DREG, Mode.AREG):
            raise _Uncompilable  # memory pops keep legacy ordering
        lines.append("t = %s" % ctx.a(7))
        _emit_guard(lines, ctx, "t < 0 or t + 4 > %d" % ctx.mem_size,
                    "t", 4)
        lines.append("v = _fb(mem[t:t + 4], 'little')")
        lines.append("if v & 2147483648: v -= 4294967296")
        _emit_store(lines, ctx, Mode.AREG, 7, "t + 4")
        _emit_store(lines, ctx, dm, dv, "v")
        return False

    raise _Uncompilable  # unknown opcode: interpreter faults on it


def _fold(lines, ctx, inst):
    """Fold a register-to-register ring op (or a ``move`` starting
    one) into the deferred-wrap chain; returns False when ``inst`` is
    not foldable.

    ``move dX, dY`` with dead flags starts a chain on ``dY`` whose
    expression is ``dX``; each add/sub/mul/and/or/xor on the chain's
    register with an immediate or another register then extends the
    expression, and :func:`_flush` assigns and wraps it once.  Exact
    because every ring op commutes with reduction mod 2**32.  Only ops
    whose flags are dead defer; one whose flags are live closes its
    chain at once, so the flags see the wrapped value.
    """
    opcode, sm, s, dm, dv = inst
    if dm != Mode.DREG or sm not in (Mode.IMM, Mode.DREG):
        return False
    if opcode != Op.MOVE and opcode not in _ALU:
        return False
    reg = dv & 7
    if opcode == Op.MOVE:
        if ctx.flags_live:
            return False
        _flush(lines, ctx)
        ctx.dl(dv)
        ctx.chain = [reg, "%d" % s if sm == Mode.IMM else ctx.d(s),
                     ctx.span(sm, s), 0, None]
        return True
    chain = ctx.chain
    if chain is not None and (chain[0] != reg or chain[3] >= _CHAIN_MAX
                              or (sm == Mode.DREG and s & 7 == reg)):
        _flush(lines, ctx)
        chain = None
    if chain is None:
        chain = ctx.chain = [reg, ctx.dl(dv), ctx.span(dm, dv), 0, (0, 0)]
    span = ctx.span(sm, s)
    chain[1] = "(%s %s %s)" % (chain[1], _ALU[opcode],
                               "%d" % s if sm == Mode.IMM else ctx.d(s))
    chain[2] = _span(opcode, chain[2], span)
    chain[3] += 1
    chain[4] = _step(opcode, span, chain[4])
    if ctx.flags_live:
        _flush(lines, ctx)
        _emit_flags(lines, ctx, ctx.dl(dv))
    return True


def _flush(lines, ctx):
    """Assign and wrap the pending chain's register, if any."""
    chain = ctx.chain
    if chain is None:
        return
    ctx.chain = None
    name = ctx.dl(chain[0])
    if chain[1] != name:
        lines.append("%s = %s" % (name, chain[1]))
        ctx.put(name, _wrap(lines, ctx, name, chain[2]), chain[4])


def _emit_step(lines, ctx, inst):
    """Emit one instruction of a straight-line run.

    Pending flags are stored first when ``inst`` could observe them
    other than as a branch condition, and forgotten when it overwrites
    them unobserved.  ``inst`` then folds into the deferred-wrap chain,
    or the chain is flushed and ``inst`` emitted on its own.
    """
    opcode = inst[0]
    if ctx.fsrc is not None and opcode not in isa.BRANCHES \
            and opcode != Op.NOP:
        if opcode in _FLAG_WRITERS and not _observes_flags(inst, ctx.lazy):
            ctx.fsrc = None
        else:
            _settle_flags(lines, ctx)
    if _fold(lines, ctx, inst):
        return
    if _takes_move(ctx, inst):
        ctx.alias = tuple(ctx.chain[:3])
        ctx.chain = None
    else:
        _flush(lines, ctx)
    _emit_instruction(lines, ctx, inst)
    ctx.alias = None


def _takes_move(ctx, inst):
    """Can ``inst`` read a pending plain ``move dX, dY`` (the chain,
    no ring op yet) into its destination ``dY`` straight from ``dX``,
    dropping the move's own assignment?  It must update ``dY`` in
    place.  It cannot bail: the move's flags would then be live, and a
    move with live flags starts no chain."""
    chain = ctx.chain
    return (chain is not None and not chain[3] and inst[0] in _UPDATES
            and inst[3] == Mode.DREG and inst[4] & 7 == chain[0])


def _emit_run(lines, ctx, ir, first, live, base):
    """Emit block ``ir`` from instruction ``first`` on, as instructions
    ``base + first`` ... of the block or loop iteration, ending in the
    fall-through transfer when the block has no terminator."""
    for i in range(first, len(ir.insts)):
        pc, inst = ir.insts[i]
        ctx.n, ctx.pc = base + i, pc
        ctx.flags_live = live[i]
        _emit_step(lines, ctx, inst)
    if not ir.terminated:
        _flush(lines, ctx)
        lines.append(ctx.transfer(base + len(ir.insts), ir.end_pc,
                                  "%d" % ir.end_pc))


# -- block discovery ---------------------------------------------------------


class _BlockIR:
    """One decoded straight-line block plus its static metadata."""

    __slots__ = ("pc", "insts", "terminated", "end_pc", "links",
                 "dused", "aused", "dwritten", "awritten")


def _decode_block(model, image, start_pc, max_len=MAX_BLOCK_LEN):
    """Decode the straight-line run at ``start_pc``.

    Runs the emitter in probe mode to find where the block must end
    (uncompilable or unsupported instruction, terminator, text end)
    and which registers it touches.  Returns a :class:`_BlockIR`, or
    ``None`` when not even the first instruction is compilable.
    """
    text_end = image.text_base + image.text_size
    if start_pc < image.text_base or start_pc + _ISIZE > text_end:
        return None
    ctx = _Ctx(text_end, image.mem_size)
    mem = image.mem
    opcodes = model.opcodes
    scratch = []
    insts = []
    links = []
    pc = start_pc
    terminated = False
    while len(insts) < max_len and pc + _ISIZE <= text_end:
        inst = isa.decode(mem, pc)
        if inst[0] not in opcodes:
            break  # illegal-instruction fault: interpreter's job
        ctx.n, ctx.pc = len(insts), pc
        saved = (set(ctx.dused), set(ctx.aused),
                 set(ctx.dwritten), set(ctx.awritten))
        try:
            terminated = _emit_instruction(scratch, ctx, inst)
        except _Uncompilable:
            # forget any registers only the aborted instruction used
            ctx.dused, ctx.aused, ctx.dwritten, ctx.awritten = saved
            break
        if inst[1] in _STATIC and (inst[0] in isa.BRANCHES
                                   or inst[0] == Op.JSR):
            links.append((len(insts), inst[2]))
        insts.append((pc, inst))
        pc += _ISIZE
        if terminated:
            break
    if not insts:
        return None
    ir = _BlockIR()
    ir.pc = start_pc
    ir.insts = insts
    ir.terminated = terminated
    ir.end_pc = pc
    if not terminated:
        links.append((len(insts), pc))  # the fall-through edge too
    ir.links = links
    ir.dused = ctx.dused
    ir.aused = ctx.aused
    ir.dwritten = ctx.dwritten
    ir.awritten = ctx.awritten
    return ir


def _observes_flags(inst, lazy):
    """Can anything see the flags as they stand *entering* ``inst``?

    Conditional branches read them; guarded instructions may bail and
    return them to the interpreter (in a lazy trace absolute operands
    carry a pending guard too); terminators transfer or return them.
    Conservative: marking too much only emits extra flag writes.
    """
    opcode, sm, s, dm, dv = inst
    if opcode in isa.BRANCHES or opcode in (Op.JSR, Op.RTS, Op.TRAP,
                                            Op.HALT, Op.PUSH, Op.POP):
        return True
    if opcode in (Op.DIV, Op.DIVL, Op.MOD) and sm != Mode.IMM:
        return True
    if lazy and Mode.ABS in (sm, dm):
        return True
    return sm in _GUARDED or dm in _GUARDED


def _flag_liveness(insts, lazy):
    """Backward pass: ``live[i]`` is False only when instruction i's
    flag writes are provably overwritten before anyone can observe
    them (no branch, bail point or exit in between)."""
    live = [True] * len(insts)
    needed = True  # flags at block end flow to successors/interpreter
    for i in range(len(insts) - 1, -1, -1):
        inst = insts[i][1]
        writes = inst[0] in _FLAG_WRITERS
        if writes:
            live[i] = needed
        if _observes_flags(inst, lazy):
            needed = True
        elif writes:
            needed = False
    return live


# -- loop superblocks ---------------------------------------------------------


def _find_cycle(head, by_pc):
    """The simple cycle through loop head ``head``, as ``[(block, e),
    ...]`` from ``head`` round to it, where ``e`` indexes the
    instruction whose transfer continues the cycle (``len(insts)`` for
    the fall-through edge); or None.  Simple means every block on it
    has exactly one successor on it."""
    def walk(ir, path):
        for e, target in ir.links:
            if target == head.pc:
                return path + [(ir, e)]
            succ = by_pc.get(target)
            if succ is not None and all(succ is not b for b, __ in path) \
                    and succ is not ir:
                found = walk(succ, path + [(ir, e)])
                if found:
                    return found
        return None

    cycle = walk(head, [])
    if cycle is None:
        return None
    members = {ir.pc for ir, __ in cycle}
    for ir, __ in cycle:
        if len({t for __, t in ir.links if t in members}) != 1:
            return None
    return cycle


def _top_observed(path, lazy):
    """Can an iteration observe the flags before it first writes them?"""
    for __, inst in path:
        if _observes_flags(inst, lazy):
            return True
        if inst[0] in _FLAG_WRITERS:
            return False
    return False


def _promotable(ctx, path):
    """``(words, stored)``: the aligned absolute words an iteration of
    ``path`` touches and the ones it stores, when they are all the
    memory it reaches (so nothing can alias them); else nothing.
    Eager traces only: a lazy trace's absolute operands carry pending
    guards."""
    off = frozenset(), ()
    if ctx.lazy or not _MV4_OK or ctx.mem_size % 4:
        return off
    words, stored = set(), set()
    for __, (opcode, sm, s, dm, dv) in path:
        if opcode in (Op.PUSH, Op.POP, Op.JSR, Op.RTS, Op.TRAP, Op.HALT):
            return off
        # only the slots the opcode uses: decode keeps whatever the
        # others hold; branch targets and lea sources are addresses
        if (opcode in isa.ZERO_OPERAND or opcode in isa.BRANCHES
                or opcode == Op.LEA):
            used = ()
        elif opcode in isa.ONE_OPERAND_DST:
            used = ((dm, dv),)
        else:
            used = ((sm, s), (dm, dv))
        for mode, operand in used:
            if mode in _GUARDED:
                return off
            if mode == Mode.ABS:
                if (opcode == Op.MOVB or operand % 4 or operand < 0
                        or operand + 4 > ctx.mem_size):
                    return off
                words.add(operand >> 2)
        if dm == Mode.ABS and (opcode == Op.MOVE or opcode in _UPDATES):
            stored.add(dv >> 2)
    return frozenset(words), tuple(sorted(stored))


def _emit_cycle(ctx, cycle, seeds=None):
    """Emit one iteration of ``cycle`` as straight-line code for the
    body of its superblock's ``while`` loop; with ``seeds``, the body
    of its range-proven copy, given that each local named there starts
    the iteration in its span (:func:`_prove_ranges`).

    Returns ``(lines, span, enter, leave)``: ``span`` is the budget an
    iteration needs, the cycle's length widened to cover every block's
    own budget check (so the loop runs exactly the iterations the
    per-block arms would); ``enter`` goes before the ``while`` (the
    promoted words' loads) and ``leave`` at the head of its ``else``
    (stores of the flags an iteration leaves pending and of the
    promoted words, if any iteration ran).
    """
    ctx.jump = "break"  # out of the while, back into the dispatcher
    ctx.fsrc = None
    ctx.seeds = seeds
    ctx.spans, ctx.steps, ctx.exposed, ctx.tests = {}, {}, set(), 0
    path = [pair for ir, e in cycle for pair in ir.insts[:e + 1]]
    live = _flag_liveness(path, ctx.lazy)
    ctx.words, ctx.wb = promoted = _promotable(ctx, path)
    ctx.stored = set()
    lines = []
    offset = k = span = 0
    for j, (ir, e) in enumerate(cycle):
        span = max(span, offset + len(ir.insts))
        succ = cycle[(j + 1) % len(cycle)][0].pc
        for i, (pc, inst) in enumerate(ir.insts[:e + 1]):
            ctx.n, ctx.pc = offset + i, pc
            ctx.flags_live = live[k]
            k += 1
            if i == e and inst[0] in _COND:
                # taken: on to the cycle's next block; not taken: the
                # rest of this block, ending in its own exit or jump
                _flush(lines, ctx)
                lines.append("if %s:" % ctx.cond(_NEGATE[inst[0]]))
                pending = ctx.fsrc
                known = dict(ctx.spans), dict(ctx.steps)
                # the tail leaves the loop: it runs on memory, not locals
                tail = [ctx.writeback()[:-2]] if ctx.wb else []
                ctx.words, ctx.wb = frozenset(), ()
                _emit_run(tail, ctx, ir, e + 1,
                          _flag_liveness(ir.insts, ctx.lazy), offset)
                lines.extend("    " + line for line in tail)
                ctx.fsrc = pending
                ctx.spans, ctx.steps = known
                ctx.words, ctx.wb = promoted
            else:
                ctx.link = succ if i == e else None
                _emit_step(lines, ctx, inst)
                ctx.link = None
        offset += min(e + 1, len(ir.insts))
    _flush(lines, ctx)
    leave = ""
    if ctx.fsrc is not None:
        if _top_observed(path, ctx.lazy):
            _settle_flags(lines, ctx)
        else:
            leave = ctx.flag_stores()
    lines.append("_n += %d" % offset)
    leave += ctx.writeback(whole=True)
    enter = ["_m = _n"] if leave else []
    enter += ["m%d = mv4[%d]" % (k, k) for k in sorted(ctx.words)]
    ctx.jump = "continue"
    ctx.words, ctx.wb = frozenset(), ()
    ctx.seeds = None
    return (lines, max(span, offset), enter,
            ["if _n != _m: " + leave[:-2]] if leave else [])


def _prove_ranges(ctx, cycle, limit):
    """The range-proven copy of ``cycle``'s superblock, or None when
    no seed spans would remove a test.

    A local the iteration reads is *carried*: *invariant* when nothing
    in the iteration writes it, an *induction* when every write adds
    to it (``x = x + v``, ``v`` of a known span), so an iteration moves
    it by a step in a known ``[lo, hi]``.  Within ``_k``, the most
    iterations the budget allows, such a local stays within ``[x0 + _k
    * min(lo, 0), x0 + _k * max(hi, 0)]``; the guard checks once, at
    loop entry, that this keeps every iteration's start inside its
    seed span, and the copy is emitted given that, without the wrap
    and sign tests the spans prove dead.  Seeds are chosen greedily,
    one local at a time, among the span its own updates cannot wrap
    out of and that span's non-negative and non-positive halves, then
    narrowed as far as keeps the fewest tests; none is narrower than
    :data:`_REACH` steps.

    Returns ``(guard, lines)``: the lines before the copy's ``while``
    (``_g``, its limit: ``limit`` when the guard holds, else -1) and
    its body.
    """
    memo = {}

    def probe(seeds):
        key = tuple(sorted(seeds.items()))
        if key not in memo:
            lines = _emit_cycle(ctx, cycle, seeds)[0]
            memo[key] = ctx.tests, {name: ctx.steps.get(name, (0, 0))
                                    for name in ctx.exposed}, lines
        return memo[key]

    seeds = {}
    base, steps, __ = probe(seeds)
    cost = base
    # inductions before invariants, those with the narrowest steps
    # first: a counter's seed narrows the steps of what it feeds, and
    # an invariant compared with it needs the counter's span first
    order = sorted((name for name in steps if steps[name] is not None),
                   key=lambda name: (steps[name] == (0, 0),
                                     steps[name][1] - steps[name][0], name))
    for name in order:
        cost, seeds = _seed(probe, seeds, name, steps[name])
        steps = probe(seeds)[1]
    if cost >= base:
        return None
    __, steps, lines = probe(seeds)
    terms = []
    for name in sorted(seeds):
        (lo, hi), (down, up) = seeds[name], steps[name]
        down, up = min(down, 0), max(up, 0)
        if down:
            terms.append("%s - _k%s >= %d" % (
                name, " * %d" % -down if down != -1 else "", lo + down))
        elif lo > _I32_MIN:
            terms.append("%d <= %s" % (lo, name))
        if up:
            terms.append("%s + _k%s <= %d" % (
                name, " * %d" % up if up != 1 else "", hi + up))
        elif hi < _I32_MAX:
            terms.append("%s <= %d" % (name, hi))
    length = sum(min(e + 1, len(ir.insts)) for ir, e in cycle)
    return (["_k = (%s - _n) // %d + 1" % (limit, length),
             "_g = %s if %s else -1" % (limit, " and ".join(terms))],
            lines)


def _seed(probe, seeds, name, step):
    """``(tests, seeds)``: ``seeds`` plus the widest seed for ``name``
    (moved by ``step`` per iteration) that removes the most tests —
    none, the span its own update cannot wrap out of, or that span's
    non-negative or non-positive half, narrowed as far as helps but to
    no fewer than :data:`_REACH` steps."""
    lo = _I32_MIN - min(step[0], 0)
    hi = _I32_MAX - max(step[1], 0)
    reach = _REACH * max(1, max(step[1], 0) - min(step[0], 0))

    def tests(span):
        return probe(dict(seeds, **{name: span}))[0]

    least = cost = probe(seeds)[0]
    halves = []
    for side in ((max(lo, 0), hi), (lo, min(hi, 0))):
        # the narrowest seed on each side bounds what any seed removes
        narrow = max(side[0], -reach), min(side[1], reach)
        if narrow[1] - narrow[0] >= reach and tests(narrow) < least:
            least = tests(narrow)
            halves.append(side)
    if least == cost:  # no half helps, or none is wide enough
        if hi - lo >= reach and (lo, hi) != _FULL and tests((lo, hi)) < cost:
            return tests((lo, hi)), dict(seeds, **{name: (lo, hi)})
        return cost, seeds
    for span in (lo, hi), (max(lo, 0), hi), (lo, min(hi, 0)):
        if span != _FULL and tests(span) == least:
            return least, dict(seeds, **{name: span})
    # the widest bound on the best side that keeps its tests removed
    side = halves[-1]
    good, bad = reach, max(-side[0], side[1])
    while bad - good > good >> 4:
        mid = (good + bad) // 2
        if tests((max(side[0], -mid), min(side[1], mid))) == least:
            good = mid
        else:
            bad = mid
    return least, dict(seeds, **{name: (max(side[0], -good),
                                         min(side[1], good))})


# -- trace assembly ----------------------------------------------------------


def compile_trace(model, image, entry, lazy=False, tail=None):
    """Compile the trace rooted at ``entry``.

    Discovers up to :data:`TRACE_MAX_BLOCKS` blocks breadth-first over
    statically-known branch/call/fall-through targets and emits them
    as one function with an internal dispatch loop, each simple cycle
    through a loop head fused into a superblock (module docstring);
    ``lazy`` adds the pending-page guards.  ``tail`` compiles the *tail
    trace* instead: at most the first ``tail`` instructions of the root
    block, linked to nothing.  Returns
    ``(trace_function, n_instructions, n_linked_blocks)``, or
    ``(INTERP, 0, 0)`` when ``entry`` is outside the text segment or
    its first instruction is uncompilable.
    """
    root = _decode_block(model, image, entry, tail or MAX_BLOCK_LEN)
    if root is None:
        return INTERP, 0, 0
    order = [root]
    seen = {entry}
    frontier = [] if tail else [t for __, t in root.links]
    while frontier and len(order) < TRACE_MAX_BLOCKS:
        tpc = frontier.pop(0)
        if tpc in seen:
            continue
        seen.add(tpc)
        ir = _decode_block(model, image, tpc)
        if ir is None:
            continue  # exit edge: CPU._run dispatches it separately
        order.append(ir)
        frontier.extend(t for __, t in ir.links)
    by_pc = {ir.pc: ir for ir in order}
    # the dispatcher walks its arms linearly, so put loop heads (blocks
    # reached by a back edge) first: they dominate the dynamic count
    loop_heads = {tpc for ir in order for __, tpc in ir.links
                  if tpc in by_pc and tpc <= ir.pc}
    order.sort(key=lambda ir: ir.pc not in loop_heads)

    dused, aused = set(), set()
    dwritten, awritten = set(), set()
    for ir in order:
        dused |= ir.dused
        aused |= ir.aused
        dwritten |= ir.dwritten
        awritten |= ir.awritten
    dmap = {i: "rd%d" % i for i in dused}
    amap = {i: "ra%d" % i for i in aused}
    parts = ["d[%d] = rd%d" % (i, i) for i in sorted(dwritten)]
    parts += ["a[%d] = ra%d" % (i, i) for i in sorted(awritten)]
    spill = "; ".join(parts) + ("; " if parts else "")

    ctx = _Ctx(image.text_base + image.text_size, image.mem_size, lazy,
               dmap, amap, frozenset(by_pc), spill)
    limits = []
    body = []
    ndecoded = 0
    for index, ir in enumerate(order):
        body.append("        %s _pc == %d:"
                    % ("if" if index == 0 else "elif", ir.pc))
        # one budget guard per block (CPU._run never calls a trace with
        # less budget than its entry block, so it fires after progress)
        arm = ["if budget - _n < %d: %sreturn _n, %d, zf, nf, 0"
               % (len(ir.insts), spill, ir.pc)]
        ctx.fsrc = None
        _emit_run(arm, ctx, ir, 0, _flag_liveness(ir.insts, lazy), 0)
        ndecoded += len(ir.insts)
        cycle = _find_cycle(ir, by_pc) if ir.pc in loop_heads else None
        if cycle is None:
            body.extend("            " + line for line in arm)
            continue
        # the superblock: whole iterations while the budget covers
        # one, then the block's own arm for what is left
        loop, span, enter, leave = _emit_cycle(ctx, cycle)
        limit = "_lim%d" % len(limits)
        limits.append("    %s = budget - %d" % (limit, span))
        body.extend("            " + line for line in enter)
        indent = "            "
        proven = _prove_ranges(ctx, cycle, limit)
        if proven is not None:
            # the range-proven copy first (no iteration when its guard
            # fails); its else is the unchanged loop, which runs what
            # the copy left (nothing once the copy spent the budget)
            guard, fast = proven
            body.extend(indent + line for line in guard)
            body.append(indent + "while _n <= _g:")
            body.extend(indent + "    " + line for line in fast)
            body.append(indent + "else:")
            indent += "    "
        body.append(indent + "while _n <= %s:" % limit)
        body.extend(indent + "    " + line for line in loop)
        body.append(indent + "else:")
        body.extend(indent + "    " + line for line in leave + arm)
    body.append("        else:")
    body.append("            %sreturn _n, _pc, zf, nf, 0" % spill)

    head = ["def _trace(d, a, mem, dp, lp, budget, zf, nf, "
            "_fb=int.from_bytes):"]
    if ctx.uses_mv4:
        head.append("    mv4 = memoryview(mem).cast('i')")
    head += ["    rd%d = d[%d]" % (i, i) for i in sorted(dused)]
    head += ["    ra%d = a[%d]" % (i, i) for i in sorted(aused)]
    head += limits
    head += ["    _n = 0", "    _pc = %d" % entry, "    while 1:"]
    source = "\n".join(head + body) + "\n"
    namespace = {}
    exec(compile(source, "<trace@0x%x>" % entry, "exec"), namespace)
    fn = namespace["_trace"]
    fn.blocks = len(order)
    fn.entry_len = len(root.insts)  # budget below this: a tail trace
    fn.trace_len = ndecoded
    fn.spill_regs = len(dwritten) + len(awritten)
    fn.source = source  # kept for debugging/tests
    return fn, ndecoded, len(order) - 1
