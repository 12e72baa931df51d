"""The CPU interpreter.

:meth:`CPU.run` executes instructions from a
:class:`~repro.vm.image.ProcessImage` until one of four things stops
it: the quantum is exhausted, the program executes ``trap`` (a system
call), the program faults (illegal instruction, segmentation
violation, divide by zero), or it executes ``halt`` (which user-mode
code is not allowed to do and is treated as a privilege fault by the
kernel).

Faults are reported as stop reasons, not Python exceptions, because
they are ordinary machine behaviour the kernel turns into signals —
e.g. running a 68020 binary on a 68010 stops with an
illegal-instruction fault, reproducing the paper's heterogeneity
crash.
"""

import hashlib

from repro.vm import isa
from repro.vm.isa import Op, Mode
from repro.vm.image import SegmentationFault, to_signed, to_unsigned
from repro.vm.predecode import INTERP, compile_trace


class Stop:
    """Base class for reasons the interpreter returned."""

    def __init__(self, executed):
        self.executed = executed  #: number of instructions retired

    def __repr__(self):
        return "%s(executed=%d)" % (type(self).__name__, self.executed)


class QuantumStop(Stop):
    """The instruction budget ran out; the process is still runnable."""


class TrapStop(Stop):
    """A ``trap`` instruction was executed (system call request)."""


class HaltStop(Stop):
    """A ``halt`` instruction was executed (user-mode privilege fault)."""


class FaultStop(Stop):
    """A machine fault; ``kind`` is ``"ill"``, ``"segv"`` or ``"fpe"``."""

    def __init__(self, executed, kind, address=None):
        super().__init__(executed)
        self.kind = kind
        self.address = address

    def __repr__(self):
        return "FaultStop(kind=%s, executed=%d)" % (self.kind,
                                                    self.executed)


_ALU_OPS = {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
            Op.XOR, Op.SHL, Op.SHR, Op.MULL, Op.DIVL, Op.BFEXT}


#: most distinct texts (per variant) the process-wide trace store
#: keeps; past it the oldest entry is dropped first
STORE_TEXTS = 256

#: the process-wide trace store: CodeCache key -> {pc: trace}, in
#: insertion order (a tail trace sits under ``(pc, length)``).  A trace
#: is a pure function of the key and its entry, so every cluster in the
#: process can run it; see CodeCache.
_STORE = {}


def _store_entry(key):
    """The process-wide ``{pc: trace}`` dict for ``key`` (FIFO-bounded
    by :data:`STORE_TEXTS`)."""
    traces = _STORE.get(key)
    if traces is None:
        if len(_STORE) >= STORE_TEXTS:
            del _STORE[next(iter(_STORE))]
        traces = _STORE[key] = {}
    return traces


def _clear_store():
    """Empty the process-wide trace store (tests and cold-start benches)."""
    _STORE.clear()


class _Traces(dict):
    """One cluster's pc -> trace map for one text (see :class:`CodeCache`;
    tail traces under ``(pc, length)``), remembering its key and, once
    resolved, the store entry behind it."""

    __slots__ = ("key", "shared")

    def __init__(self, key):
        super().__init__()
        self.key = key
        self.shared = None


class CodeCache:
    """Content-keyed registry of compiled traces.

    Traces are keyed by ``(cpu model, text base, memory size, sha-256
    of the text bytes, lazy)`` — by *what the code is*, not by which
    image carries it — so they are shared across images, across hosts
    (the cluster hands every machine's CPU the same instance) and
    across migrations: a process that dumps on one host and restarts
    on another lands with its hot traces already compiled, and a
    re-arrival of unchanged text never counts as a
    ``cache_rebuilds``.  ``lazy`` selects the variant compiled with
    pending-page guards, which images with copy-on-reference chunks
    still pending run.

    Each cluster's instance is an *accounting view*: its per-key pc
    maps record which traces this cluster has used, and the counters
    charge first uses against them.  The traces themselves come from
    the process-wide store under the same key (:data:`_STORE`), so a
    cluster never recompiles what an earlier one in the process
    already compiled, while every counter stays a function of its own
    run alone.
    """

    def __init__(self):
        self._traces = {}  #: key -> _Traces {pc: trace function or INTERP}

    def key_for(self, model, image, lazy):
        # the raw bytes: exec copies text in eagerly, so hashing it never
        # needs (or may trigger) a copy-on-reference fault
        base = image.text_base
        text = image.mem[base:base + image.text_size]
        return (model.name, base, image.mem_size,
                hashlib.sha256(text).digest(), lazy)

    def texts(self):
        """How many distinct text segments the cache holds."""
        return len({key[:-1] for key in self._traces})

    def blocks_for(self, model, image, lazy):
        """This cluster's pc -> trace map for the image's text (``lazy``
        variant); returns ``(blocks, hit)`` where ``hit`` says the text
        was seen before in this cluster."""
        key = self.key_for(model, image, lazy)
        blocks = self._traces.get(key)
        if blocks is not None:
            return blocks, True
        blocks = self._traces[key] = _Traces(key)
        return blocks, False


class CPU:
    """Interpreter for one CPU model."""

    #: the VM: compiled traces, or the interpreter alone when false.
    #: Chosen per CPU, or on the class for every CPU.  Virtual time is
    #: the same either way.
    use_predecode = True

    def __init__(self, model):
        self.model = isa.cpu_model(model)
        #: optional :class:`~repro.perf.PerfCounters` (set by the cluster)
        self.perf = None
        #: content-keyed compiled-trace registry; the cluster replaces
        #: it with one instance shared by every machine's CPU so a
        #: migrated process finds its traces already compiled
        self.code_cache = CodeCache()

    # -- decode-cache management -----------------------------------------

    def warm_code_cache(self, image):
        """Account a code-cache arrival for ``image`` (exec/restart).

        Ensures the shared registry entry for the image's text exists
        without touching ``image._decode_cache`` (the per-image
        attachment stays lazy until the first run).  A text this
        cluster knows is a ``shared_cache_hits`` — the migrated process
        skips recompilation outright — while one it has not seen is the
        one honest ``cache_rebuilds``.  An image arriving with
        copy-on-reference chunks pending counts against the lazy
        variant it will run.
        """
        if not self.use_predecode:
            return  # the interpreter never compiles anything
        __, hit = self.code_cache.blocks_for(self.model, image,
                                             image._lazy is not None)
        perf = self.perf
        if perf is not None:
            if hit:
                perf.shared_cache_hits += 1
            else:
                perf.cache_rebuilds += 1

    def _prepare_cache(self, image, lazy):
        """(Re)build an image's decode cache: ``(version, lazy, blocks,
        decoded)`` where ``blocks`` maps pc -> compiled trace of the
        ``lazy`` or eager variant (shared between images with
        byte-identical text) and ``decoded`` is the per-image lazy
        single-instruction cache for out-of-text pcs, kept across a
        variant switch."""
        if image._lazy is not None:
            # fetching the text faults in any pending chunk sharing a
            # page with it (the head of the data segment), on every
            # engine, before the first instruction runs
            image.read_bytes(image.text_base, image.text_size)
        blocks, hit = self.code_cache.blocks_for(self.model, image, lazy)
        if not hit and self.perf is not None:
            self.perf.cache_rebuilds += 1
        old = image._decode_cache
        decoded = old[3] if old is not None \
            and old[0] == image.text_version else {}
        cache = (image.text_version, lazy, blocks, decoded)
        image._decode_cache = cache
        return cache

    def _first_use(self, blocks, image, pc, lazy, tail=None):
        """The trace at ``pc`` on its first use in this cluster: from the
        process-wide store, compiled into it on a miss.  ``tail`` asks
        for the *tail trace* ``(pc, tail)`` instead: the first ``tail``
        instructions at ``pc`` alone, which finish a quantum whose budget
        cannot cover the trace's entry block.  The compiler counters
        charge every first use in the cluster alike, so they never
        depend on what ran earlier in the process."""
        key = pc if tail is None else (pc, tail)
        shared = blocks.shared
        if shared is None:
            shared = blocks.shared = _store_entry(blocks.key)
        block = shared.get(key)
        if block is None:
            block = shared[key] = compile_trace(self.model, image, pc,
                                                lazy=lazy, tail=tail)[0]
        perf = self.perf
        if block is not INTERP and perf is not None:
            perf.blocks_compiled += block.blocks
            perf.instructions_decoded += block.trace_len
            perf.traces_linked += block.blocks - 1
        blocks[key] = block
        return block

    # -- operand helpers -------------------------------------------------

    def _address(self, image, mode, operand):
        """Effective address for memory modes and jump targets."""
        regs = image.regs
        if mode in (Mode.IMM, Mode.ABS):
            return operand
        if mode == Mode.DREG:
            return regs.d[operand & 7]
        if mode == Mode.AREG:
            return regs.a[operand & 7]
        if mode == Mode.IND:
            return regs.a[operand & 7]
        if mode == Mode.IND_DISP:
            disp, reg = isa.unpack_ind_disp(operand)
            return regs.a[reg] + disp
        raise SegmentationFault(operand, "bad addressing mode %d" % mode)

    def _value(self, image, mode, operand, byte=False):
        regs = image.regs
        if mode == Mode.IMM:
            return (operand & 0xFF) if byte else operand
        if mode == Mode.DREG:
            return (regs.d[operand & 7] & 0xFF) if byte \
                else regs.d[operand & 7]
        if mode == Mode.AREG:
            return (regs.a[operand & 7] & 0xFF) if byte \
                else regs.a[operand & 7]
        address = self._address(image, mode, operand)
        if byte:
            return image.read_u8(address)
        return image.read_i32(address)

    def _store(self, image, mode, operand, value, byte=False):
        regs = image.regs
        if mode == Mode.IMM:
            raise SegmentationFault(operand, "store to immediate")
        if mode == Mode.DREG:
            regs.d[operand & 7] = (value & 0xFF) if byte \
                else to_signed(value)
            return
        if mode == Mode.AREG:
            regs.a[operand & 7] = (value & 0xFF) if byte \
                else to_signed(value)
            return
        address = self._address(image, mode, operand)
        if byte:
            image.write_u8(address, value)
        else:
            image.write_i32(address, value)

    # -- execution --------------------------------------------------------

    def run(self, image, max_instructions):
        """Execute until a stop condition; returns a :class:`Stop`."""
        stop = self._run(image, max_instructions)
        perf = self.perf
        if perf is not None:
            perf.vm_instructions += stop.executed
        return stop

    def _run(self, image, max_instructions):
        executed = 0
        regs = image.regs
        # per-image decode cache, keyed on text_version so
        # self-modifying code stays correct, and on the trace variant:
        # an image with copy-on-reference chunks pending runs the lazy
        # variant until a run starts after it drained
        lazy = self.use_predecode and image._lazy is not None
        cache = image._decode_cache
        if cache is None or cache[0] != image.text_version \
                or cache[1] != lazy:
            try:
                cache = self._prepare_cache(image, lazy)
            except SegmentationFault as fault:
                # the chunk sharing a page with the text failed to fetch
                return FaultStop(0, "segv", fault.address)
        version, lazy, blocks, decoded = cache
        perf = self.perf
        supports = self.model.opcodes.__contains__
        isize = isa.INSTRUCTION_SIZE
        d = regs.d
        a = regs.a
        mem = image.mem
        dp = image.dirty_pages
        lp = image.pending_pages
        # Compiled traces cover the common case; anything they cannot
        # prove safe bails *before mutating state* so the reference
        # interpreter below replays it with exact legacy semantics.
        # Lazy-variant traces also bail on any access to a page still
        # pending copy-on-reference: the interpreter routes it through
        # image._check, which is where the pending chunks fault in.
        use_blocks = self.use_predecode
        # set by a bail in a lazy trace: rather than root a new trace at
        # every pc past a pending-page fault (each a near-copy of the
        # region), interpret until control reaches a compiled trace
        cold = False
        try:
            while executed < max_instructions:
                pc = regs.pc
                if use_blocks:
                    block = blocks.get(pc)
                    if block is None and cold:
                        block = INTERP
                    elif block is None:
                        block = self._first_use(blocks, image, pc, lazy)
                    if block is not INTERP:
                        budget = max_instructions - executed
                        if block.entry_len > budget:
                            # the quantum's tail: its own exact trace
                            block = blocks.get((pc, budget)) or \
                                self._first_use(blocks, image, pc, lazy,
                                                budget)
                        n, npc, zf, nf, sig = block(
                            d, a, mem, dp, lp, budget, regs.zf, regs.nf)
                        executed += n
                        regs.pc = npc
                        regs.zf = zf
                        regs.nf = nf
                        if perf is not None:
                            perf.reg_spills += block.spill_regs
                        if sig == 0:
                            cold = False
                            continue
                        if sig == 1:
                            return TrapStop(executed)
                        if sig == 2:
                            return HaltStop(executed)
                        pc = npc  # bail: interpret this instruction
                        cold = lazy
                # ---- one instruction, reference interpreter ----------
                inst = decoded.get(pc)
                if inst is None:
                    if pc < image.text_base or \
                            pc + isize > image.mem_size:
                        return FaultStop(executed, "segv", pc)
                    if image._lazy is not None:
                        # instruction fetch from a pending chunk
                        # (code run out of data or stack)
                        image._lazy_touch(pc, isize)
                    inst = isa.decode(image.mem, pc)
                    decoded[pc] = inst
                    if perf is not None:
                        perf.instructions_decoded += 1
                opcode, src_mode, src, dst_mode, dst = inst
                if not supports(opcode):
                    return FaultStop(executed, "ill", pc)
                regs.pc = pc + isize
                executed += 1

                # ---- hot paths: register/immediate operands ----------
                if Op.ADD <= opcode <= Op.SHR and dst_mode == 1 \
                        and src_mode <= 1 and opcode != Op.NOT \
                        and opcode != Op.NEG:
                    # register fields are 3 bits wide, like hardware
                    rhs = src if src_mode == 0 else d[src & 7]
                    lhs = d[dst & 7]
                    if opcode == Op.ADD:
                        value = lhs + rhs
                    elif opcode == Op.SUB:
                        value = lhs - rhs
                    elif opcode == Op.MUL:
                        value = lhs * rhs
                    else:
                        value = self._alu(opcode, lhs, rhs)
                        if value is None:
                            regs.pc = pc
                            return FaultStop(executed, "fpe", pc)
                    if value > 2147483647 or value < -2147483648:
                        value = to_signed(to_unsigned(value))
                    d[dst & 7] = value
                    regs.zf = value == 0
                    regs.nf = value < 0
                    continue
                if opcode == Op.MOVE and src_mode <= 1 \
                        and 1 <= dst_mode <= 2:
                    value = src if src_mode == 0 else d[src & 7]
                    if dst_mode == 1:
                        d[dst & 7] = value
                    else:
                        a[dst & 7] = value
                    regs.zf = value == 0
                    regs.nf = value < 0
                    continue
                if opcode == Op.CMP and src_mode <= 1 and dst_mode == 1:
                    rhs = src if src_mode == 0 else d[src & 7]
                    value = d[dst & 7] - rhs
                    if value > 2147483647 or value < -2147483648:
                        value = to_signed(to_unsigned(value))
                    regs.zf = value == 0
                    regs.nf = value < 0
                    continue
                if Op.BRA <= opcode <= Op.BGE and src_mode in (0, 3):
                    if self._branch_taken(opcode, regs):
                        regs.pc = src
                    continue
                # ---- general paths -----------------------------------

                if opcode == Op.NOP:
                    continue
                if opcode == Op.HALT:
                    return HaltStop(executed)
                if opcode == Op.TRAP:
                    return TrapStop(executed)
                if opcode == Op.MOVE:
                    value = self._value(image, src_mode, src)
                    self._store(image, dst_mode, dst, value)
                    regs.set_flags(value)
                elif opcode == Op.MOVB:
                    value = self._value(image, src_mode, src, byte=True)
                    self._store(image, dst_mode, dst, value, byte=True)
                    regs.set_flags(value)
                elif opcode == Op.LEA:
                    address = self._address(image, src_mode, src)
                    if dst_mode != Mode.AREG:
                        return FaultStop(executed - 1, "ill", pc)
                    regs.a[dst] = to_signed(address)
                elif opcode in _ALU_OPS:
                    rhs = self._value(image, src_mode, src)
                    lhs = self._value(image, dst_mode, dst)
                    result = self._alu(opcode, lhs, rhs)
                    if result is None:
                        regs.pc = pc  # refetch on resume (process dies)
                        return FaultStop(executed, "fpe", pc)
                    result = to_signed(to_unsigned(result))
                    self._store(image, dst_mode, dst, result)
                    regs.set_flags(result)
                elif opcode == Op.NOT:
                    value = ~self._value(image, dst_mode, dst)
                    value = to_signed(to_unsigned(value))
                    self._store(image, dst_mode, dst, value)
                    regs.set_flags(value)
                elif opcode == Op.NEG:
                    value = -self._value(image, dst_mode, dst)
                    value = to_signed(to_unsigned(value))
                    self._store(image, dst_mode, dst, value)
                    regs.set_flags(value)
                elif opcode == Op.CMP:
                    rhs = self._value(image, src_mode, src)
                    lhs = self._value(image, dst_mode, dst)
                    regs.set_flags(to_signed(to_unsigned(lhs - rhs)))
                elif opcode == Op.TST:
                    regs.set_flags(self._value(image, dst_mode, dst))
                elif opcode in isa.BRANCHES:
                    if self._branch_taken(opcode, regs):
                        regs.pc = self._address(image, src_mode, src)
                elif opcode == Op.JSR:
                    target = self._address(image, src_mode, src)
                    image.push_i32(regs.pc)
                    regs.pc = target
                elif opcode == Op.RTS:
                    regs.pc = to_unsigned(image.pop_i32())
                elif opcode == Op.PUSH:
                    image.push_i32(self._value(image, src_mode, src))
                elif opcode == Op.POP:
                    self._store(image, dst_mode, dst, image.pop_i32())
                else:  # pragma: no cover - opcode table is exhaustive
                    return FaultStop(executed - 1, "ill", pc)
                if use_blocks and image.text_version != version:
                    # self-modifying code: compiled blocks are stale,
                    # finish this quantum on the interpreter
                    use_blocks = False
        except SegmentationFault as fault:
            return FaultStop(executed, "segv", fault.address)
        return QuantumStop(executed)

    @staticmethod
    def _alu(opcode, lhs, rhs):
        if opcode == Op.ADD:
            return lhs + rhs
        if opcode == Op.SUB:
            return lhs - rhs
        if opcode in (Op.MUL, Op.MULL):
            return lhs * rhs
        if opcode in (Op.DIV, Op.DIVL):
            if rhs == 0:
                return None
            quotient = abs(lhs) // abs(rhs)
            return quotient if (lhs < 0) == (rhs < 0) else -quotient
        if opcode == Op.MOD:
            if rhs == 0:
                return None
            quotient = abs(lhs) // abs(rhs)
            if (lhs < 0) != (rhs < 0):
                quotient = -quotient
            return lhs - quotient * rhs
        if opcode == Op.AND:
            return to_unsigned(lhs) & to_unsigned(rhs)
        if opcode == Op.OR:
            return to_unsigned(lhs) | to_unsigned(rhs)
        if opcode == Op.XOR:
            return to_unsigned(lhs) ^ to_unsigned(rhs)
        if opcode == Op.SHL:
            return to_unsigned(lhs) << (rhs & 31)
        if opcode == Op.SHR:
            return to_unsigned(lhs) >> (rhs & 31)
        if opcode == Op.BFEXT:
            return (to_unsigned(lhs) >> (rhs & 31)) & 0xFF
        raise AssertionError("not an ALU opcode: %d" % opcode)

    @staticmethod
    def _branch_taken(opcode, regs):
        if opcode == Op.BRA:
            return True
        if opcode == Op.BEQ:
            return regs.zf
        if opcode == Op.BNE:
            return not regs.zf
        if opcode == Op.BLT:
            return regs.nf
        if opcode == Op.BLE:
            return regs.nf or regs.zf
        if opcode == Op.BGT:
            return not (regs.nf or regs.zf)
        if opcode == Op.BGE:
            return not regs.nf
        raise AssertionError("not a branch: %d" % opcode)
