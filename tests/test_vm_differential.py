"""Differential fuzzing: the trace compiler against the interpreter.

Randomized instruction sequences are encoded straight to machine code
and run twice — once with ``use_predecode=False`` (the reference
interpreter, the executable spec) and once through the trace compiler
— in small odd budget chunks, so quantum boundaries and entry-guard
bails land mid-trace.  After every chunk each architecturally visible
outcome must be identical: registers, flags, pc, memory contents,
dirty pages, executed counts, and the stop itself (type, fault kind,
faulting address).

The generator deliberately includes the awkward cases: invalid and
out-of-range addresses (segv parity), 68020-only opcodes run on a
68010 (ill parity), division by zero (fpe parity), dynamic branch and
call targets, byte operations, and stack traffic.  The one thing it
avoids is *stores that land inside the code window*: self-modifying
code mid-quantum hits the legacy per-run decode-cache staleness that
predates the trace compiler, in both engines.

The lazy variant is fuzzed the same way: random copy-on-reference
chunks pending over the data window and the stack, each fetched by a
logging hook, must fault in at the same instruction on both engines —
the pending-page bitmap and the ordered fetch log join the compared
state, and a failing fetch must stop both with the same ``segv``.
"""

from hypothesis import given, settings, strategies as st

from repro.vm import isa
from repro.vm.cpu import CPU, FaultStop, QuantumStop, TrapStop
from repro.vm.image import PAGE_BYTES as PAGE, ProcessImage, TEXT_BASE
from repro.vm.isa import Op, Mode, MC68010, MC68020
from repro.vm.predecode import compile_trace

MEM_SIZE = 64 * 1024
ISIZE = isa.INSTRUCTION_SIZE
#: largest program the generator emits (plus the trap sentinel)
MAX_PROG = 24
#: code window stores must avoid (see module docstring)
CODE_END = TEXT_BASE + ISIZE * (MAX_PROG + 1)
#: start of the store-safe data window
DATA_BASE = CODE_END + 64

REG = st.integers(0, 7)

#: addresses whose 4-byte access straddles a page boundary
STRADDLE = st.integers(DATA_BASE // PAGE + 1,
                       MEM_SIZE // PAGE - 1).map(lambda p: p * PAGE - 2)

#: immediates: small arithmetic values, addresses in the data window,
#: clearly-invalid addresses — never inside the code window
IMM = st.one_of(
    st.integers(-64, 64),
    st.integers(DATA_BASE, MEM_SIZE - 4),
    STRADDLE,
    st.sampled_from([-16, 0, MEM_SIZE - 2, MEM_SIZE - 1,
                     MEM_SIZE + 64, 2 ** 20, -(2 ** 20)]),
)

#: absolute operands: same spread (reads from low memory are legal,
#: stores below TEXT_BASE never alias code)
ABS = IMM

#: opcodes, weighted roughly by how interesting their compiled form is
OPS = ([Op.ADD, Op.SUB, Op.MUL, Op.MOVE] * 4
       + [Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.CMP, Op.TST,
          Op.MOVB, Op.LEA, Op.DIV, Op.MOD, Op.NOT, Op.NEG] * 2
       + [Op.PUSH, Op.POP, Op.JSR, Op.RTS, Op.NOP]
       + [Op.MULL, Op.DIVL, Op.BFEXT]
       + [Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.BRA] * 2)


@st.composite
def _operand(draw, code_pcs):
    mode = draw(st.sampled_from([Mode.IMM, Mode.DREG, Mode.DREG,
                                 Mode.AREG, Mode.ABS, Mode.IND,
                                 Mode.IND_DISP]))
    if mode == Mode.IMM:
        return mode, draw(IMM)
    if mode in (Mode.DREG, Mode.AREG, Mode.IND):
        return mode, draw(REG)
    if mode == Mode.ABS:
        return mode, draw(ABS)
    return mode, isa.pack_ind_disp(draw(st.integers(-16, 16)) * 4,
                                   draw(REG))


@st.composite
def _instruction(draw, code_pcs):
    op = draw(st.sampled_from(OPS))
    if op in isa.ZERO_OPERAND:
        return isa.encode(op)
    if op in isa.BRANCHES or op == Op.JSR:
        # mostly static targets (they compile to links), sometimes a
        # dynamic register target (always a trace exit)
        if draw(st.integers(0, 4)):
            return isa.encode(op, Mode.IMM, draw(st.sampled_from(code_pcs)))
        mode = draw(st.sampled_from([Mode.DREG, Mode.AREG]))
        return isa.encode(op, mode, draw(REG))
    if op in isa.ONE_OPERAND_SRC:  # push
        sm, s = draw(_operand(code_pcs))
        return isa.encode(op, sm, s)
    if op in isa.ONE_OPERAND_DST:  # not/neg/tst/pop
        dm, dv = draw(_operand(code_pcs))
        return isa.encode(op, 0, 0, dm, dv)
    sm, s = draw(_operand(code_pcs))
    dm, dv = draw(_operand(code_pcs))
    return isa.encode(op, sm, s, dm, dv)


@st.composite
def _program(draw):
    n = draw(st.integers(2, MAX_PROG))
    code_pcs = [TEXT_BASE + ISIZE * k for k in range(n + 1)]
    body = [draw(_instruction(code_pcs)) for _ in range(n)]
    body.append(isa.encode(Op.TRAP))  # sentinel: falling off traps
    return b"".join(body)


#: initial register files: arithmetic values for d, data-window
#: addresses for a (so indirect stores start out store-safe)
DREGS = st.lists(st.one_of(st.integers(-100, 100),
                           st.integers(-(2 ** 31), 2 ** 31 - 1)
                           .filter(lambda v: not
                                   TEXT_BASE - 256 <= v <= CODE_END)),
                 min_size=8, max_size=8)
AREGS = st.lists(st.one_of(st.integers(DATA_BASE + 256, MEM_SIZE - 256),
                           STRADDLE.filter(lambda v: v >= DATA_BASE + 256)),
                 min_size=8, max_size=8)


def _fresh_image(text, dregs, aregs):
    image = ProcessImage(mem_size=MEM_SIZE)
    image.text_size = len(text)
    image.write_bytes(TEXT_BASE, text)
    image.data_size = 0
    image.brk = TEXT_BASE + len(text)
    # a recognizable non-zero pattern under the data window so loads
    # see real values and byte ops have something to truncate
    pattern = bytes((i * 37 + 11) & 0xFF for i in range(4096))
    image.write_bytes(DATA_BASE, pattern)
    image.clear_dirty()
    image.regs.pc = TEXT_BASE
    image.regs.sp = image.stack_top - 64
    image.regs.d[:] = dregs
    image.regs.a[:7] = aregs[:7]
    return image


#: where pending chunks go: the patterned data window, the stack, and
#: page boundaries (so a straddling access can find one page present)
LAZY_CUTS = st.one_of(st.integers(DATA_BASE, DATA_BASE + 8192),
                      st.integers(MEM_SIZE - 4096, MEM_SIZE),
                      st.integers(DATA_BASE // PAGE + 1,
                                  MEM_SIZE // PAGE).map(lambda p: p * PAGE))


@st.composite
def _pending_chunks(draw):
    """Non-overlapping ``(start, size)`` chunks — a random subset of
    the spans between sorted cut points (the span from the data window
    to the stack window covers the middle of memory in one chunk) —
    and the starts of the few whose fetch fails."""
    cuts = sorted(set(draw(st.lists(LAZY_CUTS, min_size=2,
                                    max_size=10))))
    chunks = [(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])
              if draw(st.booleans())]
    fail = {start for start, __ in chunks
            if draw(st.integers(0, 5)) == 0}
    return chunks, fail


def _make_lazy(image, chunks, fail=()):
    """Leave ``chunks`` pending on ``image``, poisoned in memory until
    faulted in.  The fetch hook returns the original bytes (or raises
    for a chunk whose start is in ``fail``) and logs every call;
    returns the log."""
    log = []
    original = bytes(image.mem)

    def fetch(start, size):
        log.append((start, size))
        if start in fail:
            raise OSError("chunk at 0x%x lost" % start)
        return original[start:start + size]

    for start, size in chunks:
        image.mem[start:start + size] = b"\xee" * size
    image.add_lazy_chunks([(start, size, start) for start, size in chunks],
                          fetch=fetch)
    return log


def _visible_state(image, stop):
    return (type(stop).__name__, stop.executed,
            getattr(stop, "kind", None), getattr(stop, "address", None),
            list(image.regs.d), list(image.regs.a),
            image.regs.pc, image.regs.sp, image.regs.zf, image.regs.nf)


def _run_differential(text, dregs, aregs, model, budgets, cap=400,
                      chunks=(), fail=()):
    ref_cpu = CPU(model)
    ref_cpu.use_predecode = False
    fast_cpu = CPU(model)
    ref = _fresh_image(text, dregs, aregs)
    fast = _fresh_image(text, dregs, aregs)
    ref_log = _make_lazy(ref, chunks, fail)
    fast_log = _make_lazy(fast, chunks, fail)
    total = 0
    chunk = 0
    while total < cap:
        budget = budgets[chunk % len(budgets)]
        ref_stop = ref_cpu.run(ref, budget)
        fast_stop = fast_cpu.run(fast, budget)
        assert _visible_state(ref, ref_stop) == \
            _visible_state(fast, fast_stop), \
            "diverged at chunk %d (budget %d)" % (chunk, budget)
        assert bytes(ref.mem) == bytes(fast.mem), \
            "memory diverged at chunk %d" % chunk
        assert bytes(ref.dirty_pages) == bytes(fast.dirty_pages), \
            "dirty pages diverged at chunk %d" % chunk
        assert bytes(ref.pending_pages) == bytes(fast.pending_pages), \
            "pending pages diverged at chunk %d" % chunk
        assert ref_log == fast_log, "fetch log diverged at chunk %d" % chunk
        total += ref_stop.executed
        chunk += 1
        if not isinstance(ref_stop, QuantumStop):
            break  # trap/halt/fault: the program is done
    return ref_stop


@given(text=_program(), dregs=DREGS, aregs=AREGS,
       budgets=st.lists(st.integers(3, 17).map(lambda v: v | 1),
                        min_size=1, max_size=4),
       model=st.sampled_from([MC68010, MC68020]))
@settings(max_examples=120, deadline=None)
def test_compiled_traces_match_interpreter(text, dregs, aregs,
                                           budgets, model):
    _run_differential(text, dregs, aregs, model, budgets)


def test_linked_loop_matches_interpreter_chunked():
    """A deterministic cpuhog-shaped loop: block linking, a memory
    read-modify-write, and a conditional exit, stepped in budgets that
    never divide the loop length."""
    loop = TEXT_BASE
    body = [
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 7),
        isa.encode(Op.MOVE, Mode.DREG, 7, Mode.DREG, 5),
        isa.encode(Op.MUL, Mode.IMM, 7, Mode.DREG, 5),
        isa.encode(Op.MOD, Mode.IMM, 123, Mode.DREG, 5),
        isa.encode(Op.ADD, Mode.DREG, 5, Mode.ABS, DATA_BASE),
        isa.encode(Op.CMP, Mode.IMM, 500, Mode.DREG, 7),
        isa.encode(Op.BLT, Mode.IMM, loop),
        isa.encode(Op.TRAP),
    ]
    text = b"".join(body)
    zeros = [0] * 8
    addrs = [DATA_BASE + 1024] * 8
    _run_differential(text, zeros, addrs, MC68010, [7, 13, 11],
                      cap=5000)


def test_division_and_ill_parity_under_traces():
    """fpe (divide by zero through a register) and ill (68020 opcode
    on a 68010) must fault identically through both engines."""
    fpe = b"".join([
        isa.encode(Op.MOVE, Mode.IMM, 0, Mode.DREG, 1),
        isa.encode(Op.DIV, Mode.DREG, 1, Mode.DREG, 0),
        isa.encode(Op.TRAP),
    ])
    zeros = [0] * 8
    addrs = [DATA_BASE + 512] * 8
    _run_differential(fpe, zeros, addrs, MC68010, [5])
    ill = b"".join([
        isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 0),
        isa.encode(Op.MULL, Mode.IMM, 9, Mode.DREG, 0),
        isa.encode(Op.TRAP),
    ])
    _run_differential(ill, zeros, addrs, MC68010, [5])
    _run_differential(ill, zeros, addrs, MC68020, [5])


@given(text=_program(), dregs=DREGS, aregs=AREGS,
       budgets=st.lists(st.integers(3, 17).map(lambda v: v | 1),
                        min_size=1, max_size=4),
       model=st.sampled_from([MC68010, MC68020]), lazy=_pending_chunks())
@settings(max_examples=120, deadline=None)
def test_lazy_traces_match_interpreter(text, dregs, aregs, budgets, model,
                                       lazy):
    """Pending-guarded traces against the interpreter's _check path."""
    chunks, fail = lazy
    _run_differential(text, dregs, aregs, model, budgets, chunks=chunks,
                      fail=fail)


def test_lazy_loop_faults_in_mid_trace_and_failed_fetch_is_segv():
    """The linked loop streams through three pending pages; each fault
    lands mid-trace at the same instruction on both engines.  With the
    third chunk's fetch failing both stop with the same segv."""
    loop = TEXT_BASE
    body = [
        isa.encode(Op.MOVE, Mode.IND, 0, Mode.DREG, 1),
        isa.encode(Op.ADD, Mode.DREG, 1, Mode.DREG, 2),
        isa.encode(Op.ADD, Mode.IMM, 64, Mode.AREG, 0),
        isa.encode(Op.PUSH, Mode.DREG, 2),
        isa.encode(Op.POP, 0, 0, Mode.DREG, 3),
        isa.encode(Op.CMP, Mode.IMM, DATA_BASE + 3 * 1024, Mode.AREG, 0),
        isa.encode(Op.BLT, Mode.IMM, loop),
        isa.encode(Op.TRAP),
    ]
    text = b"".join(body)
    zeros = [0] * 8
    addrs = [DATA_BASE] * 8
    pages = [(DATA_BASE + k * 1024, 1024) for k in range(3)]
    stack = [(MEM_SIZE - 1024, 1024)]
    done = _run_differential(text, zeros, addrs, MC68010, [9, 23],
                             cap=5000, chunks=pages + stack)
    assert isinstance(done, TrapStop)
    lost = _run_differential(text, zeros, addrs, MC68010, [9, 23],
                             cap=5000, chunks=pages + stack,
                             fail={pages[2][0]})
    assert isinstance(lost, FaultStop) and lost.kind == "segv"


def test_lazy_guard_edge_cases():
    """Each guard the lazy variant adds, on a program that reads the
    poisoned bytes (or shows stale flags) if that guard is missing."""
    pending = 9 * PAGE  # the page below it stays present
    chunks = [(pending, PAGE), (MEM_SIZE - PAGE, PAGE)]
    zeros = [0] * 8
    edge = [pending - 2] * 8  # a 4-byte access straddles into `pending`
    programs = {
        "straddling load": [
            isa.encode(Op.MOVE, Mode.IND, 0, Mode.DREG, 1)],
        "straddling store": [
            isa.encode(Op.MOVE, Mode.IMM, 7, Mode.IND, 0)],
        "absolute load": [
            isa.encode(Op.MOVE, Mode.ABS, pending + 8, Mode.DREG, 1)],
        "absolute store": [
            isa.encode(Op.MOVE, Mode.IMM, 7, Mode.ABS, pending + 8)],
        "absolute byte": [
            isa.encode(Op.MOVB, Mode.ABS, pending + 3, Mode.DREG, 1)],
        "absolute straddle": [
            isa.encode(Op.MOVE, Mode.ABS, pending - 2, Mode.DREG, 1)],
        "stack pop": [
            isa.encode(Op.POP, 0, 0, Mode.DREG, 1)],
    }
    for name, body in programs.items():
        text = b"".join([isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 0)]
                        + body + [isa.encode(Op.TRAP)])
        assert isinstance(_run_differential(text, zeros, edge, MC68010,
                                            [5], chunks=chunks),
                          TrapStop), name
    # the flags a failing absolute access leaves must be the ones the
    # instruction before it set, not elided as dead
    flags = b"".join([
        isa.encode(Op.CMP, Mode.IMM, 0, Mode.DREG, 0),
        isa.encode(Op.ADD, Mode.ABS, pending + 8, Mode.DREG, 1),
        isa.encode(Op.TRAP),
    ])
    lost = _run_differential(flags, zeros, edge, MC68010, [5],
                             chunks=chunks, fail={pending})
    assert isinstance(lost, FaultStop) and lost.kind == "segv"


def test_eager_traces_carry_no_pending_guard():
    """Only the lazy variant pays for pending guards: the eager trace
    of a program touching memory every way never reads ``lp``."""
    text = b"".join([
        isa.encode(Op.MOVE, Mode.ABS, DATA_BASE, Mode.DREG, 1),
        isa.encode(Op.MOVE, Mode.DREG, 1, Mode.IND, 0),
        isa.encode(Op.ADD, Mode.IND_DISP, isa.pack_ind_disp(8, 1),
                   Mode.ABS, DATA_BASE + 8),
        isa.encode(Op.PUSH, Mode.DREG, 1),
        isa.encode(Op.POP, 0, 0, Mode.DREG, 2),
        isa.encode(Op.JSR, Mode.IMM, TEXT_BASE + 7 * ISIZE),
        isa.encode(Op.TRAP),
        isa.encode(Op.RTS),
    ])
    image = _fresh_image(text, [0] * 8, [DATA_BASE + 512] * 8)
    eager, __, __ = compile_trace(MC68010, image, TEXT_BASE, lazy=False)
    lazy, __, __ = compile_trace(MC68010, image, TEXT_BASE, lazy=True)
    assert "lp[" not in eager.source
    assert lazy.source.count("lp[") >= 7
