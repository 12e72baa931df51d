"""Differential fuzzing: the trace compiler against the interpreter.

Randomized instruction sequences are encoded straight to machine code
and run twice — once with ``use_predecode=False`` (the reference
interpreter, the executable spec) and once through the trace compiler
— in budget chunks of every length from 1 to ``MAX_BLOCK_LEN``, so
quantum boundaries, and the tail traces that finish them, land
mid-trace.  After every chunk each architecturally visible
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

Loops get their own generator: counted loops of two to four blocks,
with side exits, tails after conditional links and extra back edges,
registers and immediates near the 32-bit edges, and budgets below, at
and above the loop's length, so the trace compiler's loop superblocks
(fused iterations, pending flags, deferred and one-sided wraps) are
checked against the interpreter on both trace variants.

Range-proven loop copies get a generator of cpuhog's shape: a counter
stepped up by a constant, a ``mod`` of it added to an accumulator, and
``cmp``/``blt`` back, both started near the top of the 32-bit range
(or the mirror image, near the bottom) so the copy's entry guard
holds, fails, or fails only on the last iteration the budget allows,
on both trace variants and CPU models.

The lazy variant is fuzzed the same way: random copy-on-reference
chunks pending over the data window and the stack, each fetched by a
logging hook, must fault in at the same instruction on both engines —
the pending-page bitmap and the ordered fetch log join the compared
state, and a failing fetch must stop both with the same ``segv``.
"""

from hypothesis import given, settings, strategies as st

from repro.programs.guest import cpuhog
from repro.programs.guest.libasm import program
from repro.vm import isa
from repro.vm.cpu import CPU, FaultStop, QuantumStop, TrapStop
from repro.vm.image import PAGE_BYTES as PAGE, ProcessImage, TEXT_BASE
from repro.vm.isa import Op, Mode, MC68010, MC68020
from repro.vm.predecode import MAX_BLOCK_LEN, compile_trace

MEM_SIZE = 64 * 1024
ISIZE = isa.INSTRUCTION_SIZE
#: largest program the generator emits (plus the trap sentinel)
MAX_PROG = 24
#: code window stores must avoid (see module docstring)
CODE_END = TEXT_BASE + ISIZE * (MAX_PROG + 1)
#: start of the store-safe data window
DATA_BASE = CODE_END + 64
#: its first word-aligned address: loop superblocks keep the aligned
#: absolute words a loop touches in locals
WORDS = (DATA_BASE + 3) & ~3

REG = st.integers(0, 7)

#: quantum budgets: every tail trace length, and a whole block
BUDGET = st.integers(1, MAX_BLOCK_LEN)

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
       budgets=st.lists(BUDGET, min_size=1, max_size=4),
       model=st.sampled_from([MC68010, MC68020]))
@settings(max_examples=120, deadline=None)
def test_compiled_traces_match_interpreter(text, dregs, aregs,
                                           budgets, model):
    _run_differential(text, dregs, aregs, model, budgets)


# -- loops --------------------------------------------------------------

#: immediates that carry 32-bit arithmetic across its edges
EDGE_IMM = st.one_of(
    st.integers(-8, 8),
    st.integers(2 ** 31 - 300, 2 ** 31 - 1),
    st.integers(-(2 ** 31), -(2 ** 31) + 300),
    st.sampled_from([2 ** 30, -(2 ** 30), 65537, 7, 123]),
)

#: loop-body registers: d0 counts the loop down; few destinations, so
#: runs of ops on one register are common
BODY_REG = st.integers(1, 7)
BODY_DST = st.integers(1, 3)

#: register values near the edges (and small ones)
EDGE_DREGS = st.lists(st.one_of(st.integers(-100, 100),
                                st.integers(2 ** 31 - 300, 2 ** 31 - 1),
                                st.integers(-(2 ** 31), -(2 ** 31) + 300)),
                      min_size=8, max_size=8)

ARITH = ([Op.ADD, Op.SUB, Op.MUL, Op.MOVE] * 3
         + [Op.AND, Op.OR, Op.XOR, Op.CMP, Op.TST, Op.MOD, Op.DIV,
            Op.SHL, Op.SHR, Op.NOT, Op.NEG, Op.MULL, Op.DIVL, Op.BFEXT])

CONDS = [Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE]

#: aligned absolute words in the data window, on three pages (so a
#: store to one cannot hide a wrong dirty mark on another)
ALIGNED = st.sampled_from([WORDS + PAGE * p + 4 * k
                           for p in range(3) for k in range(3)])
#: loop-body absolute words: mostly aligned, sometimes straddling two
LOOP_ABS = st.one_of(ALIGNED, ALIGNED, ALIGNED,
                     st.integers(0, 7).map(lambda k: DATA_BASE + 4 * k))


@st.composite
def _arith(draw, words_only=False):
    """A loop-body instruction: mostly register arithmetic (the
    deferred-wrap chains), sometimes from or to an absolute word or
    through an address register.  ``words_only`` loops reach memory
    through aligned absolute words alone, so their superblocks keep
    those words in locals."""
    op = draw(st.sampled_from(ARITH))
    words = ALIGNED if words_only else LOOP_ABS
    # a word is one operand in six, or in two when words_only
    odds = 1 if words_only else 5
    if draw(st.integers(0, odds)) == 0:
        src = (Mode.ABS, draw(words))
    elif draw(st.booleans()):
        src = (Mode.IMM, draw(EDGE_IMM))
    else:
        src = (Mode.DREG, draw(BODY_REG))
    if draw(st.integers(0, odds)) == 0:
        dst = (Mode.ABS, draw(words))
    elif not words_only and draw(st.integers(0, 7)) == 0:
        dst = (Mode.IND, draw(REG))
    else:
        dst = (Mode.DREG, draw(BODY_DST))
    if op in isa.ONE_OPERAND_DST:
        return isa.encode(op, 0, 0, *dst)
    return isa.encode(op, *src, *dst)


@st.composite
def _chain(draw):
    """A run of ring ops on one register, often started by a ``move``
    into it: a deferred-wrap chain when its flags are dead."""
    reg = draw(BODY_DST)
    run = []
    if draw(st.booleans()):
        run.append(isa.encode(Op.MOVE, Mode.DREG, draw(BODY_REG),
                              Mode.DREG, reg))
    for __ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.MULL,
                                   Op.AND, Op.OR, Op.XOR]))
        src = (Mode.IMM, draw(EDGE_IMM)) if draw(st.booleans()) \
            else (Mode.DREG, draw(BODY_REG))
        run.append(isa.encode(op, *src, Mode.DREG, reg))
    return run


@st.composite
def _loop_program(draw, words_only=False):
    """A counted loop of 2-4 blocks.

    Each block is an optional leading side exit (it reads the flags the
    previous block or iteration left), a few body instructions and
    deferred-wrap chains, an optional side exit, and a link to the next
    block: ``bra``, or a conditional branch whose fall-through tail
    ends in a ``bra`` out, back or on.  The last block counts ``d0``
    down and branches back to the first, conditionally or with a
    ``ble`` out and a ``bra`` back; the loop falls out into a
    ``trap``.  Side exits go to the exit, to any block, or to
    ``side``: a conditional branch the trace compiler cannot compile
    (bad target mode), so the interpreter reads the flags the exit left
    and faults if they are wrong.

    ``words_only`` loops reach memory only through aligned absolute
    words (:func:`_arith`), and their side exits and tails only leave
    the loop or go on to the next block, so their cycles stay simple
    and fuse into superblocks that keep those words in locals.
    """
    nblocks = draw(st.integers(2, 4))
    items = [isa.encode(Op.MOVE, Mode.IMM, draw(st.integers(1, 40)),
                        Mode.DREG, 0)]
    labels = {}
    targets = ["exit", "side"] + ([] if words_only else list(range(nblocks)))

    def side_exit():
        items.append((draw(st.sampled_from(CONDS)),
                      draw(st.sampled_from(targets))))

    for b in range(nblocks):
        labels[b] = len(items)
        if draw(st.integers(0, 3)) == 0:
            side_exit()
        for run in draw(st.lists(st.one_of(_arith(words_only)
                                           .map(lambda i: [i]),
                                           _chain()),
                                 min_size=1, max_size=4)):
            items += run
        if draw(st.booleans()):
            side_exit()
        if b == nblocks - 1:
            items.append(isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0))
            back = draw(st.sampled_from([Op.BGT, Op.BNE, Op.BGE, Op.BRA]))
            if back == Op.BRA:
                items.append((Op.BLE, "exit"))
            items.append((back, 0))
        elif draw(st.booleans()):
            items.append((Op.BRA, b + 1))
        else:
            items.append((draw(st.sampled_from(CONDS)), b + 1))
            items += [draw(_arith(words_only))
                      for __ in range(draw(st.integers(0, 2)))]
            onward = ["exit", b + 1] if words_only else ["exit", 0, b + 1]
            items.append((Op.BRA, draw(st.sampled_from(onward))))
    labels["exit"] = len(items)
    items.append(isa.encode(Op.TRAP))
    labels["side"] = len(items)
    items.append(isa.encode(draw(st.sampled_from(CONDS)), 7, 0))
    items.append(isa.encode(Op.TRAP))
    return b"".join(
        isa.encode(item[0], Mode.IMM, TEXT_BASE + ISIZE * labels[item[1]])
        if isinstance(item, tuple) else item for item in items)


#: budgets below, around and well above a loop's length
LOOP_BUDGETS = st.lists(st.one_of(BUDGET, st.integers(18, 60),
                                  st.integers(40, 400)),
                        min_size=1, max_size=4)


@given(words_only=st.booleans(), data=st.data(), dregs=EDGE_DREGS,
       aregs=AREGS, budgets=LOOP_BUDGETS,
       model=st.sampled_from([MC68010, MC68020]))
@settings(max_examples=250, deadline=None)
def test_loop_superblocks_match_interpreter(words_only, data, dregs, aregs,
                                            budgets, model):
    """``words_only`` loops keep their words in locals, and every exit
    must leave the same memory and dirty pages as the interpreter.
    They run on a 68020: a 68010 ends the block at every
    ``mull``/``divl``/``bfext``, and the loop would not fuse."""
    text = data.draw(_loop_program(words_only), label="text")
    _run_differential(text, dregs, aregs, MC68020 if words_only else model,
                      budgets, cap=3000)


@given(text=_loop_program(), dregs=EDGE_DREGS, aregs=AREGS,
       budgets=LOOP_BUDGETS, model=st.sampled_from([MC68010, MC68020]),
       lazy=_pending_chunks())
@settings(max_examples=100, deadline=None)
def test_lazy_loop_superblocks_match_interpreter(text, dregs, aregs,
                                                 budgets, model, lazy):
    chunks, fail = lazy
    _run_differential(text, dregs, aregs, model, budgets, cap=3000,
                      chunks=chunks, fail=fail)


#: constant divisors: small, cpuhog's, and ones that never bound much
MODS = st.sampled_from([2, 7, 123, 20000, -9, 2 ** 30, -(2 ** 31)])

#: a pending chunk the loop never touches (so the lazy variant keeps
#: running), alone or with one over the accumulator word's page
EDGE_CHUNKS = st.sampled_from([(), ((MEM_SIZE - PAGE, PAGE),),
                             ((MEM_SIZE - PAGE, PAGE),
                              (WORDS // PAGE * PAGE, PAGE))])


def _near_top(draw, step):
    """A start from which adding ``step`` leaves the 32-bit range after
    a few dozen iterations (exactly at one of them, or a little before
    or after it), a small value or an edge one."""
    exact = max(2 ** 31 - 1 - step * draw(st.integers(0, 48)),
                step - 2 ** 31)
    return draw(st.one_of(st.just(exact), st.integers(exact - step, exact),
                          st.integers(-100, 100), EDGE_IMM))


@st.composite
def _edge_loop(draw):
    """cpuhog's loop shape: a counter stepped up by a constant, a term
    made from it by a constant ``mod``, added to an accumulator (a
    register or an aligned word), and ``cmp dM, dN; blt`` back.  The
    counter and accumulator start near the top of the range, so the
    range-proven copy's guard holds, fails, or fails only on the last
    iteration the budget allows.  Half the loops are the mirror image:
    counting down near the bottom (``bgt`` back), so the guard's lower
    bounds are tried too."""
    counter, bound, term, acc = draw(st.permutations(range(1, 8)))[:4]
    step = draw(st.one_of(st.integers(1, 9), st.sampled_from([2 ** 20])))
    divisor = draw(MODS)
    acc_operand = ((Mode.ABS, draw(ALIGNED)) if draw(st.booleans())
                   else (Mode.DREG, acc))
    top = [_near_top(draw, step),
           _near_top(draw, min(abs(divisor) - 1, 2 ** 31 - 1)),
           draw(st.one_of(st.just(2 ** 31 - 1), EDGE_IMM))
           if draw(st.booleans()) else 2 ** 31 - 1]
    back = Op.BLT
    if draw(st.booleans()):  # x -> -x - 1 maps the top onto the bottom
        top = [-value - 1 for value in top]
        step, back = -step, Op.BGT
    items = [isa.encode(Op.MOVE, Mode.IMM, top[0], Mode.DREG, counter),
             isa.encode(Op.MOVE, Mode.IMM, top[1], *acc_operand),
             isa.encode(Op.MOVE, Mode.IMM, top[2], Mode.DREG, bound)]
    head = len(items)
    items += [isa.encode(Op.ADD, Mode.IMM, step, Mode.DREG, counter),
              isa.encode(Op.MOVE, Mode.DREG, counter, Mode.DREG, term)]
    if draw(st.booleans()):
        items.append(isa.encode(Op.MUL, Mode.IMM, draw(EDGE_IMM),
                                Mode.DREG, term))
    if draw(st.booleans()):
        items.append(isa.encode(Op.ADD, Mode.IMM, draw(EDGE_IMM),
                                Mode.DREG, term))
    items += [isa.encode(Op.MOD, Mode.IMM, divisor, Mode.DREG, term),
              isa.encode(Op.ADD, Mode.DREG, term, *acc_operand),
              isa.encode(Op.CMP, Mode.DREG, bound, Mode.DREG, counter),
              isa.encode(back, Mode.IMM, TEXT_BASE + ISIZE * head),
              isa.encode(Op.TRAP)]
    return b"".join(items)


@given(text=_edge_loop(), dregs=EDGE_DREGS, aregs=AREGS,
       budgets=st.lists(st.integers(1, 400), min_size=1, max_size=3),
       model=st.sampled_from([MC68010, MC68020]), chunks=EDGE_CHUNKS)
@settings(max_examples=60, deadline=None)
def test_range_proven_loops_match_interpreter(text, dregs, aregs, budgets,
                                              model, chunks):
    """Counted loops whose counter and accumulator start near the
    32-bit edges, eager and lazy: the guarded copy runs only where no
    test it dropped could fire, and the fallback everywhere else."""
    _run_differential(text, dregs, aregs, model, budgets, cap=3000,
                      chunks=chunks)


def _loop(*body, back=Op.BGT):
    """``body`` as a loop on ``d0`` counted down from its initial
    value, then a trap; returns ``(text, length)``."""
    insts = list(body) + [isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
                          isa.encode(back, Mode.IMM, TEXT_BASE),
                          isa.encode(Op.TRAP)]
    return b"".join(insts), len(insts) - 1


def _source(text, lazy=False):
    image = _fresh_image(text, [0] * 8, [DATA_BASE + 512] * 8)
    return compile_trace(MC68010, image, TEXT_BASE, lazy=lazy)[0].source


def test_one_sided_wrap_at_the_top_of_the_range():
    """``add #k`` can only overflow upwards and ``sub #k`` downwards:
    one test each, exact at 2147483647 + k for every k the loop steps
    through.  A register difference can overflow either way."""
    text, length = _loop(isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 1),
                         isa.encode(Op.SUB, Mode.IMM, 2, Mode.DREG, 2),
                         isa.encode(Op.MOVE, Mode.DREG, 1, Mode.DREG, 4),
                         isa.encode(Op.SUB, Mode.DREG, 2, Mode.DREG, 4))
    source = _source(text)
    assert "if rd1 > 2147483647: rd1 -= 4294967296" in source
    assert "if rd2 < -2147483648: rd2 += 4294967296" in source
    assert "rd1 < -2147483648" not in source
    assert "rd4 = (rd1 - rd2)\n" in source
    assert "if rd4 > 2147483647 or rd4 < -2147483648" in source
    dregs = [40, 2 ** 31 - 7, -(2 ** 31) + 5, 0, 0, 0, 0, 0]
    done = _run_differential(text, dregs, [DATA_BASE + 512] * 8, MC68010,
                             [3 * length + 1, 41], cap=5000)
    assert isinstance(done, TrapStop)


def _guard(text, dregs, budget):
    """``(_k, holds)`` for a quantum of ``budget`` entering the loop at
    its head with ``dregs``: the most iterations the budget allows, and
    whether the range-proven copy runs them (its guard holds)."""
    env = {"budget": budget, "_n": 0}
    env.update(("rd%d" % i, value) for i, value in enumerate(dregs))
    for line in _source(text).splitlines():
        if line.strip().startswith(("_lim0 = ", "_k = ", "_g = ")):
            exec(line.strip(), env)
    return env["_k"], env["_g"] != -1


def _accumulate(over):
    """The loop ``add #3, d1`` counted down by ``d0``, with ``d1``
    starting where iteration _k of a 60-instruction quantum brings it
    ``over`` past 2147483647; returns the text and the registers."""
    text, __ = _loop(isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 1))
    assert "rd1 + _k * 3 <= 2147483647" in _source(text)
    k = _guard(text, [100] + [0] * 7, 60)[0]
    return text, [100, 2 ** 31 - 1 - 3 * k + over] + [0] * 6


def test_accumulator_reaching_the_top_on_the_last_iteration():
    """An accumulator that reaches 2147483647 exactly on iteration _k
    never wraps: the guard holds, and the range-proven copy runs
    every iteration of the quantum."""
    text, dregs = _accumulate(0)
    assert _guard(text, dregs, 60)[1]
    done = _run_differential(text, dregs, [DATA_BASE + 512] * 8, MC68010,
                             [60], cap=5000)
    assert isinstance(done, TrapStop)


def test_accumulator_passing_the_top_on_the_last_iteration():
    """One step higher it passes 2147483647 on iteration _k: the guard
    fails and the loop's fallback, whose wrap test fires on that last
    iteration, runs the quantum."""
    text, dregs = _accumulate(1)
    k, holds = _guard(text, dregs, 60)
    assert not holds
    image = _fresh_image(text, dregs, [DATA_BASE + 512] * 8)
    CPU(MC68010).run(image, 3 * k)
    assert image.regs.d[1] == -(2 ** 31)
    done = _run_differential(text, dregs, [DATA_BASE + 512] * 8, MC68010,
                             [60], cap=5000)
    assert isinstance(done, TrapStop)


def test_mod_of_a_dividend_going_negative_mid_loop():
    """The range-proven copy drops ``mod``'s sign test for a counter it
    proves non-negative; one that goes negative within the quantum
    fails the guard, and the fallback keeps the sign branch."""
    text, length = _loop(isa.encode(Op.MOVE, Mode.DREG, 1, Mode.DREG, 2),
                         isa.encode(Op.MOD, Mode.IMM, 7, Mode.DREG, 2),
                         isa.encode(Op.ADD, Mode.DREG, 2, Mode.DREG, 3),
                         isa.encode(Op.SUB, Mode.IMM, 5, Mode.DREG, 1))
    source = _source(text)
    assert "rd2 = rd1 % 7 if rd1 >= 0 else -(-rd1 % 7)" in source
    assert "rd2 = rd1 % 7\n" in source
    dregs = [60, 5 * 10 + 3, 0, 0, 0, 0, 0, 0]
    assert _guard(text, dregs, 5 * length)[1]
    assert not _guard(text, dregs, 20 * length)[1]
    for budgets in ([20 * length], [5 * length, 7, 41]):
        done = _run_differential(text, dregs, [DATA_BASE + 512] * 8,
                                 MC68010, budgets, cap=5000)
        assert isinstance(done, TrapStop)


def test_not_taken_tail_leaves_the_spans_it_proves_in_the_tail():
    """The not-taken side of an in-cycle branch leaves the loop, so
    what it writes (here ``d2 = 5``) proves nothing about the rest of
    the iteration: the next block's ``d2 * 1000000`` keeps its wrap."""
    nxt = TEXT_BASE + 4 * ISIZE
    text = b"".join([
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BGT, Mode.IMM, nxt),        # the in-cycle edge
        isa.encode(Op.MOVE, Mode.IMM, 5, Mode.DREG, 2),      # the tail
        isa.encode(Op.TRAP),
        isa.encode(Op.MOVE, Mode.DREG, 2, Mode.DREG, 4),     # nxt
        isa.encode(Op.MUL, Mode.IMM, 1000000, Mode.DREG, 4),
        isa.encode(Op.ADD, Mode.DREG, 4, Mode.DREG, 5),
        isa.encode(Op.BRA, Mode.IMM, TEXT_BASE),
    ])
    assert "while _n <= _g:" in _source(text)
    stop = _run_differential(text, [30, 0, 3000, 0, 0, 0, 0, 0],
                             [DATA_BASE + 512] * 8, MC68010, [200],
                             cap=5000)
    assert isinstance(stop, TrapStop)


def test_move_between_overlapping_words_leaves_the_moved_flags():
    """``move`` from an aligned word to a word straddling it sets the
    flags from the value moved, not from the word the store rewrote."""
    word = WORDS + 4
    text = b"".join([
        isa.encode(Op.MOVE, Mode.IMM, -(2 ** 31) + 1, Mode.ABS, word),
        isa.encode(Op.MOVE, Mode.ABS, word, Mode.ABS, word + 2),
        isa.encode(Op.TRAP),
    ])
    for budgets in ([1], [5]):
        done = _run_differential(text, [0] * 8, [DATA_BASE + 512] * 8,
                                 MC68010, budgets)
        assert isinstance(done, TrapStop)


def test_deferred_chain_crosses_the_edge_mid_chain():
    """``move``, ``mul``, ``add``, ``sub``, ``xor`` on one register wrap
    once, at the ``mod`` that reads them, though the value leaves the
    32-bit range after the ``mul`` and comes back after the ``add``."""
    text, length = _loop(
        isa.encode(Op.MOVE, Mode.DREG, 1, Mode.DREG, 2),
        isa.encode(Op.MUL, Mode.IMM, 3, Mode.DREG, 2),
        isa.encode(Op.ADD, Mode.IMM, -(2 ** 31), Mode.DREG, 2),
        isa.encode(Op.SUB, Mode.IMM, 5, Mode.DREG, 2),
        isa.encode(Op.XOR, Mode.DREG, 3, Mode.DREG, 2),
        isa.encode(Op.MOD, Mode.IMM, 1000, Mode.DREG, 2),
        isa.encode(Op.ADD, Mode.DREG, 2, Mode.DREG, 4),
        isa.encode(Op.ADD, Mode.IMM, 2 ** 29 + 7, Mode.DREG, 1))
    source = _source(text)
    assert "rd2 = ((((rd1 * 3) + -2147483648) - 5) ^ rd3)" in source
    assert "rd2 = rd1" not in source
    dregs = [30, 2 ** 30 - 11, 0, 12345, 0, 0, 0, 0]
    for budgets in ([2 * length + 3, 61], [400]):
        done = _run_differential(text, dregs, [DATA_BASE + 512] * 8,
                                 MC68010, budgets, cap=5000)
        assert isinstance(done, TrapStop)


def test_move_folds_into_the_op_that_reads_it():
    """``move d1, d2`` folds into a constant ``mod`` on ``d2``; before
    a ``div`` by a register, which may bail, it is assigned, so the
    interpreter replays the fpe with ``d2`` already moved."""
    text, length = _loop(
        isa.encode(Op.ADD, Mode.IMM, 2 ** 30 + 3, Mode.DREG, 1),
        isa.encode(Op.MOVE, Mode.DREG, 1, Mode.DREG, 2),
        isa.encode(Op.MOD, Mode.IMM, 20000, Mode.DREG, 2),
        isa.encode(Op.ADD, Mode.DREG, 2, Mode.DREG, 4),
        isa.encode(Op.MOVE, Mode.DREG, 1, Mode.DREG, 3),
        isa.encode(Op.DIV, Mode.DREG, 5, Mode.DREG, 3),
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 5))
    source = _source(text)
    assert "rd2 = rd1 % 20000 if rd1 >= 0 else -(-rd1 % 20000)" in source
    assert "rd3 = rd1\n" in source
    dregs = [40, 2 ** 31 - 100, 0, 0, 0, 9, 0, 0]
    for budgets in ([3 * length + 2, 45], [400]):
        done = _run_differential(text, dregs, [DATA_BASE + 512] * 8,
                                 MC68010, budgets, cap=5000)
        assert isinstance(done, FaultStop) and done.kind == "fpe"


def test_side_exit_leaves_the_flags_the_interpreter_reads():
    """A side exit out of the fused loop stores the flags it left
    pending; the interpreter branches on them at the exit's target (a
    branch the trace compiler cannot compile) and faults if they are
    wrong."""
    side = TEXT_BASE + 6 * ISIZE
    text = b"".join([
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 1),
        isa.encode(Op.CMP, Mode.IMM, 17, Mode.DREG, 1),
        isa.encode(Op.BEQ, Mode.IMM, side),       # side exit, flags pending
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BGT, Mode.IMM, TEXT_BASE),
        isa.encode(Op.TRAP),
        isa.encode(Op.BNE, 7, 0),                 # side: taken would segv
        isa.encode(Op.TRAP),
    ])
    assert "while _n <= _lim0" in _source(text)
    done = _run_differential(text, [100, 0, 0, 0, 0, 0, 0, 0],
                             [DATA_BASE + 512] * 8, MC68010, [200],
                             cap=5000)
    assert isinstance(done, TrapStop)
    # 16 whole iterations, three instructions of the 17th, bne, trap
    assert done.executed == 16 * 5 + 3 + 2


def test_next_block_reads_flags_pending_across_an_in_cycle_branch():
    """The in-cycle ``bne`` leaves the ``cmp`` flags pending; the next
    block's first instruction branches on them, after the not-taken
    side (a tail ending in a linked jump) has stored them."""
    block_b = TEXT_BASE + 5 * ISIZE
    side = TEXT_BASE + 9 * ISIZE
    text = b"".join([
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 1),
        isa.encode(Op.CMP, Mode.IMM, 5, Mode.DREG, 1),
        isa.encode(Op.BNE, Mode.IMM, block_b),    # the in-cycle edge
        isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 2),
        isa.encode(Op.BRA, Mode.IMM, block_b),
        isa.encode(Op.BLT, Mode.IMM, side),       # block_b: reads cmp
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BGT, Mode.IMM, TEXT_BASE),
        isa.encode(Op.TRAP),
        isa.encode(Op.TRAP),                      # side
    ])
    assert "while _n <= _lim0" in _source(text)
    done = _run_differential(text, [30, 12, 0, 0, 0, 0, 0, 0],
                             [DATA_BASE + 512] * 8, MC68010, [200],
                             cap=5000)
    assert isinstance(done, TrapStop)


def test_loop_top_reads_the_flags_the_last_iteration_left():
    """The head's first instruction branches on the flags the previous
    iteration's last write left, so the back edge must store them."""
    exit_pc = TEXT_BASE + 5 * ISIZE
    text = b"".join([
        isa.encode(Op.BLT, Mode.IMM, exit_pc + ISIZE),
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BLE, Mode.IMM, exit_pc),
        isa.encode(Op.ADD, Mode.IMM, 0x30000001, Mode.DREG, 1),
        isa.encode(Op.BRA, Mode.IMM, TEXT_BASE),
        isa.encode(Op.TRAP),   # counted out
        isa.encode(Op.TRAP),   # d1 went negative
    ])
    assert "while _n <= _lim0" in _source(text)
    done = _run_differential(text, [50, 1, 0, 0, 0, 0, 0, 0],
                             [DATA_BASE + 512] * 8, MC68010, [7, 41, 400],
                             cap=5000)
    assert isinstance(done, TrapStop)


def test_budget_exit_stores_the_flags_an_iteration_left_pending():
    """A loop whose blocks end at its edges needs no wider budget than
    its length, so a quantum can end exactly on an iteration boundary:
    the trace then returns the flags the last iteration left pending
    (the loop's ``else`` stores them) with nothing run after it."""
    exit_pc = TEXT_BASE + 5 * ISIZE
    text = b"".join([
        isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 2),
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BLE, Mode.IMM, exit_pc),
        isa.encode(Op.ADD, Mode.IMM, 0x30000001, Mode.DREG, 1),
        isa.encode(Op.BRA, Mode.IMM, TEXT_BASE),
        isa.encode(Op.TRAP),
    ])
    source = _source(text)
    assert "_lim0 = budget - 5" in source
    assert "if _n != _m: zf = rd1 == 0; nf = rd1 < 0" in source
    for d0 in (-5, 0, 30):
        dregs = [d0, 1, 0, 0, 0, 0, 0, 0]
        # whole iterations only: every chunk ends on the back edge,
        # with the sign of d1 (and so nf) changing as it wraps
        done = _run_differential(text, dregs, [DATA_BASE + 512] * 8,
                                 MC68010, [10, 15, 5], cap=500)
        assert isinstance(done, TrapStop)


def test_budget_one_short_of_the_loop_drops_into_the_block_arms():
    """Budgets that leave one instruction too few for a whole iteration
    (of the loop, or of the widest block check it covers) finish the
    quantum in the per-block arms and the interpreter, exactly."""
    text, length = _loop(isa.encode(Op.ADD, Mode.DREG, 0, Mode.DREG, 1),
                         isa.encode(Op.MUL, Mode.IMM, 5, Mode.DREG, 1))
    # the head's block runs on through the back edge to the trap
    span = length + 1
    assert "_lim0 = budget - %d" % span in _source(text)
    dregs = [60, 2 ** 31 - 9, 0, 0, 0, 0, 0, 0]
    for budgets in ([length - 1], [span - 1], [3 * length + span - 1],
                    [2 * length - 1, span - 1]):
        done = _run_differential(text, dregs, [DATA_BASE + 512] * 8,
                                 MC68010, budgets, cap=5000)
        assert isinstance(done, TrapStop)


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


# -- promoted words -------------------------------------------------------


def _promoted(word):
    """The local, memory slot and dirty-page entry of aligned ``word``
    in a loop superblock that keeps it in a local."""
    return "m%d" % (word >> 2), "mv4[%d]" % (word >> 2), \
        "dp[%d]" % (word // PAGE)


def test_exit_before_the_store_marks_the_page_only_after_a_store():
    """A side exit ahead of the loop's store marks the word's page only
    if an earlier iteration stored it: the interpreter marks a page
    when a store executes, so a first iteration that leaves before its
    store leaves the page clean."""
    out = TEXT_BASE + 5 * ISIZE
    text = b"".join([
        isa.encode(Op.TST, 0, 0, Mode.DREG, 1),
        isa.encode(Op.BEQ, Mode.IMM, out),        # before the store
        isa.encode(Op.ADD, Mode.DREG, 1, Mode.ABS, WORDS),
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 1),
        isa.encode(Op.BRA, Mode.IMM, TEXT_BASE),
        isa.encode(Op.TRAP),                      # out
    ])
    local, word, page = _promoted(WORDS)
    assert "%s = %s; %s |= _n != _m;" % (word, local, page) in _source(text)
    for d1 in (0, 1, 3):  # leaves in iteration 1, 2 or 4
        done = _run_differential(text, [0, d1, 0, 0, 0, 0, 0, 0],
                                 [DATA_BASE + 512] * 8, MC68010, [200],
                                 cap=5000)
        assert isinstance(done, TrapStop)


def test_linked_exit_after_the_store_writes_the_word_back():
    """A side exit into a member block (a linked ``break``) after the
    store writes the word back first: the block reads it from memory."""
    done = TEXT_BASE + 4 * ISIZE
    text = b"".join([
        isa.encode(Op.ADD, Mode.IMM, 5, Mode.ABS, WORDS),
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BEQ, Mode.IMM, done),       # after the store
        isa.encode(Op.BRA, Mode.IMM, TEXT_BASE),
        isa.encode(Op.MOVE, Mode.ABS, WORDS, Mode.DREG, 2),  # done
        isa.encode(Op.TRAP),
    ])
    local, word, page = _promoted(WORDS)
    assert "%s = %s; %s = 1; _n += 3; _pc = %d; break" % (
        word, local, page, done) in _source(text)
    for budgets in ([200], [9, 13]):
        stop = _run_differential(text, [6, 0, 0, 0, 0, 0, 0, 0],
                                 [DATA_BASE + 512] * 8, MC68010, budgets,
                                 cap=5000)
        assert isinstance(stop, TrapStop)


def test_not_taken_tail_reads_the_written_back_word():
    """The not-taken side of an in-cycle branch leaves the loop: it
    writes the word back before its first line, then runs on memory."""
    nxt = TEXT_BASE + 5 * ISIZE
    text = b"".join([
        isa.encode(Op.ADD, Mode.DREG, 1, Mode.ABS, WORDS),
        isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
        isa.encode(Op.BGT, Mode.IMM, nxt),        # the in-cycle edge
        isa.encode(Op.MOVE, Mode.ABS, WORDS, Mode.DREG, 2),  # the tail
        isa.encode(Op.TRAP),
        isa.encode(Op.ADD, Mode.IMM, 3, Mode.DREG, 1),       # nxt
        isa.encode(Op.BRA, Mode.IMM, TEXT_BASE),
    ])
    local, word, page = _promoted(WORDS)
    lines = _source(text).splitlines()
    tail = lines.index(" " * 16 + "if rd0 <= 0:") + 1
    assert lines[tail].strip() == "%s = %s; %s = 1" % (word, local, page)
    stop = _run_differential(text, [9, 7, 0, 0, 0, 0, 0, 0],
                             [DATA_BASE + 512] * 8, MC68010, [200, 11],
                             cap=5000)
    assert isinstance(stop, TrapStop)


def test_budget_exit_writes_the_word_back_in_the_loop_else():
    """When the budget runs out mid-run the loop's ``else`` writes the
    word back (if an iteration ran) before the head's per-block arm and
    the interpreter, which both read it from memory, finish the
    quantum."""
    text, length = _loop(isa.encode(Op.ADD, Mode.DREG, 1, Mode.ABS, WORDS),
                         isa.encode(Op.ADD, Mode.IMM, 7, Mode.DREG, 1))
    local, word, page = _promoted(WORDS)
    assert "if _n != _m: zf = rd0 == 0; nf = rd0 < 0; %s = %s; %s = 1\n" % (
        word, local, page) in _source(text)
    for budgets in ([3 * length + 1, 2 * length + 3], [length + 2, 41]):
        stop = _run_differential(text, [30, 5, 0, 0, 0, 0, 0, 0],
                                 [DATA_BASE + 512] * 8, MC68010, budgets,
                                 cap=5000)
        assert isinstance(stop, TrapStop)


def test_loops_reaching_memory_otherwise_keep_words_in_memory():
    """A store through an address register (here one pointing at the
    word), a ``push`` or a byte access may alias the word, so such a
    loop reads and writes it in memory on every iteration."""
    local, word, __ = _promoted(WORDS)
    for other in (isa.encode(Op.MOVE, Mode.DREG, 1, Mode.IND, 0),
                  isa.encode(Op.PUSH, Mode.DREG, 1),
                  isa.encode(Op.MOVB, Mode.ABS, WORDS + 1, Mode.DREG, 3)):
        text, __ = _loop(isa.encode(Op.ADD, Mode.DREG, 1, Mode.ABS, WORDS),
                         other, isa.encode(Op.ADD, Mode.IMM, 1, Mode.DREG, 1))
        source = _source(text)
        assert "while _n <= _lim0" in source
        assert local not in source and "%s = v2" % word in source
        stop = _run_differential(text, [20, 3, 0, 0, 0, 0, 0, 0],
                                 [WORDS] * 8, MC68010, [200, 13], cap=5000)
        assert isinstance(stop, TrapStop)


def test_slots_an_opcode_ignores_are_not_promoted():
    """Decode keeps whatever bytes a slot the opcode ignores holds: a
    ``nop``'s operands, a ``tst``'s source, a branch's destination.
    They are not accesses, so an aligned word there (here one past the
    end of memory) is never loaded into a local, with or without a real
    absolute operand in the loop."""
    junk = 0x7FFFFFFC
    local, word, __ = _promoted(WORDS)
    for body in ([isa.encode(Op.ADD, Mode.DREG, 1, Mode.ABS, WORDS)], []):
        text = b"".join(body + [
            isa.encode(Op.NOP, Mode.ABS, junk, Mode.ABS, junk),
            isa.encode(Op.TST, Mode.ABS, junk, Mode.DREG, 1),
            isa.encode(Op.SUB, Mode.IMM, 1, Mode.DREG, 0),
            isa.encode(Op.BGT, Mode.IMM, TEXT_BASE, Mode.ABS, junk),
            isa.encode(Op.TRAP),
        ])
        stop = _run_differential(text, [20, 3, 0, 0, 0, 0, 0, 0],
                                 [DATA_BASE + 512] * 8, MC68010, [200, 13],
                                 cap=5000)
        assert isinstance(stop, TrapStop)
        source = _source(text)
        assert "while _n <= _lim0" in source
        assert "m%d" % (junk >> 2) not in source
        assert (local in source) == bool(body)


def test_cpuhog_loop_keeps_its_checksum_in_a_local():
    """cpuhog's ``add d5, checksum`` runs on a local: the iteration's
    own lines touch neither ``mv4`` nor ``dp``; only its exits do.  In
    the loop's range-proven copy no wrap or sign test is left: the
    guard at loop entry keeps the counter and the checksum in spans
    where none can fire."""
    assembled = program(cpuhog.BODY, cpuhog.DATA)
    image = ProcessImage()
    image.text_size = len(assembled.text)
    image.write_bytes(TEXT_BASE, assembled.text)
    image.write_bytes(TEXT_BASE + len(assembled.text), assembled.data)
    source = compile_trace(MC68010, image, assembled.symbols["hog_loop"])[
        0].source
    local, word, __ = _promoted(assembled.symbols["checksum"])
    lines = source.splitlines()
    top = lines.index(" " * 12 + "while _n <= _g:")
    body = lines[top + 1:lines.index(" " * 12 + "else:", top)]
    # the iteration's own statements: not nested, not an exit
    own = [line.strip() for line in body
           if len(line) - len(line.lstrip()) == 16
           and not line.lstrip().startswith("if ")]
    assert "v2 = %s + rd5" % local in own and "%s = v2" % local in own
    assert not [line for line in own if "mv4[" in line or "dp[" in line]
    # the word is loaded before the guard: _k, then _g
    assert lines[top - 2].lstrip().startswith("_k = ")
    assert lines[top - 3].strip() == "%s = %s" % (local, word)
    assert not [line for line in body if "2147483647" in line]
    assert not [line for line in body if ">= 0 else -(-" in line]
    # the fallback copy keeps its tests, and the checksum in a local
    fallback = lines.index(" " * 16 + "while _n <= _lim0:", top)
    rest = lines[fallback + 1:lines.index(" " * 16 + "else:", fallback)]
    assert "v2 = %s + rd5" % local in [line.strip() for line in rest]
    assert [line for line in rest if "2147483647" in line]


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
       budgets=st.lists(BUDGET, min_size=1, max_size=4),
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


# -- tail traces ----------------------------------------------------------


def _tail_keys(text, budget, dregs=(0,) * 8, aregs=(DATA_BASE + 512,) * 8,
               chunks=()):
    """The tail traces, as ``(pc, length)``, that one compiled quantum of
    ``budget`` instructions calls from a fresh image."""
    image = _fresh_image(text, list(dregs), list(aregs))
    _make_lazy(image, chunks)
    CPU(MC68010).run(image, budget)
    return {key for key in image._decode_cache[2] if isinstance(key, tuple)}


def _adds(n):
    return [isa.encode(Op.ADD, Mode.IMM, k + 1, Mode.DREG, k % 4 + 1)
            for k in range(n)]


def test_guarded_instruction_bails_inside_a_tail():
    """A tail trace's guards bail before mutating, as the full trace's
    do: the interpreter replays a segv through an address register and
    a divide by a zero register at the same instruction."""
    zeros = [0] * 8
    for guarded, aregs, kind in (
            (isa.encode(Op.MOVE, Mode.IND, 0, Mode.DREG, 5),
             [MEM_SIZE - 2] * 8, "segv"),
            (isa.encode(Op.DIV, Mode.DREG, 6, Mode.DREG, 5),
             [DATA_BASE + 512] * 8, "fpe")):
        text = b"".join(_adds(2) + [guarded] + _adds(4)
                        + [isa.encode(Op.TRAP)])
        assert (TEXT_BASE, 5) in _tail_keys(text, 5, aregs=aregs)
        stop = _run_differential(text, zeros, aregs, MC68010, [5])
        assert isinstance(stop, FaultStop) and stop.kind == kind
        assert stop.executed == 3  # the adds, then the faulting one


def test_trap_just_past_the_tail():
    """A tail trace stops one instruction short of the block's trap:
    the quantum ends there, and the trap runs first thing next quantum."""
    text = b"".join(_adds(4) + [isa.encode(Op.TRAP)])
    assert (TEXT_BASE, 4) in _tail_keys(text, 4)
    image = _fresh_image(text, [0] * 8, [DATA_BASE + 512] * 8)
    cpu = CPU(MC68010)
    first = cpu.run(image, 4)
    assert isinstance(first, QuantumStop) and first.executed == 4
    assert image.regs.pc == TEXT_BASE + 4 * ISIZE
    assert _run_differential(text, [0] * 8, [DATA_BASE + 512] * 8,
                             MC68010, [4]).executed == 1


def test_lazy_pending_page_faults_inside_a_tail():
    """A lazy tail trace bails at an absolute load from a pending page;
    the interpreter faults the chunk in at that instruction, or stops
    with a segv when its fetch fails."""
    pending = 9 * PAGE
    chunks = [(pending, PAGE), (MEM_SIZE - PAGE, PAGE)]
    text = b"".join(_adds(2)
                    + [isa.encode(Op.MOVE, Mode.ABS, pending + 8,
                                  Mode.DREG, 5)]
                    + _adds(4) + [isa.encode(Op.TRAP)])
    assert (TEXT_BASE, 5) in _tail_keys(text, 5, chunks=chunks)
    zeros = [0] * 8
    aregs = [DATA_BASE + 512] * 8
    done = _run_differential(text, zeros, aregs, MC68010, [5],
                             chunks=chunks)
    assert isinstance(done, TrapStop)
    lost = _run_differential(text, zeros, aregs, MC68010, [5],
                             chunks=chunks, fail={pending})
    assert isinstance(lost, FaultStop) and lost.kind == "segv"


def test_tail_at_a_loop_head_after_its_superblock():
    """The superblock runs whole iterations while the budget covers
    one, drops into its ``else``, and returns at the head once not even
    the head block fits: the quantum ends in a tail trace rooted there."""
    text, length = _loop(*_adds(3))
    assert length == 5  # three adds, the count, the back edge
    assert "while _n <= _lim0" in _source(text)
    # 23 = four iterations (20), then a head block of 6 that cannot fit
    assert (TEXT_BASE, 3) in _tail_keys(text, 23, dregs=[40] + [0] * 7)
    done = _run_differential(text, [40] + [0] * 7, [DATA_BASE + 512] * 8,
                             MC68010, [23], cap=5000)
    assert isinstance(done, TrapStop)
