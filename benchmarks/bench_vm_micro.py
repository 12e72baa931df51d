"""VM microbenchmarks: the trace compiler against the interpreter.

Five guest workloads stress what the trace compiler optimizes, at
the CPU level with no kernel in the way:

* ``tight_loop``   — branchy integer arithmetic in registers (block
  linking, in-trace register caching, a range-proven loop);
* ``wrap_accum``   — ``tight_loop`` with an accumulator that wraps every
  few hundred iterations, so the loop's range guard fails and its
  fallback copy runs;
* ``abs_accum``    — ``tight_loop`` with its accumulator in a data word,
  cpuhog's shape (a loop superblock keeping the word in a local);
* ``call_heavy``   — a jsr/rts leaf call per iteration (static call
  linking, stack traffic);
* ``mem_stream``   — streaming stores and loads through memory
  (guarded indirect access, dirty-page tracking).

Each guest runs on three engines — interpreter (``use_predecode=False``),
trace engine, and trace engine on a *lazy* image whose data and stack
start out as pending copy-on-reference chunks (``lazy_instr_per_sec``:
the pending-guarded trace variant) — in 5000-instruction chunks like a
kernel quantum, and the final registers, flags, memory and dirty
pages must be identical before any number is reported.  Each engine
runs ``REPEATS`` times and the fastest run counts (runs after the
first find their traces compiled).  Results merge
into ``--out`` under the ``vm_micro`` key.

Usage::

    python benchmarks/bench_vm_micro.py [--smoke] [--out BENCH_perf.json]
"""

import sys
import time

# harness puts src/ on sys.path
from harness import arg_parser, say, write_report

from repro.vm import assemble, CPU
from repro.vm.cpu import TrapStop
from repro.vm.image import PAGE_BYTES, ProcessImage, TEXT_BASE
from repro.vm.isa import cpu_model

#: one kernel scheduling quantum's worth of instructions
CHUNK = 5_000
MEM_SIZE = 256 * 1024
#: the top of memory a lazy image leaves pending as its stack
LAZY_STACK = 4 * PAGE_BYTES
#: timed runs per engine; single runs of identical code scatter by up
#: to 30% on a shared host
REPEATS = 5

TIGHT_LOOP = """
start:  move  #0, d7
        move  #0, d6
loop:   add   #1, d7
        move  d7, d5
        mul   #13, d5
        add   #7, d5
        mod   #97, d5
        add   d5, d6
        cmp   #%(iters)d, d7
        blt   loop
        trap
"""

#: ``tight_loop`` with a term 170000 times larger: the accumulator
#: wraps every ~500 iterations, so its loop's range guard fails and the
#: fallback copy, with every wrap test, runs
WRAP_ACCUM = """
start:  move  #0, d7
        move  #0, d6
loop:   add   #1, d7
        move  d7, d5
        mul   #13, d5
        add   #7, d5
        mod   #97, d5
        mul   #170000, d5
        add   d5, d6
        cmp   #%(iters)d, d7
        blt   loop
        trap
"""

#: ten instructions, so ``acc`` (first in the data) is word-aligned
ABS_ACCUM = """
start:  move  #0, d7
loop:   add   #1, d7
        move  d7, d5
        mul   #13, d5
        add   #7, d5
        mod   #97, d5
        add   d5, acc
        cmp   #%(iters)d, d7
        blt   loop
        trap
        .data
acc:    .word 0
"""

CALL_HEAVY = """
start:  move  #0, d7
        move  #0, d6
loop:   add   #1, d7
        push  d7
        jsr   leaf
        pop   d1
        add   d0, d6
        cmp   #%(iters)d, d7
        blt   loop
        trap
leaf:   move  4(sp), d0
        mul   #3, d0
        add   #1, d0
        rts
"""

MEM_STREAM = """
start:  move  #0, d7
loop:   lea   buf, a0
        move  #0, d6
wr:     move  d6, (a0)
        add   #4, a0
        add   #1, d6
        cmp   #64, d6
        blt   wr
        lea   buf, a1
        move  #0, d5
rd:     move  (a1), d4
        add   d4, d3
        add   #4, a1
        add   #1, d5
        cmp   #64, d5
        blt   rd
        add   #1, d7
        cmp   #%(iters)d, d7
        blt   loop
        trap
        .data
buf:    .space 256
"""

WORKLOADS = [
    ("tight_loop", TIGHT_LOOP, 30_000),
    ("wrap_accum", WRAP_ACCUM, 30_000),
    ("abs_accum", ABS_ACCUM, 30_000),
    ("call_heavy", CALL_HEAVY, 20_000),
    ("mem_stream", MEM_STREAM, 500),
]


def _fresh_image(out):
    image = ProcessImage(mem_size=MEM_SIZE)
    image.text_size = len(out.text)
    image.write_bytes(TEXT_BASE, out.text)
    image.write_bytes(TEXT_BASE + len(out.text), out.data)
    image.data_size = len(out.data)
    image.brk = TEXT_BASE + len(out.text) + len(out.data)
    image.clear_dirty()
    image.regs.pc = out.entry
    image.regs.sp = image.stack_top
    return image


def _make_lazy(image, out):
    """Leave the data segment and the stack pending, one chunk per
    page, poisoned until a fetch returns the original bytes."""
    original = bytes(image.mem)
    data_base = TEXT_BASE + len(out.text)
    records = []
    for base, length in ((data_base, len(out.data)),
                         (MEM_SIZE - LAZY_STACK, LAZY_STACK)):
        for start in range(base, base + length, PAGE_BYTES):
            size = min(PAGE_BYTES, base + length - start)
            image.mem[start:start + size] = b"\xee" * size
            records.append((start, size, start))
    image.add_lazy_chunks(
        records, fetch=lambda start, size: original[start:start + size])


def _run_engine(out, use_predecode, cpu="mc68010", lazy=False):
    """Run a guest to its trap in CHUNK-sized budgets; returns the
    finished image (with anything still pending faulted in), the
    instruction count and the elapsed seconds."""
    vm = CPU(cpu_model(cpu))
    vm.use_predecode = use_predecode
    image = _fresh_image(out)
    if lazy:
        _make_lazy(image, out)
    executed = 0
    start = time.perf_counter()
    while True:
        stop = vm.run(image, CHUNK)
        executed += stop.executed
        if isinstance(stop, TrapStop):
            break
        if stop.executed == 0:
            raise AssertionError("guest stopped making progress: %r"
                                 % stop)
    elapsed = time.perf_counter() - start
    image.drain_lazy()
    return image, executed, elapsed


def _best_run(out, **engine):
    """The fastest of ``REPEATS`` runs of one engine."""
    return min((_run_engine(out, **engine) for __ in range(REPEATS)),
               key=lambda run: run[2])


def _visible(image):
    return (list(image.regs.d), list(image.regs.a), image.regs.pc,
            image.regs.zf, image.regs.nf, bytes(image.mem),
            bytes(image.dirty_pages))


def run_workload(name, source, iters):
    out = assemble(source % {"iters": iters})
    interp, n_interp, t_interp = _best_run(out, use_predecode=False)
    traced, n_traced, t_traced = _best_run(out, use_predecode=True)
    lazy, n_lazy, t_lazy = _best_run(out, use_predecode=True, lazy=True)
    for label, image, count in (("traces", traced, n_traced),
                                ("lazy traces", lazy, n_lazy)):
        if _visible(interp) != _visible(image):
            raise AssertionError("%s: %s disagree with the interpreter "
                                 "on the final machine state"
                                 % (name, label))
        if n_interp != count:
            raise AssertionError("%s: %s executed %d instructions, the "
                                 "interpreter %d"
                                 % (name, label, count, n_interp))
    result = {
        "iterations": iters,
        "instructions": n_interp,
        "interp_instr_per_sec": round(n_interp / t_interp, 1),
        "trace_instr_per_sec": round(n_traced / t_traced, 1),
        "lazy_instr_per_sec": round(n_lazy / t_lazy, 1),
        "speedup": round(t_interp / t_traced, 3) if t_traced else 0.0,
    }
    say("  %-11s %9d instr   interp %9.0f/s   "
        "traces %9.0f/s   %5.2fx   lazy %9.0f/s"
        % (name, n_interp, result["interp_instr_per_sec"],
           result["trace_instr_per_sec"], result["speedup"],
           result["lazy_instr_per_sec"]))
    return result


def main(argv=None):
    args = arg_parser(__doc__, "tiny iteration counts (shape check only)") \
        .parse_args(argv)
    say("vm micro: interpreter vs trace engine "
        "(%d-instruction chunks)" % CHUNK)
    results = {}
    for name, source, iters in WORKLOADS:
        if args.smoke:
            iters = max(10, iters // 100)
        results[name] = run_workload(name, source, iters)
    write_report(args.out, {"vm_micro": {"benchmark": "bench_vm_micro",
                                         "chunk_instructions": CHUNK,
                                         "workloads": results}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
