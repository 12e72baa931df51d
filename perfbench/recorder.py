"""Host-time span recorder for the traced run.

The recorder wraps public calls of each layer from the outside (it
edits no source file): while installed, every wrapped call records a
span -- name, start, end, parent span, and the job id when the call
names one.  A layer's *self time* is its spans' time minus the time of
their child spans, so the layers partition the traced interval and
whatever no span covers is ``other.s``.

Spans are kept in memory and written out by :meth:`Recorder.dump`.
Wrapping adds host time only; no wrapper changes an argument, a result
or an exception, so a traced run keeps the untraced run's virtual
fingerprint.
"""

import json
import time

from repro.core.api import MigrationSite
from repro.errors import UnixError
from repro.fs.namei import Namespace
from repro.kernel import syscalls
from repro.kernel.flow import ProcessOverlaid
from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import Scheduler
from repro.machine.cluster import Cluster
from repro.machine.machine import Machine
from repro.net.network import Network
from repro.obs.tracer import dump_migration_id
from repro.store.chunkstore import ChunkStore
from repro.vm import assembler, cpu

#: the socket calls that count as network time beside ``deliver``
SOCKET_CALLS = ("sock_create", "sock_bind", "sock_listen", "sock_accept",
                "sock_connect", "sock_send", "sock_recv", "sock_close")


def _vm_layer(args):
    """``CPU.run(image, n)``: traces unless lazy chunks are pending."""
    machine_cpu, image = args[0], args[1]
    if machine_cpu.use_predecode and image._lazy is None:
        return "vm.trace"
    return "vm.interp"


def _proc_job(kernel, proc):
    return "%s:%d" % (kernel.hostname, proc.pid)


class Recorder:
    """Wraps layer entry points and accumulates spans and self time."""

    def __init__(self):
        self.spans = []  #: (name, start, end, parent index, job)
        self.self_s = {}  #: layer -> self time (s)
        self.calls = {}  #: layer -> span count
        self.errors = {}  #: layer -> calls that failed
        self.remote = 0  #: namei resolutions that ended on NFS
        self.instr = {"vm.trace": 0, "vm.interp": 0}
        self._stack = []  #: [span index, child time] of open spans
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr, layer, job=None, outcome=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``layer`` is a name or a function of the call's arguments;
        ``job(args)`` names the job; ``outcome(layer, args, result,
        exc)`` sees every completed call (``exc`` is None on a return).
        """
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        fixed = layer if isinstance(layer, str) else None

        def wrapper(*args, **kwargs):
            name = fixed or layer(args)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            exc = None
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                span = end - start
                if stack:
                    stack[-1][1] += span
                self_s[name] = self_s.get(name, 0.0) + span - frame[1]
                calls[name] = calls.get(name, 0) + 1
                spans[index] = (name, start, end, parent,
                                job(args) if job else None)
                if outcome is not None:
                    outcome(name, args, None if exc else result, exc)
            return result

        setattr(owner, attr, wrapper)

    def _fail(self, name):
        self.errors[name] = self.errors.get(name, 0) + 1

    def install(self):
        """Wrap every layer's entry points (see README.md)."""
        def on_vm(name, args, result, exc):
            if result is not None:
                self.instr[name] += result.executed

        def on_syscall(name, args, result, exc):
            if isinstance(exc, UnixError):
                self._fail(name)

        def on_dump(name, args, result, exc):
            if exc is not None or not result:
                self._fail(name)

        def on_restproc(name, args, result, exc):
            if not isinstance(exc, ProcessOverlaid):
                self._fail(name)

        def on_namei(name, args, result, exc):
            if result is not None:
                fs = result.fs if result.fs is not None else result.parent_fs
                if fs is not None and fs.hostname != args[0].hostname:
                    self.remote += 1

        def syscall_job(args):
            return _proc_job(args[0], args[1])

        self._wrap(cpu.CPU, "run", _vm_layer, outcome=on_vm)
        self._wrap(cpu, "compile_trace", "vm.compile")
        self._wrap(Cluster, "run", "machine.drive")
        self._wrap(Cluster, "run_until", "machine.drive")
        self._wrap(Machine, "step", "machine.step")
        self._wrap(Scheduler, "run_slot", "kernel.slot")
        self._wrap(Scheduler, "_run_native", "programs",
                   job=lambda args: _proc_job(args[0].kernel, args[1]))
        self._wrap(syscalls, "vm_syscall", "kernel.syscall",
                   job=syscall_job, outcome=on_syscall)
        self._wrap(syscalls, "native_request", "kernel.syscall",
                   job=syscall_job, outcome=on_syscall)
        self._wrap(Namespace, "resolve", "fs.namei", outcome=on_namei)
        self._wrap(Kernel, "dump_process", "kernel.dump",
                   job=syscall_job, outcome=on_dump)
        self._wrap(Kernel, "sys_rest_proc", "kernel.restproc",
                   job=lambda args: dump_migration_id(args[2],
                                                      args[0].hostname),
                   outcome=on_restproc)
        self._wrap(ChunkStore, "put", "store.put")
        self._wrap(ChunkStore, "get", "store.get")
        self._wrap(Network, "deliver", "net")
        for name in SOCKET_CALLS:
            self._wrap(Network, name, "net")
        self._wrap(assembler, "assemble", "vm.asm")
        self._wrap(MigrationSite, "__init__", "core.site")
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # inherited: unshadow the base

    # -- results -------------------------------------------------------------

    def layers(self, elapsed_s, perf):
        """Per-layer metrics for one traced interval of ``elapsed_s``
        host seconds; ``perf`` sums the clusters' perf counters."""
        s = self.self_s.get
        n = self.calls.get
        trace_i, interp_i = self.instr["vm.trace"], self.instr["vm.interp"]
        syscalls_n = n("kernel.syscall", 0)
        namei_n = n("fs.namei", 0)
        hits = perf["shared_cache_hits"]
        rebuilds = perf["cache_rebuilds"]
        memo = perf["horizon_memo_hits"]
        invalid = perf["horizon_invalidations"]
        written = perf["chunk_puts"]
        skipped = perf["chunks_clean_skipped"] + perf["chunk_dedup_hits"]
        covered = sum(self.self_s.values())
        return {
            "vm.trace.s": s("vm.trace", 0.0),
            "vm.trace.instr": trace_i,
            "vm.interp.s": s("vm.interp", 0.0),
            "vm.interp.instr": interp_i,
            "vm.trace_share": _ratio(trace_i, trace_i + interp_i),
            "vm.compile.calls": n("vm.compile", 0),
            "vm.compile.s": s("vm.compile", 0.0),
            "vm.codecache_hit_ratio": _ratio(hits, hits + rebuilds),
            "machine.drive.s": s("machine.drive", 0.0),
            "machine.step.s": s("machine.step", 0.0),
            "machine.steps": perf["steps"],
            "machine.burst_mean": _ratio(perf["steps"], perf["bursts"]),
            "machine.horizon_memo_ratio": _ratio(memo, memo + invalid),
            "kernel.slot.calls": n("kernel.slot", 0),
            "kernel.slot.s": s("kernel.slot", 0.0),
            "kernel.syscall.calls": syscalls_n,
            "kernel.syscall.s": s("kernel.syscall", 0.0),
            "kernel.syscall.err_frac": _ratio(
                self.errors.get("kernel.syscall", 0), syscalls_n),
            "programs.s": s("programs", 0.0),
            "programs.retries": perf["retries"],
            "fs.namei.calls": namei_n,
            "fs.namei.s": s("fs.namei", 0.0),
            "fs.namei.remote_frac": _ratio(self.remote, namei_n),
            "kernel.dump.calls": n("kernel.dump", 0),
            "kernel.dump.s": s("kernel.dump", 0.0),
            "kernel.dump.fail": self.errors.get("kernel.dump", 0),
            "kernel.restproc.calls": n("kernel.restproc", 0),
            "kernel.restproc.s": s("kernel.restproc", 0.0),
            "kernel.restproc.fail": self.errors.get("kernel.restproc", 0),
            "store.put.calls": n("store.put", 0),
            "store.get.calls": n("store.get", 0),
            "store.s": s("store.put", 0.0) + s("store.get", 0.0),
            "store.bytes_written": perf["chunk_bytes_written"],
            "store.bytes_fetched": perf["chunk_bytes_fetched"],
            "store.skip_ratio": _ratio(skipped, skipped + written),
            "store.lazy_faults": perf["lazy_faults"],
            "net.msgs": perf["net_messages"],
            "net.bytes": perf["net_bytes"],
            "net.s": s("net", 0.0),
            "vm.asm.calls": n("vm.asm", 0),
            "vm.asm.s": s("vm.asm", 0.0),
            "core.site.s": s("core.site", 0.0),
            "other.s": max(0.0, elapsed_s - covered),
        }

    def dump(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, job) in \
                    enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent, "job": job}))
                out.write("\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0
