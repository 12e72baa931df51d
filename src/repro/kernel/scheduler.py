"""The process scheduler: round-robin with a fixed quantum.

Each :meth:`Scheduler.run_slot` picks the next runnable process,
charges a context switch, delivers pending signals (which is where
``SIGDUMP`` dumps and ``SIGQUIT`` cores happen — in the context of the
victim), and then runs the process for up to one quantum, executing
any system calls it makes along the way.
"""

from collections import deque

from repro.errors import UnixError
from repro.kernel.constants import SRUN, SSLEEP, SSTOP
from repro.kernel.flow import WouldBlock, ProcessOverlaid
from repro.kernel import signals as sig_mod
from repro.vm.cpu import TrapStop, FaultStop, HaltStop
from repro.vm import isa

_FAULT_SIGNALS = {"ill": sig_mod.SIGILL, "segv": sig_mod.SIGSEGV,
                  "fpe": sig_mod.SIGFPE}

#: cost-model knobs native tools may read for free via ``("sysctl0",
#: name)`` — stand-ins for constants the real binaries had compiled
#: in, routed through the cost model so experiments can sweep them
_SYSCTL0_KNOBS = frozenset({
    "dump_poll_tries", "dump_poll_sleep_s",
    "migration_ledger", "migration_ledger_dir", "ledger_stale_s",
    "stat_interval_s", "stat_rounds", "stat_stale_s",
    "stat_series_len", "stat_spool_dir",
})


class Scheduler:
    """One machine's run queue."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.runq = deque()

    # -- queue management ---------------------------------------------------

    def enqueue(self, proc):
        if proc not in self.runq:
            self.runq.append(proc)
            # a newly runnable process moves the machine's
            # next-action time; tell the cluster's driver
            machine = self.kernel.machine
            machine.cluster.note_activity(machine)

    def remove(self, proc):
        try:
            self.runq.remove(proc)
        except ValueError:
            pass

    def has_runnable(self):
        # every move out of SRUN takes the process off the queue
        # (_sleep, SSTOP in check_signals, do_exit; a crash clears it),
        # and the running process is popped before its slot: every
        # queued process is runnable
        return bool(self.runq)

    def _next_runnable(self):
        return self.runq.popleft() if self.runq else None

    # -- signal delivery --------------------------------------------------------

    def check_signals(self, proc):
        """Deliver pending signals; False if proc stopped running."""
        kernel = self.kernel
        while True:
            sig = proc.user.sig.take_pending()
            if sig is None:
                break
            action = proc.user.sig.action(sig)
            if action == "catch":
                self._deliver_caught(proc, sig)
            elif action == sig_mod.A_STOP:
                proc.state = SSTOP
                self.remove(proc)
                return False
            elif action == sig_mod.A_CONT:
                continue
            elif action == sig_mod.A_DUMP:
                if kernel.dump_process(proc) or not proc.is_vm():
                    # a native process has nothing to dump; the signal
                    # degenerates to a plain terminate
                    kernel.do_exit(proc, term_signal=sig)
                    return False
                # the dump failed: killing the victim anyway would
                # lose the process with nothing to restart from, so
                # it survives and the dump can be retried
                continue
            elif action == sig_mod.A_CORE:
                kernel.write_core(proc)
                kernel.do_exit(proc, term_signal=sig)
                return False
            elif action == sig_mod.A_TERM:
                kernel.do_exit(proc, term_signal=sig)
                return False
        return proc.state == SRUN

    def _deliver_caught(self, proc, sig):
        """Build a signal frame: push sr and pc, enter the handler."""
        kernel = self.kernel
        if not proc.is_vm():  # native programs cannot catch
            kernel.do_exit(proc, term_signal=sig)
            return
        image = proc.image.image
        handler = proc.user.sig.handlers[sig]
        image.push_i32(image.regs.pc)
        image.push_i32(image.regs.sr)
        image.push_i32(sig)
        image.regs.pc = handler
        kernel.charge(kernel.costs.signal_deliver_us, proc=proc)

    # -- sleep plumbing -------------------------------------------------------------

    def _sleep(self, proc, blocked):
        proc.state = SSLEEP
        proc.wchan = blocked.channel
        self.remove(proc)
        if blocked.wake_at_us is not None:
            kernel = self.kernel
            channel = blocked.channel
            kernel.machine.post_event(
                blocked.wake_at_us, lambda: kernel.wakeup(channel))

    # -- the main loop ---------------------------------------------------------------

    def run_slot(self):
        """Run one scheduling slot; True if a process got CPU time."""
        kernel = self.kernel
        proc = self._next_runnable()
        if proc is None:
            return False
        kernel.curproc = proc
        if kernel.tracer.enabled:
            kernel.tracer.emit("sched", "run", kernel.machine,
                               pid=proc.pid)
        kernel.charge(kernel.costs.context_switch_us, proc=proc)
        try:
            if not self.check_signals(proc):
                return True
            if proc.is_vm():
                self._run_vm(proc)
            elif proc.is_native():
                self._run_native(proc)
            if proc.state == SRUN:
                self.enqueue(proc)
        finally:
            kernel.curproc = None
        return True

    # -- VM processes -------------------------------------------------------------------

    def _run_vm(self, proc):
        kernel = self.kernel
        costs = kernel.costs
        budget = max(1, int(costs.quantum_us / costs.instruction_us))
        while budget > 0 and proc.state == SRUN:
            image = proc.image.image
            stop = kernel.machine.cpu.run(image, budget)
            kernel.charge_user(stop.executed * costs.instruction_us,
                               proc=proc)
            budget -= stop.executed
            if isinstance(stop, TrapStop):
                self._vm_syscall(proc)
                if proc.state != SRUN:
                    break
                if not self.check_signals(proc):
                    break
                continue
            if isinstance(stop, (FaultStop, HaltStop)):
                kind = getattr(stop, "kind", "ill")
                kernel.post_signal(proc, _FAULT_SIGNALS.get(
                    kind, sig_mod.SIGILL))
                if not self.check_signals(proc):
                    break
                continue
            break  # quantum exhausted

    def _vm_syscall(self, proc):
        from repro.kernel.syscalls import vm_syscall
        kernel = self.kernel
        image = proc.image.image
        kernel.charge(kernel.costs.syscall_base_us, proc=proc)
        try:
            result = vm_syscall(kernel, proc)
        except UnixError as err:
            image.regs.d[0] = -1
            image.regs.d[1] = err.errno
        except WouldBlock as blocked:
            if blocked.wake_at_us is None:
                # sleep/retry: back the pc up so the trap re-executes
                image.regs.pc -= isa.INSTRUCTION_SIZE
            else:
                # timed sleep: the call completes upon wakeup
                image.regs.d[0] = 0
                image.regs.d[1] = 0
            self._sleep(proc, blocked)
        except ProcessOverlaid:
            pass  # exec/rest_proc: never touch the (new) registers
        else:
            if proc.is_vm():
                regs = proc.image.image.regs
                regs.d[0] = result if result is not None else 0
                regs.d[1] = 0

    # -- native processes ------------------------------------------------------------------

    def _run_native(self, proc):
        from repro.kernel.syscalls import native_request
        kernel = self.kernel
        costs = kernel.costs
        state = proc.image
        slot_end = kernel.clock.now_us + costs.quantum_us
        while proc.state == SRUN and kernel.clock.now_us < slot_end:
            if state.pending_request is not None:
                request = state.pending_request
                state.pending_request = None
            else:
                kernel.charge_user(costs.native_step_us, proc=proc)
                if not state.started:
                    state.start()
                try:
                    request = state.generator.send(state.next_result)
                    # "sysctl0": a free read of a tool's build-time
                    # tuning constant from the cost model.  The old
                    # binaries had these compiled in, so fetching one
                    # must cost nothing and leave no trace event —
                    # it is resolved here, never dispatched
                    while (isinstance(request, tuple) and len(request) == 2
                           and request[0] == "sysctl0"
                           and request[1] in _SYSCTL0_KNOBS):
                        request = state.generator.send(
                            getattr(costs, request[1]))
                except StopIteration as done:
                    kernel.do_exit(proc, status=done.value or 0)
                    break
                state.next_result = None
            kernel.charge(costs.syscall_base_us, proc=proc)
            try:
                state.next_result = native_request(kernel, proc, request)
            except UnixError as err:
                state.next_result = -err.errno
            except WouldBlock as blocked:
                if blocked.wake_at_us is None:
                    state.pending_request = request
                else:
                    state.next_result = 0
                self._sleep(proc, blocked)
                break
            except ProcessOverlaid:
                break  # the generator was replaced by a VM image
            if proc.state != SRUN:
                break
            if not self.check_signals(proc):
                break
