"""Engine benchmark: an N-machine, K-process migration storm.

The same workload runs twice on the one simulation driver (the
lazy-heap event-horizon driver), once per VM:

* ``interpreter``: every machine's ``cpu.use_predecode`` turned off,
  so the CPUs interpret every instruction;
* ``fast``: compiled traces.

It then:

* asserts the two runs produced **identical virtual-time results**
  (clocks, consoles, network traffic, step counts), and
* writes ``BENCH_perf.json`` with real wall-clock steps/sec for each,
  the speedup (``speedup_steps_per_sec``, compiled traces over the
  interpreter), the driver's burst-length histogram and the
  decode-cache hit rate.

It also times site setup (``site_setup``): a ``MigrationSite()`` and
a short cpuhog on it, first *cold* (the process-wide guest assembly
memo and trace store emptied) and then *warm*, with the number of
``assemble`` and ``compile_trace`` calls each paid.  Beside the warm
rate it reports ``warm_site_kb``: the KB one more warm
``MigrationSite()`` keeps alive, counted by ``tracemalloc`` on a
construction that is not timed.

The report's keys are merged into the top level of ``--out``
(``BENCH_perf.json`` by default), so the sections other benchmarks
keep there (``bench_vm_micro``'s ``vm_micro``, for one) survive.

``--check-floor`` compares the run against the committed
``benchmarks/perf_floor.json`` — recorded reference numbers scaled by
a generous tolerance, so CI catches a real regression (a driver or
emitter change that halves throughput) without flaking on slower
runner hardware.

Usage::

    python benchmarks/bench_perf_scale.py [--smoke] [--out BENCH_perf.json]
    python benchmarks/bench_perf_scale.py --smoke --check-floor

The workload: K CPU-bound hogs spread over N machines run for a
while, then every hog is migrated one machine to the right (dumpproc
on the source, restart over NFS on the destination), and everything
runs to completion.  Every hog's printed checksum is verified, so the
storm double-checks migration correctness while it measures speed.
"""

import gc
import json
import os
import sys
import tracemalloc

# harness puts src/ on sys.path
from harness import arg_parser, say, write_report

from repro.clock import RealStopwatch
from repro.core.api import MigrationSite
from repro.programs.guest import libasm
from repro.programs.guest.cpuhog import expected_checksum
from repro.vm import assembler
from repro.vm import cpu as cpu_module

MACHINES = 8
PROCS = 32
ITERATIONS = 50_000
SMOKE_ITERATIONS = 5_000

#: virtual time at which the storm strikes (hogs must be mid-loop)
STORM_AT_US = 150_000.0

#: committed reference numbers for --check-floor
FLOOR_FILE = os.path.join(os.path.dirname(__file__) or ".",
                          "perf_floor.json")


def run_storm(machines=MACHINES, procs=PROCS, iterations=ITERATIONS,
              trace=False, interpreter=False):
    """Run the storm; returns (fingerprint, stats).

    ``trace=True`` turns on full-category event tracing — used by
    ``bench_trace_smoke.py`` to measure tracing overhead and to check
    that tracing never perturbs virtual time.  ``interpreter=True``
    turns the trace compiler off on every machine.
    """
    names = ["w%d" % i for i in range(machines)]
    site = MigrationSite(workstations=names, server=None,
                         daemons=False)
    if interpreter:
        for machine in site.cluster.machines.values():
            machine.cpu.use_predecode = False
    if trace:
        site.cluster.tracer.enable()
    timer = RealStopwatch()
    handles = []
    for k in range(procs):
        host = names[k % machines]
        handle = site.start(host, "/bin/cpuhog",
                            ["cpuhog", str(iterations)], uid=100)
        handles.append((host, handle))

    site.run(until_us=STORM_AT_US)
    victims = [(host, handle) for host, handle in handles
               if not handle.exited]
    if len(victims) != procs:
        raise AssertionError(
            "%d hogs finished before the storm struck; "
            "raise iterations" % (procs - len(victims)))
    # the storm, phase 1: dump every hog at once
    dumps = [site.start(host, "/bin/dumpproc",
                        ["dumpproc", "-p", str(handle.pid)], uid=100)
             for host, handle in victims]
    site.run_until(lambda: all(d.exited for d in dumps),
                   max_steps=200_000_000)
    failed = sum(1 for d in dumps if d.exit_status != 0)
    if failed:
        raise AssertionError("%d dumps failed" % failed)
    # phase 2: restart every hog one machine to the right, in parallel
    restarts = [site.start(names[(names.index(host) + 1) % machines],
                           "/bin/restart",
                           ["restart", "-p", str(handle.pid),
                            "-h", host], uid=100)
                for host, handle in victims]
    site.run(max_steps=200_000_000)
    elapsed = timer.elapsed_s()
    migrated = sum(1 for r in restarts if r.exited)

    consoles = {name: site.console(name) for name in names}
    checksum = "checksum=%d" % expected_checksum(iterations)
    finished = sum(text.count(checksum) for text in consoles.values())
    if finished != procs:
        raise AssertionError(
            "%d/%d hogs produced the expected checksum"
            % (finished, procs))
    if migrated != procs:
        raise AssertionError("only %d/%d migrated hogs ran to "
                             "completion" % (migrated, procs))

    fingerprint = {
        "wall_us": site.cluster.wall_time_us(),
        "clocks_us": {n: site.machine(n).clock.now_us for n in names},
        "consoles": consoles,
        "net_bytes": site.cluster.network.bytes_moved,
        "net_messages": site.cluster.network.messages_sent,
        "steps": site.cluster.perf.steps,
    }
    stats = site.cluster.perf.snapshot(elapsed_s=elapsed)
    stats["migrations"] = migrated
    if trace:
        stats["trace_events"] = len(site.cluster.tracer.events)
    return fingerprint, stats


#: cpuhog iterations for the site-setup bench's first guest run
SETUP_HOG_ITERATIONS = 2_000

#: warm repetitions timed by the site-setup bench (the median counts;
#: a warm site takes about 1 ms, so on a shared box the median of 5
#: still swings by more than the floor's margin)
SETUP_WARM_REPS = 15


def _one_site_setup():
    """Build a site and run one short cpuhog on it; returns the wall ms
    of each phase and the assemble/compile_trace calls it paid."""
    counts = {"assemble": 0, "compile_trace": 0}
    patched = [(assembler, "assemble"), (cpu_module, "compile_trace")]
    saved = [getattr(owner, name) for owner, name in patched]

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call
    for (owner, name), real in zip(patched, saved):
        setattr(owner, name, counting(name, real))
    try:
        timer = RealStopwatch()
        site = MigrationSite()
        site_ms = timer.elapsed_s() * 1000.0
        site_calls = dict(counts)
        timer = RealStopwatch()
        hog = site.start("brick", "/bin/cpuhog",
                         ["cpuhog", str(SETUP_HOG_ITERATIONS)])
        site.run_until(lambda: hog.exited)
        run_ms = timer.elapsed_s() * 1000.0
    finally:
        for (owner, name), real in zip(patched, saved):
            setattr(owner, name, real)
    if hog.exit_status != 0:
        raise AssertionError("site-setup cpuhog exited %d"
                             % hog.exit_status)
    return {"site_ms": site_ms, "first_run_ms": run_ms,
            "site_assemble_calls": site_calls["assemble"],
            "first_run_compile_trace_calls": counts["compile_trace"]}


def _warm_site_kb():
    """KB that one more ``MigrationSite()`` keeps alive, counted by
    ``tracemalloc`` (which slows allocation, so it is not timed)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        site = MigrationSite()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del site
    return round(kept / 1024.0, 1)


def run_site_setup():
    """Cold then warm site setup (see the module docstring)."""
    libasm._clear_programs()
    cpu_module._clear_store()
    cold = _one_site_setup()
    warm = [_one_site_setup() for __ in range(SETUP_WARM_REPS)]
    report = {}
    for key in cold:
        report["cold_" + key] = round(cold[key], 3)
        report["warm_" + key] = round(
            sorted(w[key] for w in warm)[SETUP_WARM_REPS // 2], 3)
    report["warm_sites_per_sec"] = round(1000.0 / report["warm_site_ms"],
                                         1)
    report["warm_site_kb"] = _warm_site_kb()
    return report


def run_benchmark(iterations, out):
    say("migration storm: %d machines, %d processes, %d iterations"
        % (MACHINES, PROCS, iterations))
    prints, stats = {}, {}
    for key, interpreter in (("interpreter", True), ("fast", False)):
        say("running the %s..." % ("interpreter" if interpreter
                                   else "compiled traces"))
        # the traced run compiles its traces cold
        cpu_module._clear_store()
        prints[key], stats[key] = run_storm(iterations=iterations,
                                            interpreter=interpreter)
        say("  %.2fs, %.0f steps/sec" % (stats[key]["elapsed_s"],
                                         stats[key]["steps_per_sec"]))
    if prints["fast"] != prints["interpreter"]:
        diverged = [name for name in prints["fast"]
                    if prints["fast"][name] != prints["interpreter"][name]]
        raise AssertionError("compiled traces diverged from the "
                             "interpreter on virtual-time results: %s"
                             % diverged)
    say("virtual-time results: interpreter vs traces; identical")
    say("site setup: cold, then warm (process-wide memos filled)...")
    setup = run_site_setup()
    say("  MigrationSite() %.1f ms cold (%d assembles), %.1f ms warm "
        "(%d), %.1f KB kept alive warm"
        % (setup["cold_site_ms"], setup["cold_site_assemble_calls"],
           setup["warm_site_ms"], setup["warm_site_assemble_calls"],
           setup["warm_site_kb"]))

    slow = stats["interpreter"]["steps_per_sec"]
    speedup = stats["fast"]["steps_per_sec"] / slow if slow \
        else float("inf")
    report = {
        "benchmark": "bench_perf_scale",
        "workload": {
            "machines": MACHINES,
            "processes": PROCS,
            "iterations_per_process": iterations,
            "migrations": stats["fast"]["migrations"],
            "wall_time_us": prints["fast"]["wall_us"],
        },
        "engines": stats,
        "speedup_steps_per_sec": round(speedup, 3),
        "virtual_time_identical": True,
        "site_setup": setup,
    }
    say("speedup: %.2fx (compiled traces over the interpreter)" % speedup)
    write_report(out, report)
    return report


def _lookup(report, dotted):
    value = report
    for part in dotted.split("."):
        value = value[part]
    return value


def check_floor(report, smoke):
    """Compare a run against the committed floor; returns the list of
    human-readable failures (empty when everything clears).

    Each floor entry is a dotted path into the report and the
    reference value recorded on the development machine; the effective
    gate is ``reference * tolerance``, with tolerance deliberately
    loose — the gate exists to catch order-of-magnitude regressions
    (a broken trace emitter, an accidentally-quadratic driver), not to
    measure the CI runner.
    """
    with open(FLOOR_FILE) as fh:
        doc = json.load(fh)
    tolerance = doc["tolerance"]
    floors = doc["floors"]["smoke" if smoke else "full"]
    failures = []
    for dotted, reference in sorted(floors.items()):
        gate = reference * tolerance
        measured = _lookup(report, dotted)
        say("  floor %-28s %10.1f >= %10.1f (%.1f * %.2f)  %s"
            % (dotted, measured, gate, reference, tolerance,
               "ok" if measured >= gate else "FAIL"))
        if measured < gate:
            failures.append("%s: measured %.1f below floor %.1f "
                            "(reference %.1f, tolerance %.2f)"
                            % (dotted, measured, gate, reference,
                               tolerance))
    return failures


def main(argv=None):
    parser = arg_parser(__doc__, "small iteration count for CI "
                                 "(same storm shape, no speedup gate)")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail if the run lands below the floors "
                             "committed in benchmarks/perf_floor.json")
    args = parser.parse_args(argv)
    report = run_benchmark(
        SMOKE_ITERATIONS if args.smoke else ITERATIONS, args.out)
    if args.check_floor:
        failures = check_floor(report, smoke=args.smoke)
        if failures:
            for failure in failures:
                print("FAIL: %s" % failure)
            return 1
        print("perf floor: clear")
    if not args.smoke and report["speedup_steps_per_sec"] < 3.0:
        print("FAIL: speedup %.2fx below the 3x target"
              % report["speedup_steps_per_sec"])
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
