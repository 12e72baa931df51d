"""Engine benchmark: an N-machine, K-process migration storm.

Runs the same workload twice — once on the reference engine
(``engine="scan"``: O(M) driver scan per step, lazily-decoding
interpreter) and once on the fast engine (lazy-heap event-horizon
driver, predecoded instruction blocks) — then:

* asserts the two engines produced **identical virtual-time results**
  (clocks, consoles, network traffic, step counts), and
* writes ``BENCH_perf.json`` with real wall-clock steps/sec for both,
  the speedup, the fast engine's burst-length histogram and the
  decode-cache hit rate.

It also times site setup (``site_setup``): a ``MigrationSite()`` and
a short cpuhog on it, first *cold* (the process-wide guest assembly
memo and trace store emptied) and then *warm*, with the number of
``assemble`` and ``compile_trace`` calls each paid.

The JSON write is merge-preserving: keys other benchmarks put in the
same file (``bench_vm_micro``'s ``vm_micro`` section) survive a rerun.

``--check-floor`` compares the run against the committed
``benchmarks/perf_floor.json`` — recorded reference numbers scaled by
a generous tolerance, so CI catches a real regression (a driver or
emitter change that halves throughput) without flaking on slower
runner hardware.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_scale.py [--smoke]
    PYTHONPATH=src python benchmarks/bench_perf_scale.py --smoke --check-floor

The workload: K CPU-bound hogs spread over N machines run for a
while, then every hog is migrated one machine to the right (dumpproc
on the source, restart over NFS on the destination), and everything
runs to completion.  Every hog's printed checksum is verified, so the
storm double-checks migration correctness while it measures speed.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__) or ".",
                                os.pardir, "src"))

from repro.clock import RealStopwatch
from repro.core.api import MigrationSite
from repro.programs.guest import libasm
from repro.programs.guest.cpuhog import expected_checksum
from repro.vm import assembler
from repro.vm import cpu as cpu_module

DEFAULT_MACHINES = 8
DEFAULT_PROCS = 32
DEFAULT_ITERATIONS = 50_000
SMOKE_ITERATIONS = 5_000

#: virtual time at which the storm strikes (hogs must be mid-loop)
STORM_AT_US = 150_000.0

#: committed reference numbers for --check-floor
FLOOR_FILE = os.path.join(os.path.dirname(__file__) or ".",
                          "perf_floor.json")


def run_storm(engine, machines=DEFAULT_MACHINES, procs=DEFAULT_PROCS,
              iterations=DEFAULT_ITERATIONS, trace=False):
    """Run the storm on one engine; returns (fingerprint, stats).

    ``trace=True`` turns on full-category event tracing — used by
    ``bench_trace_smoke.py`` to measure tracing overhead and to check
    that tracing never perturbs virtual time.
    """
    names = ["w%d" % i for i in range(machines)]
    site = MigrationSite(workstations=names, server=None,
                         daemons=False, engine=engine)
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
            "engine=%s: %d hogs finished before the storm struck; "
            "raise iterations" % (engine, procs - len(victims)))
    # the storm, phase 1: dump every hog at once
    dumps = [site.start(host, "/bin/dumpproc",
                        ["dumpproc", "-p", str(handle.pid)], uid=100)
             for host, handle in victims]
    site.run_until(lambda: all(d.exited for d in dumps),
                   max_steps=200_000_000)
    failed = sum(1 for d in dumps if d.exit_status != 0)
    if failed:
        raise AssertionError("engine=%s: %d dumps failed"
                             % (engine, failed))
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
            "engine=%s: %d/%d hogs produced the expected checksum"
            % (engine, finished, procs))
    if migrated != procs:
        raise AssertionError("engine=%s: only %d/%d migrated hogs ran "
                             "to completion" % (engine, migrated, procs))

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

#: warm repetitions timed by the site-setup bench (the median counts)
SETUP_WARM_REPS = 5


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
    return report


def run_benchmark(machines=DEFAULT_MACHINES, procs=DEFAULT_PROCS,
                  iterations=DEFAULT_ITERATIONS, out="BENCH_perf.json",
                  verbose=True):
    def say(msg):
        if verbose:
            print(msg, flush=True)

    say("migration storm: %d machines, %d processes, %d iterations"
        % (machines, procs, iterations))
    say("running reference engine (scan driver + interpreter)...")
    scan_print, scan_stats = run_storm("scan", machines, procs,
                                       iterations)
    say("  %.2fs, %.0f steps/sec" % (scan_stats["elapsed_s"],
                                     scan_stats["steps_per_sec"]))
    say("running fast engine (horizon bursts + predecoded blocks)...")
    fast_print, fast_stats = run_storm("fast", machines, procs,
                                       iterations)
    say("  %.2fs, %.0f steps/sec" % (fast_stats["elapsed_s"],
                                     fast_stats["steps_per_sec"]))

    if scan_print != fast_print:
        diverged = [key for key in scan_print
                    if scan_print[key] != fast_print[key]]
        raise AssertionError(
            "engines diverged on virtual-time results: %s" % diverged)
    say("virtual-time results: identical across engines")
    say("site setup: cold, then warm (process-wide memos filled)...")
    setup = run_site_setup()
    say("  MigrationSite() %.1f ms cold (%d assembles), %.1f ms warm "
        "(%d)" % (setup["cold_site_ms"], setup["cold_site_assemble_calls"],
                  setup["warm_site_ms"], setup["warm_site_assemble_calls"]))

    speedup = (fast_stats["steps_per_sec"]
               / scan_stats["steps_per_sec"]) \
        if scan_stats["steps_per_sec"] else float("inf")
    report = {
        "benchmark": "bench_perf_scale",
        "workload": {
            "machines": machines,
            "processes": procs,
            "iterations_per_process": iterations,
            "migrations": fast_stats["migrations"],
            "wall_time_us": fast_print["wall_us"],
        },
        "engines": {"scan": scan_stats, "fast": fast_stats},
        "speedup_steps_per_sec": round(speedup, 3),
        "virtual_time_identical": True,
        "site_setup": setup,
    }
    _merge_write(out, report)
    say("speedup: %.2fx (written to %s)" % (speedup, out))
    return report


def _merge_write(out, report):
    """Write ``report``'s keys into ``out`` without clobbering keys
    other benchmarks keep in the same file (e.g. ``vm_micro``)."""
    doc = {}
    if os.path.exists(out):
        try:
            with open(out) as fh:
                doc = json.load(fh)
        except (ValueError, OSError):
            doc = {}
    if not isinstance(doc, dict):
        doc = {}
    doc.update(report)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lookup(report, dotted):
    value = report
    for part in dotted.split("."):
        value = value[part]
    return value


def check_floor(report, smoke, floor_path=FLOOR_FILE, verbose=True):
    """Compare a run against the committed floor; returns the list of
    human-readable failures (empty when everything clears).

    Each floor entry is a dotted path into the report and the
    reference value recorded on the development machine; the effective
    gate is ``reference * tolerance``, with tolerance deliberately
    loose — the gate exists to catch order-of-magnitude regressions
    (a broken trace emitter, an accidentally-quadratic driver), not to
    measure the CI runner.
    """
    with open(floor_path) as fh:
        doc = json.load(fh)
    tolerance = doc["tolerance"]
    floors = doc["floors"]["smoke" if smoke else "full"]
    failures = []
    for dotted, reference in sorted(floors.items()):
        gate = reference * tolerance
        measured = _lookup(report, dotted)
        status = "ok" if measured >= gate else "FAIL"
        if verbose:
            print("  floor %-28s %10.1f >= %10.1f (%.1f * %.2f)  %s"
                  % (dotted, measured, gate, reference, tolerance,
                     status), flush=True)
        if measured < gate:
            failures.append("%s: measured %.1f below floor %.1f "
                            "(reference %.1f, tolerance %.2f)"
                            % (dotted, measured, gate, reference,
                               tolerance))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--machines", type=int, default=DEFAULT_MACHINES)
    parser.add_argument("--procs", type=int, default=DEFAULT_PROCS)
    parser.add_argument("--iterations", type=int,
                        default=DEFAULT_ITERATIONS)
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small iteration count for CI "
                             "(same storm shape, no speedup gate)")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail if the run lands below the floors "
                             "committed in benchmarks/perf_floor.json")
    args = parser.parse_args(argv)
    iterations = SMOKE_ITERATIONS if args.smoke else args.iterations
    report = run_benchmark(machines=args.machines, procs=args.procs,
                           iterations=iterations, out=args.out)
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
