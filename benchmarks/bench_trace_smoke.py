"""Trace-overhead smoke: tracing off must cost ~nothing.

Runs the ``bench_perf_scale`` migration storm three times on compiled
traces — twice with tracing off, once with full-category tracing on —
and checks:

* all three runs produce the **identical virtual-time fingerprint**
  (tracing may never influence the simulation, on or off);
* the two tracing-off runs agree on real wall-clock throughput to
  within 5% — the gate the CI trace-smoke job enforces.  Tracing-off
  code paths differ from the pre-observability engine by exactly one
  attribute check per emission site, so run-to-run jitter *is* the
  overhead bound: there is no untraced build left to compare against.
  The run is retried a few times because shared CI runners jitter;
* the tracing-on slowdown is reported (informational — recording
  every syscall/sched event is allowed to cost real time).

The storm is smoke-sized (``bench_perf_scale``'s smoke iteration
count).  The result is merged into ``--out`` under a
``trace_overhead`` key.

Usage::

    python benchmarks/bench_trace_smoke.py [--out BENCH_perf.json]
"""

import argparse
import sys

# harness puts src/ on sys.path
from harness import DEFAULT_OUT, say, write_report

from bench_perf_scale import run_storm, SMOKE_ITERATIONS

#: |off1 - off2| / max must stay under this (the CI gate)
OFF_JITTER_GATE = 0.05
RETRIES = 5


def _measure():
    off1_print, off1 = run_storm(iterations=SMOKE_ITERATIONS)
    off2_print, off2 = run_storm(iterations=SMOKE_ITERATIONS)
    on_print, on = run_storm(iterations=SMOKE_ITERATIONS,
                             trace=True)
    if not (off1_print == off2_print == on_print):
        raise AssertionError(
            "tracing perturbed virtual time: fingerprints differ")
    rates = [stats["steps_per_sec"] for stats in (off1, off2, on)]
    jitter = abs(rates[0] - rates[1]) / max(rates[0], rates[1])
    slowdown = rates[0] / rates[2] if rates[2] else float("inf")
    return {
        "off_steps_per_sec": [rates[0], rates[1]],
        "off_jitter": round(jitter, 4),
        "on_steps_per_sec": rates[2],
        "on_slowdown": round(slowdown, 3),
        "trace_events": on["trace_events"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    result = None
    for attempt in range(RETRIES):
        result = _measure()
        say("attempt %d: off jitter %.1f%%, on slowdown %.2fx, "
            "%d events" % (attempt + 1, 100 * result["off_jitter"],
                           result["on_slowdown"],
                           result["trace_events"]))
        if result["off_jitter"] < OFF_JITTER_GATE:
            break
    result["attempts"] = attempt + 1
    result["gate"] = OFF_JITTER_GATE
    result["passed"] = result["off_jitter"] < OFF_JITTER_GATE
    write_report(args.out, {"trace_overhead": result})
    if not result["passed"]:
        print("FAIL: tracing-off throughput jitter %.1f%% exceeds "
              "the %.0f%% gate" % (100 * result["off_jitter"],
                                   100 * OFF_JITTER_GATE))
        return 1
    print("tracing-off overhead within %.0f%%"
          % (100 * OFF_JITTER_GATE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
