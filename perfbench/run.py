"""Two-clock benchmark of the process-migration simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload storm --seed 0 --seconds 30 --trace 0

One process, no threads.  The workload (see ``workloads.py``) is set up
and run again and again for ``--seconds`` of host time; each repetition
builds a fresh site, so every one reproduces the same virtual
fingerprint.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end host-clock metrics
(see :func:`end_to_end`).  With ``--trace 1`` untraced and traced
repetitions alternate; the metrics are the per-layer table of the
traced ones (``recorder.py``), the virtual metrics and the tracing
overhead, and the recorded spans of the last traced repetition are
written to ``perfbench/out/``.

``--record`` (seed 0 only) rewrites ``expected.json``: the seed-0
fingerprint of the workload and, for ``paper``, the committed figure
rows.  Use it only when the cost model changes on purpose.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from probe import REFERENCE_S, Probe

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")

MIN_UNTRACED = 3  #: repetitions every run makes, however short
MIN_TRACED = 2  #: traced repetitions of a --trace 1 run
MAX_REPETITIONS = 500


class Repetition:
    """Host timings of the set-up and the batch of one repetition.

    ``marks`` are ``(end, probe_s, start)`` triples: the run's start,
    every lap of the batch and the run's end (see ``Batch.lap``).  Run
    segments exclude the probes timed between them.  ``exponent`` is
    the workload's ``probe_exponent`` (see :func:`end_to_end`).
    """

    def __init__(self, setup_s, setup_probe_s, marks, batch, exponent,
                 recorder=None):
        self.setup_s = setup_s
        pairs = list(zip(marks, marks[1:]))
        #: host time of each run segment (workloads call batch.lap())
        self.segments = [b[0] - a[2] for a, b in pairs]
        self.run_s = sum(self.segments)
        probes = [(a[1], b[1]) for a, b in pairs]
        #: set-up and run at the reference host's speed, untraced only
        self.reference = None
        if setup_probe_s is not None and all(
                p is not None for pair in probes for p in pair):
            self.reference = (
                setup_s * REFERENCE_S / setup_probe_s,
                sum(seg * (REFERENCE_S * 2 / (p + q)) ** exponent
                    for seg, (p, q) in zip(self.segments, probes)))
        self.batch = batch
        self.recorder = recorder  #: set on traced repetitions
        self.traced = recorder is not None
        self.layers = None
        if recorder is not None and batch.perf:
            self.layers = recorder.layers(setup_s + self.run_s,
                                          batch.perf)


def load_expected():
    try:
        with open(EXPECTED) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"fingerprints": {}, "figures": {}}


def make_workload(name, seed, expected):
    from workloads import WORKLOADS, Paper
    if name == Paper.name:
        return Paper(seed, expected=expected["figures"])
    return WORKLOADS[name](seed)


def repeat(workload, traced, probe):
    """Set up and run the workload once; returns a :class:`Repetition`.

    Untraced repetitions time the probe right before and after the
    set-up and every run segment; traced ones time no probe."""
    from recorder import Recorder
    from workloads import Batch
    clock = time.perf_counter
    if traced:
        probe = None
    Batch.probe = probe

    def probe_s():
        return probe.time() if probe is not None else None

    recorder = Recorder() if traced else None
    setup_s = t1 = 0.0
    p0 = p1 = p2 = None
    try:
        if recorder is not None:
            recorder.install()
        gc.collect()
        p0 = probe_s()
        t0 = clock()
        site = workload.setup()
        setup_s = clock() - t0
        p1 = probe_s()
        gc.collect()
        p2 = probe_s()
        t1 = clock()
        batch = workload.run(site)
        t2 = clock()
    except Exception as exc:  # a broken run is counted, not fatal
        t2 = clock()
        batch = Batch()
        batch.check(False, "run aborted: %r" % exc)
    finally:
        if recorder is not None:
            recorder.uninstall()
        Batch.probe = None
    setup_probe_s = (p0 + p1) / 2 if p1 is not None else None
    marks = [(None, p2, t1)] + batch.laps + [(t2, probe_s(), None)]
    return Repetition(setup_s, setup_probe_s, marks, batch,
                      workload.probe_exponent, recorder)


def measure(workload, seconds, trace, expected_digest, probe):
    """Repeat the workload until the next repetition would end past
    ``seconds`` of host time (but at least the minimum counts)."""
    reps = []
    first = None
    start = time.perf_counter()
    while len(reps) < MAX_REPETITIONS:
        traced = bool(trace) and len(reps) % 2 == 1
        rep = repeat(workload, traced, probe)
        digest = rep.batch.digest()
        if first is None:
            first = digest
            if expected_digest is not None:
                rep.batch.check(digest == expected_digest,
                                "fingerprint %s differs from the "
                                "committed %s" % (digest[:12],
                                                  expected_digest[:12]))
        else:
            rep.batch.check(digest == first, "fingerprint differs "
                            "between repetitions")
        reps.append(rep)
        untraced = sum(1 for r in reps if not r.traced)
        enough = untraced >= MIN_UNTRACED and (
            not trace or len(reps) - untraced >= MIN_TRACED)
        elapsed = time.perf_counter() - start
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return reps, first


def end_to_end(reps):
    """The host-clock metrics, in seconds of the reference host.

    On a shared host the speed of one process switches between a fast
    and a slow state, which can last a whole run (``probe.py``).  So
    every set-up and every run segment (a few to tens of milliseconds
    of host time; workloads close one at each ``batch.lap()``) is
    scaled by ``REFERENCE_S``, the probe's time on the reference host,
    over the mean of the probes timed right before and after it.  A
    workload whose host time grows less than the probe's in the slow
    state scales its segments by that ratio to its ``probe_exponent``.
    ``setup_s`` and ``run_s`` are the medians over the untraced
    repetitions of the scaled set-up and of the sum of the scaled run
    segments; should every repetition abort, of the raw host times.
    """
    scaled = [r.reference for r in reps if r.reference is not None] \
        or [(r.setup_s, r.run_s) for r in reps]
    run_s = statistics.median(u[1] for u in scaled)
    batch = reps[0].batch
    return {
        "setup_s": statistics.median(u[0] for u in scaled),
        "run_s": run_s,
        "guest_mips": batch.instructions / run_s / 1e6,
        "moves_per_s": batch.moves / run_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(reps, name):
    traced = [r for r in reps if r.layers is not None]
    plain = [r for r in reps if not r.traced]
    metrics = {}
    if traced:
        for key in traced[0].layers:
            metrics[key] = statistics.median(r.layers[key]
                                             for r in traced)
        metrics["trace_overhead_s"] = (
            statistics.median(r.run_s for r in traced)
            - statistics.median(r.run_s for r in plain))
        os.makedirs(OUT_DIR, exist_ok=True)
        traced[-1].recorder.dump(os.path.join(
            OUT_DIR, "spans-%s.jsonl" % name))
    metrics.update(reps[0].batch.virtual())
    metrics["fail_frac"] = (sum(r.batch.failed for r in reps)
                            / max(1, sum(r.batch.attempted for r in reps)))
    return metrics


def metric_units():
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def record(name):
    """Rewrite the committed seed-0 expectations of one workload."""
    from workloads import Paper
    expected = load_expected()
    workload = make_workload(name, 0, expected)
    if name == Paper.name:
        from repro.bench import figures
        expected["figures"] = json.loads(json.dumps(
            {fig: getattr(figures, fig)() for fig in workload.order}))
        workload.expected = expected["figures"]
    batch = workload.run(workload.setup())
    if batch.failed:
        print("record: %s fails its own checks: %s"
              % (name, batch.errors), file=sys.stderr)
        return 1
    expected["fingerprints"][name] = batch.digest()
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %s fingerprint %s" % (name, batch.digest()[:12]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json for seed 0")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no simulator sources at %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    if args.record:
        return record(args.workload)

    expected = load_expected()
    workload = make_workload(args.workload, args.seed, expected)
    workload.setup()  # untimed: module imports and first-use set-up
    digest = expected["fingerprints"].get(args.workload) \
        if args.seed == 0 else None
    reps, first = measure(workload, args.seconds, args.trace, digest,
                          Probe())
    attempted = sum(r.batch.attempted for r in reps)
    failed = sum(r.batch.failed for r in reps)
    metrics = per_layer(reps, args.workload) if args.trace \
        else end_to_end(reps)
    units = metric_units()
    print("perfbench: workload=%s seed=%d repetitions=%d traced=%d "
          "fingerprint=%s" % (args.workload, args.seed, len(reps),
                              sum(r.traced for r in reps), first[:16]))
    print("perfbench: virtual %s"
          % json.dumps(reps[0].batch.virtual(), sort_keys=True))
    for index, rep in enumerate(reps):
        scaled = "" if rep.reference is None else \
            " (reference host: setup_s=%.4f run_s=%.4f)" % rep.reference
        print("perfbench: repetition %d%s setup_s=%.4f run_s=%.4f%s"
              % (index, " traced" if rep.traced else "", rep.setup_s,
                 rep.run_s, scaled))
        for error in rep.batch.errors:
            print("perfbench: FAILED %s" % error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
