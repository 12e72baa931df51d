"""Plumbing shared by the benchmark scripts.

Importing this module puts ``src/`` on ``sys.path``, so a script run
as ``python benchmarks/bench_x.py`` can import :mod:`repro` after it.

* :func:`arg_parser` — the ``--out FILE`` / ``--smoke`` command line
  every script takes;
* :func:`write_report` — merges a script's sections into ``--out``
  (``BENCH_perf.json`` by default), keeping every other benchmark's;
* :func:`loadd_storm` — the imbalanced cpuhog storm that
  ``bench_loadbalance`` and ``bench_statd`` both measure.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.api import MigrationSite  # noqa: E402
from repro.costmodel import CostModel  # noqa: E402

#: the committed record every script merges into unless told otherwise
DEFAULT_OUT = "BENCH_perf.json"


def say(msg):
    print(msg, flush=True)


def arg_parser(doc, smoke_help):
    """An argument parser with the two options every script takes."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="JSON report to merge this benchmark's "
                             "section into (default %(default)s)")
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    return parser


def write_report(path, sections):
    """Set each top-level key of ``sections`` in the JSON object at
    ``path``, keeping the keys other benchmarks put there.  A missing
    file is created; an unreadable or non-object one is replaced."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, OSError):  # missing or unreadable
        doc = {}
    if not isinstance(doc, dict):
        doc = {}
    doc.update(sections)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    say("written to %s" % path)


#: retry/poll knobs shrunk as in the chaos tests, plus an aggressive
#: balancing cadence so the storm drains while it runs
STORM_KNOBS = dict(migrate_backoff_s=0.5, connect_backoff_s=0.5,
                   net_read_timeout_s=5.0, restart_poll_tries=30,
                   restart_poll_sleep_s=0.5, loadd_interval_s=1.0,
                   loadd_min_cpu_s=0.1, loadd_max_moves=4)


def loadd_storm(hosts, hogs, iterations, categories,
                loadd_rounds, statd_rounds=0):
    """Pile ``hogs`` cpuhogs of ``iterations`` each on ``w0`` of a
    ``hosts``-workstation site and run until every guest has exited.

    ``loadd_rounds`` rounds of loadd balance the pile (0: loadd never
    starts); ``statd_rounds`` rounds of statd sample it once a virtual
    second (0: telemetry never starts).  ``categories`` are traced.
    Returns the finished site.
    """
    workstations = ["w%d" % i for i in range(hosts)]
    knobs = dict(STORM_KNOBS)
    if statd_rounds:
        knobs.update(stat_interval_s=1.0, stat_rounds=statd_rounds)
    site = MigrationSite(costs=CostModel(**knobs),
                         workstations=workstations)
    site.cluster.tracer.enable(*categories)
    site.run_quiet()
    for __ in range(hogs):
        site.start("w0", "/bin/cpuhog",
                   ["cpuhog", str(iterations)], uid=100)
    if loadd_rounds:
        site.start_loadd(rounds=loadd_rounds)
    if statd_rounds:
        site.start_statd()

    def all_done():
        return all(p.zombie() or not p.is_vm()
                   for m in site.cluster.machines.values()
                   for p in m.kernel.procs.all_procs())

    site.run_until(all_done, max_steps=400_000_000)
    if not all_done():
        raise AssertionError("storm did not finish")
    return site
