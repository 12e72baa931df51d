#!/usr/bin/env python
"""Load balancing with migration (section 8 + the paper's future work).

Four CPU-bound jobs all land on brick while schooner sits idle.  The
``loadd`` daemons exchange load reports and move jobs that have been
running "for more than a certain amount of time" through the
migration daemons (not the slow rsh-based migrate — the paper's own
advice).  We compare the makespan against the unbalanced run and
check the checksums printed on brick.
"""

import re

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.programs.guest.cpuhog import expected_checksum

ITERATIONS = 300_000
JOBS = 4

#: four one-second rounds, a low candidate floor and up to four moves
#: per round: short hogs need a quick balancer
COSTS = CostModel().with_overrides(loadd_interval_s=1.0,
                                   loadd_rounds=4,
                                   loadd_min_cpu_s=0.05,
                                   loadd_max_moves=4)


def run(balance):
    site = MigrationSite(costs=COSTS)
    site.run_quiet()
    start_s = site.wall_seconds()
    for __ in range(JOBS):
        site.start("brick", "/bin/cpuhog", ["cpuhog", str(ITERATIONS)],
                   uid=100)
    if balance:
        site.start_loadd(hosts=["brick", "schooner"])

    site.run_until(
        lambda: all(not p.is_vm() or p.zombie()
                    for m in site.cluster.machines.values()
                    for p in m.kernel.procs.all_procs()),
        max_steps=80_000_000)
    return site, site.wall_seconds() - start_s


def main():
    print("running %d jobs of %d iterations, all started on brick"
          % (JOBS, ITERATIONS))

    print("\nwithout load balancing:")
    site, unbalanced = run(balance=False)
    print("   makespan: %.1f virtual seconds" % unbalanced)

    print("\nwith load balancing:")
    site, balanced = run(balance=True)
    print("   makespan: %.1f virtual seconds" % balanced)
    print("   loadd moved %d jobs" % site.cluster.perf.ld_moves)

    expected = expected_checksum(ITERATIONS)
    sums = [int(match) for match in
            re.findall(r"checksum=(\d+)", site.console("brick"))]
    print("\nchecksums printed on brick: %s (expected %d)"
          % (sums, expected))
    assert sums and all(s == expected for s in sums)
    print("speedup from balancing: %.2fx" % (unbalanced / balanced))


if __name__ == "__main__":
    main()
