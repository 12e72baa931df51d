#!/usr/bin/env python
"""The day/night CPU-hog scheduler (section 8, last application).

"These jobs can be run in one machine during the day ... At night,
when the load on most machines is low, these jobs can be distributed
evenly throughout the system."

Three big batch jobs live on the file server by day; at nightfall the
scheduler spreads them over the workstations, and at daybreak it
corrals them back — each job simply keeps computing through both
moves.  Every move is a ``migrate -d`` run through the migration
daemons.
"""

from repro.apps import NightBatchScheduler
from repro.core.api import MigrationSite


def show(site, sched, label):
    print("%-10s placement: %s" % (label, sched.placement()))
    for job in sched.jobs:
        print("    job #%d: pid %d on %-9s (%d moves, %.1fs CPU)"
              % (job.job_id, job.proc.pid, job.host, job.moves,
                 job.proc.cpu_us() / 1e6))


def main():
    site = MigrationSite()
    site.run_quiet()
    sched = NightBatchScheduler(site, day_host="brador",
                                night_hosts=["brick", "schooner"],
                                uid=100)

    print("daytime: submitting three CPU hogs to the file server\n")
    for __ in range(3):
        sched.submit("/bin/cpuhog", ["cpuhog", "600000"])
    site.run(until_us=site.cluster.wall_time_us() + 1_000_000)
    show(site, sched, "day")

    print("\n--- nightfall: users went home, spread the hogs ---\n")
    moved = sched.nightfall()
    print("migrated %d jobs" % moved)
    site.run(until_us=site.cluster.wall_time_us() + 2_000_000)
    show(site, sched, "night")

    print("\n--- daybreak: corral them back to the server ---\n")
    moved = sched.daybreak()
    print("migrated %d jobs" % moved)
    site.run(until_us=site.cluster.wall_time_us() + 1_000_000)
    show(site, sched, "day again")

    print("\nletting the jobs finish ...")
    site.run_until(lambda: all(not j.alive for j in sched.jobs),
                   max_steps=80_000_000)
    print("all done; every job survived two migrations.")
    for host in ("brador", "brick", "schooner"):
        for line in site.console(host).splitlines():
            if "checksum" in line:
                print("    %s: %s" % (host, line))


if __name__ == "__main__":
    main()
