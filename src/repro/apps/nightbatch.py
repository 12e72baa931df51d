"""The day/night CPU-hog scheduler (section 8, last application).

"These jobs can be run in one machine during the day (or not at
all!), when users want to use the majority of the machines in the
network.  At night, when the load on most machines is low, these jobs
can be distributed evenly throughout the system, and thus make
efficient use of the network resources."

The scheduler owns a set of long-running batch jobs.  ``nightfall()``
spreads them round-robin over every workstation; ``daybreak()``
corrals them back onto the designated day machine.  Each move is one
``migrate -d`` run (the shared migration pipeline, with its retries
and rollback), so a job's identity changes pid at every transition —
the scheduler tracks jobs by process, not pid.
"""


class BatchJob:
    """One long-running CPU hog under the scheduler's care."""

    _ids = iter(range(1, 1 << 20))

    def __init__(self, proc, host):
        self.job_id = next(BatchJob._ids)
        self.proc = proc
        self.host = host
        self.moves = 0

    @property
    def alive(self):
        return not self.proc.zombie()

    def __repr__(self):
        return ("BatchJob(#%d pid %d on %s, %d moves)"
                % (self.job_id, self.proc.pid, self.host, self.moves))


class NightBatchScheduler:
    """Corral by day, spread by night."""

    def __init__(self, site, day_host, night_hosts, uid=100):
        self.site = site
        self.day_host = day_host
        self.night_hosts = list(night_hosts)
        self.uid = uid
        self.jobs = []
        self.is_night = False

    def submit(self, path, argv=None, cwd="/tmp"):
        """Start a batch job on the day machine."""
        handle = self.site.start(self.day_host, path, argv,
                                 uid=self.uid, cwd=cwd)
        job = BatchJob(handle.proc, self.day_host)
        self.jobs.append(job)
        return job

    def _move(self, job, destination):
        """Move ``job`` with ``migrate -d``; True once it runs there.

        A failed move leaves the job wherever the pipeline left it:
        still running on its host (the dump failed), restarted there
        from its own dump (the rollback), or lost.
        """
        if job.host == destination or job.proc.zombie():
            return False
        site = self.site
        handle = site.migrate(job.proc.pid, job.host, destination,
                              uid=self.uid, use_daemon=True)
        if handle.exit_status == 0:
            job.proc = site.find_restarted(destination)
            job.host = destination
            job.moves += 1
            return True
        if job.proc.zombie():
            rolled_back = site.find_restarted(job.host)
            if rolled_back is not None and all(
                    other.proc is not rolled_back for other in self.jobs):
                job.proc = rolled_back
        return False

    def live_jobs(self):
        return [job for job in self.jobs if not job.proc.zombie()]

    def nightfall(self):
        """Spread the hogs evenly over the night machines."""
        self.is_night = True
        moved = 0
        for index, job in enumerate(self.live_jobs()):
            target = self.night_hosts[index % len(self.night_hosts)]
            if self._move(job, target):
                moved += 1
        return moved

    def daybreak(self):
        """Bring every hog home to the day machine."""
        self.is_night = False
        moved = 0
        for job in self.live_jobs():
            if self._move(job, self.day_host):
                moved += 1
        return moved

    def placement(self):
        """host -> number of live jobs there."""
        out = {}
        for job in self.live_jobs():
            out[job.host] = out.get(job.host, 0) + 1
        return out
