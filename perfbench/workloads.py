"""The benchmark's four workloads.

Every workload is a closed batch: a fixed job set, generated from the
seed, runs to completion.  A workload object is built once per process
(input generation, guest assembly for the benchmark's own programs) and
then set up and run many times; every run of one seed must produce the
same virtual fingerprint.

* ``storm``     -- 8 workstations, 32 cpuhogs, every hog dumped at once
                   and restarted one host to the right over NFS.
* ``churn``     -- 4 workstations + file server with daemons, ledger,
                   incremental dumps and lazy restart; 8 counters move
                   every round by a parallel ``migrate -d``.
* ``lazy_hogs`` -- the churn site; 8 cpuhogs with a mostly untouched
                   64 KB buffer, each migrated once, early.
* ``paper``     -- passes of the figure 1-4 drivers of ``repro.bench``.

``setup()`` builds a site (timed as ``setup_s``); ``run(site)`` runs
the batch (timed as ``run_s``) and returns a :class:`Batch`.
"""

import contextlib
import hashlib
import json
import random
import statistics
import time

from repro.bench import figures
from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.errors import UnixError
from repro.machine.cluster import Cluster
from repro.programs.guest import counter, cpuhog
from repro.programs.guest.cpuhog import expected_checksum
from repro.programs.guest.libasm import program

#: trace categories every captured cluster records: enough to stitch
#: each move's begin, dump and resume marks (virtual time only)
MOVE_CATEGORIES = ("dump", "restart", "migrate")

#: the data-segment padding the churn and lazy_hogs guests carry
BIG_BUFFER = "bigbuf:     .space 65536\n"

#: knobs of the churn and lazy_hogs site
PIPELINE_KNOBS = dict(incremental_dumps=True, lazy_restart=True,
                      migration_ledger=True)

#: the intent ledger's directory on the file server
LEDGER_SPOOL = "/usr/spool/migledger"

MAX_STEPS = 200_000_000

#: the cluster perf counters a batch reports (see recorder.layers)
PERF_COUNTERS = ("steps", "bursts", "horizon_memo_hits",
                 "horizon_invalidations", "shared_cache_hits",
                 "cache_rebuilds", "retries", "chunk_puts",
                 "chunk_dedup_hits", "chunks_clean_skipped",
                 "chunk_bytes_written", "chunk_bytes_fetched",
                 "lazy_faults")


class Batch:
    """What one run of a workload did, in virtual terms."""

    #: the host-speed probe (``probe.py``) timed at every lap, or None;
    #: run.py sets it for the untraced repetitions
    probe = None

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.instructions = 0  #: guest instructions retired
        self.moves = 0  #: completed migrations
        self.move_us = []  #: command start -> job resumed, per move
        self.freeze_us = []  #: dump begin -> rest_proc end, per move
        self.makespan_us = 0.0
        self.paper_err_pct = None
        self.fingerprint = {}
        self.perf = {}  #: the clusters' perf counters, summed
        #: (end of a run segment, probe time or None, start of the
        #: next) per lap, host clock
        self.laps = []

    def lap(self):
        """Close one segment of the run and time the probe before the
        next one starts (see run.py: run_s)."""
        end = time.perf_counter()
        probe_s = self.probe.time() if self.probe is not None else None
        self.laps.append((end, probe_s, time.perf_counter()))

    def count_perf(self, clusters):
        """Sum the perf counters the per-layer table reads."""
        for cluster in clusters:
            perf = cluster.perf
            for name in PERF_COUNTERS:
                self.perf[name] = self.perf.get(name, 0) \
                    + getattr(perf, name)
            network = cluster.network
            self.perf["net_messages"] = self.perf.get(
                "net_messages", 0) + network.messages_sent
            self.perf["net_bytes"] = self.perf.get(
                "net_bytes", 0) + network.bytes_moved

    def check(self, ok, what):
        """Count one output check; failures are kept, never raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def digest(self):
        blob = json.dumps(self.fingerprint, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def virtual(self):
        """The virtual metrics: deterministic for a given seed."""
        def pct(values, q):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100,
                                        method="inclusive")[q - 1]
        return {
            "virt.makespan_s": self.makespan_us / 1e6,
            "virt.move_p50_ms": pct(self.move_us, 50) / 1e3,
            "virt.move_p95_ms": pct(self.move_us, 95) / 1e3,
            "virt.freeze_p50_ms": pct(self.freeze_us, 50) / 1e3,
            "virt.paper_err_pct": self.paper_err_pct or 0.0,
            "fail_frac": self.failed / max(1, self.attempted),
        }


@contextlib.contextmanager
def captured_clusters(batch):
    """Collect every :class:`Cluster` built inside the block and turn
    on its move-phase trace categories (virtual-time marks only; the
    tracer never changes virtual time).  Each new cluster also closes
    a run segment of ``batch``."""
    clusters = []
    original = Cluster.__init__

    def init(self, *args, **kwargs):
        batch.lap()
        original(self, *args, **kwargs)
        self.tracer.enable(*MOVE_CATEGORIES)
        clusters.append(self)

    Cluster.__init__ = init
    try:
        yield clusters
    finally:
        Cluster.__init__ = original


def harvest_moves(cluster, batch, starts=None):
    """Stitch the cluster's move marks into per-move virtual latencies.

    A move starts at its ``migrate`` span begin, or at the time given
    in ``starts`` (``"host:pid" -> us``) for moves made with bare
    ``dumpproc``/``restart``; it ends when ``rest_proc`` overlays the
    process on the destination.  Returns ``{mig: (host, pid)}`` of the
    resumed jobs.
    """
    starts = dict(starts or {})
    dumped = {}
    resumed = {}
    for event in cluster.tracer.events:
        mig = event.get("mig")
        key = (event["cat"], event["name"], event.get("span"))
        if key == ("migrate", "migrate", "B"):
            starts[mig] = event["ts"]
        elif key == ("dump", "dump", "B"):
            dumped[mig] = event["ts"]
        elif key == ("restart", "rest_proc", "E") and event["ok"]:
            resumed[mig] = (event["ts"], event["host"], event["pid"])
    for mig, (end, __, __) in sorted(resumed.items()):
        if mig in starts:
            batch.move_us.append(end - starts[mig])
        if mig in dumped:
            batch.freeze_us.append(end - dumped[mig])
    cluster.tracer.clear()
    return {mig: (host, pid) for mig, (__, host, pid) in resumed.items()}


def run_until(site, batch, predicate, lap_us=1_000_000):
    """Run until ``predicate()`` holds, closing a run segment every
    ``lap_us`` of virtual time and when it holds."""
    cluster = site.cluster
    while not predicate():
        limit = cluster.wall_time_us() + lap_us
        cluster.run_until(lambda: predicate()
                          or cluster.wall_time_us() >= limit,
                          max_steps=MAX_STEPS)
        batch.lap()


def run_to_idle(site, batch, lap_us):
    """Run until no machine has work, closing a run segment every
    ``lap_us`` of virtual time."""
    cluster = site.cluster
    machines = cluster.machines.values()
    while any(machine.has_work() for machine in machines):
        cluster.run(until_us=cluster.wall_time_us() + lap_us,
                    max_steps=MAX_STEPS)
        batch.lap()


def site_fingerprint(site, batch):
    """The virtual state a run must reproduce exactly."""
    cluster = site.cluster
    return {
        "clocks_us": {name: m.clock.now_us
                      for name, m in sorted(cluster.machines.items())},
        "terminals": {"%s/%s" % (name, tname): t.output_text()
                      for name, m in sorted(cluster.machines.items())
                      for tname, t in sorted(m.terminals.items())},
        "net_bytes": cluster.network.bytes_moved,
        "net_messages": cluster.network.messages_sent,
        "steps": cluster.perf.steps,
        "instructions": cluster.perf.vm_instructions,
        "moves": batch.moves,
    }


# -- storm ---------------------------------------------------------------------


class Storm:
    """8 workstations, no daemons, 32 cpuhogs, one eager move each."""

    name = "storm"
    machines = 8
    probe_exponent = 1.0  #: see run.end_to_end
    procs = 32
    strike_us = 150_000.0

    def __init__(self, seed):
        # a fixed ladder of iteration counts (so every seed does the
        # same total work), dealt to the hogs in a seeded order
        ladder = [40_000 + 640 * k for k in range(self.procs)]
        random.Random(seed).shuffle(ladder)
        self.iterations = ladder
        self.hosts = ["w%d" % i for i in range(self.machines)]

    def setup(self):
        site = MigrationSite(workstations=self.hosts, server=None,
                             daemons=False)
        site.cluster.tracer.enable(*MOVE_CATEGORIES)
        return site

    def run(self, site):
        batch = Batch()
        hosts = self.hosts
        hogs = []
        for k, count in enumerate(self.iterations):
            host = hosts[k % len(hosts)]
            hogs.append((host, site.start(host, "/bin/cpuhog",
                                          ["cpuhog", str(count)])))
        wall0 = site.cluster.wall_time_us()
        site.run(until_us=self.strike_us)
        batch.lap()
        for host, hog in hogs:
            batch.check(not hog.exited, "hog %d finished before the "
                        "storm" % hog.pid)
        # phase 1: dump every hog at once
        starts = {}
        dumps = []
        for host, hog in hogs:
            starts["%s:%d" % (host, hog.pid)] = \
                site.machine(host).clock.now_us
            dumps.append(site.start(host, "/bin/dumpproc",
                                    ["dumpproc", "-p", str(hog.pid)]))
        site.run_until(lambda: all(d.exited for d in dumps),
                       max_steps=MAX_STEPS)
        batch.lap()
        for dump in dumps:
            batch.check(dump.exit_status == 0,
                        "dumpproc %d exited %r" % (dump.pid,
                                                   dump.exit_status))
        # phase 2: restart every hog one machine to the right
        restarts = []
        for k, (host, hog) in enumerate(hogs):
            target = hosts[(k + 1) % len(hosts)]
            restarts.append(site.start(
                target, "/bin/restart",
                ["restart", "-p", str(hog.pid), "-h", host]))
        run_to_idle(site, batch, lap_us=250_000)
        for restart in restarts:
            batch.check(restart.exited and restart.exit_status == 0,
                        "restarted hog %d exited %r"
                        % (restart.pid, restart.exit_status))
        batch.makespan_us = site.cluster.wall_time_us() - wall0
        batch.moves = len(harvest_moves(site.cluster, batch, starts))
        batch.check(batch.moves == self.procs,
                    "%d/%d hogs resumed" % (batch.moves, self.procs))
        _check_checksums(site, self.iterations, batch)
        batch.instructions = site.cluster.perf.vm_instructions
        batch.count_perf([site.cluster])
        batch.fingerprint = site_fingerprint(site, batch)
        return batch


def _check_checksums(site, iterations, batch):
    """Every hog printed its expected checksum exactly once."""
    text = "".join(site.console(name) for name in site.cluster.machines)
    for count in sorted(set(iterations)):
        want = iterations.count(count)
        line = "checksum=%d\n" % expected_checksum(count)
        got = text.count(line)
        for __ in range(want):
            batch.check(got == want, "checksum for %d iterations "
                        "printed %d times, want %d" % (count, got, want))


# -- the pipeline site shared by churn and lazy_hogs ----------------------------


class _PipelineSite:
    """4 workstations plus the file server ``brador``, daemons on, and
    incremental dumps, lazy restart and the intent ledger switched on."""

    machines = 4
    guests = 8
    server = "brador"
    probe_exponent = 1.0  #: see run.end_to_end

    def __init__(self, seed, body, data):
        self.rng = random.Random(seed)
        self.hosts = ["w%d" % i for i in range(self.machines)]
        self.aout = program(body, data + BIG_BUFFER).aout
        self.costs = CostModel().with_overrides(**PIPELINE_KNOBS)

    def setup(self):
        site = MigrationSite(costs=self.costs, workstations=self.hosts,
                             server=self.server, daemons=True)
        for name in self.hosts + [self.server]:
            site.machine(name).install_aout(self.program, self.aout)
        # the ledger spool is operator-provisioned and world-writable
        site.machine(self.server).fs.makedirs(LEDGER_SPOOL, mode=0o777)
        site.cluster.tracer.enable(*MOVE_CATEGORIES)
        site.run_quiet()
        return site

    def migrate(self, site, pid, source, destination, tty=None):
        """Start ``migrate -d`` typed on the destination, at ``tty``
        (the terminal the restarted job will read: restart runs as
        migrate's local child and the dump rewrote the job's terminal
        to ``/dev/tty``)."""
        return site.start(destination, "/bin/migrate",
                          ["migrate", "-p", str(pid), "-f", source,
                           "-t", destination, "-d"], tty=tty)


# -- churn --------------------------------------------------------------------


class Churn(_PipelineSite):
    """8 section-6.2 counters with a 64 KB buffer, moved every round."""

    name = "churn"
    program = "bigcounter"
    rounds = 25
    #: churn's host time grows as the 0.7th power of the probe's from
    #: the host's fast to its slow state (fit over 145 repetitions in
    #: ten runs whose probes read 1.0x to 2.6x the reference)
    probe_exponent = 0.7

    def __init__(self, seed):
        super().__init__(seed, counter.BODY, counter.DATA)
        self.homes = [self.hosts[g % self.machines]
                      for g in range(self.guests)]
        # each round deals the guests to the hosts again, two per
        # host, such that no guest stays where it is
        self.plan = []
        where = list(self.homes)
        for __ in range(self.rounds):
            while True:
                slots = list(where)
                self.rng.shuffle(slots)
                if all(a != b for a, b in zip(where, slots)):
                    break
            self.plan.append(slots)
            where = slots

    def setup(self):
        site = super().setup()
        server_fs = site.machine(self.server).fs
        for g in range(self.guests):
            home = server_fs.makedirs("/u2/alonso/g%d" % g)
            home.uid = 100
            home.gid = 100
            for name in self.hosts:
                site.machine(name).add_terminal("tg%d" % g)
        return site

    def _output(self, site, g):
        return server_read(site, "/u2/alonso/g%d/counter.out" % g)

    def run(self, site):
        batch = Batch()
        wall0 = site.cluster.wall_time_us()
        jobs = []
        for g, host in enumerate(self.homes):
            machine = site.machine(host)
            handle = site.start(host, "/bin/" + self.program,
                                cwd="/u/alonso/g%d" % g,
                                tty=machine.terminals["tg%d" % g])
            jobs.append((host, handle.pid))

        def prompted(count):
            return lambda: all(
                site.machine(host).terminals["tg%d" % g]
                .output_text().count("> ") >= count
                for g, (host, __) in enumerate(jobs))

        run_until(site, batch, prompted(1))
        typed = [""] * self.guests
        for r, targets in enumerate(self.plan, start=1):
            moves = [self.migrate(site, pid, host, target,
                                  tty=site.machine(target)
                                  .terminals["tg%d" % g])
                     for g, ((host, pid), target)
                     in enumerate(zip(jobs, targets))]
            run_until(site, batch, lambda: all(m.exited for m in moves))
            for move in moves:
                batch.check(move.exit_status == 0, "round %d: migrate "
                            "exited %r" % (r, move.exit_status))
            resumed = harvest_moves(site.cluster, batch)
            for g, (host, pid) in enumerate(jobs):
                landed = resumed.get("%s:%d" % (host, pid))
                if batch.check(landed is not None
                               and landed[0] == targets[g],
                               "round %d: guest %d landed at %r"
                               % (r, g, landed)):
                    jobs[g] = landed
                    batch.moves += 1
            # one line to every guest, on its new host's terminal
            marks = []
            for g, (host, __) in enumerate(jobs):
                line = "round %d guest %d\n" % (r, g)
                typed[g] += line
                terminal = site.machine(host).terminals["tg%d" % g]
                marks.append(len(terminal.output_text()))
                terminal.feed(line)
            run_until(site, batch, prompted_after(site, jobs, marks))
            want = "r=%d s=%d k=%d\n" % (r + 1, r + 1, r + 1)
            for g, (host, __) in enumerate(jobs):
                shown = site.machine(host).terminals["tg%d" % g] \
                    .output_text()[marks[g]:]
                batch.check(want in shown, "round %d: guest %d printed "
                            "%r" % (r, g, shown[-40:]))
                batch.check(self._output(site, g) == typed[g],
                            "round %d: guest %d counter.out differs"
                            % (r, g))
        batch.makespan_us = site.cluster.wall_time_us() - wall0
        batch.instructions = site.cluster.perf.vm_instructions
        batch.count_perf([site.cluster])
        batch.fingerprint = site_fingerprint(site, batch)
        batch.fingerprint["outputs"] = [self._output(site, g)
                                        for g in range(self.guests)]
        return batch


def prompted_after(site, jobs, marks):
    """Predicate: every guest printed a fresh prompt past ``marks``."""
    terminals = [site.machine(host).terminals["tg%d" % g]
                 for g, (host, __) in enumerate(jobs)]
    return lambda: all(t.output_text().find("> ", mark) >= 0
                       for t, mark in zip(terminals, marks))


def server_read(site, path):
    """A file's contents on the file server (empty when missing)."""
    try:
        inode = site.machine(site.server_name).fs.resolve_local(path)
    except UnixError:
        return ""
    return bytes(inode.data).decode("latin-1")


# -- lazy_hogs -------------------------------------------------------------------


class LazyHogs(_PipelineSite):
    """8 cpuhogs with a 64 KB buffer, each lazily migrated once."""

    name = "lazy_hogs"
    program = "bighog"
    iterations = 12_000

    def __init__(self, seed):
        super().__init__(seed, cpuhog.BODY, cpuhog.DATA)
        # when each hog's move starts (virtual us after the start),
        # early in its run: a fixed ladder, so every seed leaves the
        # same work to the interpreter, dealt to the hogs by the seed
        self.offsets = [20_000 + 8_000 * g for g in range(self.guests)]
        self.rng.shuffle(self.offsets)

    def run(self, site):
        batch = Batch()
        hosts = self.hosts
        hogs = []
        for g in range(self.guests):
            host = hosts[g % len(hosts)]
            hogs.append((host, site.start(
                host, "/bin/" + self.program,
                [self.program, str(self.iterations)])))
        wall0 = site.cluster.wall_time_us()
        moves = []
        for at, g in sorted((at, g) for g, at in enumerate(self.offsets)):
            site.run(until_us=wall0 + at, max_steps=MAX_STEPS)
            batch.lap()
            host, hog = hogs[g]
            batch.check(not hog.exited, "hog %d finished before its "
                        "move" % g)
            target = hosts[(g + 1) % len(hosts)]
            moves.append(self.migrate(site, hog.pid, host, target))
        run_to_idle(site, batch, lap_us=250_000)
        for move in moves:
            batch.check(move.exit_status == 0,
                        "migrate exited %r" % move.exit_status)
        batch.makespan_us = site.cluster.wall_time_us() - wall0
        batch.moves = len(harvest_moves(site.cluster, batch))
        batch.check(batch.moves == self.guests,
                    "%d/%d hogs resumed" % (batch.moves, self.guests))
        _check_checksums(site, [self.iterations] * self.guests, batch)
        batch.instructions = site.cluster.perf.vm_instructions
        batch.count_perf([site.cluster])
        batch.fingerprint = site_fingerprint(site, batch)
        return batch


# -- paper ------------------------------------------------------------------------


#: the figure drivers one pass runs, in a seeded order
FIGURES = ("fig1", "fig2", "fig3", "fig4")


def paper_error_pct(results):
    """Mean |measured - paper| / paper over the figure rows, in %.

    Rows that define the normalization (paper value 1.0) are left out:
    they match by construction."""
    errors = []
    for result in results.values():
        for row in result["rows"]:
            for measured, paper in (("measured", "paper"),
                                    ("measured_real", "paper_real"),
                                    ("measured_cpu", "paper_cpu")):
                if paper in row and row[paper] != 1.0:
                    errors.append(abs(row[measured] - row[paper])
                                  / row[paper])
    return 100.0 * sum(errors) / len(errors)


class Paper:
    """Passes of the paper's figure 1-4 drivers."""

    name = "paper"
    passes = 2
    probe_exponent = 1.0  #: see run.end_to_end

    def __init__(self, seed, expected=None):
        order = list(FIGURES)
        random.Random(seed).shuffle(order)
        self.order = order
        self.expected = expected

    def setup(self):
        # the site every figure builds: two workstations, the file
        # server, daemons booted
        site = MigrationSite()
        site.run_quiet()
        return site

    def run(self, site):
        batch = Batch()
        results = {}
        with captured_clusters(batch) as clusters:
            for __ in range(self.passes):
                for name in self.order:
                    results[name] = getattr(figures, name)()
                    batch.lap()
                    self._check(results[name], name, batch)
        for cluster in clusters:
            batch.instructions += cluster.perf.vm_instructions
            batch.makespan_us += cluster.wall_time_us()
            batch.moves += sum(
                value for key, value in
                cluster.perf.metrics.snapshot()["counters"].items()
                if key.startswith("migrations{"))
            harvest_moves(cluster, batch)
        batch.count_perf(clusters)
        batch.paper_err_pct = paper_error_pct(results)
        batch.fingerprint = {
            "figures": json.loads(json.dumps(results, sort_keys=True)),
            "steps": sum(c.perf.steps for c in clusters),
            "instructions": batch.instructions,
            "moves": batch.moves,
        }
        return batch

    def _check(self, result, name, batch):
        want = (self.expected or {}).get(name)
        got = json.loads(json.dumps(result))
        rows = got["rows"]
        if want is None:
            batch.check(False, "%s: no committed rows" % name)
            return
        for k, row in enumerate(rows):
            ok = k < len(want["rows"]) and row == want["rows"][k]
            batch.check(ok, "%s row %d differs from the committed "
                        "value" % (name, k))
        batch.check(len(rows) == len(want["rows"]),
                    "%s: %d rows, want %d" % (name, len(rows),
                                              len(want["rows"])))


WORKLOADS = {cls.name: cls for cls in (Storm, Churn, LazyHogs, Paper)}
