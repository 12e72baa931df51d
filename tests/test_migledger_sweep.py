"""The crash-point sweep for crash-atomic migrations (DESIGN.md §12).

The exactly-once contract: with the ``migration_ledger`` knob on, a
migration either completes (one live copy at the destination — or,
after a sweep restage, on the sweeper's host), rolls back (one live
copy at the source), or aborts before capture (the original keeps
running).  *Never zero live copies of a captured job, never two* — no
matter which host of {source, destination, orchestrator} crashes at
which ledger phase boundary.

The matrix below crashes each role at every boundary — ``ledger.put``
(before the intent record), ``ledger.advance`` at the DUMPED /
RESTARTING / DONE writes, and ``ledger.claim`` (inside the recovery
sweep itself) — heals the cluster, runs ``recoveryd -m`` sweeps, and
asserts:

* exactly the expected live copy (host and kind) — or, for the two
  documented carve-outs, zero: a source that dies *with* the victim
  before capture, and a destination that dies *after* the commit
  (both are plain host crashes outside the migration window);
* the ledger record and every claim/archive file reaped;
* no dump files left anywhere;
* a driver that steps exactly as the reference scan would, and, for
  the cheapest cell, the identical run (consoles, clocks, counters and
  trace byte-for-byte) with the trace compiler off.

A second, smaller matrix cuts a ``loadd`` balancing move at the same
boundaries: loadd moves jobs through migrate's pipeline, so its moves
are ledgered, swept and counted the same way.
"""

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.errors import ENOENT, UnixError
from repro.programs import start_network_daemons
from repro.programs.exitcodes import EX_FENCED
from tests.conftest import scan_checked

#: the ledger on, detection/staleness shrunk so sweeps run promptly,
#: retry/poll knobs shrunk exactly as in the chaos tests
KNOBS = dict(migration_ledger=True, ledger_stale_s=3.0,
             hb_interval_s=1.0, hb_timeout_s=3.0,
             migrate_backoff_s=0.5, connect_backoff_s=0.5,
             net_read_timeout_s=5.0, restart_poll_tries=20,
             restart_poll_sleep_s=0.5, dump_poll_tries=10,
             dump_poll_sleep_s=0.5)

LEDGER_DIR = "/n/brador/usr/spool/migledger"
#: the same directory as the file server's local fs sees it
LEDGER_LOCAL = "/usr/spool/migledger"

WORKSTATIONS = ("brick", "schooner", "tanker")
ALL_HOSTS = WORKSTATIONS + ("brador",)

#: low-volume categories only (the same set as the chaos matrix): the
#: JSONL render lands in the interpreter comparison's summary
TRACE_CATEGORIES = ("fault", "hb", "dump", "restart", "migrate",
                    "recovery", "net.sock")

#: iterations that keep the victim cpuhog alive past the longest
#: cell.  The victim must be a job that survives a *relayed* restart:
#: migrationd's helper runs restart detached with the socket for
#: stdio, so a restored process that reads the terminal (the counter)
#: sees EOF from /dev/null and exits — a cpuhog never touches stdin.
VICTIM_ITERS = 50_000_000

#: The crash matrix.  Each cell: (fault rules, expected live copy).
#: migrate runs on tanker (the orchestrator), moving a cpuhog from
#: brick (source) to schooner (destination).  A rule without target=
#: crashes the host that hits the site — tanker for put/advance
#: (migrate) and the sweeper's host for claim; target= crashes a
#: bystander while the protected write goes through.  skip= selects
#: the advance boundary: 0 = DUMPED, 1 = RESTARTING, 2 = DONE.
#: Expected copies: ("<host>", "aout") — the migrated image runs
#: there; ("brick", "orig") — the intent aborted pre-capture and the
#: original job never stopped; None — a documented carve-out.
CELLS = [
    # -- ledger.put: before the intent record exists -------------------
    ("put-orchestrator-dies", "ledger.put crash n=1",
     ("brick", "orig")),
    ("put-source-dies", "ledger.put crash n=1 target=brick",
     None),  # carve-out: the victim died with its host, pre-capture
    ("put-destination-dies", "ledger.put crash n=1 target=schooner",
     ("brick", "aout")),  # ledgered rollback to the source
    # -- ledger.advance to DUMPED --------------------------------------
    ("dumped-orchestrator-dies", "ledger.advance crash n=1",
     ("tanker", "aout")),  # sweep restages from the archive
    ("dumped-source-dies", "ledger.advance crash n=1 target=brick",
     ("tanker", "aout")),  # source reboot wipes /usr/tmp; archive wins
    ("dumped-destination-dies",
     "ledger.advance crash n=1 target=schooner",
     ("brick", "aout")),
    # -- ledger.advance to RESTARTING ----------------------------------
    ("restarting-orchestrator-dies", "ledger.advance crash n=1 skip=1",
     ("tanker", "aout")),
    ("restarting-source-dies",
     "ledger.advance crash n=1 skip=1 target=brick",
     ("tanker", "aout")),
    ("restarting-destination-dies",
     "ledger.advance crash n=1 skip=1 target=schooner",
     ("brick", "aout")),
    # -- ledger.advance to DONE (the restart already landed) -----------
    ("done-orchestrator-dies", "ledger.advance crash n=1 skip=2",
     ("schooner", "aout")),  # sweep's probe finds the copy live
    ("done-source-dies", "ledger.advance crash n=1 skip=2 target=brick",
     ("schooner", "aout")),
    ("done-destination-dies",
     "ledger.advance crash n=1 skip=2 target=schooner",
     None),  # carve-out: committed, then the destination host crashed
    # -- ledger.claim: the recovery sweep itself crashes ---------------
    #    (the first rule kills the orchestrator at the DUMPED advance
    #    so that a sweep becomes necessary at all)
    ("claim-sweeper-dies",
     "ledger.advance crash n=1; ledger.claim crash n=1",
     ("tanker", "aout")),
    ("claim-source-dies",
     "ledger.advance crash n=1; ledger.claim crash n=1 target=brick",
     ("tanker", "aout")),
    ("claim-destination-dies",
     "ledger.advance crash n=1; ledger.claim crash n=1 target=schooner",
     ("tanker", "aout")),
]


def _site(**overrides):
    knobs = dict(KNOBS, **overrides)
    site = MigrationSite(costs=CostModel(**knobs),
                         workstations=WORKSTATIONS)
    site.cluster.tracer.enable(*TRACE_CATEGORIES)
    site.run_quiet()
    # the ledger spool is operator-provisioned, like a real /usr/spool
    # subdirectory (see docs/man/migledger.5.md): world-writable so an
    # unprivileged migrate can create its record directory inside
    site.machine("brador").fs.makedirs(LEDGER_LOCAL, mode=0o777)
    return site


def _start_victim(site):
    """The migration victim: a cpu-bound job on the source host."""
    return site.start("brick", "/bin/cpuhog",
                      ["cpuhog", str(VICTIM_ITERS)], uid=100)


def _drain(site, seconds=3.0):
    """A bounded drain window: in-flight relays and restarts land.

    ``run_quiet`` would raise with a live cpuhog (the cluster never
    goes idle), so every settling pause is a fixed slice of virtual
    time.
    """
    site.run(until_us=site.cluster.wall_time_us()
             + int(seconds * 1_000_000),
             max_steps=120_000_000)


def _copies(site, victim_pid):
    """Every live copy of the victim, as (host, kind) tuples."""
    token = "a.out%d" % victim_pid
    found = []
    for name in WORKSTATIONS:
        machine = site.machine(name)
        if not machine.running:
            continue
        for proc in machine.kernel.procs.all_procs():
            if proc.zombie() or not proc.is_vm():
                continue
            if proc.command == token:
                found.append((name, "aout"))
            elif name == "brick" and proc.pid == victim_pid \
                    and proc.command == "cpuhog":
                found.append((name, "orig"))
    return tuple(sorted(found))


def _ledger_leftovers(site):
    """Every file still inside the ledger on the server's own disk."""
    fs = site.machine("brador").fs
    try:
        root = fs.resolve_local(LEDGER_LOCAL)
    except UnixError:
        return ()
    found = []
    for sub in sorted(fs.entry_names(root)):
        try:
            subdir = fs.resolve_local("%s/%s" % (LEDGER_LOCAL, sub))
        except UnixError:
            continue
        found.extend("%s/%s" % (sub, entry)
                     for entry in sorted(fs.entry_names(subdir)))
    return tuple(found)


def _orphan_dump_files(site):
    found = []
    for name in ALL_HOSTS:
        machine = site.machine(name)
        try:
            tmp = machine.fs.resolve_local("/usr/tmp")
        except UnixError:
            continue
        for entry in sorted(machine.fs.entry_names(tmp)):
            if entry.startswith(("a.out", "files", "stack")):
                found.append("%s:%s" % (name, entry))
    return tuple(found)


def _heal_and_sweep(site, rounds=8, attempts=3):
    """Reboot whatever died, sweep the ledger, repeat until settled.

    One sweeper at a time (each bounded to ``rounds`` scan rounds), so
    claim-epoch growth stays deterministic; a sweeper that crashes
    with its host is replaced on the next attempt.
    """
    for __ in range(attempts):
        for name in WORKSTATIONS:
            machine = site.machine(name)
            if not machine.running:
                site.cluster.reboot_host(name)
                start_network_daemons(machine)
        _drain(site, 2.0)
        sweeper = site.machine("tanker").spawn(
            "/bin/recoveryd", ["recoveryd", "-m", LEDGER_DIR,
                               "-i", "1", "-n", str(rounds)],
            uid=0, cwd="/tmp")
        site.run_until(
            lambda: sweeper.exited
            or not site.machine("tanker").running,
            max_steps=120_000_000)
        if sweeper.exited and not any(
                name.endswith("/rec")
                for name in _ledger_leftovers(site)):
            break
    # bring any bystander that died during the final sweep back too:
    # the exactly-once count below is over a fully healed cluster
    for name in WORKSTATIONS:
        machine = site.machine(name)
        if not machine.running:
            site.cluster.reboot_host(name)
            start_network_daemons(machine)
    _drain(site, 3.0)


def _run_cell(spec):
    site = _site()
    victim = _start_victim(site)
    plan = site.cluster.inject_faults(spec, seed=77)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", use_daemon=True,
                          wait_resumed=False)
    site.run_until(
        lambda: handle.exited or not site.machine("tanker").running,
        max_steps=120_000_000)
    _drain(site, 3.0)
    _heal_and_sweep(site)
    return _summarize(site, victim, plan)


def _summarize(site, victim, plan):
    perf = site.cluster.perf
    snapshot = perf.snapshot()
    return {
        "copies": _copies(site, victim.pid),
        "leftovers": _ledger_leftovers(site),
        "orphans": _orphan_dump_files(site),
        "fired": plan.fired(),
        "ml": {key: value for key, value in snapshot.items()
               if key.startswith("ml_")},
        "host_crashes": perf.host_crashes,
        "host_reboots": perf.host_reboots,
        "clocks_us": tuple(site.machine(n).clock.now_us
                           for n in ALL_HOSTS),
        "consoles": tuple(site.console(n) for n in ALL_HOSTS),
        "trace_jsonl": site.cluster.tracer.to_jsonl(),
    }


def _check_cell(name, run_cell, spec, expected):
    """Run one cell, checked against the reference scan, and check the
    exactly-once contract."""
    summary = scan_checked(lambda: run_cell(spec))
    want = () if expected is None else (expected,)
    assert summary["copies"] == want, \
        "%s: live copies %r, want %r" % (name, summary["copies"], want)
    assert summary["leftovers"] == (), \
        "%s: unreaped ledger files %r" % (name, summary["leftovers"])
    assert summary["orphans"] == (), \
        "%s: leftover dump files %r" % (name, summary["orphans"])
    assert summary["fired"], "%s: the fault plan never fired" % name


@pytest.mark.parametrize("name,spec,expected", CELLS,
                         ids=[c[0] for c in CELLS])
def test_crash_point_cell_on_both_engines(name, spec, expected):
    _check_cell(name, _run_cell, spec, expected)


def test_crash_point_cell_on_the_interpreter(interpreter):
    """The cheapest cell that runs a whole ledgered move (committed at
    DONE, then the destination dies) is the identical run with the
    trace compiler off."""
    spec = {name: spec for name, spec, __ in CELLS}["done-destination-dies"]
    assert interpreter(_run_cell, spec) == _run_cell(spec)


# -- loadd-orchestrated moves ----------------------------------------------
#
# loadd moves jobs through the same pipeline as migrate, so with the
# ledger on a balancing move is crash-atomic too.  loadd runs on the
# source: brick is both source and orchestrator, and a rule without
# target= crashes brick.  A crash of brick before the intent record
# exists kills the victim with its host pre-capture — the
# put-source-dies carve-out above — so every row below keeps exactly
# one live copy.

#: balance every second, and count any job with 0.1 s of CPU as a
#: candidate
LOADD_KNOBS = dict(loadd_interval_s=1.0, loadd_min_cpu_s=0.1)

#: loadd rounds per daemon: the move lands in the first round that
#: sees schooner's report, and the rest find nothing to balance
LOADD_ROUNDS = 4

LOADD_CELLS = [
    ("loadd-put-destination-dies",
     "ledger.put crash n=1 target=schooner",
     ("brick", "aout")),  # ledgered rollback to the source
    ("loadd-dumped-source-dies", "ledger.advance crash n=1",
     ("tanker", "aout")),  # sweep restages from the archive
    ("loadd-restarting-source-dies", "ledger.advance crash n=1 skip=1",
     ("tanker", "aout")),
    ("loadd-done-source-dies", "ledger.advance crash n=1 skip=2",
     ("schooner", "aout")),  # sweep's probe finds the copy live
]


def _loadd_move(spec=""):
    """loadd on brick and schooner; brick's loadd moves the victim.

    A filler hog makes brick two jobs busier than schooner, so the
    policy moves exactly one job: its busiest candidate, the victim,
    which got a second's head start.  Returns (site, victim, plan).
    """
    site = _site(**LOADD_KNOBS)
    victim = _start_victim(site)
    _drain(site, 1.0)
    site.start("brick", "/bin/cpuhog", ["cpuhog", str(VICTIM_ITERS)],
               uid=100)
    plan = site.cluster.inject_faults(spec, seed=77)
    names = ("brick", "schooner")
    daemons = site.start_loadd(hosts=names, rounds=LOADD_ROUNDS)
    site.run_until(
        lambda: all(daemon.exited or not site.machine(name).running
                    for daemon, name in zip(daemons, names)),
        max_steps=120_000_000)
    _drain(site, 3.0)
    return site, victim, plan


def _run_loadd_cell(spec):
    site, victim, plan = _loadd_move(spec)
    _heal_and_sweep(site)
    return _summarize(site, victim, plan)


@pytest.mark.parametrize("name,spec,expected", LOADD_CELLS,
                         ids=[c[0] for c in LOADD_CELLS])
def test_loadd_crash_point_cell_on_both_engines(name, spec, expected):
    _check_cell(name, _run_loadd_cell, spec, expected)


# -- the no-ledger baseline (the documented lost-job window) ---------------
#
# With the ledger off, an orchestrator-host crash between the dump and
# the restart loses the job outright: the victim is dead, its dump
# files are orphaned on the source, and no daemon is responsible for
# them.  The test pair pins that baseline AND the ledger's win on the
# byte-for-byte identical crash.


def _orchestrator_death_mid_pipeline(ledger_on):
    site = _site(migration_ledger=ledger_on)
    victim = _start_victim(site)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", use_daemon=True,
                          wait_resumed=False)

    def dump_landed():
        try:
            site.machine("brick").fs.resolve_local(
                "/usr/tmp/a.out%d" % victim.pid)
            return True
        except UnixError:
            return False

    site.run_until(dump_landed, max_steps=120_000_000)
    site.cluster.crash_host("tanker")
    _heal_and_sweep(site)
    return site, victim


def _orchestrator_death_outcome(ledger_on):
    """What the orchestrator's death left behind."""
    site, victim = _orchestrator_death_mid_pipeline(ledger_on)
    return {"pid": victim.pid,
            "copies": _copies(site, victim.pid),
            "orphans": _orphan_dump_files(site),
            "leftovers": _ledger_leftovers(site),
            "sweeps": site.cluster.perf.ml_sweeps,
            "tanker_console": site.console("tanker")}


def test_orchestrator_death_loses_the_job_without_the_ledger():
    outcome = _orchestrator_death_outcome(ledger_on=False)
    pid = outcome["pid"]
    # the documented loss: nobody runs the job anywhere...
    assert outcome["copies"] == ()
    # ...and its dump files rot on the source with no owner
    assert outcome["orphans"] == ("brick:a.out%d" % pid,
                                  "brick:files%d" % pid,
                                  "brick:stack%d" % pid)
    assert outcome["sweeps"] == 0


def test_orchestrator_death_recovers_the_job_with_the_ledger():
    outcome = _orchestrator_death_outcome(ledger_on=True)
    # the same crash, ledgered: the sweep restages the archived dump
    # on the surviving sweeper host — exactly one live copy, no debris
    assert outcome["copies"] == (("tanker", "aout"),)
    assert outcome["orphans"] == ()
    assert outcome["leftovers"] == ()
    assert outcome["sweeps"] == 1
    assert "recoveryd: recovered brick:%d" % outcome["pid"] \
        in outcome["tanker_console"]


@pytest.mark.parametrize("ledger_on", (False, True),
                         ids=("no-ledger", "ledger"))
def test_orchestrator_death_outcome_is_the_same_on_both_drivers(ledger_on):
    """The crash pair keeps to the reference scan's schedule."""
    scan_checked(lambda: _orchestrator_death_outcome(ledger_on))


# -- a live orchestrator fenced mid-pipeline --------------------------------


@pytest.mark.parametrize("sweeper_host, delay", [
    ("schooner", 3), ("schooner", 6), ("brick", 7), ("brick", 10),
    ("schooner", 10)])
def test_migrate_stands_down_when_a_sweep_fences_its_record(sweeper_host,
                                                            delay):
    """Held just after its dump (``migstat -m`` shows the record), a
    migrate's record goes stale; a recovery sweep claims it and
    restages the job on its own host, and migrate stands down
    (EX_FENCED) at its next phase advance instead of racing the sweep.
    Held longer, the advance lands while the sweep reaps the record
    (6–7 s) or after it (10 s): a settled record supersedes the
    pipeline just as a claim does, and the advance never resurrects
    it."""
    site = _site()
    assert site.run_command("schooner", ["migstat", "-m"]) == 0
    assert "migration ledger: empty" in site.console("schooner")
    victim = _start_victim(site)
    plan = site.cluster.inject_faults(
        "ledger.advance delay n=1 delay=%d" % delay, seed=77)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", use_daemon=True,
                          wait_resumed=False)
    sweeper = site.machine(sweeper_host).spawn(
        "/bin/recoveryd", ["recoveryd", "-m", LEDGER_DIR, "-i", "1",
                           "-n", "20"], uid=0, cwd="/tmp")
    site.run_until(plan.fired, max_steps=120_000_000)
    assert site.run_command("schooner", ["migstat", "-m"]) == 0
    rows = [line.split() for line in site.console("schooner").splitlines()
            if line.startswith("brick:")]
    # mig id, phase, epoch, destination, orchestrator (then its age)
    assert [row[:5] for row in rows] == [
        ["brick:%d" % victim.pid, "intent", "0", "schooner", "tanker"]]
    site.run_until(lambda: handle.exited and sweeper.exited,
                   max_steps=120_000_000)
    assert handle.exit_status == EX_FENCED
    assert "fenced by a recovery sweep during dump; standing down" \
        in site.console("tanker")
    assert _copies(site, victim.pid) == ((sweeper_host, "aout"),)
    assert _ledger_leftovers(site) == ()
    assert _orphan_dump_files(site) == ()


# -- unit drives: fence atomicity and the fenced-restage discipline --------
#
# These run the ledger coroutines against a scripted kernel, pinning
# windows the integration matrix cannot schedule deterministically: a
# claim landing *inside* an advance's check-then-rename pair, and a
# sweeper fenced between its restage and its DONE advance.

from repro.core.formats import (ChunkManifest, FilesInfo,  # noqa: E402
                                dump_file_names)
from repro.kernel.constants import O_RDONLY  # noqa: E402
from repro.kernel.signals import SIGKILL  # noqa: E402
from repro.net.migledger import (LEDGER_FENCED, MigRecord,  # noqa: E402
                                 PH_ABORTED, PH_DONE, PH_DUMPED,
                                 PH_RESTARTING, ledger_advance,
                                 ledger_reap)
from repro.programs.recoveryd import _sweep_one  # noqa: E402
from repro.store import DIGEST_BYTES  # noqa: E402


def _drive(gen, handler):
    """Run a syscall coroutine against ``handler``; (value, calls)."""
    calls = []
    try:
        request = next(gen)
        while True:
            calls.append(request)
            request = gen.send(handler(request))
    except StopIteration as done:
        return done.value, calls


def test_advance_tags_scratch_file_with_the_fence_epoch():
    """Concurrent writers must not share one scratch name: each
    advance stages through rec.<fence>.tmp, unique among live
    writers (rec.tmp would let a loser's rename ship the winner's
    bytes)."""
    record = MigRecord("brick", 7, "schooner", "tanker",
                       phase=PH_DUMPED)

    def handler(request):
        if request[0] == "readdir":
            return ("dump.ok", "rec")
        if request[0] == "time":
            return 42
        if request[0] == "open":
            return 3
        if request[0] == "write":
            return len(request[2])
        return 0

    result, calls = _drive(
        ledger_advance("L", record, PH_RESTARTING, fence_epoch=5),
        handler)
    assert result == 0
    opens = [c for c in calls if c[0] == "open"]
    assert opens[0][1] == "L/rec.5.tmp"
    assert ("rename", "L/rec.5.tmp", "L/rec") in calls


def test_advance_stands_down_when_claimed_mid_write():
    """A claim created between the advance's pre-check readdir and
    its rename is invisible to the first check; the post-write
    re-check must turn it into a stand-down instead of letting a
    fenced writer keep driving the pipeline."""
    record = MigRecord("brick", 7, "schooner", "tanker",
                       phase=PH_DUMPED)
    readdirs = [("dump.ok", "rec"), ("dump.ok", "rec", "claim.1")]

    def handler(request):
        if request[0] == "readdir":
            return readdirs.pop(0)
        if request[0] == "time":
            return 42
        if request[0] == "open":
            return 3
        if request[0] == "write":
            return len(request[2])
        return 0

    result, calls = _drive(ledger_advance("L", record, PH_DONE),
                           handler)
    assert result == LEDGER_FENCED
    assert not readdirs, "the post-write fence re-check never ran"
    # the (unavoidable) write happened but was never advertised
    assert not any(c[0] == "perf_note" for c in calls)


def test_advance_never_resurrects_a_settled_record():
    """A record a sweep has reaped (no ``rec``) or is reaping (past
    the capture, no ``dump.ok``) fences the advance, with nothing
    written; an unlistable record directory is reported unreachable,
    not superseded."""
    record = MigRecord("brick", 7, "schooner", "tanker")
    for phase, names in ((PH_DUMPED, ()),
                         (PH_ABORTED, ("dump.ok",)),
                         (PH_DUMPED, ("rec", "dump.stack")),
                         (PH_RESTARTING, ("rec",)),
                         (PH_DONE, ("rec", "dump.aout")),
                         (PH_DUMPED, -ENOENT)):

        def handler(request, names=names):
            if request[0] == "readdir":
                return names
            if request[0] == "write":
                return len(request[2])
            return 3 if request[0] == "open" else 0

        result, calls = _drive(ledger_advance("L", record, phase),
                               handler)
        assert result == (-ENOENT if names == -ENOENT
                          else LEDGER_FENCED), (phase, names)
        assert [c[0] for c in calls] == ["fault_point", "readdir"]


class _LedgerDir:
    """A scripted kernel over one in-memory record directory."""

    def __init__(self, files):
        self.files = dict(files)
        self.fds = {}

    def __call__(self, request):
        name = request[0]
        if name == "readdir":
            return tuple(sorted(self.files))
        if name == "unlink":
            return 0 if self.files.pop(request[1][2:], None) is not None \
                else -ENOENT
        if name == "open":
            blob = self.files.get(request[1][2:])
            if blob is None:
                return -ENOENT
            fd = 3 + len(self.fds)
            self.fds[fd] = blob
            return fd
        if name == "read":
            data, self.fds[request[1]] = self.fds[request[1]], b""
            return data
        if name == "write":
            return len(request[2])
        return 0


def test_reap_cut_short_is_finished_by_the_next_sweep():
    """The reap unlinks ``dump.ok`` first and ``rec`` last.  Cut short
    after its first unlink (the reaping host crashed), it leaves a
    DONE record that fences a late advance and that the next sweep's
    straggler cleanup reaps, claims and archive included."""
    done = MigRecord("brick", 7, "tanker", "tanker", phase=PH_DONE,
                     epoch=1)
    ledger = _LedgerDir({"rec": done.pack(), "claim.1": b"",
                         "dump.aout": b"m", "dump.files": b"m",
                         "dump.stack": b"m", "dump.ok": b"ok\n",
                         "rec.1.tmp": b""})
    __, calls = _drive(ledger_reap("L"), ledger)
    assert [c[1] for c in calls if c[0] == "unlink"] == [
        "L/dump.ok", "L/claim.1", "L/dump.aout", "L/dump.files",
        "L/dump.stack", "L/rec.1.tmp", "L/rec"]

    ledger = _LedgerDir({"rec": done.pack(), "claim.1": b"",
                         "dump.aout": b"m", "dump.ok": b"ok\n"})
    reap = ledger_reap("L")
    request = next(reap)
    while request[0] != "unlink":
        request = reap.send(ledger(request))
    ledger(request)  # the first unlink lands; the host dies here
    reap.close()
    assert sorted(ledger.files) == ["claim.1", "dump.aout", "rec"]
    late = MigRecord("brick", 7, "schooner", "tanker")
    result, __ = _drive(ledger_advance("L", late, PH_RESTARTING), ledger)
    assert result == LEDGER_FENCED
    assert ledger.files["rec"] == done.pack()
    __, calls = _drive(_sweep_one("L", "brick"), ledger)
    assert ledger.files == {}
    assert ("perf_note", "ml_reaps") in calls


class _SweepScript:
    """A scripted kernel for one ``_sweep_one`` run.

    The record (brick:7 -> schooner, orchestrator dead) is at DUMPED
    with its archive committed; every probe comes back clear, the
    restage succeeds, and then the DONE advance finds ``claim.2`` —
    a peer superseded this sweeper mid-restage.  ``final_record`` is
    what the fenced sweeper re-reads.
    """

    DIRECTORY = "%s/brick:7" % LEDGER_DIR

    def __init__(self, final_record):
        base = MigRecord("brick", 7, "schooner", "gone",
                         phase=PH_DUMPED, epoch=0, time_s=0)
        self.rec_blobs = [base.pack(), base.pack(),
                          final_record.pack()]
        digests = [bytes([i]) * DIGEST_BYTES for i in (1, 2, 3)]
        files_blob = FilesInfo(hostname="brick", cwd="/tmp").pack()
        self.store = {digests[0]: b"AOUT",
                      digests[1]: files_blob,
                      digests[2]: b"STK!"}
        self.manifests = {
            "%s/dump.aout" % self.DIRECTORY:
                ChunkManifest(4096, 4, digests[:1]).pack(),
            "%s/dump.files" % self.DIRECTORY:
                ChunkManifest(4096, len(files_blob),
                              digests[1:2]).pack(),
            "%s/dump.stack" % self.DIRECTORY:
                ChunkManifest(4096, 4, digests[2:]).pack(),
        }
        names = ("rec", "dump.aout", "dump.files", "dump.stack",
                 "dump.ok")
        self.readdirs = [names,                           # claim
                         names + ("claim.1",),            # RESTARTING pre
                         names + ("claim.1",),            # RESTARTING post
                         names + ("claim.1", "claim.2")]  # DONE: fenced
        self.fds = {}
        self.next_fd = 3

    def __call__(self, request):
        name = request[0]
        if name == "readdir":
            return self.readdirs.pop(0)
        if name == "hb_status":
            return 1  # orchestrator and destination both suspected
        if name == "stat":
            return 0  # dump.ok present (never used as an object)
        if name == "time":
            return 100
        if name == "sysctl":
            return {"restart_poll_tries": 1,
                    "restart_poll_sleep_s": 0}[request[1]]
        if name == "open":
            path, flags = request[1], request[2]
            if path == dump_file_names(7)[0] and flags == O_RDONLY:
                return -2  # -ENOENT: the restart consumed the dump
            if path.endswith("/rec"):
                blob = self.rec_blobs.pop(0)
            else:
                blob = self.manifests.get(path, b"")
            fd, self.next_fd = self.next_fd, self.next_fd + 1
            self.fds[fd] = blob
            return fd
        if name == "read":
            data, self.fds[request[1]] = self.fds[request[1]], b""
            return data
        if name == "write":
            return len(request[2])
        if name == "store_get":
            return self.store[request[1]]
        if name == "spawn":
            return 99  # the restart child's pid
        return 0


def test_sweeper_fenced_after_restage_kills_its_copy():
    """The exactly-once discipline when a peer claims mid-restage:
    unless the new owner's record shows it committed to this very
    copy, the superseded sweeper must kill the copy it just made —
    the peer probed 'clear' before the copy appeared and is restaging
    its own."""
    claimant = MigRecord("brick", 7, "brick", "brick",
                         phase=PH_RESTARTING, epoch=2, time_s=101)
    script = _SweepScript(claimant)
    result, calls = _drive(_sweep_one(script.DIRECTORY, "tanker"),
                           script)
    assert ("kill", 99, SIGKILL) in calls
    # fenced: neither counted as a sweep nor reaped (not ours to reap)
    assert ("perf_note", "ml_sweeps") not in calls
    assert not any(c[0] == "unlink" and c[1].endswith("/rec")
                   for c in calls)


def test_sweeper_fenced_after_commit_to_its_copy_keeps_it():
    """The flip side: the later claimant probed the copy live and
    committed DONE to it — killing it then would leave zero live
    copies, so the superseded sweeper keeps it."""
    committed = MigRecord("brick", 7, "tanker", "brick",
                          phase=PH_DONE, epoch=2, time_s=101)
    script = _SweepScript(committed)
    result, calls = _drive(_sweep_one(script.DIRECTORY, "tanker"),
                           script)
    assert not any(c[0] == "kill" for c in calls)
