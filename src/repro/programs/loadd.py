"""``loadd`` — the automatic load-balancing daemon (section 8).

The paper's closing application: "CPU bound jobs can be moved from
busy nodes of the network to others that are idle", but "the migrate
application may be too slow in terms of real time response".  loadd
is the daemonized answer: it never touches rsh — remote work goes
through ``migrationd`` at its well-known port, exactly the section
6.4 proposal.

One loadd runs per participating host, told its peers on the command
line.  Each round it:

1. samples local load via ``getproctab`` (runnable VM jobs and their
   CPU consumption) and spools its own ``LOADREPORT``;
2. broadcasts the report to every peer's ``loadd-recv`` at the
   well-known port — skipping peers the heartbeat detector already
   suspects dead, so a crashed host costs nothing but its absence;
3. rebuilds the cluster load view from the spool, dropping reports
   that are corrupt (unlinked and counted, never fatal), stale
   (older than ``load_stale_s`` — a partitioned peer ages out), or
   from hb-suspected hosts;
4. asks the threshold policy (:mod:`repro.apps.policy`) for moves
   and executes only the ones whose *source is this host* — only the
   owner of a job may dump it, which is what keeps two balancers from
   ever duplicating a process.  A destination it just fed is assumed
   one job busier per job landed there, for ``SETTLE_ROUNDS`` rounds,
   damping the herd effect of re-balancing against a peer's
   not-yet-updated report;
5. moves a job through the shared migration pipeline
   (:func:`repro.programs.pipeline.move`, the one ``migrate`` runs),
   with this host as both source and orchestrator and
   ``migrationd-run`` as the remote runner: the same retries, restart
   ack and rollback to this host when the destination never takes the
   job, and — with the ``migration_ledger`` knob on — the same intent
   record, so a crash mid-move is finished or rolled back by
   ``recoveryd -m``.

The companion ``loadd-recv`` process owns the well-known port: it
blocks in accept (so an idle cluster still quiesces), reads one
report per connection, validates it, and spools it for the next
balancing round.  Fault sites ``loadd.send`` / ``loadd.recv`` inject
report loss, delay, corruption, crashes and partitions on either
side of the exchange.

Usage: ``loadd peer...`` (the local host may appear in the peer list
and is ignored there).  Every setting is a ``sysctl`` knob, read once
at start in this order: ``loadd_interval_s`` and ``loadd_rounds``
(the schedule), then ``loadd_min_cpu_s``, ``loadd_max_moves`` and
``loadd_imbalance`` (the :class:`~repro.apps.policy.ThresholdPolicy`).
"""

from repro.apps.policy import HostLoad, ThresholdPolicy
from repro.net.loadd import LOADD, MAX_CANDIDATES, SPOOL_DIR, LoadReport
from repro.net.report import (is_stale, listen_for_reports, next_report,
                              read_spooled, send_report)
from repro.programs.base import parse_options, print_err, write_file
from repro.programs.exitcodes import EX_FAIL, EX_OK
from repro.programs.pipeline import move

USAGE = "usage: loadd peer..."

#: rounds a successful move keeps inflating the destination's view
#: entry: the peer's own report reflects the arrival only after its
#: next sample crosses the wire, and until then re-balancing against
#: the stale count would re-trigger the same decision (the classic
#: herd effect).  Two rounds cover sample + wire latency; an
#: overestimate is safe — it only delays the next move by a round.
SETTLE_ROUNDS = 2


def loadd_main(argv, env):
    __, positional = parse_options(argv, {})
    if not positional:
        yield from print_err(USAGE)
        return EX_FAIL
    interval = yield ("sysctl", "loadd_interval_s")
    rounds = yield ("sysctl", "loadd_rounds")
    policy = ThresholdPolicy(
        min_cpu_seconds=(yield ("sysctl", "loadd_min_cpu_s")),
        max_moves_per_round=(yield ("sysctl", "loadd_max_moves")),
        imbalance_threshold=(yield ("sysctl", "loadd_imbalance")))

    yield ("hb_start",)
    local = yield ("gethostname",)
    peers = [host for host in positional if host != local]
    yield ("mkdir", SPOOL_DIR, 0o755)  # EEXIST is fine
    # the receiver owns the well-known port; detached, so it neither
    # zombifies nor dies with this (finite-rounds) policy loop.  If a
    # receiver is already bound it exits quietly.
    yield ("spawn", "/bin/loadd-recv", ["loadd-recv"], None, True)

    settling = []  # (destination, rounds left) per landed job
    for round_no in range(rounds):
        yield ("sleep", interval)
        yield from _drain_children()  # e.g. timed-out move relays
        report = yield from _sample(local)
        yield from write_file("%s/%s" % (SPOOL_DIR, local),
                              report.pack())
        for peer in peers:
            yield from send_report(LOADD, report, peer)
        view = yield from _build_view(local, peers)
        settling = _apply_settling(view, settling)
        landed = yield from _balance(policy, view, local, round_no)
        settling += [(host, SETTLE_ROUNDS) for host in landed]
        yield ("perf_note", "ld_rounds")
    return EX_OK


def _apply_settling(view, settling):
    """Account for this host's own in-flight moves in a fresh view,
    one job per landing; the landings still to cover next round."""
    for host, __ in settling:
        if host in view:
            entry = view[host]
            view[host] = HostLoad(host, entry.runnable + 1,
                                  entry.candidates)
    return [(host, left - 1) for host, left in settling if left > 1]


def _sample(local):
    """Snapshot this host's load as a LoadReport."""
    now_s = yield ("time",)
    rows = yield ("getproctab",)
    jobs = [(row["pid"], row["utime_us"] + row["stime_us"])
            for row in rows if row.get("vm") and row["state"] != "Z"]
    candidates = sorted(jobs, key=lambda j: (-j[1], j[0]))
    candidates = [(pid, cpu_us // 1000)
                  for pid, cpu_us in candidates[:MAX_CANDIDATES]]
    return LoadReport(local, now_s, len(jobs), candidates)


def _build_view(local, peers):
    """The cluster load view from the spool, staleness-filtered."""
    now_s = yield ("time",)
    stale_s = yield ("sysctl", "load_stale_s")
    view = {}
    for host in [local] + peers:
        if host != local:
            suspected = yield ("hb_status", host)
            if suspected == 1:
                continue
        report = yield from read_spooled(
            LOADD, "%s/%s" % (SPOOL_DIR, host), host)
        if report is None:
            continue  # no report from this peer yet, or a bad one
        if is_stale(report, now_s, stale_s):
            yield ("perf_note", "ld_stale_drops")
            continue
        view[host] = HostLoad(
            host=host, runnable=report.runnable,
            candidates=tuple((pid, cpu_ms / 1000.0)
                             for pid, cpu_ms in report.candidates))
    return view


def _balance(policy, view, local, round_no):
    """One decision round: select and execute this host's moves.

    Returns the destinations that received a job, so the caller can
    inflate their view entries until their own reports catch up.
    """
    round_id = "%s:%d" % (local, round_no)
    yield ("trace_span", "loadd", "B", round_id)
    ok = 1
    landed = []
    for choice in policy.select(view):
        if choice.source != local:
            # only the owner dumps its own jobs: a decision about
            # another host is that host's loadd's business
            continue
        yield ("trace_mark", "loadd", "move",
               "%s:%d" % (local, choice.pid))
        status = yield from move(choice.pid, local, choice.destination,
                                 local, "migrationd-run")
        if status == EX_OK:
            yield ("perf_note", "ld_moves")
            landed.append(choice.destination)
        else:
            yield ("perf_note", "ld_move_failures")
            ok = 0
    yield ("trace_span", "loadd", "E", round_id, ok)
    return landed


def _drain_children():
    """Reap finished children without blocking (a successful remote
    restart leaves its migrationd-run relay to time out on the reply
    sentinel — the relayed restart became the migrated process and
    will never exit — so the relay dies a round or two later)."""
    while True:
        reaped = yield ("reap",)
        if not isinstance(reaped, tuple):
            return


# -- the receiver -----------------------------------------------------------


def loadd_recv_main(argv, env):
    """Own the well-known port; spool one report per connection."""
    sock = yield from listen_for_reports(LOADD)
    if sock is None:
        return EX_OK  # a receiver is already running: nothing to do
    yield ("mkdir", SPOOL_DIR, 0o755)
    timeout = yield ("sysctl", "net_read_timeout_s")
    while True:
        report, blob = yield from next_report(LOADD, sock, timeout)
        yield from write_file("%s/%s" % (SPOOL_DIR, report.host),
                              blob)
        yield ("perf_note", "ld_reports_recv")
