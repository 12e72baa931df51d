"""Drivers that regenerate every figure of the paper's section 6.

Conventions:

* every driver builds fresh machines (no state leaks between runs);
* all times are **virtual** microseconds from the simulation clock —
  the cost model is calibrated, the comparisons are measured;
* each driver returns a dict with a ``rows`` list (one dict per
  bar/series of the figure) carrying ``measured`` and ``paper``
  values, so callers can print tables or assert shapes.
"""

from repro.costmodel import CostModel
from repro.core.api import MigrationSite
from repro.core.formats import dump_file_names
from repro.kernel.signals import SIGDUMP, SIGQUIT
from repro.machine import Cluster


# -- shared helpers -----------------------------------------------------------


def _counter_site(costs=None, daemons=False):
    site = MigrationSite(costs=costs, daemons=daemons)
    if daemons:
        site.run_quiet()
    handle = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    return site, handle


def _run_workload(costs, factory, name):
    """System CPU time of a native workload on a fresh machine."""
    cluster = Cluster(costs)
    machine = cluster.add_machine("brick")
    machine.fs.install_file("/etc/target", b"x", mode=0o644)
    machine.install_native_program(name, factory)
    handle = machine.spawn("/bin/%s" % name, uid=100, cwd="/tmp")
    cluster.run_until(lambda: handle.exited)
    assert handle.exit_status == 0
    return handle.proc.stime_us


# -- Figure 1: overhead of the modified system calls ---------------------------


OPEN_CLOSE_ITERATIONS = 100
CHDIR_ITERATIONS = 100


def _open_close_workload(argv, env):
    """100 open/close pairs of a certain file (paper section 6.1)."""
    from repro.kernel.constants import O_RDONLY
    for __ in range(OPEN_CLOSE_ITERATIONS):
        fd = yield ("open", "/etc/target", O_RDONLY, 0)
        if fd < 0:
            return 1
        yield ("close", fd)
    return 0


def _chdir_workload(argv, env):
    """100 sets of three chdir() calls: an absolute path, "..", "."
    — "all cases of combining the new value with the old one"."""
    for __ in range(CHDIR_ITERATIONS):
        result = yield ("chdir", "/usr/tmp")
        if result < 0:
            return 1
        yield ("chdir", "..")
        yield ("chdir", ".")
    return 0


def fig1(costs=None):
    """Figure 1: modified vs unmodified open()/close() and chdir()."""
    base = costs or CostModel()
    modified = base.with_overrides(track_names=True)
    original = base.with_overrides(track_names=False)
    rows = []
    for label, factory, iterations, paper_ratio in (
            ("open/close", _open_close_workload,
             OPEN_CLOSE_ITERATIONS, 1.44),
            ("chdir", _chdir_workload, CHDIR_ITERATIONS, 1.36)):
        cpu_mod = _run_workload(modified, factory, "w_" + label[:2])
        cpu_orig = _run_workload(original, factory, "w_" + label[:2])
        rows.append({
            "call": label,
            "original_us_per_iter": cpu_orig / iterations,
            "modified_us_per_iter": cpu_mod / iterations,
            "measured": cpu_mod / cpu_orig,
            "paper": paper_ratio,
        })
    return {"figure": "1", "title": "Performance of modified system "
                                    "calls (normalized to original)",
            "rows": rows}


# -- Figure 2: dumping a process -------------------------------------------------


def _kill_via_signal(sig, costs=None):
    """Kill the test program with a bare signal; (real, cpu) in us.

    CPU is everything consumed system-wide during the kill — which is
    the victim's in-kernel dump/core work.
    """
    site, handle = _counter_site(costs)
    machine = site.machine("brick")
    real0 = machine.clock.now_us
    cpu0 = handle.proc.cpu_us()
    machine.kernel.post_signal(handle.proc, sig)
    site.run_until(lambda: handle.exited)
    return (machine.clock.now_us - real0,
            handle.proc.cpu_us() - cpu0)


def _kill_via_dumpproc(costs=None, poll_sleep=None):
    if poll_sleep is not None:
        costs = (costs or CostModel()).with_overrides(
            dump_poll_sleep_s=poll_sleep)
    site, handle = _counter_site(costs)
    machine = site.machine("brick")
    real0 = machine.clock.now_us
    cpu0 = handle.proc.cpu_us()
    tool = machine.spawn("/bin/dumpproc",
                         ["dumpproc", "-p", str(handle.pid)],
                         uid=100, cwd="/tmp")
    site.run_until(lambda: tool.exited)
    assert tool.exit_status == 0
    real = machine.clock.now_us - real0
    cpu = tool.proc.cpu_us() + (handle.proc.cpu_us() - cpu0)
    return real, cpu


def fig2(costs=None):
    """Figure 2: SIGQUIT vs SIGDUMP vs dumpproc."""
    q_real, q_cpu = _kill_via_signal(SIGQUIT, costs)
    d_real, d_cpu = _kill_via_signal(SIGDUMP, costs)
    p_real, p_cpu = _kill_via_dumpproc(costs)
    rows = [
        {"case": "SIGQUIT", "real_us": q_real, "cpu_us": q_cpu,
         "measured_real": 1.0, "measured_cpu": 1.0,
         "paper_real": 1.0, "paper_cpu": 1.0},
        {"case": "SIGDUMP", "real_us": d_real, "cpu_us": d_cpu,
         "measured_real": d_real / q_real,
         "measured_cpu": d_cpu / q_cpu,
         "paper_real": 3.0, "paper_cpu": 3.0},
        {"case": "dumpproc", "real_us": p_real, "cpu_us": p_cpu,
         "measured_real": p_real / q_real,
         "measured_cpu": p_cpu / q_cpu,
         "paper_real": 6.0, "paper_cpu": 4.0},
    ]
    return {"figure": "2", "title": "SIGQUIT vs SIGDUMP vs dumpproc "
                                    "(normalized to SIGQUIT)",
            "rows": rows, "anchor_sigdump_real_s": d_real / 1e6}


# -- Figure 3: restarting a process -------------------------------------------------


def fig3(costs=None):
    """Figure 3: execve() vs rest_proc() vs restart."""
    # build a dump of the test program (killed at its first prompt)
    site, handle = _counter_site(costs)
    machine = site.machine("brick")
    site.dumpproc("brick", handle.pid, uid=100)

    # baseline: execve() of the a.outXXXXX file, timed in-kernel
    aout_path = dump_file_names(handle.pid)[0]
    runner = machine.spawn(aout_path, ["a.out"], uid=100, cwd="/tmp")
    exec_rec = machine.kernel.timings("execve")[-1]
    # that copy now waits for input; get rid of it
    from repro.kernel.signals import SIGKILL
    machine.kernel.post_signal(runner.proc, SIGKILL)
    site.run_until(lambda: runner.exited)

    # restart (which calls rest_proc(), timed in-kernel)
    real0 = machine.clock.now_us
    restarted = site.restart("brick", handle.pid, uid=100)
    assert restarted.proc.is_vm()
    restart_real = machine.clock.now_us - real0
    restart_cpu = restarted.proc.cpu_us()
    rest_rec = machine.kernel.timings("rest_proc")[-1]

    rows = [
        {"case": "execve", "real_us": exec_rec["real_us"],
         "cpu_us": exec_rec["cpu_us"],
         "measured_real": 1.0, "measured_cpu": 1.0,
         "paper_real": 1.0, "paper_cpu": 1.0},
        {"case": "rest_proc", "real_us": rest_rec["real_us"],
         "cpu_us": rest_rec["cpu_us"],
         "measured_real": rest_rec["real_us"] / exec_rec["real_us"],
         "measured_cpu": rest_rec["cpu_us"] / exec_rec["cpu_us"],
         "paper_real": 1.2, "paper_cpu": 1.2},
        {"case": "restart", "real_us": restart_real,
         "cpu_us": restart_cpu,
         "measured_real": restart_real / exec_rec["real_us"],
         "measured_cpu": restart_cpu / exec_rec["cpu_us"],
         "paper_real": 6.0, "paper_cpu": 5.0,
         # the dotted line: rest_proc's share of restart
         "rest_proc_share_real": rest_rec["real_us"] / restart_real},
    ]
    return {"figure": "3", "title": "execve vs rest_proc vs restart "
                                    "(normalized to execve)",
            "rows": rows, "anchor_execve_real_s":
                exec_rec["real_us"] / 1e6}


# -- Figure 4: migrating a process ------------------------------------------------------


def _separate_dump_restart(site, pid, destination="schooner"):
    """Baseline: dumpproc and restart run on the appropriate
    machines; returns total real time (us).

    The clocks are synchronized between the two phases so the restart
    phase (possibly on another machine) counts sequentially, as it
    would for the user walking to the other terminal.
    """
    site.cluster.sync_clocks()
    wall0 = site.cluster.wall_time_us()
    site.dumpproc("brick", pid, uid=100)
    site.cluster.sync_clocks()
    restarted = site.restart(destination, pid,
                             from_host="brick", uid=100)
    assert restarted.proc.is_vm()
    return site.cluster.wall_time_us() - wall0


def _timed_migrate(site, pid, typed_on, use_daemon=False):
    wall0 = site.cluster.wall_time_us()
    handle = site.migrate(pid, "brick", "schooner", typed_on=typed_on,
                          uid=100, use_daemon=use_daemon)
    assert handle.exit_status == 0
    assert site.find_restarted("schooner") is not None
    return site.cluster.wall_time_us() - wall0


#: the four locality cases: where migrate is typed relative to the
#: source and destination (source=brick, destination=schooner always)
FIG4_CASES = [
    # (label, typed_on, paper_expected_ratio)
    ("local dump, local restart", None, 1.2),
    ("local dump, remote restart (L->R)", "brick", 4.0),
    ("remote dump, local restart (R->L)", "schooner", 5.0),
    ("remote dump, remote restart (R->R)", "brador", 10.0),
]


def fig4(costs=None, use_daemon=False, trace=False):
    """Figure 4: migrate vs separate dumpproc+restart, four ways.

    The first case has no real analogue in a two-host move (migrate
    typed where both commands would be local is impossible when source
    and destination differ), so it is measured as a same-machine
    migrate on brick, like the paper's L=local row.

    With ``trace=True`` each migration is recorded by the cluster
    tracer and its row carries the span ``timeline`` (the paper's
    phase breakdown) plus the raw ``trace_events``; the baseline
    sites stay untraced.
    """
    rows = []
    for label, typed_on, paper in FIG4_CASES:
        site, handle = _counter_site(costs, daemons=True)
        if trace:
            site.cluster.tracer.enable("dump", "restart", "migrate")
            # align clocks so the span timeline (stamped on the
            # emitting machines' clocks) is commensurable with the
            # wall-clock latency the figure reports
            site.cluster.sync_clocks()
        mig = "brick:%d" % handle.pid
        baseline_site, baseline_handle = _counter_site(costs,
                                                       daemons=True)
        # "the appropriate machines" for this case: the L->L case's
        # baseline restarts locally on brick, the rest on schooner
        baseline_us = _separate_dump_restart(
            baseline_site, baseline_handle.pid,
            destination="brick" if typed_on is None else "schooner")
        if typed_on is None:
            # L->L: both phases local: migrate brick->brick on brick
            wall0 = site.cluster.wall_time_us()
            mh = site.migrate(handle.pid, "brick", "brick",
                              typed_on="brick", uid=100)
            assert mh.exit_status == 0
            migrate_us = site.cluster.wall_time_us() - wall0
        else:
            migrate_us = _timed_migrate(site, handle.pid, typed_on,
                                        use_daemon=use_daemon)
        row = {
            "case": label,
            "migrate_us": migrate_us,
            "dumpproc_restart_us": baseline_us,
            "measured": migrate_us / baseline_us,
            "paper": paper,
        }
        if trace:
            row["timeline"] = site.cluster.tracer.migration_timeline(
                mig)
            row["trace_events"] = list(site.cluster.tracer.events)
        rows.append(row)
    return {"figure": "4", "title": "migrate vs separate "
                                    "dumpproc+restart (real time)",
            "rows": rows}


# -- Ablations -----------------------------------------------------------------------------


def ablation_daemon_vs_rsh(costs=None):
    """A1: section 6.4's proposed daemon vs rsh for a remote migrate."""
    rows = []
    for label, use_daemon in (("rsh", False), ("migrationd", True)):
        site, handle = _counter_site(costs, daemons=True)
        elapsed = _timed_migrate(site, handle.pid, typed_on="brador",
                                 use_daemon=use_daemon)
        rows.append({"case": label, "real_us": elapsed})
    rows[0]["speedup"] = 1.0
    rows[1]["speedup"] = rows[0]["real_us"] / rows[1]["real_us"]
    return {"figure": "A1", "title": "remote migrate: rsh vs the "
                                     "migration daemon", "rows": rows}


def ablation_polling_interval(costs=None, intervals=(0.1, 0.5, 1, 2)):
    """A2: dumpproc's poll sleep drives its real-vs-CPU gap.

    The interval is swept through the ``dump_poll_sleep_s`` cost-model
    knob dumpproc reads at run time — no module monkey-patching.
    """
    rows = []
    for interval in intervals:
        real, cpu = _kill_via_dumpproc(costs, poll_sleep=interval)
        rows.append({"sleep_s": interval, "real_us": real,
                     "cpu_us": cpu, "gap": real / cpu})
    return {"figure": "A2", "title": "dumpproc real time vs poll "
                                     "sleep interval", "rows": rows}


def ablation_name_storage(costs=None, open_files=(4, 16, 64)):
    """A3: kernel memory for dynamic name strings vs fixed fields.

    The paper chose dynamically-allocated strings "because ... fixed
    size strings would have had to be large enough to accommodate
    large path names", wasting kernel memory.  Measure live name
    bytes for a population of open files vs the fixed alternative
    (MAXCWD bytes per file-table slot).
    """
    from repro.kernel.constants import MAXCWD
    rows = []
    for count in open_files:
        cluster = Cluster(costs or CostModel())
        machine = cluster.add_machine("brick")

        def opener(argv, env, count=count):
            from repro.kernel.constants import O_CREAT, O_WRONLY
            for index in range(count):
                fd = yield ("open", "/tmp/file%02d" % index,
                            O_WRONLY | O_CREAT, 0o644)
                if fd < 0:
                    break
            yield ("sleep", 5)
            return 0

        machine.install_native_program("opener", opener)
        handle = machine.spawn("/bin/opener", uid=100, cwd="/tmp")
        # synchronous creates are slow; wait until the opener parks
        # itself in its sleep with every file open
        cluster.run_until(lambda: handle.proc.wchan is not None
                          or handle.exited)
        dynamic = machine.kernel.files.name_bytes
        live = machine.kernel.files.live_count()
        fixed = live * MAXCWD
        rows.append({"open_files": live, "dynamic_bytes": dynamic,
                     "fixed_bytes": fixed,
                     "saving": 1.0 - dynamic / fixed})
    return {"figure": "A3", "title": "kernel memory: dynamic name "
                                     "strings vs fixed-size fields",
            "rows": rows}


def app_load_balancing(costs=None, iterations=500_000, hogs=2):
    """A4 (the paper's future work): makespan with/without migration.

    The balanced run starts ``loadd`` on both workstations for a few
    one-second rounds; its moves go through the migration pipeline,
    so the makespan includes the daemon's report latency.
    """
    model = (costs or CostModel()).with_overrides(
        loadd_interval_s=1.0, loadd_rounds=4, loadd_min_cpu_s=0.1)

    def run_once(balance):
        site = MigrationSite(costs=model)
        site.run_quiet()  # the makespan starts once the daemons idle
        start_us = site.cluster.wall_time_us()
        for __ in range(hogs):
            site.start("brick", "/bin/cpuhog",
                       ["cpuhog", str(iterations)], uid=100)
        if balance:
            site.start_loadd(hosts=["brick", "schooner"])
        site.run_until(
            lambda: all(not p.is_vm() or p.zombie()
                        for m in site.cluster.machines.values()
                        for p in m.kernel.procs.all_procs()),
            max_steps=50_000_000)
        return site.cluster.wall_time_us() - start_us

    unbalanced = run_once(False)
    balanced = run_once(True)
    return {"figure": "A4", "title": "load balancing: makespan of "
                                     "%d CPU hogs" % hogs,
            "rows": [
                {"case": "all on one machine", "makespan_us":
                    unbalanced, "speedup": 1.0},
                {"case": "with load balancer", "makespan_us":
                    balanced, "speedup": unbalanced / balanced},
            ]}


def ablation_namei_cache(costs=None):
    """A7: a 4.3BSD-style name cache under the migration tools.

    restart issues ~20 ``open()`` calls, most of them for the same
    few names (``/dev/null``, ``/dev/tty``); the 1986 namei cache
    would have cut exactly that cost.  Measure Figure 3's restart
    with the cache off and on.
    """
    rows = []
    for label, enabled in (("4.2-style (no cache)", False),
                           ("with namei cache", True)):
        model = (costs or CostModel()).with_overrides(
            namei_cache=enabled)
        result = fig3(model)
        restart_row = result["rows"][2]
        rows.append({"kernel": label,
                     "restart_real_us": restart_row["real_us"],
                     "restart_cpu_us": restart_row["cpu_us"]})
    rows[0]["speedup_cpu"] = 1.0
    rows[1]["speedup_cpu"] = (rows[0]["restart_cpu_us"]
                              / rows[1]["restart_cpu_us"])
    return {"figure": "A7", "title": "restart under a 4.3BSD-style "
                                     "name cache", "rows": rows}


def ext_socket_migration(costs=None):
    """A6 (section 9 future work): migrating a network service.

    A server bound to a well-known port is migrated; with the
    ``migrate_listening_sockets`` option restart re-binds the port on
    the destination and the server keeps serving (measure the service
    outage); the stock kernel loses the socket and the service dies.
    """
    from repro.errors import iserr
    from repro.programs.guest.portserver import PORT

    def one_run(enabled):
        model = (costs or CostModel()).with_overrides(
            migrate_listening_sockets=enabled)
        site = MigrationSite(costs=model, daemons=False)
        server = site.start("brick", "/bin/portserver", uid=100)
        site.run_until(lambda: "serving" in site.console("brick"))

        replies = []

        def client(host):
            def main(argv, env):
                from repro.programs.base import read_all
                sock = yield ("socket",)
                result = yield ("connect", sock, host, PORT)
                if iserr(result):
                    replies.append(None)
                    return 1
                yield ("write", sock, b"req")
                replies.append((yield from read_all(sock)))
                return 0
            return main

        schooner = site.machine("schooner")
        schooner.install_native_program("client", client("brick"))
        probe = schooner.spawn("/bin/client", uid=100)
        site.run_until(lambda: probe.exited)

        outage0 = site.cluster.wall_time_us()
        site.dumpproc("brick", server.pid, uid=100)
        moved = site.restart("schooner", server.pid,
                             from_host="brick", uid=100)
        outage_us = site.cluster.wall_time_us() - outage0

        schooner.install_native_program("client2", client("schooner"))
        probe2 = schooner.spawn("/bin/client2", uid=100)
        site.run_until(lambda: probe2.exited or moved.exited)
        alive = not moved.exited and replies[-1] == b"srv:req"
        return alive, outage_us

    stock_alive, __ = one_run(False)
    ext_alive, outage_us = one_run(True)
    return {"figure": "A6", "title": "migrating a network service "
                                     "(section 9 future work)",
            "rows": [
                {"kernel": "stock", "service survives":
                    "yes" if stock_alive else "no"},
                {"kernel": "migrate_listening_sockets",
                 "service survives": "yes" if ext_alive else "no",
                 "outage_us": outage_us},
            ]}


def ext_compat_ids(costs=None):
    """A5: the section 7 compatibility extension, on vs off."""
    results = {}
    for compat in (False, True):
        model = (costs or CostModel()).with_overrides(
            compat_migrated_ids=compat)
        site = MigrationSite(costs=model, daemons=False)
        handle = site.start("brick", "/bin/pidtemp", uid=100)
        site.run_until(lambda: "? " in site.console("brick"))
        site.type_at("brick", "x\n")
        site.run_until(lambda: "ok" in site.console("brick"))
        site.dumpproc("brick", handle.pid, uid=100)
        restarted = site.restart("brick", handle.pid, uid=100)
        site.type_at("brick", "x\n")
        site.run_until(lambda: restarted.exited
                       or site.console("brick").count("ok") >= 2)
        results[compat] = "survives" if not restarted.exited \
            else "LOST its temp file"
    return {"figure": "A5", "title": "getpid() compatibility option "
                                     "vs the pidtemp misbehaver",
            "rows": [
                {"case": "stock kernel", "outcome": results[False]},
                {"case": "compat_migrated_ids", "outcome":
                    results[True]},
            ]}
