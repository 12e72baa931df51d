"""Identity, time, spawn and introspection system calls."""

from repro.errors import UnixError, EINVAL, ESRCH
from repro.kernel.constants import STATE_NAMES
from repro.perf.counters import GUEST_COUNTERS


class MiscSyscalls:
    """Mixin: miscellaneous system calls (self is the Kernel)."""

    def sys_gethostname(self, proc):
        """Section 7 extension (A5): under ``compat_migrated_ids`` a
        migrated process keeps seeing the host it started on."""
        if self.costs.compat_migrated_ids and proc.old_host is not None:
            return proc.old_host
        return self.hostname

    def sys_gethostname_real(self, proc):
        return self.hostname

    def sys_set_oldids(self, proc, old_pid, old_host):
        """Record pre-migration identity in the user structure.

        Part of the section 7 proposal: restart calls this before
        rest_proc() when the kernel's compatibility option is on, so
        getpid()/gethostname() can keep lying helpfully.
        """
        proc.old_pid = old_pid
        proc.old_host = old_host
        return 0

    def sys_time(self, proc):
        """Seconds since boot (the simulation epoch)."""
        return int(self.clock.seconds())

    def sys_spawn(self, proc, path, argv, stdio_fd=None, detach=False):
        """Create a child running ``path`` (fork+exec in one step).

        Native-program convenience: Python generators cannot be
        fork()ed, so the tooling uses spawn().  The child inherits
        credentials, cwd, terminal and open files, like fork().

        ``stdio_fd`` rewires the child's descriptors 0-2:

        * an int wires all three to that one caller descriptor — how
          rshd attaches a remote command to its network connection
          (such a child has **no controlling terminal**, which is why
          "certain terminal modes can not be preserved" over rsh);
        * a 3-tuple wires each individually (None = inherit) — how
          the shell builds pipelines and redirections.

        ``detach`` orphans the child immediately (the double-fork
        idiom): it is reaped by the kernel on exit and its death never
        lands on the spawner.  The network daemons use this for their
        per-connection helpers, so a crashed helper can neither
        zombify nor take the daemon's accept loop down with it.
        """
        self.fault_check("proc.spawn", path)
        child = self.machine.create_process(
            path, argv, parent=proc, cred=proc.user.cred,
            cwd=None, tty=proc.user.tty, inherit_from=proc)
        if detach:
            child.parent = None
            proc.children.remove(child)
        if stdio_fd is None:
            return child.pid
        if isinstance(stdio_fd, int):
            wiring = (stdio_fd, stdio_fd, stdio_fd)
            child.user.tty = None
        else:
            wiring = tuple(stdio_fd)
            if len(wiring) != 3:
                from repro.errors import EINVAL
                raise UnixError(EINVAL, "stdio_fd tuple must be 3-long")
        for fd, source in zip((0, 1, 2), wiring):
            if source is None:
                continue
            entry = proc.user.fd_lookup(source)
            old = child.user.ofile[fd]
            if old is not None:
                child.user.ofile[fd] = None
                self._release_entry(old)
            entry.refcount += 1
            child.user.ofile[fd] = entry
        return child.pid

    def sys_rsh_setup(self, proc):
        """The rexec connection dance: reverse host lookup, privileged
        port checks, hosts.equiv scan, login-shell startup.

        A pseudo-call standing in for the user- and kernel-level work
        a real rshd performs per connection; its (large, calibrated)
        cost is the reason Figure 4's remote migrations are so slow.
        """
        self.charge(self.costs.rsh_setup_us)
        return 0

    def sys_daemon_setup(self, proc):
        """Per-connection cost of the paper's proposed alternative: a
        long-running daemon at a well-known port (section 6.4)."""
        self.charge(self.costs.daemon_setup_us)
        return 0

    def sys_getproctab(self, proc):
        """Process-table snapshot for ps(1) (native programs only).

        Stands in for reading /dev/kmem with nlist(), which is how ps
        actually worked on 4.2BSD.
        """
        rows = []
        for entry in self.procs.all_procs():
            rows.append({
                "pid": entry.pid,
                "ppid": entry.ppid,
                "uid": entry.user.cred.uid,
                "state": STATE_NAMES.get(entry.state, "?"),
                "utime_us": entry.utime_us,
                "stime_us": entry.stime_us,
                "command": entry.command,
                "vm": 1 if entry.is_vm() else 0,
            })
        self.charge(self.costs.filetable_op_us * max(1, len(rows)))
        return rows

    def sys_proc_cpu_seconds(self, proc, pid):
        """Total CPU seconds consumed by ``pid`` (load-balancer aid)."""
        target = self.procs.lookup(pid)
        if target is None:
            raise UnixError(ESRCH, "pid %d" % pid)
        return target.cpu_us() / 1e6

    def sys_sysctl(self, proc, name):
        """Read one cost-model / policy knob by name.

        Stands in for 4.3BSD's getkerninfo(): the hardened commands
        read their retry and timeout policy from the kernel instead of
        baking numbers into every tool.  Read-only, plain values only.
        """
        if not isinstance(name, str) or name.startswith("_"):
            raise UnixError(EINVAL, "sysctl %r" % (name,))
        value = getattr(self.costs, name, None)
        if value is None or callable(value):
            raise UnixError(EINVAL, "sysctl %r" % (name,))
        return value

    #: perf counters user commands may bump via ``perf_note`` (the
    #: ``GUEST`` rows of the counter table)
    _PERF_NOTE_COUNTERS = GUEST_COUNTERS

    def sys_perf_note(self, proc, counter, amount=1):
        """Bump a cluster perf counter from a user command."""
        if counter not in self._PERF_NOTE_COUNTERS:
            raise UnixError(EINVAL, "perf_note %r" % (counter,))
        if isinstance(amount, bool) \
                or not isinstance(amount, (int, float)):
            raise UnixError(EINVAL, "perf_note amount %r" % (amount,))
        self.machine.cluster.perf.note(counter, amount)
        if counter == "recoveries":
            self.machine.cluster.perf.metrics.inc(
                "recoveries", amount, host=self.hostname)
            if self.tracer.enabled:
                self.tracer.emit("recovery", "recovered", self.machine,
                                 pid=proc.pid)
        return 0

    # -- observability (DESIGN.md section 9) ---------------------------------

    def sys_trace_status(self, proc):
        """1 if cluster tracing is currently enabled, else 0."""
        return 1 if self.tracer.enabled else 0

    def sys_trace_mark(self, proc, cat, name, mig=None):
        """Record one instant event from a user command.

        Only the high-level pipeline categories are writable from
        userland; the kernel-owned categories stay kernel-private.
        """
        if cat not in ("migrate", "recovery", "loadd", "statd"):
            raise UnixError(EINVAL, "trace_mark category %r" % (cat,))
        if not isinstance(name, str) or not name:
            raise UnixError(EINVAL, "trace_mark name %r" % (name,))
        if self.tracer.enabled:
            if mig is None:
                self.tracer.emit(cat, name, self.machine,
                                 pid=proc.pid)
            else:
                self.tracer.emit(cat, name, self.machine,
                                 pid=proc.pid, mig=str(mig))
        return 0

    def sys_trace_span(self, proc, cat, which, mig, ok=1):
        """Open (``which="B"``) or close (``"E"``) a span from a user
        command — how ``migrate`` brackets its end-to-end phase."""
        if cat not in ("migrate", "recovery", "loadd", "statd"):
            raise UnixError(EINVAL, "trace_span category %r" % (cat,))
        if which not in ("B", "E"):
            raise UnixError(EINVAL, "trace_span %r" % (which,))
        if not isinstance(mig, str) or not mig:
            raise UnixError(EINVAL, "trace_span mig %r" % (mig,))
        if which == "B":
            self.tracer.span_begin(cat, cat, mig, self.machine,
                                   pid=proc.pid)
        else:
            self.tracer.span_end(cat, cat, mig, self.machine,
                                 ok=bool(ok), pid=proc.pid)
            if cat == "migrate" and ok:
                self.machine.cluster.perf.metrics.inc(
                    "migrations", host=self.hostname)
        return 0

    def sys_migstat(self, proc):
        """Per-host migration/fault/heartbeat stats for migstat(1).

        The metrics-registry sibling of getproctab(): a snapshot of
        the cluster-wide labelled counters, one row per host.
        """
        metrics = self.machine.cluster.perf.metrics
        rows = []
        for host in self.machine.cluster.hosts():
            machine = self.machine.cluster.machines[host]
            rows.append({
                "host": host,
                "up": 1 if machine.running else 0,
                "dumps": metrics.total("dumps", host=host),
                "restarts": metrics.total("restarts", host=host),
                "migrations": metrics.total("migrations", host=host),
                "recoveries": metrics.total("recoveries", host=host),
                "crashes": metrics.total("host_crashes", host=host),
                "suspects": metrics.total("hb_suspects", host=host),
            })
        self.charge(self.costs.filetable_op_us * max(1, len(rows)))
        return rows

    def sys_vmcache(self, proc):
        """The trace compiler's cluster-wide cache counters, for
        migstat(1) and migtop(1).

        One flat dict: how many exec/restart arrivals found their text
        already compiled in the shared content-keyed code cache
        (``shared_cache_hits``) versus compiled from scratch
        (``cache_rebuilds``), the compiler's volume counters, and how
        many distinct text segments the cache currently holds.  A
        healthy migration-heavy cluster shows hits far above rebuilds
        — re-arrivals of unchanged text never recompile.  Every
        figure counts this cluster's own first sightings and first
        uses, whatever the process-wide trace store already held.
        """
        perf = self.machine.cluster.perf
        cache = self.machine.cluster._code_cache
        self.charge(self.costs.filetable_op_us)
        return {
            "shared_cache_hits": perf.shared_cache_hits,
            "cache_rebuilds": perf.cache_rebuilds,
            "blocks_compiled": perf.blocks_compiled,
            "traces_linked": perf.traces_linked,
            "instructions_decoded": perf.instructions_decoded,
            "reg_spills": perf.reg_spills,
            "cached_texts": cache.texts(),
        }

    # -- cluster telemetry (DESIGN.md section 13) ----------------------------

    def sys_statgauges(self, proc):
        """This host's kernel gauges for statd's sampling round.

        The scheduler/proc-table/socket numbers a real statd would
        pull out of /dev/kmem with nlist(): runnable queue depth,
        live (non-zombie) processes, bound sockets, and how many
        peers the failure detector currently suspects.
        """
        from repro.kernel.constants import SZOMB
        runq = len(self.scheduler.runq)
        procs = sum(1 for entry in self.procs.all_procs()
                    if entry.state != SZOMB)
        suspects = len(self.hb_monitor.suspected) \
            if self.hb_monitor is not None else 0
        self.charge(self.costs.filetable_op_us * 4)
        return {"runq": runq, "procs": procs,
                "socks": len(self.machine.ports),
                "hb_suspects": suspects}

    def sys_critpath(self, proc):
        """The migration critical-path report, for migtop(1).

        Aggregates every recorded migration timeline into per-phase
        p50/p95/max breakdowns with host/pair rollups, then evaluates
        the SLO thresholds (raising ``alert`` trace events).  Purely
        a function of the recorded trace and cluster state, so the
        report is byte-identical across engines.
        """
        from repro.obs.critpath import critical_path_report, slo_alerts
        cluster = self.machine.cluster
        report = critical_path_report(cluster)
        report["alerts"] = slo_alerts(cluster, report, self.machine,
                                      int(self.clock.seconds()))
        self.charge(self.costs.filetable_op_us
                    * max(1, 8 * report["migrations"]))
        return report

    # -- userland fault sites (loadd, the migration ledger, statd) -----------

    #: userland site namespaces: daemons and tools coded as native
    #: programs may evaluate sites here, but cannot spoof kernel sites
    _FAULT_NAMESPACES = ("loadd.", "ledger.", "statd.")

    def sys_fault_point(self, proc, site, detail=""):
        """Evaluate a *userland* fault-injection site.

        Daemons coded as native programs have no kernel write path of
        their own to hang fault sites on, so this call lets them ask
        the injector directly — restricted to the ``loadd.``,
        ``ledger.`` and ``statd.`` site namespaces so userland cannot
        spoof kernel sites.  Armed fail rules surface as the rule's errno;
        delay/crash/partition behave exactly as at kernel sites.
        """
        if not isinstance(site, str) \
                or not site.startswith(self._FAULT_NAMESPACES):
            raise UnixError(EINVAL, "fault_point %r" % (site,))
        self.fault_check(site, str(detail))
        return 0

    def sys_fault_data(self, proc, site, data, detail=""):
        """Pass a userland blob through a data fault site (corrupt
        rules); same namespace restriction as ``fault_point``."""
        if not isinstance(site, str) \
                or not site.startswith(self._FAULT_NAMESPACES):
            raise UnixError(EINVAL, "fault_data %r" % (site,))
        if not isinstance(data, (bytes, bytearray)):
            raise UnixError(EINVAL, "fault_data needs bytes")
        return self.fault_filter(site, bytes(data), str(detail))

    # -- migration intent ledger (DESIGN.md section 12) ----------------------

    def sys_dump_ledger(self, proc, pid, recdir):
        """Arm ledgered dumping for ``pid``.

        ``dumpproc -L`` calls this before sending SIGDUMP; the
        victim's next dump is then also archived through the cluster
        chunk store into ``recdir`` (manifests + the ``dump.ok``
        commit marker), inside the dump's all-or-nothing window.  Same
        permission rule as kill(): only the superuser or the owner.
        The archive is written with the caller's credentials: the
        record directory is the caller's, who may be the superuser
        moving another user's job.
        """
        from repro.kernel.constants import SZOMB
        if not isinstance(recdir, str) or not recdir.startswith("/"):
            raise UnixError(EINVAL, "dump_ledger dir %r" % (recdir,))
        target = self.procs.lookup(pid)
        if target is None or target.state == SZOMB:
            raise UnixError(ESRCH, "pid %d" % pid)
        if not proc.user.cred.can_signal(target.user.cred):
            from repro.errors import EPERM
            raise UnixError(EPERM, "dump_ledger %d" % pid)
        target.ledger_dir = (recdir, proc.user.cred.copy())
        return 0

    def sys_store_get(self, proc, digest):
        """Fetch one chunk from the cluster chunk store by digest.

        The read half of the ledger archive: the recovery sweep
        reassembles an archived dump from its manifests without any
        kernel dump state.  Charged like any other chunk fetch (local
        or NFS rates, end-to-end digest check).
        """
        from repro.store import DIGEST_BYTES
        if not isinstance(digest, (bytes, bytearray)) \
                or len(digest) != DIGEST_BYTES:
            raise UnixError(EINVAL, "store_get digest %r" % (digest,))
        return self.machine.cluster.chunk_store.get(self, bytes(digest))

    # -- heartbeat failure detector ------------------------------------------

    def _heartbeat(self):
        """The machine's failure detector, created on first use.

        Living on the kernel (not the machine) means a reboot gets a
        fresh, empty monitor — suspicion state does not survive a
        crash, just like any other kernel memory.
        """
        if self.hb_monitor is None:
            from repro.net.heartbeat import HeartbeatMonitor
            self.hb_monitor = HeartbeatMonitor(self.machine)
        return self.hb_monitor

    def sys_hb_start(self, proc):
        """Ensure the heartbeat monitor exists (daemons call this at
        startup so their host participates in failure detection)."""
        self._heartbeat()
        return 0

    def sys_hb_status(self, proc, host):
        """1 if the failure detector currently suspects ``host`` is
        dead, else 0.  Querying starts (and leases) the probe lane."""
        if not isinstance(host, str) or not host:
            raise UnixError(EINVAL, "hb_status %r" % (host,))
        return self._heartbeat().status(host)
