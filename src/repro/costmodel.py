"""The calibrated cost model that turns simulated work into virtual time.

Every quantity is in **virtual microseconds**.  The simulator charges
time *where the work happens* (per instruction executed, per byte
copied, per disk block written, per network round trip) rather than
hard-coding end-to-end results, so the figures in the paper's
evaluation section are produced by measurement, not by fiat.

Calibration anchors (see DESIGN.md section 5):

* a Sun-2 executes roughly half a million instructions per second;
* 4.2BSD-era system calls cost on the order of 100 microseconds of
  fixed overhead before doing any work;
* NFS version 2 writes are synchronous and notoriously slow (tens of
  milliseconds per operation);
* establishing an ``rsh`` connection (rexec protocol, reverse host
  lookup, password file scan, remote shell startup) takes seconds.

The two headline anchors from the paper that the defaults reproduce:
killing the section 6.2 test program with SIGDUMP takes about 0.6
seconds of real time, and exec'ing it takes under 0.2 seconds.
"""

from dataclasses import dataclass, field, fields, replace


@dataclass
class CostModel:
    """Tunable virtual-time costs, in microseconds unless noted."""

    # --- CPU ----------------------------------------------------------
    instruction_us: float = 2.0  #: one VM instruction (~0.5 MIPS)
    syscall_base_us: float = 110.0  #: trap + dispatch + return overhead
    context_switch_us: float = 400.0  #: scheduler switch between procs
    signal_post_us: float = 60.0  #: posting a signal to a proc
    signal_deliver_us: float = 250.0  #: building/tearing a signal frame
    native_step_us: float = 150.0  #: user-level work between two
    #: syscalls of a native (Python-coded) program; stands in for the
    #: instructions a real implementation of that tool would execute.

    # --- memory -------------------------------------------------------
    copy_byte_us: float = 0.004  #: bulk memory copy, per byte
    zero_byte_us: float = 0.002  #: bss/stack zeroing, per byte
    kmem_alloc_us: float = 35.0  #: kernel memory allocator, one call
    kmem_free_us: float = 22.0  #: kernel memory free, one call
    kstring_byte_us: float = 11.0  #: kernel path-string handling per
    #: byte: character-at-a-time copyin from user space with bounds
    #: checks, then copy into the kernel-held name — roughly six
    #: instructions per character on a 0.5 MIPS machine.  This is the
    #: dominant cost of the paper's name-tracking modification and the
    #: knob that calibrates Figure 1's ~40 % overhead.

    # --- filesystem ---------------------------------------------------
    namei_component_us: float = 180.0  #: one path component, local
    inode_op_us: float = 120.0  #: allocate/update/release an inode
    filetable_op_us: float = 60.0  #: file-table slot bookkeeping
    disk_read_block_us: float = 6000.0  #: read one block (cache helps)
    disk_write_block_us: float = 5000.0  #: write one data block
    disk_create_us: float = 190_000.0  #: create/remove/truncate an
    #: entry: the old filesystem wrote the directory block and the
    #: inode *synchronously*, several full seek+rotate rounds on a
    #: Sun-2 era disk.  Per-file overhead dominating per-byte cost is
    #: what makes SIGDUMP (three files) ≈ 3x SIGQUIT (one file) in
    #: Figure 2.
    disk_byte_us: float = 1.6  #: local disk transfer per byte
    disk_block_bytes: int = 1024  #: I/O is charged per block
    disk_cpu_per_block_us: float = 450.0  #: CPU part of one block I/O
    #: (buffer cache + driver work); the rest of the I/O time is the
    #: process *waiting*, which counts as real time but not CPU time —
    #: the split behind Figure 2/3's CPU-vs-real gaps.
    nfs_cpu_per_op_us: float = 450.0  #: CPU part of one NFS RPC
    dump_pack_us: float = 2300.0  #: CPU to format kernel structures
    #: into one dump file (name strings, register blocks, headers)

    # --- NFS / network ------------------------------------------------
    net_rtt_us: float = 4500.0  #: one Ethernet round trip incl. RPC
    net_byte_us: float = 0.9  #: 10 Mbit/s shared Ethernet, per byte
    nfs_lookup_us: float = 5200.0  #: one remote path component (RPC)
    nfs_read_block_us: float = 9000.0  #: read one block over NFS
    nfs_write_block_us: float = 22000.0  #: NFSv2 synchronous write
    nfs_meta_op_us: float = 215_000.0  #: create/remove/setattr RPC:
    #: the server performs the same synchronous create, plus the wire

    # --- rsh ----------------------------------------------------------
    rsh_setup_us: float = 8_800_000.0  #: rexec connection: reverse
    #: host lookup, privileged port dance, /etc/hosts.equiv scan,
    #: remote login-shell startup.  Calibrated so Figure 4's "almost
    #: half a minute" for a fully remote migrate holds.
    daemon_setup_us: float = 120_000.0  #: the paper's proposed
    #: daemon-with-a-well-known-port alternative: one connection to an
    #: already-running server (section 6.4, ablation A1).

    # --- incremental dumps / chunk store (DESIGN.md section 10) --------
    dump_chunk_bytes: int = 1024  #: chunk granularity of incremental
    #: dumps; rounded down to a whole number of dirty-tracking pages
    digest_byte_us: float = 0.006  #: content digest of one chunk byte:
    #: a cheap rolling checksum, a little slower than a plain copy
    #: (read + multiply-accumulate per byte on a 0.5 MIPS machine)

    # --- migration retry / timeout policy (not costs) ------------------
    #: knobs read by the hardened user commands via ``sysctl``; they
    #: shape retry behaviour, not virtual-time charging.
    migrate_attempts: int = 3  #: dump/restart attempts before giving up
    migrate_backoff_s: float = 2.0  #: backoff base between attempts
    connect_attempts: int = 3  #: migrationd-run connect attempts
    connect_backoff_s: float = 1.0  #: backoff base between connects
    net_read_timeout_s: float = 30.0  #: reply-read timeout (daemon run)
    restart_poll_tries: int = 60  #: migrate polls for the restart ack
    restart_poll_sleep_s: float = 0.5  #: sleep between ack polls
    dump_poll_tries: int = 10  #: dumpproc polls for the a.out file
    dump_poll_sleep_s: float = 1  #: sleep between dump polls (the
    #: integer default keeps virtual timestamps in the calibrated
    #: figures int-valued, exactly as the old hard-coded constant did)

    # --- host failure model (DESIGN.md section 8) -----------------------
    boot_s: float = 5.0  #: virtual seconds a reboot_host() takes
    connect_timeout_s: float = 10.0  #: connect() wait before ETIMEDOUT
    #: when the destination is unreachable (partitioned, not refused)
    hb_interval_s: float = 2.0  #: heartbeat probe period (virtual)
    hb_timeout_s: float = 5.0  #: silence before a peer is suspected
    hb_lease_s: float = 20.0  #: how long a status query keeps the
    #: heartbeat lane ticking; with no consumers the lane goes dormant
    #: so an idle cluster can still quiesce

    # --- migration intent ledger (DESIGN.md section 12, not costs) ------
    #: crash-atomic migrations: migrate writes an intent record to the
    #: shared ledger directory before SIGDUMP, the kernel archives the
    #: dump through the chunk store, and ``recoveryd -m`` sweeps stale
    #: in-flight records to exactly-once completion.  Opt-in: with the
    #: switch off (the default) no ledger syscall is ever issued, so
    #: default-mode figures and traces stay byte-identical.
    migration_ledger: bool = False
    #: the shared ledger directory; lives *outside* /tmp and /usr/tmp
    #: on purpose, so a file-server reboot cannot wipe the ledger
    migration_ledger_dir: str = "/n/brador/usr/spool/migledger"
    #: a record whose last phase write is older than this is fair game
    #: for the sweep even if its orchestrator is not (yet) suspected
    #: (an orchestrator *process* can die without taking its host
    #: down).  Must comfortably exceed the longest phase a healthy
    #: migrate can spend between advances — with default knobs that is
    #: the full restart retry budget, well under a minute
    ledger_stale_s: float = 120.0

    # --- loadd load balancing (DESIGN.md section 11, not costs) ---------
    #: the loadd daemon's only settings (it takes no flags), read via
    #: ``sysctl`` at start: its schedule and its policy.  All of
    #: them are inert until a loadd is actually spawned — the daemon
    #: is opt-in (``MigrationSite.start_loadd``), so default-mode
    #: runs, figures and traces are byte-identical with or without
    #: this section.
    loadd_interval_s: float = 5.0  #: seconds between balance rounds
    loadd_rounds: int = 10  #: balance rounds before loadd exits
    load_stale_s: float = 15.0  #: drop load reports older than this
    loadd_min_cpu_s: float = 0.5  #: candidate CPU-seconds floor
    loadd_imbalance: int = 2  #: runnable spread to act on
    loadd_max_moves: int = 1  #: moves per host per balance round

    # --- statd cluster telemetry (DESIGN.md section 13, not costs) ------
    #: knobs read by the statd daemon via zero-cost ``sysctl0``.  The
    #: whole subsystem is doubly opt-in: the daemon is only spawned by
    #: ``MigrationSite.start_statd`` and exits immediately unless
    #: ``stat_interval_s`` is set positive, so default-mode runs,
    #: figures and traces are byte-identical with or without it.
    stat_interval_s: float = 0.0  #: seconds between samples (0 = off)
    stat_rounds: int = 10  #: sampling rounds before statd exits
    stat_stale_s: float = 30.0  #: spooled reports older than this are
    #: aged out by the spooler — a crashed peer disappears from migtop
    stat_series_len: int = 32  #: ring capacity per series (power of 2)
    #: where statd ships reports: a per-host directory on the file
    #: server, outside /tmp so a server reboot keeps the history
    stat_spool_dir: str = "/n/brador/usr/spool/statd"
    # --- SLO thresholds for the critical-path analyzer ------------------
    #: alert when the p95 end-to-end migration latency exceeds this
    slo_migrate_p95_us: float = 45_000_000.0
    #: alert when this many peers are currently suspected dead
    slo_hb_suspects: int = 1
    #: alert when an in-flight ledger record has gone unswept this long
    slo_ledger_sweep_age_s: float = 60.0

    # --- tty ----------------------------------------------------------
    tty_char_us: float = 90.0  #: per character through the tty queue
    tty_ioctl_us: float = 200.0  #: get/set terminal modes

    # --- process management -------------------------------------------
    fork_base_us: float = 2200.0  #: proc table + u-area duplication
    exec_base_us: float = 3000.0  #: exec bookkeeping besides I/O
    exit_base_us: float = 1500.0  #: process teardown
    quantum_us: float = 10000.0  #: scheduler time slice

    # --- feature switches (not costs) ----------------------------------
    #: kernel keeps cwd/file names (the paper's modification); turning
    #: this off gives the unmodified-kernel baseline of Figure 1.
    track_names: bool = True
    #: section 7's proposed extension: getpid()/gethostname() return
    #: pre-migration values for migrated processes (ablation A5).
    compat_migrated_ids: bool = False
    #: section 9's future work, explored (ablation A6): dumps record
    #: the port of bound/listening sockets and restart re-binds them,
    #: so a network *service* survives migration.  Connected sockets
    #: still degrade to /dev/null — resurrecting a live connection
    #: transparently is exactly what the paper judged hard.
    migrate_listening_sockets: bool = False
    #: ablation A7: a 4.3BSD-style name cache.  The paper's testbed
    #: ran 4.2-derived Sun 3.0; 4.3BSD (1986) added the namei cache
    #: that would have cut exactly the repeated-lookup cost restart's
    #: twenty open() calls pay.
    namei_cache: bool = False
    namei_cache_hit_us: float = 45.0  #: one cached path resolution
    #: incremental content-addressed dumps (DESIGN.md section 10): the
    #: a.out and stack dump files become chunk manifests and the chunk
    #: payloads go to the cluster-shared store, deduplicated by digest.
    incremental_dumps: bool = False
    #: lazy copy-on-reference restart: text and registers restore
    #: eagerly, data/stack chunks fault in on first touch, charged at
    #: access time instead of inside the freeze window.  Only takes
    #: effect for chunked (incremental) dumps.
    lazy_restart: bool = False

    def disk_io_us(self, nbytes, write=False):
        """Local-disk cost of transferring ``nbytes`` (>=1 block)."""
        blocks = max(1, -(-int(nbytes) // self.disk_block_bytes))
        per_block = self.disk_write_block_us if write \
            else self.disk_read_block_us
        return blocks * per_block + nbytes * self.disk_byte_us

    def nfs_io_us(self, nbytes, write=False):
        """NFS cost of transferring ``nbytes`` (per-block sync RPCs)."""
        blocks = max(1, -(-int(nbytes) // self.disk_block_bytes))
        per_block = self.nfs_write_block_us if write else self.nfs_read_block_us
        return blocks * per_block + nbytes * self.net_byte_us

    def message_us(self, nbytes):
        """One network message of ``nbytes`` payload, one way."""
        return self.net_rtt_us / 2.0 + nbytes * self.net_byte_us

    def with_overrides(self, **overrides):
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def describe(self):
        """Return ``name: value`` lines for documentation output."""
        lines = []
        for f in fields(self):
            lines.append("%s = %r" % (f.name, getattr(self, f.name)))
        return "\n".join(lines)


DEFAULT = CostModel()


def unmodified_kernel_model(base=None):
    """Cost model for the original (non-name-tracking) kernel."""
    return (base or DEFAULT).with_overrides(track_names=False)
