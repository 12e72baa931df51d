#!/usr/bin/env python
"""Checkpointing a long-running job (section 8, first application).

A long computation appends results to a file.  The checkpoint manager
snapshots it periodically, one ``ckptd`` round per snapshot (dump +
archive + copy open files + resume).
Then the machine "crashes" the live process — and we restore the
latest checkpoint, rolling the output file back so the program sees a
consistent world, and let it run to completion.
"""

from repro.apps import CheckpointManager
from repro.core.api import MigrationSite
from repro.kernel.signals import SIGKILL


def main():
    site = MigrationSite(daemons=False)
    brick = site.machine("brick")
    manager = CheckpointManager(site, "brick", uid=100,
                                directory="/ckpt")

    print("starting the long-running job on brick ...")
    job = site.start("brick", "/bin/counter", uid=100)
    pid = job.pid
    proc = job.proc

    for round_no in range(1, 4):
        site.run_until(
            lambda: site.console("brick").count("> ") >= round_no)
        site.type_at("brick", "result %d\n" % round_no)
        site.run_until(
            lambda: site.console("brick").count("> ") >= round_no + 1)
        record, resumed = manager.checkpoint(pid)
        pid, proc = resumed.pid, resumed.proc
        print("checkpoint #%d taken (pid is now %d, %d open files "
              "snapshotted)" % (record.index, pid,
                                len(manager.file_copies(record))))

    print("\noutput so far: %r"
          % brick.fs.read_file("/tmp/counter.out"))

    print("\n*** simulated crash: killing the live process ***")
    brick.kernel.post_signal(proc, SIGKILL)
    site.run_until(lambda: proc.zombie() or proc.state == 4)
    # scribble on the output file, as a post-checkpoint corruption
    brick.fs.install_file("/tmp/counter.out", b"CORRUPTED")
    print("output file now: %r"
          % brick.fs.read_file("/tmp/counter.out"))

    print("\nrestoring checkpoint #1 (file content rolled back) ...")
    revived = manager.restore(1)
    print("revived as pid %d; output file: %r"
          % (revived.pid, brick.fs.read_file("/tmp/counter.out")))

    brick.console.clear_output()
    site.type_at("brick", "after restore\n")
    # checkpoint #1 was taken with all three counters at 3 (the dump
    # happens after the third increment), so the next line prints 4
    site.run_until(lambda: "r=4 s=4 k=4" in site.console("brick"))
    print("the job continued from checkpoint #1's counters:")
    for line in site.console("brick").splitlines():
        print("    " + line)
    print("\nfinal output file: %r"
          % brick.fs.read_file("/tmp/counter.out"))


if __name__ == "__main__":
    main()
