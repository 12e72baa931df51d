"""Reproduction of *A Process Migration Implementation for a Unix
System* (Alonso & Kyrimis, Princeton CS-TR-092-87 / USENIX 1988).

The paper adds transparent process migration to Sun UNIX 3.0: a
``SIGDUMP`` signal that kills a process while dumping everything
needed to restart it, a ``rest_proc()`` system call that overlays the
caller with a dumped process, and user commands ``dumpproc`` /
``restart`` / ``migrate`` built on them.

Because raw process state cannot be captured from Python, this
package reproduces the paper on a **simulated substrate** built from
scratch (see DESIGN.md): a 68k-flavoured virtual CPU with an
assembler and ``a.out`` format (:mod:`repro.vm`), an inode filesystem
with symlinks and NFS-style ``/n/<host>`` mounts (:mod:`repro.fs`), a
Unix-like kernel (:mod:`repro.kernel`), multi-machine clusters with a
calibrated virtual-time cost model (:mod:`repro.machine`,
:mod:`repro.costmodel`), an rsh-capable network (:mod:`repro.net`),
the migration mechanism itself (:mod:`repro.core`,
:mod:`repro.programs`), and the section 8 applications
(:mod:`repro.apps`).

Quick start::

    from repro import MigrationSite

    site = MigrationSite()
    job = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: "> " in site.console("brick"))
    site.dumpproc("brick", job.pid, uid=100)
    site.restart("schooner", job.pid, from_host="brick", uid=100)
"""

from repro.costmodel import CostModel
from repro.core.api import MigrationSite, MigrationManager
from repro.machine import Cluster, Machine
from repro.apps import CheckpointManager, NightBatchScheduler

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "MigrationSite",
    "MigrationManager",
    "Cluster",
    "Machine",
    "CheckpointManager",
    "NightBatchScheduler",
    "__version__",
]
