"""Applications built on the migration mechanism (section 8).

* :mod:`repro.apps.checkpoint` — periodic process checkpointing with
  open-file snapshots and restore-to-the-n-th-checkpoint;
* :mod:`repro.apps.policy` — the pure threshold policy of the
  in-simulation load balancer, the ``loadd`` daemon;
* :mod:`repro.apps.nightbatch` — the day/night CPU-hog scheduler:
  corral the hogs onto one machine during the day, spread them across
  the idle network at night.

None of them moves a process itself.  Checkpoints are ``ckptd``
rounds, night-batch moves are ``migrate -d`` runs and load balancing
is ``loadd`` (``MigrationSite.start_loadd``), so every move goes
through the one migration pipeline, with its retries and rollback.
"""

from repro.apps.checkpoint import CheckpointManager
from repro.apps.nightbatch import NightBatchScheduler
from repro.apps.policy import HostLoad, Move, ThresholdPolicy

__all__ = ["CheckpointManager", "NightBatchScheduler", "HostLoad",
           "Move", "ThresholdPolicy"]
