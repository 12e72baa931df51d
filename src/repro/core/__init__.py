"""The paper's contribution: the process migration mechanism.

* :mod:`repro.core.formats` — the dump-file protocol: the
  ``filesXXXXX`` (0445) and ``stackXXXXX`` (0444) formats and every
  dump, archive and ledger file name and migration id;
* :mod:`repro.core.symlinks` — user-level symlink resolution by
  iterated ``readlink()``;
* :mod:`repro.core.api` — :class:`~repro.core.api.MigrationManager`,
  a high-level Python API over the user commands.

The kernel half of the mechanism (the ``SIGDUMP`` dump writer and the
``rest_proc()`` system call) lives in :mod:`repro.kernel.dump` and
:mod:`repro.kernel.restproc`; the user commands (``dumpproc``,
``restart``, ``migrate``) in :mod:`repro.programs`.
"""

from repro.core.formats import (FilesInfo, StackInfo, FdEntry,
                                FD_UNUSED, FD_FILE, FD_SOCKET,
                                dump_file_names)

__all__ = [
    "FilesInfo", "StackInfo", "FdEntry",
    "FD_UNUSED", "FD_FILE", "FD_SOCKET",
    "dump_file_names",
]
