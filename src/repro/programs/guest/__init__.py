"""Guest (assembly) programs.

These are the *migratable* processes: real machine images whose
registers, stack and data the dump/restore machinery captures.
``repro.programs`` lists the ones every machine gets in ``/bin``.
"""

from repro.programs.guest.libasm import program, PRELUDE, STDLIB

__all__ = ["program", "PRELUDE", "STDLIB"]
