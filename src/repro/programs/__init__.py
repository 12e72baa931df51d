"""User programs: native system tools and guest assembly programs.

``install_standard_programs(machine)`` provisions a machine the way
the paper's workstations were provisioned: the three migration
commands (``dumpproc``, ``restart``, ``migrate``), supporting tools
(``ps``, ``kill``, ``rshd``, ``migrationd``) and the guest test
programs under ``/bin``.  The suite is one table, :func:`_suite`: a
``(name, factory, size)`` row per native program and a
``(name, aout function)`` row per guest program, in install order.
Each row is one insert into the ``/bin`` directory inode
(:meth:`Machine.install_native_program`,
:meth:`Machine.install_aout`); nothing walks a path.  Every machine's
file points at the same immutable image of the program, copied on
first write (:mod:`repro.fs.filesystem`).
"""

import functools


@functools.cache
def _suite():
    """``(native, guests)``, built once per process on first use (the
    programs' own modules import this package, so not at import)."""
    from repro.net import migrationd, rsh
    from repro.programs import (ckptd, coreutils, dumpproc, killprog,
                                loadd, migrate, migstat, migtop, psprog,
                                recoveryd, restart, shell, statd)
    from repro.programs.guest import (counter, cpuhog, editor, envdep,
                                      pidtemp, portserver, sockuser,
                                      waiter)
    native = (
        ("dumpproc", dumpproc.dumpproc_main, 8192),
        ("restart", restart.restart_main, 6144),
        ("migrate", migrate.migrate_main, 6144),
        ("ps", psprog.ps_main, 28672),
        ("migstat", migstat.migstat_main, 8192),
        ("kill", killprog.kill_main, 8192),
        ("rsh", rsh.rsh_main, 24576),
        ("rshd", rsh.rshd_main, 24576),
        ("rshd-helper", rsh.rshd_helper_main, 16384),
        ("migrationd", migrationd.migrationd_main, 20480),
        ("migrationd-helper", migrationd.migrationd_helper_main, 16384),
        ("migrationd-run", migrationd.migrationd_run_main, 16384),
        ("sh", shell.sh_main, 32768),
        ("ckptd", ckptd.ckptd_main, 12288),
        ("recoveryd", recoveryd.recoveryd_main, 16384),
        ("loadd", loadd.loadd_main, 16384),
        ("loadd-recv", loadd.loadd_recv_main, 8192),
        ("statd", statd.statd_main, 16384),
        ("statd-recv", statd.statd_recv_main, 8192),
        ("migtop", migtop.migtop_main, 8192),
        ("echo", coreutils.echo_main, 2048),
        ("cat", coreutils.cat_main, 4096),
        ("pwd", coreutils.pwd_main, 2048),
        ("wc", coreutils.wc_main, 6144),
        ("true", coreutils.true_main, 1024),
        ("false", coreutils.false_main, 1024),
    )
    guests = (
        ("counter", counter.counter_aout),
        ("cpuhog", cpuhog.cpuhog_aout),
        ("editor", editor.editor_aout),
        ("pidtemp", pidtemp.pidtemp_aout),
        ("envdep", envdep.envdep_aout),
        ("waiter", waiter.waiter_aout),
        ("sockuser", sockuser.sockuser_aout),
        ("portserver", portserver.portserver_aout),
    )
    return native, guests


def install_standard_programs(machine):
    """Install the full program suite in ``machine``'s ``/bin``."""
    native, guests = _suite()
    for name, factory, size in native:
        machine.install_native_program(name, factory, size)
    for name, aout in guests:
        machine.install_aout(name, aout())
    return machine


def start_network_daemons(machine, rsh=True, daemon=True):
    """Boot-time daemons: rshd and (optionally) migrationd."""
    handles = []
    if rsh:
        handles.append(machine.spawn("/bin/rshd", uid=0))
    if daemon:
        handles.append(machine.spawn("/bin/migrationd", uid=0))
    return handles
