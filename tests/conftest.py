"""Shared fixtures: single machines, clusters, and the full site.

Hypothesis runs derandomized by default (the ``tier1`` profile): every
run draws the same examples, so a pass or a failure reproduces.  The
``explore`` profile draws fresh random examples each run; pass
``--hypothesis-profile explore`` to keep searching for new failures.
"""

import pytest
from hypothesis import settings

from repro.bench import scan_checked  # noqa: F401
from repro.core.api import MigrationSite
from repro.machine import Cluster
from repro.programs import install_standard_programs
from repro.programs.guest import libasm
from repro.vm import cpu as cpu_module

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture
def cluster():
    """A bare two-workstation + file-server cluster, no programs."""
    cluster = Cluster()
    cluster.add_machine("brick")
    cluster.add_machine("schooner")
    cluster.add_machine("brador")
    return cluster


@pytest.fixture
def brick(cluster):
    return cluster.machine("brick")


@pytest.fixture
def site():
    """The full paper testbed with programs and daemons."""
    site = MigrationSite()
    site.run_quiet()
    return site


def clear_process_caches():
    """Forget every memoized guest program and stored trace, so the
    next cluster assembles and compiles from scratch."""
    libasm._clear_programs()
    cpu_module._clear_store()


@pytest.fixture
def fresh_code_caches():
    """Empty process-wide caches for a test that counts or wraps real
    compiles, emptied again after it so its wrapped traces never leak
    into a later test."""
    clear_process_caches()
    yield
    clear_process_caches()


@pytest.fixture
def interpreter():
    """``interpreter(run, *args)`` calls ``run(*args)`` with the trace
    compiler off: ``CPU.use_predecode`` is patched on the class, so
    every CPU that ``run`` builds (a figure driver's own sites
    included) interprets every instruction."""
    def interpreted(run, *args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cpu_module.CPU, "use_predecode", False)
            return run(*args)
    return interpreted


def run_native(machine, factory, argv=None, uid=0, name="testprog",
               cwd="/tmp"):
    """Install + run a one-off native program; returns (handle, ret).

    The generator's return value is its exit status; output goes to
    the machine console.
    """
    machine.install_native_program(name, factory)
    handle = machine.spawn("/bin/%s" % name, argv or [name], uid=uid,
                           cwd=cwd)
    machine.cluster.run_until(lambda: handle.exited)
    return handle


def start_counter(site, host="brick", uid=100):
    """Start the paper's test program and bring it to its prompt."""
    handle = site.start(host, "/bin/counter", uid=uid)
    site.run_until(lambda: site.console(host).count("> ") >= 1)
    return handle
