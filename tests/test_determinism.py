"""The simulation is deterministic: identical runs, identical clocks.

Reproducible virtual time is what makes the benchmark numbers
meaningful — this guards against accidental nondeterminism (dict
ordering, id()-keyed behavior, hidden randomness).
"""

from repro.core.api import MigrationSite
from tests.conftest import scan_checked


def _one_full_migration():
    site = MigrationSite()
    # record every network event (messages with arrival times, socket
    # creations with their ids): runs must agree on the full trace,
    # not just on the end state
    site.cluster.tracer.enable("net.msg", "net.sock")
    site.run_quiet()
    handle = site.start("brick", "/bin/counter", uid=100)
    site.run_until(lambda: site.console("brick").count("> ") >= 1)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    migrate = site.migrate(handle.pid, "brick", "schooner",
                           typed_on="schooner", uid=100)
    site.type_at("schooner", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("schooner"))
    moved = site.find_restarted("schooner")
    return {
        "wall_us": site.cluster.wall_time_us(),
        "brick_us": site.machine("brick").clock.now_us,
        "schooner_us": site.machine("schooner").clock.now_us,
        "brick_console": site.console("brick"),
        "schooner_console": site.console("schooner"),
        "file": bytes(site.machine("brick").fs.read_file(
            "/tmp/counter.out")),
        "moved_cpu_us": moved.cpu_us(),
        "migrate_status": migrate.exit_status,
        "net_bytes": site.cluster.network.bytes_moved,
        "steps": site.cluster.perf.steps,
        "trace": site.cluster.tracer.to_jsonl(),
    }


def test_two_identical_runs_agree_exactly():
    first = _one_full_migration()
    second = _one_full_migration()
    assert first == second


def test_fast_and_scan_engines_agree_exactly():
    """The burst driver must be invisible in virtual time: through a
    full migration it steps exactly as the reference scan would."""
    scan_checked(_one_full_migration)


def test_figure_drivers_are_deterministic():
    from repro.bench import fig1
    assert fig1() == fig1()


def test_interpreter_agrees_with_compiled_traces(interpreter):
    """The trace compiler must be invisible in virtual time too: the
    full migration and the four figure drivers give bit-identical
    results when every CPU they build interprets every instruction."""
    from repro.bench import fig1, fig2, fig3, fig4
    for run in (_one_full_migration, fig1, fig2, fig3, fig4):
        assert interpreter(run) == run(), run.__name__
