"""Figure 4: migrate vs separate dumpproc+restart, four localities.

Paper: "depending on where the process was originally running and to
where it is to be restarted, migrate may take as much as ten times
more as it would take to run dumpproc and restart on the appropriate
machines.  For our test program, this amounts to almost half a
minute."  Also: "The difference between the local->remote and
remote->local cases is due to the fact that, in each case, different
programs are executed with a remote shell."
"""

import json
import os

from repro.bench import fig4
from repro.obs import to_chrome, validate_chrome
from conftest import run_figure

#: the migration-phase breakdown, in pipeline order (DESIGN.md §9)
PHASES = ["signal", "dump", "rewrite", "transfer", "restart", "ack"]


def test_fig4_phase_timeline():
    """Tracing the figure-4 migrations yields span timelines whose
    phase durations sum exactly to each migration's end-to-end
    latency, bounded by the wall-clock latency the figure reports.

    Deliberately not a ``benchmark``-fixture test so the CI trace
    job can run it without pytest-benchmark.  Set ``TRACE_OUT`` to
    also write the last case's Chrome trace for chrome://tracing.
    """
    result = fig4(trace=True)
    chrome = None
    for row in result["rows"]:
        timeline = row["timeline"]
        assert timeline is not None, row["case"]
        assert [p["phase"] for p in timeline["phases"]] == PHASES
        total = sum(p["duration_ns"] for p in timeline["phases"])
        # the phases telescope: they sum to the end-to-end latency
        # (integer nanoseconds, so exactly)
        assert total == timeline["end_to_end_ns"]
        # ...which is itself bounded by the figure's wall-clock number
        # (each stamp was rounded to the nanosecond once)
        assert timeline["end_to_end_ns"] <= row["migrate_us"] * 1000 + 1
        assert all(p["duration_ns"] >= 0 for p in timeline["phases"])
        chrome = to_chrome(row["trace_events"])
        validate_chrome(chrome)
    out = os.environ.get("TRACE_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(chrome, fh, indent=1, sort_keys=True)


def test_fig4_migrate(benchmark):
    result = run_figure(benchmark, fig4)
    rows = result["rows"]
    ll, lr, rl, rr = rows

    # fully local migrate costs little more than the two commands
    assert ll["measured"] < 2.0
    # any rsh makes it several times slower
    assert lr["measured"] > 4.0
    assert rl["measured"] > 4.0
    # L->R and R->L differ (different programs run remotely)
    assert abs(lr["migrate_us"] - rl["migrate_us"]) > 10_000
    # fully remote is the worst: around an order of magnitude,
    # "almost half a minute" in absolute terms
    assert rr["measured"] > 8.0
    assert 15 < rr["migrate_us"] / 1e6 < 45
    # monotone: more rsh, more time
    assert ll["migrate_us"] < lr["migrate_us"] < rr["migrate_us"]
    assert ll["migrate_us"] < rl["migrate_us"] < rr["migrate_us"]
