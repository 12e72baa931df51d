"""The paper's figures, ablations and extensions as a tier-1 gate.

The shape assertions live once, in ``benchmarks/bench_fig*.py``,
``bench_ablation*.py`` and ``bench_ext*.py``, where they run under
pytest-benchmark.  This module runs the same test functions without
that plugin: each one gets a stand-in ``benchmark`` whose
``pedantic`` calls the figure driver once, so every bound stays in
the benchmark file that states it.
"""

import glob
import importlib.util
import inspect
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "benchmarks")

#: cases known to miss the paper, each with the reason; strict, so
#: the change that fixes one must also drop its entry here
KNOWN_FAILURES = {
    "bench_fig3_restart::test_fig3_restart":
        "restart real time is 22.6x execve against the < 8.0 bound: "
        "rest_proc unlinks the three dump files as migrate's ack, at "
        "disk_create_us each (ROADMAP.md, figure 3 item)",
}


class StandInBenchmark:
    """The slice of pytest-benchmark's fixture the drivers use."""

    def __init__(self):
        self.extra_info = {}

    def pedantic(self, target, rounds=1, iterations=1):
        return target()


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _collect():
    """(case id, test function) for every paper-figure test."""
    helpers = _load(os.path.join(BENCH_DIR, "conftest.py"),
                    "paper_bench_conftest")
    saved = sys.modules.get("conftest")
    # the benchmark files import their helpers as ``conftest``
    sys.modules["conftest"] = helpers
    try:
        cases = []
        for pattern in ("bench_fig*.py", "bench_ablation*.py",
                        "bench_ext*.py"):
            for path in sorted(glob.glob(os.path.join(BENCH_DIR,
                                                      pattern))):
                stem = os.path.basename(path)[:-3]
                module = _load(path, "paper_" + stem)
                cases.extend(("%s::%s" % (stem, name), function)
                             for name, function
                             in sorted(vars(module).items())
                             if name.startswith("test_")
                             and inspect.isfunction(function))
        return cases
    finally:
        if saved is None:
            del sys.modules["conftest"]
        else:
            sys.modules["conftest"] = saved


def _params():
    params = []
    for case_id, function in _collect():
        marks = ()
        if case_id in KNOWN_FAILURES:
            marks = pytest.mark.xfail(strict=True,
                                      reason=KNOWN_FAILURES[case_id])
        params.append(pytest.param(function, id=case_id, marks=marks))
    return params


@pytest.mark.parametrize("function", _params())
def test_paper_figure(function):
    if "benchmark" in inspect.signature(function).parameters:
        function(benchmark=StandInBenchmark())
    else:
        function()

