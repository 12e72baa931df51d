"""The benchmark scripts' one report writer, ``benchmarks/harness.py``."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))

from harness import write_report  # noqa: E402


def test_write_report_keeps_other_sections(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"vm_micro": {"workloads": {}},
                                "recovery": [1]}))
    write_report(str(path), {"recovery": [2], "statd": {"rows": []}})
    assert json.loads(path.read_text()) == {
        "vm_micro": {"workloads": {}}, "recovery": [2],
        "statd": {"rows": []}}


def test_write_report_creates_a_missing_file(tmp_path):
    path = tmp_path / "new.json"
    write_report(str(path), {"b": 1, "a": [2]})
    text = path.read_text()
    assert text == json.dumps({"a": [2], "b": 1}, indent=2,
                              sort_keys=True) + "\n"


@pytest.mark.parametrize("old", ["{not json", "[1, 2]", ""])
def test_write_report_replaces_a_corrupt_or_non_object_file(tmp_path,
                                                             old):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(old)
    write_report(str(path), {"crash_sweep": []})
    text = path.read_text()
    assert json.loads(text) == {"crash_sweep": []}
    assert text.endswith("}\n")


def test_experiments_tables_are_what_generate_report_prints(capsys):
    """EXPERIMENTS.md's tables, "## Figure 1" through the A7 table,
    are exactly ``generate_report.py``'s output: a change to a figure
    driver or to the cost model must regenerate them."""
    import generate_report
    generate_report.main()
    printed = capsys.readouterr().out
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "EXPERIMENTS.md")) as doc:
        text = doc.read()
    a7_table = text.index("\n\n", text.index("## A7")) + 2
    block = text[text.index("## Figure 1"):
                 text.index("\n\n", a7_table) + 1]
    assert printed == block
