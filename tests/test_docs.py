"""Documentation consistency: man pages and examples match reality."""

import importlib
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: man page -> the /bin name it documents (section 2/7 pages are
#: kernel interfaces, not binaries)
_MAN_BINARIES = {
    "dumpproc.1.md": "dumpproc",
    "restart.1.md": "restart",
    "migrate.1.md": "migrate",
    "migrationd.8.md": "migrationd",
    "ckptd.8.md": "ckptd",
    "recoveryd.8.md": "recoveryd",
    "sh.1.md": "sh",
    "migstat.1.md": "migstat",
    "loadd.8.md": "loadd",
    "statd.8.md": "statd",
    "migtop.1.md": "migtop",
}


def test_every_man_page_exists():
    mandir = os.path.join(REPO, "docs", "man")
    present = set(os.listdir(mandir))
    for page in list(_MAN_BINARIES) + ["rest_proc.2.md",
                                       "sigdump.7.md",
                                       "tracefmt.5.md"]:
        assert page in present, page


def test_documented_binaries_are_installed(site):
    brick = site.machine("brick")
    for page, binary in _MAN_BINARIES.items():
        inode = brick.fs.resolve_local("/bin/%s" % binary)
        assert inode.is_reg() and inode.mode & 0o111, binary


#: man page -> the ``repro.programs`` module whose ``USAGE`` it shows
_MAN_USAGES = {
    "dumpproc.1.md": "dumpproc",
    "restart.1.md": "restart",
    "migrate.1.md": "migrate",
    "ckptd.8.md": "ckptd",
    "recoveryd.8.md": "recoveryd",
    "loadd.8.md": "loadd",
    "statd.8.md": "statd",
    "migtop.1.md": "migtop",
}


def _synopsis(page):
    """The first SYNOPSIS paragraph of ``page`` as plain words."""
    text = open(os.path.join(REPO, "docs", "man", page)).read()
    section = text.split("## SYNOPSIS", 1)[1].split("\n## ", 1)[0]
    first = section.strip().split("\n\n", 1)[0]
    return " ".join(first.replace("*", "").split()).replace(" ...",
                                                            "...")


@pytest.mark.parametrize("page", sorted(_MAN_USAGES))
def test_man_synopsis_matches_usage(page):
    """Every flag a program takes is in its man page's SYNOPSIS, with
    the same arguments and the same optional brackets, and no other
    flag is."""
    module = importlib.import_module("repro.programs." + _MAN_USAGES[page])
    assert module.USAGE.startswith("usage: ")
    assert _synopsis(page) == module.USAGE[len("usage: "):]


def test_readme_examples_exist_and_examples_are_documented():
    readme = open(os.path.join(REPO, "README.md")).read()
    exdir = os.path.join(REPO, "examples")
    scripts = sorted(name for name in os.listdir(exdir)
                     if name.endswith(".py"))
    assert scripts, "no examples found"
    for name in scripts:
        assert name in readme or name == "service_migration.py", \
            "example %s not mentioned in README" % name
    for mentioned in ("quickstart.py", "checkpointing.py",
                      "load_balancing.py"):
        assert mentioned in scripts


def test_design_md_mentions_every_bench():
    design = open(os.path.join(REPO, "DESIGN.md")).read()
    benchdir = os.path.join(REPO, "benchmarks")
    for name in os.listdir(benchdir):
        if name.startswith("bench_fig"):
            assert name in design, name


def test_perf_counter_reference_is_generated_and_complete():
    """docs/perf_counters.md is generated (python -m
    repro.perf.gendocs) and documents every flat counter."""
    from repro.perf.counters import (PerfCounters, COUNTER_DOCS,
                                     counter_reference)
    path = os.path.join(REPO, "docs", "perf_counters.md")
    assert open(path).read() == counter_reference(), \
        "stale %s: rerun python -m repro.perf.gendocs" % path
    flat = {name for name, value in vars(PerfCounters()).items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)}
    assert flat == set(COUNTER_DOCS), \
        "undocumented counters: %s" % (flat ^ set(COUNTER_DOCS))


def test_experiments_md_has_every_figure():
    experiments = open(os.path.join(REPO, "EXPERIMENTS.md")).read()
    for heading in ("Figure 1", "Figure 2", "Figure 3", "Figure 4",
                    "A1", "A2", "A3", "A4", "A5", "A6", "A7"):
        assert heading in experiments, heading


def _man_table_rows():
    """(page, cells) of every table row in the man pages, the
    header separators left out."""
    mandir = os.path.join(REPO, "docs", "man")
    for page in sorted(os.listdir(mandir)):
        for line in open(os.path.join(mandir, page)):
            if line.startswith("|") and not line.startswith("|-"):
                cells = [cell.strip().strip("`*")
                         for cell in line.strip().strip("|").split("|")]
                yield page, cells


def test_man_page_knob_defaults_match_the_cost_model():
    """A man-page table row that names a CostModel field shows that
    field's default: bools as off/on, numbers compared as floats."""
    from dataclasses import fields
    from repro.costmodel import CostModel
    defaults = {f.name: getattr(CostModel(), f.name)
                for f in fields(CostModel)}
    checked = 0
    for page, cells in _man_table_rows():
        if cells[0] not in defaults or len(cells) < 2:
            continue
        default = defaults[cells[0]]
        if isinstance(default, bool):
            assert cells[1] == ("on" if default else "off"), (page, cells)
        elif isinstance(default, (int, float)):
            assert float(cells[1]) == float(default), (page, cells)
        else:
            assert cells[1] == default, (page, cells)
        checked += 1
    assert checked > 20


def test_design_module_map_names_every_module_and_only_real_ones():
    """DESIGN.md section 3's table names files that exist under
    ``src/repro``, and every module there (package ``__init__`` files
    aside)."""
    import re
    design = open(os.path.join(REPO, "DESIGN.md")).read()
    section = design.split("## 3. ", 1)[1].split("\n## ", 1)[0]
    named = set()
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith("| Subsystem"):
            continue
        __, package, contents = [cell.strip()
                                 for cell in line.strip("|").split("|")]
        for module in re.findall(r"`([\w/]+\.py)`", contents):
            named.add(os.path.normpath(
                os.path.join("src", package.strip("`"), module)))
    missing = sorted(path for path in named
                     if not os.path.isfile(os.path.join(REPO, path)))
    assert missing == []
    actual = set()
    for dirpath, __, names in os.walk(os.path.join(REPO, "src", "repro")):
        for name in names:
            if name.endswith(".py") and name != "__init__.py":
                actual.add(os.path.relpath(os.path.join(dirpath, name),
                                           REPO))
    assert sorted(actual - named) == []
