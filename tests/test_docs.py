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
