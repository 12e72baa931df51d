#!/usr/bin/env python
"""Regenerate the measured tables in EXPERIMENTS.md.

Run ``python benchmarks/generate_report.py`` and paste (or redirect)
the output; every number comes from the same drivers the benchmark
suite asserts against.
"""

# harness puts src/ on sys.path
import harness  # noqa: F401

from repro.bench import (fig1, fig2, fig3, fig4,
                         ablation_daemon_vs_rsh,
                         ablation_polling_interval,
                         ablation_name_storage, ablation_namei_cache,
                         app_load_balancing, ext_compat_ids,
                         ext_socket_migration)
from repro.clock import fmt_us


def table(rows, columns):
    """Render a markdown table from a list of dicts."""
    out = ["| " + " | ".join(title for title, __ in columns) + " |",
           "|" + "|".join("---" for __ in columns) + "|"]
    for row in rows:
        cells = []
        for __, render in columns:
            cells.append(render(row))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def ratio(key):
    return lambda row: "%.2f" % row[key]


def us(key):
    return lambda row: fmt_us(row[key])


def main():
    print("## Figure 1 — modified system call overhead\n")
    result = fig1()
    print(table(result["rows"], [
        ("call", lambda r: r["call"]),
        ("original (us/iter)", us("original_us_per_iter")),
        ("modified (us/iter)", us("modified_us_per_iter")),
        ("measured ratio", ratio("measured")),
        ("paper ratio", ratio("paper")),
    ]))

    print("\n## Figure 2 — dumping a process (normalized to SIGQUIT)\n")
    result = fig2()
    print(table(result["rows"], [
        ("case", lambda r: r["case"]),
        ("real", us("real_us")),
        ("CPU", us("cpu_us")),
        ("measured real x", ratio("measured_real")),
        ("paper real x", ratio("paper_real")),
        ("measured CPU x", ratio("measured_cpu")),
        ("paper CPU x", ratio("paper_cpu")),
    ]))
    print("\nanchor: SIGDUMP kill of the test program = %.2f s "
          "(paper: ~0.6 s)" % result["anchor_sigdump_real_s"])

    print("\n## Figure 3 — restarting a process (normalized to "
          "execve)\n")
    result = fig3()
    print(table(result["rows"], [
        ("case", lambda r: r["case"]),
        ("real", us("real_us")),
        ("CPU", us("cpu_us")),
        ("measured real x", ratio("measured_real")),
        ("paper real x", ratio("paper_real")),
        ("measured CPU x", ratio("measured_cpu")),
        ("paper CPU x", ratio("paper_cpu")),
    ]))
    print("\nanchor: execve of the test program = %.3f s "
          "(paper: < 0.2 s); rest_proc is %.0f%% of restart's real "
          "time (the figure's dotted split)"
          % (result["anchor_execve_real_s"],
             100 * result["rows"][2]["rest_proc_share_real"]))

    print("\n## Figure 4 — migrate vs dumpproc+restart (real time)\n")
    result = fig4()
    print(table(result["rows"], [
        ("case", lambda r: r["case"]),
        ("migrate", us("migrate_us")),
        ("dumpproc+restart", us("dumpproc_restart_us")),
        ("measured ratio", ratio("measured")),
        ("paper ratio (approx)", ratio("paper")),
    ]))

    print("\n## A1 — daemon vs rsh\n")
    result = ablation_daemon_vs_rsh()
    print(table(result["rows"], [
        ("transport", lambda r: r["case"]),
        ("remote migrate", us("real_us")),
        ("speedup", ratio("speedup")),
    ]))

    print("\n## A2 — dumpproc poll interval\n")
    result = ablation_polling_interval()
    print(table(result["rows"], [
        ("sleep (s)", lambda r: "%.1f" % r["sleep_s"]),
        ("real", us("real_us")),
        ("CPU", us("cpu_us")),
        ("real/CPU gap", ratio("gap")),
    ]))

    print("\n## A3 — name storage\n")
    result = ablation_name_storage()
    print(table(result["rows"], [
        ("open files", lambda r: str(r["open_files"])),
        ("dynamic bytes", lambda r: str(r["dynamic_bytes"])),
        ("fixed bytes", lambda r: str(r["fixed_bytes"])),
        ("saving", lambda r: "%.0f%%" % (100 * r["saving"])),
    ]))

    print("\n## A4 — load balancing makespan\n")
    result = app_load_balancing(hogs=2)
    print(table(result["rows"], [
        ("configuration", lambda r: r["case"]),
        ("makespan", us("makespan_us")),
        ("speedup", ratio("speedup")),
    ]))

    print("\n## A5 — getpid compatibility extension\n")
    result = ext_compat_ids()
    print(table(result["rows"], [
        ("kernel", lambda r: r["case"]),
        ("pidtemp after migration", lambda r: r["outcome"]),
    ]))

    print("\n## A6 — migrating a network service (section 9 "
          "future work)\n")
    result = ext_socket_migration()
    print(table(result["rows"], [
        ("kernel", lambda r: r["kernel"]),
        ("service survives", lambda r: r["service survives"]),
        ("outage", lambda r: fmt_us(r["outage_us"])
            if "outage_us" in r else "-"),
    ]))

    print("\n## A7 — a 4.3BSD-style name cache under restart\n")
    result = ablation_namei_cache()
    print(table(result["rows"], [
        ("kernel", lambda r: r["kernel"]),
        ("restart real", us("restart_real_us")),
        ("restart CPU", us("restart_cpu_us")),
        ("CPU speedup", ratio("speedup_cpu")),
    ]))


if __name__ == "__main__":
    main()
