#!/usr/bin/env python3
"""Seven collectors, one job: a 2-site garbage cycle in an 8-site system.

Runs the paper's scheme (back tracing) against the six collector families
of section 7 -- controlled migration, group tracing, trial deletion (cyclic
reference counting, run as the ``termination`` backend), the central
service, Hughes timestamps, and global tracing -- on identical workloads,
then again with one *bystander* site crashed.  Prints the
locality/fault-tolerance comparison table (the code behind benchmark E6).

Run:  python examples/baseline_shootout.py
"""

from repro.harness.comparison import run_with_collector
from repro.harness.report import Table


def main() -> None:
    table = Table(
        "Collecting a 2-site cycle in an 8-site system",
        [
            "collector",
            "rounds",
            "protocol msgs",
            "sites involved",
            "collected",
            "collected w/ bystander crash",
        ],
    )
    for name in ("backtrace", "migration", "group", "termination", "central", "hughes", "global"):
        healthy = run_with_collector(name)
        crashed = run_with_collector(name, crash_bystander=True)
        table.add_row(
            name,
            healthy["rounds"] if healthy["rounds"] is not None else "-",
            healthy["messages"],
            len(healthy["involved"]),
            "yes" if healthy["collected"] else "NO",
            "yes" if crashed["collected"] else "NO",
        )
        print(f"ran {name:11s} healthy={healthy['collected']} crashed={crashed['collected']}")
    table.print()
    print(
        "\nReading guide: back tracing and migration have the locality\n"
        "property (2 sites involved, failure-immune); migration's messages\n"
        "carry whole objects though.  Hughes and global tracing involve all\n"
        "8 sites and a single crashed bystander freezes them system-wide."
    )


if __name__ == "__main__":
    main()
