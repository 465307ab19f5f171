#!/usr/bin/env python3
"""Sweep the paper's two tuning knobs over a (T, L) grid.

Question: how do the suspicion threshold T and the assumed cycle length L
(together setting the first trigger T2 = T + L) shape detection latency and
wasted work?  The sweep measures, for a 4-site garbage ring under each
(T, L) cell and three seeds:

- rounds from "becomes garbage" to "fully collected";
- abortive (Live) back traces before the confirming one.

Expected shape (paper section 4.3): larger T2 trades latency for precision;
L at least the true cycle length eliminates abortive traces entirely.
The table shows means over the seeds; every (T, L, seed) cell also lands
in ``sweep_results.csv`` for external analysis.  The sweep is a plain loop:
each cell gets its own deterministic seed, ``1000 * cell + repeat``.

Run:  python examples/parameter_sweep.py
"""

import csv
import itertools

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.harness.report import Table
from repro.workloads import build_ring_cycle

N_SITES = 4
THRESHOLDS = [2, 4, 8]
CYCLE_LENGTHS = [1, 4, 8, 16]
REPEATS = 3
METRICS = ("rounds", "abortive")


def measure(threshold, cycle_length, seed):
    """(rounds, abortive) for one cell: see METRICS."""
    gc = GcConfig(
        suspicion_threshold=threshold,
        assumed_cycle_length=cycle_length,
    )
    sim = Simulation.create(SimulationConfig(seed=seed, gc=gc))
    sites = [f"s{i}" for i in range(N_SITES)]
    sim.add_sites(sites, auto_gc=False)
    workload = build_ring_cycle(sim, sites)
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    oracle = Oracle(sim)
    for round_number in range(1, 80):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            return round_number, sim.metrics.count("backtrace.completed_live")
    raise AssertionError("cycle not collected")


def main() -> None:
    table = Table(
        f"T/L sweep: {N_SITES}-site garbage ring (means over {REPEATS} seeds)",
        ["T", "L", *METRICS],
    )
    rows = []
    grid = itertools.product(THRESHOLDS, CYCLE_LENGTHS)
    for cell, (threshold, cycle_length) in enumerate(grid):
        runs = []
        for repeat in range(REPEATS):
            seed = 1000 * cell + repeat
            runs.append(measure(threshold, cycle_length, seed))
            rows.append([threshold, cycle_length, seed, *runs[-1]])
        means = [sum(column) / REPEATS for column in zip(*runs)]
        table.add_row(threshold, cycle_length, *means)
    table.print()
    with open("sweep_results.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["T", "L", "seed", *METRICS])
        writer.writerows(rows)
    print("\nraw cells written to sweep_results.csv")
    print("reading guide: abortive traces vanish once L >= the ring length "
          f"({N_SITES}); larger T2 = T + L costs extra detection rounds.")

if __name__ == "__main__":
    main()
