"""E12 (ablation) -- what the periodic full refresh of update messages still buys.

The paper assumes a fault-tolerant reference-listing layer (ML94).  This
codebase first closed that gap with a timer: every ``full_update_period``-th
local trace resent all outref distances as an idempotent full update, and
without it a crash-induced distance-propagation stall was never repaired.
Updates have since become an acked, retransmitted stream in which a sequence
gap or a rejected delta makes the receiver ask for a refresh
(``UpdateRefreshRequest``), so the stall is repaired on demand: the sweep
below recovers after the crash in the same number of rounds at every period,
"effectively never" (1000) included.  What the knob still moves is traffic
-- a longer period sends no more update messages than a shorter one.
"""

import dataclasses

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.harness.report import Table
from repro.workloads import build_ring_cycle

BASE = GcConfig(backtrace_timeout=30.0)


def run_crash_recovery(full_update_period, max_rounds=60):
    gc = dataclasses.replace(BASE, full_update_period=full_update_period)
    sites = ["a", "b", "c"]
    sim = Simulation(SimulationConfig(seed=6, gc=gc))
    sim.add_sites(sites, auto_gc=False)
    workload = build_ring_cycle(sim, sites)
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    # Crash a member for a few rounds: the updates sent to it meanwhile are
    # lost, and its view of the cycle's distances goes stale.
    sim.site("c").crash()
    for _ in range(6):
        sim.run_gc_round()
    sim.site("c").recover()
    oracle = Oracle(sim)
    recovered_in = None
    for round_number in range(1, max_rounds + 1):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            recovered_in = round_number
            break
    return {
        "recovered_in": recovered_in,
        "update_msgs": sim.metrics.count("messages.UpdatePayload"),
        "update_units": sim.metrics.count("messages.units"),
    }


def test_e12_refresh_period_sweep(benchmark, record_table):
    def run():
        rows = []
        for period in (1, 2, 4, 8, 1000):
            stats = run_crash_recovery(period)
            rows.append((period, stats))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E12: full-refresh period moves traffic, not recovery (3-site cycle, member down 6 rounds)",
        ["full_update_period", "rounds to collect after recovery", "update msgs", "update units"],
    )
    results = {}
    for period, stats in rows:
        results[period] = stats
        table.add_row(
            period,
            stats["recovered_in"] if stats["recovered_in"] is not None else "stalled",
            stats["update_msgs"],
            stats["update_units"],
        )
    record_table("e12_refresh", table)
    # Every period recovers, and in the same number of rounds: gap-driven
    # refresh requests repair the stall, not the timer.
    recovered = {stats["recovered_in"] for stats in results.values()}
    assert None not in recovered and len(recovered) == 1
    # Refreshing less often never costs more update messages.
    update_msgs = [stats["update_msgs"] for _period, stats in rows]
    assert update_msgs == sorted(update_msgs, reverse=True)
    assert update_msgs[0] > update_msgs[-1]
