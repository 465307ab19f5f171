"""E13 (extension) -- Scalability with system size (paper sections 1 and 8).

"It is suitable for emerging distributed object systems that must scale to a
large number of sites."  The concrete claim behind that sentence is
locality: the cost of collecting one cycle depends on the *cycle*, not on
the system.  The bench fixes the garbage (four 2-site cycles) and grows the
system around it from 8 to 64 sites, measuring back-trace messages and the
set of sites the cycle collection involves.  Flat lines = scalability.
"""

import time

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot
from repro.harness.report import Table
from repro.workloads import GraphBuilder, build_ring_cycle

N_CYCLES = 4


def _build_system(n_sites, seed, gc):
    sites = [f"s{i:02d}" for i in range(n_sites)]
    sim = Simulation(SimulationConfig(seed=seed, gc=gc))
    sim.add_sites(sites, auto_gc=False)
    # The garbage: four 2-site cycles on the first 8 sites (fixed).
    cycles = [
        build_ring_cycle(sim, [sites[2 * k], sites[2 * k + 1]])
        for k in range(N_CYCLES)
    ]
    # Live background structure everywhere else, so bigger systems really
    # do more reference-listing work overall.
    builder = GraphBuilder(sim)
    for index in range(8, n_sites):
        root = builder.obj(sites[index], root=True)
        neighbour = builder.obj(sites[(index + 1) % n_sites])
        builder.link(root, neighbour)
    return sim, cycles


def run_system(n_sites, seed=2):
    sim, cycles = _build_system(n_sites, seed, GcConfig())
    for _ in range(2):
        sim.run_gc_round()
    for cycle in cycles:
        cycle.make_garbage(sim)
    oracle = Oracle(sim)
    before = sim.metrics.snapshot()
    rounds = None
    for round_number in range(1, 60):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            rounds = round_number
            break
    assert rounds is not None
    delta = sim.metrics.snapshot().diff(before)
    backtrace_msgs = sum(
        delta.get(f"messages.{kind}", 0)
        for kind in ("BackCall", "BackReply", "BackOutcome")
    )
    involved = set()
    for key, value in delta.items():
        parts = key.split(".")
        if (
            len(parts) == 3
            and parts[0] == "involve"
            and parts[1] in ("BackCall", "BackReply", "BackOutcome")
            and value
        ):
            involved.add(parts[2])
    return {
        "rounds": rounds,
        "backtrace_msgs": backtrace_msgs,
        "involved_sites": len(involved),
        "total_msgs": delta.get("messages.total", 0),
    }


def test_e13_scalability_series(benchmark, record_table):
    def run():
        return [(n, run_system(n)) for n in (8, 16, 32, 64)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        f"E13: fixed garbage ({N_CYCLES} 2-site cycles), growing system",
        [
            "system sites",
            "rounds to clean",
            "back-trace msgs",
            "sites involved in back tracing",
        ],
    )
    for n_sites, stats in rows:
        table.add_row(
            n_sites, stats["rounds"], stats["backtrace_msgs"], stats["involved_sites"]
        )
    record_table("e13_scalability", table)
    msgs = [stats["backtrace_msgs"] for _, stats in rows]
    involved = [stats["involved_sites"] for _, stats in rows]
    # The headline: back-trace cost and involvement are flat in system size.
    assert len(set(msgs)) == 1
    assert len(set(involved)) == 1
    assert involved[0] == 2 * N_CYCLES


@pytest.mark.parametrize("n_sites", [8, 64])
def test_e13_wall_time(benchmark, n_sites):
    stats = benchmark.pedantic(run_system, args=(n_sites,), rounds=1, iterations=1)
    assert stats["rounds"] is not None


# -- incremental local traces on the e13 steady state ---------------------------
#
# After the cycles are collected the system is quiescent: every further gc
# tick re-scans an unchanged heap.  The incremental planner resolves those
# ticks as skips (plus one forced full trace per site every
# ``full_trace_every_n`` ticks), so steady-state scanning cost drops by
# roughly that factor while the table state stays byte-identical.

STEADY_ROUNDS = 24


def run_steady_state(n_sites, incremental, seed=2, steady_rounds=STEADY_ROUNDS):
    gc = GcConfig(incremental_traces=incremental)
    sim, cycles = _build_system(n_sites, seed, gc)
    for _ in range(2):
        sim.run_gc_round()
    for cycle in cycles:
        cycle.make_garbage(sim)
    oracle = Oracle(sim)
    for _ in range(60):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()

    before = sim.metrics.snapshot()
    started = time.perf_counter()
    for _ in range(steady_rounds):
        sim.run_gc_round()
    wall_seconds = time.perf_counter() - started
    delta = sim.metrics.snapshot().diff(before)
    oracle.check_safety()

    ticks = steady_rounds * n_sites
    skipped = delta.get("gc.traces_skipped", 0)
    fast = delta.get("gc.traces_fast_path", 0)
    objects_scanned = delta.get("gc.objects_scanned", 0)
    return {
        "mode": "incremental" if incremental else "full",
        "ticks": ticks,
        "skipped": skipped,
        "fast_path": fast,
        "full": delta.get("gc.traces_full", 0),
        "resolved_cheaply": (skipped + fast) / ticks,
        "objects_scanned": objects_scanned,
        # Clean-phase throughput: how fast the hot scan loop chews through
        # objects (tracks the effect of micro-optimisations in
        # repro.core.distance on otherwise identical work).
        "objects_scanned_per_sec": objects_scanned / wall_seconds
        if wall_seconds > 0
        else 0.0,
        "update_messages": delta.get("messages.UpdatePayload", 0),
        "wall_seconds": wall_seconds,
        "fingerprint": graph_snapshot(sim)["sites"],
    }


def test_e13_incremental_steady_state(benchmark, record_table):
    def run():
        return {
            incremental: run_steady_state(16, incremental)
            for incremental in (True, False)
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    inc, full = stats[True], stats[False]
    table = Table(
        f"E13b: steady-state gc ticks ({STEADY_ROUNDS} rounds, 16 sites)",
        [
            "mode",
            "ticks",
            "skip",
            "fast",
            "full",
            "objects scanned",
            "scanned/s",
            "wall (s)",
        ],
    )
    for row in (full, inc):
        table.add_row(
            row["mode"],
            row["ticks"],
            row["skipped"],
            row["fast_path"],
            row["full"],
            row["objects_scanned"],
            f"{row['objects_scanned_per_sec']:.0f}",
            f"{row['wall_seconds']:.3f}",
        )
    record_table("e13b_incremental_steady_state", table)

    # Acceptance: >=70% of ticks resolve without a full trace, scanning
    # drops >=3x, and the final table state is byte-identical across modes.
    assert inc["resolved_cheaply"] >= 0.70
    assert inc["objects_scanned"] * 3 <= full["objects_scanned"]
    assert inc["fingerprint"] == full["fingerprint"]


if __name__ == "__main__":
    # Standalone mode: emit the steady-state comparison as JSON so the repo
    # can pin the headline numbers (see BENCH_incremental_trace.json).
    import json
    import sys

    try:
        from .hostinfo import host_header
    except ImportError:
        from hostinfo import host_header

    results = {"host": host_header()}
    results |= {
        "incremental" if inc else "full": {
            key: value
            for key, value in run_steady_state(16, inc).items()
            if key != "fingerprint"
        }
        for inc in (True, False)
    }
    results["objects_scanned_ratio"] = (
        results["full"]["objects_scanned"]
        / max(1, results["incremental"]["objects_scanned"])
    )
    json.dump(results, sys.stdout, indent=2)
    print()
