"""E13 (extension) -- Scalability with system size (paper sections 1 and 8).

"It is suitable for emerging distributed object systems that must scale to a
large number of sites."  The concrete claim behind that sentence is
locality: the cost of collecting one cycle depends on the *cycle*, not on
the system.  The bench fixes the garbage (four 2-site cycles) and grows the
system around it from 8 to 64 sites, measuring back-trace messages and the
set of sites the cycle collection involves.  Flat lines = scalability.
"""

import pytest

from repro import Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.harness.report import Table
from repro.workloads import GraphBuilder, build_ring_cycle

N_CYCLES = 4


def _build_system(n_sites, seed):
    sites = [f"s{i:02d}" for i in range(n_sites)]
    sim = Simulation(SimulationConfig(seed=seed))
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
    sim, cycles = _build_system(n_sites, seed)
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
