"""E2 -- The distance-propagation theorem (paper section 3).

Claim: if all sites containing a cycle do at least one local trace per
round, then k rounds after the cycle became garbage the estimated distances
of all its objects are at least k.  Corollaries benchmarked alongside: live
objects' estimates converge to their true distances and then stop changing,
and every cyclic-garbage ioref eventually crosses any suspicion threshold.
"""

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.harness.report import Table
from repro.workloads import GraphBuilder, build_ring_cycle

NO_BT = GcConfig(collector="null")


def make_sim(sites, seed=2):
    sim = Simulation(SimulationConfig(seed=seed, gc=NO_BT))
    sim.add_sites(sites, auto_gc=False)
    return sim


def min_cycle_distance(sim, workload):
    distances = []
    for member in workload.cycle:
        entry = sim.site(member.site).inrefs.get(member)
        if entry is not None:
            distances.append(entry.distance)
    return min(distances)


def sweep_rounds(n_sites, rounds):
    sites = [f"s{i}" for i in range(n_sites)]
    sim = make_sim(sites)
    workload = build_ring_cycle(sim, sites)
    for _ in range(3):
        sim.run_gc_round()
    workload.make_garbage(sim)
    base = min_cycle_distance(sim, workload)
    series = []
    for k in range(1, rounds + 1):
        sim.run_gc_round()
        series.append((k, min_cycle_distance(sim, workload), base + k))
    return base, series


@pytest.mark.parametrize("n_sites", [2, 4, 8])
def test_distance_lower_bound_per_round(benchmark, record_table, n_sites):
    base, series = benchmark.pedantic(
        sweep_rounds, args=(n_sites, 12), rounds=1, iterations=1
    )
    table = Table(
        f"E2 ring N={n_sites}: min estimated cycle distance vs rounds since garbage",
        ["round k", "min distance", "theorem bound (>= base+k)"],
    )
    for k, measured, bound in series:
        table.add_row(k, measured, bound)
        assert measured >= base + k  # stronger than the paper's ">= k"
    record_table(f"e2_growth_n{n_sites}", table)


def test_live_distances_converge_and_freeze(benchmark, record_table):
    def run():
        sites = [f"s{i}" for i in range(5)]
        sim = make_sim(sites)
        b = GraphBuilder(sim)
        root = b.obj("s0", "root", root=True)
        members = [b.obj(site) for site in sites[1:]]
        b.link(root, members[0])
        for left, right in zip(members, members[1:]):
            b.link(left, right)
        for _ in range(8):
            sim.run_gc_round()
        first = [
            sim.site(m.site).inrefs.require(m).distance for m in members
        ]
        for _ in range(5):
            sim.run_gc_round()
        second = [
            sim.site(m.site).inrefs.require(m).distance for m in members
        ]
        return members, first, second

    members, first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E2 live chain: estimates converge to true distance and freeze",
        ["object", "true distance", "estimate @8 rounds", "estimate @13 rounds"],
    )
    for index, member in enumerate(members, start=1):
        table.add_row(str(member), index, first[index - 1], second[index - 1])
        assert first[index - 1] == index
        assert second[index - 1] == index
    record_table("e2_live_convergence", table)


def test_suspicion_crossing_time(benchmark, record_table):
    """Rounds until every cycle ioref crosses the threshold ~ T + constant."""

    def run():
        rows = []
        for threshold in (4, 8, 12):
            sites = [f"s{i}" for i in range(3)]
            sim = Simulation(
                SimulationConfig(
                    seed=3,
                    gc=GcConfig(suspicion_threshold=threshold, collector="null"),
                )
            )
            sim.add_sites(sites, auto_gc=False)
            workload = build_ring_cycle(sim, sites)
            for _ in range(3):
                sim.run_gc_round()
            workload.make_garbage(sim)
            rounds = 0
            while rounds < threshold + 10:
                sim.run_gc_round()
                rounds += 1
                if all(
                    sim.site(m.site).inrefs.require(m).is_suspected(threshold)
                    for m in workload.cycle
                    if sim.site(m.site).inrefs.get(m) is not None
                ):
                    break
            rows.append((threshold, rounds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E2 suspicion latency: rounds until a garbage ring is fully suspected",
        ["threshold T", "rounds to full suspicion"],
    )
    for threshold, rounds in rows:
        table.add_row(threshold, rounds)
        assert rounds <= threshold + 5
    record_table("e2_suspicion_latency", table)
