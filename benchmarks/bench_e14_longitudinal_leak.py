"""E14 -- The motivating claim: storage loss accumulates in long-lived systems.

Paper section 1: "Collection of such cycles is particularly important in
long-lived systems because even small amounts of uncollected garbage can
accumulate over time to cause a significant storage loss."

The bench runs a long-lived hypertext store through many publish/retire
epochs.  Each epoch publishes a fresh cross-linked document cluster (whose
citations close inter-site cycles) and retires an old one from the catalog.
With local tracing only, retired clusters accumulate forever; with back
tracing, steady-state storage is flat.  The recorded series is the figure
the paper's sentence describes.
"""

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.harness.report import Table
from repro.workloads import GraphBuilder

SITES = ["lib0", "lib1", "lib2"]


def publish_cluster(sim, builder, catalog, epoch):
    """One document cluster: pages on all three sites, cyclically linked."""
    pages = [builder.obj(SITES[(epoch + offset) % 3]) for offset in range(3)]
    builder.link_cycle(pages)
    extra = builder.obj(SITES[epoch % 3])
    builder.link(pages[0], extra)
    sim.site(catalog.site).mutator_add_ref(catalog, pages[0])
    return pages[0]


def run_store(collector, epochs=14, rounds_per_epoch=4, seed=9):
    gc = GcConfig(collector=collector)
    sim = Simulation(SimulationConfig(seed=seed, gc=gc))
    sim.add_sites(SITES, auto_gc=False)
    builder = GraphBuilder(sim)
    catalog = builder.obj("lib0", root=True)
    oracle = Oracle(sim)
    published = []
    series = []
    for epoch in range(epochs):
        published.append(publish_cluster(sim, builder, catalog, epoch))
        if len(published) > 3:
            # Retire the oldest still-cataloged cluster.
            victim = published.pop(0)
            if sim.site(catalog.site).heap.get(catalog).holds_ref(victim):
                sim.site(catalog.site).mutator_remove_ref(catalog, victim)
        for _ in range(rounds_per_epoch):
            sim.run_gc_round()
        oracle.check_safety()
        series.append((epoch + 1, sim.total_objects(), len(oracle.garbage_set())))
    return series


def test_e14_longitudinal_leak(benchmark, record_table):
    def run():
        return run_store("null"), run_store("backtrace")

    leaky, fixed = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E14: long-lived store, publish+retire churn (3 clusters live at steady state)",
        ["epoch", "objects (local only)", "leaked", "objects (back tracing)", "leaked"],
    )
    for (epoch, objs_l, leak_l), (_, objs_f, leak_f) in zip(leaky, fixed):
        if epoch % 2 == 0:
            table.add_row(epoch, objs_l, leak_l, objs_f, leak_f)
    record_table("e14_longitudinal", table)

    # Leak grows roughly linearly without back tracing...
    assert leaky[-1][2] > leaky[len(leaky) // 2][2] > 0
    # ...and stays bounded (and small) with it.
    fixed_leaks = [leak for _, _, leak in fixed]
    assert max(fixed_leaks[len(fixed_leaks) // 2:]) <= 8
    # Steady-state storage with back tracing is flat (plus/minus a cluster).
    late = [objs for _, objs, _ in fixed[-4:]]
    assert max(late) - min(late) <= 8
    # The gap at the end is the accumulated loss the paper warns about.
    assert leaky[-1][1] > fixed[-1][1] + 20
