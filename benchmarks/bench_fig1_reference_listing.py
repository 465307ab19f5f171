"""F1 -- Figure 1: recording inter-site references.

The figure's story: update messages give local tracing the locality property
(Q collects d, drops its outref for e, P then collects e), but the inter-site
cycle f <-> g is never collected by local tracing alone.  Back tracing closes
exactly that gap.
"""

import pytest

from repro import GcConfig
from repro.analysis import Oracle
from repro.harness.report import Table
from repro.harness.scenarios import build_figure1


def run_local_tracing_only(rounds=20):
    scenario = build_figure1(gc=GcConfig(collector="null"))
    sim = scenario.sim
    timeline = {}
    for round_number in range(1, rounds + 1):
        sim.run_gc_round()
        for label in ("d", "e", "f", "g"):
            oid = scenario[label]
            if label not in timeline and not sim.site(oid.site).heap.contains(oid):
                timeline[label] = round_number
    return scenario, timeline


def run_with_backtracing(max_rounds=40):
    scenario = build_figure1()
    sim = scenario.sim
    oracle = Oracle(sim)
    timeline = {}
    for round_number in range(1, max_rounds + 1):
        sim.run_gc_round()
        oracle.check_safety()
        for label in ("d", "e", "f", "g"):
            oid = scenario[label]
            if label not in timeline and not sim.site(oid.site).heap.contains(oid):
                timeline[label] = round_number
        if not oracle.garbage_set():
            break
    return scenario, timeline


def test_fig1_local_tracing_locality_and_leak(benchmark, record_table):
    (scenario, timeline) = benchmark.pedantic(
        run_local_tracing_only, rounds=1, iterations=1
    )
    table = Table(
        "F1 (Figure 1), local tracing only: collection round per object",
        ["object", "kind", "collected in round"],
    )
    table.add_row("d", "acyclic garbage at Q", timeline.get("d", "never"))
    table.add_row("e", "acyclic garbage at P (via update)", timeline.get("e", "never"))
    table.add_row("f", "inter-site cycle member", timeline.get("f", "never (leak)"))
    table.add_row("g", "inter-site cycle member", timeline.get("g", "never (leak)"))
    record_table("fig1_local_only", table)
    assert timeline.get("d") == 1
    assert timeline.get("e") == 2  # one update-message round later: locality
    assert "f" not in timeline and "g" not in timeline


def test_fig1_backtracing_closes_the_gap(benchmark, record_table):
    (scenario, timeline) = benchmark.pedantic(
        run_with_backtracing, rounds=1, iterations=1
    )
    table = Table(
        "F1 (Figure 1), with back tracing: collection round per object",
        ["object", "collected in round"],
    )
    for label in ("d", "e", "f", "g"):
        table.add_row(label, timeline.get(label, "never"))
    record_table("fig1_backtracing", table)
    assert "f" in timeline and "g" in timeline
    # Live objects a, b, c all survived.
    for label in ("a", "b", "c"):
        oid = scenario[label]
        assert scenario.sim.site(oid.site).heap.contains(oid)
