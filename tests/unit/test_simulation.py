"""Unit tests for the Simulation facade."""

import pytest

from repro import Simulation, SimulationConfig
from repro.errors import SimulationError
from repro.ids import ObjectId
from repro.workloads import GraphBuilder


def test_add_site_and_lookup():
    sim = Simulation(SimulationConfig(seed=0))
    site = sim.add_site("P", auto_gc=False)
    assert sim.site("P") is site
    assert sim.site_of(ObjectId("P", 0)) is site


def test_duplicate_site_rejected():
    sim = Simulation(SimulationConfig(seed=0))
    sim.add_site("P", auto_gc=False)
    with pytest.raises(SimulationError):
        sim.add_site("P")


def test_unknown_site_rejected():
    sim = Simulation(SimulationConfig(seed=0))
    with pytest.raises(SimulationError):
        sim.site("Z")


def test_add_sites_bulk():
    sim = Simulation(SimulationConfig(seed=0))
    sites = sim.add_sites(["a", "b", "c"], auto_gc=False)
    assert [s.site_id for s in sites] == ["a", "b", "c"]


def test_total_objects_and_ids():
    sim = Simulation(SimulationConfig(seed=0))
    sim.add_sites(["P", "Q"], auto_gc=False)
    b = GraphBuilder(sim)
    b.obj("P")
    b.obj("Q")
    b.obj("Q")
    assert sim.total_objects() == 3
    assert len(sim.all_object_ids()) == 3


def test_settle_reaches_quiescence():
    sim = Simulation(SimulationConfig(seed=0))
    sim.add_sites(["P", "Q"], auto_gc=False)
    b = GraphBuilder(sim)
    root = b.obj("P", root=True)
    far = b.obj("Q")
    b.link(root, far)
    sim.site("P").run_local_trace()
    sim.settle()
    assert sim.audit_state().in_flight == []


def test_settle_raises_if_never_quiet():
    sim = Simulation(SimulationConfig(seed=0))
    sim.add_site("P", auto_gc=False)

    def forever():
        sim.scheduler.schedule(10.0, forever)

    forever()
    with pytest.raises(SimulationError):
        sim.settle(quiet_time=50.0, max_rounds=5)


def test_auto_gc_runs_periodic_traces():
    sim = Simulation(SimulationConfig(seed=0))
    site = sim.add_site("P", auto_gc=True)
    site.heap.alloc()  # garbage from the start
    sim.run_for(5 * sim.config.gc.local_trace_period)
    # Every period ticks, but once the heap is quiescent the incremental
    # planner resolves ticks as skips instead of redundant full traces.
    ticks = site.collector.traces_run + sim.metrics.count("gc.traces_skipped")
    assert ticks >= 3
    assert site.collector.traces_run >= 1
    assert sim.metrics.count("gc.traces_skipped") >= 1
    assert len(site.heap) == 0


def test_manual_mode_runs_no_traces():
    sim = Simulation(SimulationConfig(seed=0))
    site = sim.add_site("P", auto_gc=False)
    site.heap.alloc()
    sim.run_for(5 * sim.config.gc.local_trace_period)
    assert site.collector.traces_run == 0
    assert len(site.heap) == 1


def test_run_gc_round_skips_crashed_sites():
    sim = Simulation(SimulationConfig(seed=0))
    sim.add_sites(["P", "Q"], auto_gc=False)
    sim.site("Q").crash()
    sim.run_gc_round()
    assert sim.site("P").collector.traces_run == 1
    assert sim.site("Q").collector.traces_run == 0


def test_trace_outcomes_recorded_once_per_trace():
    from repro.workloads import build_ring_cycle
    from repro.core.backtrace.messages import TraceOutcome

    sim = Simulation(SimulationConfig(seed=0))
    sim.add_sites(["P", "Q"], auto_gc=False)
    workload = build_ring_cycle(sim, ["P", "Q"])
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    for _ in range(30):
        sim.run_gc_round()
    garbage_outcomes = [
        outcome for outcome in sim.trace_outcomes if outcome[3] is TraceOutcome.GARBAGE
    ]
    assert len(garbage_outcomes) == 1


def test_deterministic_replay():
    def run():
        sim = Simulation(SimulationConfig(seed=99))
        sim.add_sites(["P", "Q", "R"], auto_gc=True)
        from repro.workloads import build_random_clustered_graph
        build_random_clustered_graph(sim, ["P", "Q", "R"], objects_per_site=15, seed=3)
        sim.run_for(1000.0)
        return (
            sim.metrics.count("messages.total"),
            sim.total_objects(),
            sim.scheduler.events_fired,
        )

    assert run() == run()
