"""Unit tests for the structured protocol event log."""

import pytest

from repro import GcConfig
from repro.analysis import Oracle, TraceLog
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import collect_until_clean, make_sim


def run_cycle_with_log():
    sim = make_sim(sites=("P", "Q"))
    log = TraceLog(sim)
    workload = build_ring_cycle(sim, ["P", "Q"])
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    collect_until_clean(sim, Oracle(sim), max_rounds=40)
    return sim, log


def test_logs_local_traces_with_sweep_counts():
    sim, log = run_cycle_with_log()
    traces = log.of_kind("local-trace")
    assert traces
    assert sum(event.detail["swept"] for event in traces) >= 2


def test_local_trace_counts_are_the_traces_own_counters():
    sim = make_sim(sites=("P", "Q"))
    log = TraceLog(sim)
    results = []
    for site in sim.sites.values():

        def run(logged=site.run_local_trace):
            result = logged()
            if result is not None:
                results.append(result)
            return result

        site.run_local_trace = run
    workload = build_ring_cycle(sim, ["P", "Q"])
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    collect_until_clean(sim, Oracle(sim), max_rounds=40)
    events = log.of_kind("local-trace")
    assert len(events) == len(results)
    for event, result in zip(events, results):
        assert event.detail["clean"] == result.clean_phase.objects_scanned
        assert event.detail["suspected"] == result.backinfo.objects_scanned
    # Every trace, full or distance, adds up to the collector's counters.
    clean = sum(event.detail["clean"] for event in events)
    suspected = sum(event.detail["suspected"] for event in events)
    assert clean == sim.metrics.count("gc.clean_objects_scanned") > 0
    assert suspected == sim.metrics.count("gc.suspected_objects_scanned") > 0


def test_logs_backtrace_lifecycle():
    sim, log = run_cycle_with_log()
    starts = log.of_kind("backtrace-start")
    outcomes = log.of_kind("backtrace-outcome")
    assert len(starts) == 1
    assert len(outcomes) == 1
    assert outcomes[0].detail["verdict"] == "garbage"
    assert outcomes[0].detail["trace"] == starts[0].detail["trace"]
    assert starts[0].time <= outcomes[0].time


@pytest.mark.parametrize("collector", ["null", "termination"])
def test_attaches_to_backends_without_an_engine(collector):
    sim = make_sim(sites=("P", "Q"), gc=GcConfig(collector=collector))
    log = TraceLog(sim)
    workload = build_ring_cycle(sim, ["P", "Q"])
    workload.make_garbage(sim)
    for _ in range(3):
        sim.run_gc_round()
    assert log.of_kind("local-trace")
    assert not log.of_kind("backtrace-start")


def test_wrapped_local_trace_forwards_its_arguments():
    sim = make_sim(sites=("P",))
    log = TraceLog(sim)
    GraphBuilder(sim).obj("P", "r", root=True)
    result = sim.site("P").run_local_trace(force_full=True)
    assert result is not None
    [event] = log.of_kind("local-trace")
    assert event.detail["clean"] == result.clean_phase.objects_scanned


def test_events_are_time_ordered():
    sim, log = run_cycle_with_log()
    times = [event.time for event in log.events]
    assert times == sorted(times)


def test_barrier_events_logged():
    sim = make_sim(sites=("P", "Q"))
    log = TraceLog(sim)
    b = GraphBuilder(sim)
    target = b.obj("Q", "t")
    holder = b.obj("P", "h", root=True)
    b.link(holder, target)
    entry = sim.site("Q").inrefs.require(target)
    entry.table.set_source(entry.target, "P", 9)
    sim.site("Q").barrier.on_reference_arrival(target)
    events = log.of_kind("transfer-barrier")
    assert len(events) == 1
    assert events[0].detail["inref"] == str(target)


def test_crash_recover_events():
    sim = make_sim(sites=("P", "Q"))
    log = TraceLog(sim)
    sim.site("Q").crash()
    sim.site("Q").recover()
    assert [event.kind for event in log.at_site("Q")] == ["crash", "recover"]


def test_query_helpers_and_render():
    sim, log = run_cycle_with_log()
    assert set(log.kinds()) >= {"local-trace", "backtrace-start", "backtrace-outcome"}
    rendered = log.render(kinds=["backtrace-outcome"])
    assert "verdict=garbage" in rendered
    assert log.between(0.0, sim.now)  # everything falls in the window
    limited = log.render(limit=2)
    assert len(limited.splitlines()) <= 2


def test_capacity_bound_drops_excess():
    sim = make_sim(sites=("P",))
    log = TraceLog(sim, capacity=3)
    for index in range(6):
        log.record("P", "synthetic", index=index)
    assert len(log.events) == 3
    assert log.dropped == 3
