"""Fault tolerance (sections 2 and 4.6; benchmark E8).

Locality under failure: a crashed or partitioned site delays only the
collection of garbage reachable from it; everything else proceeds.  Back
traces touching a dead site time out and conservatively decide Live.
"""

import pytest

from repro import GcConfig
from repro.analysis import Oracle
from repro.core.backtrace.messages import TraceOutcome
from repro.metrics import names
from repro.net.faults import FaultPlan
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import collect_until_clean, make_sim


def fast_timeout_gc(**kwargs):
    return GcConfig(backtrace_timeout=30.0, **kwargs)


def test_cycle_away_from_crashed_site_still_collected():
    sites = ["a", "b", "c", "d"]
    sim = make_sim(sites=sites, gc=fast_timeout_gc())
    # The cycle lives on a and b; c crashes; d holds unrelated live data.
    cycle = build_ring_cycle(sim, ["a", "b"])
    bystander = GraphBuilder(sim)
    root_d = bystander.obj("d", "rootd", root=True)
    for _ in range(2):
        sim.run_gc_round()
    sim.site("c").crash()
    cycle.make_garbage(sim)
    oracle = Oracle(sim)
    for _ in range(60):
        sim.run_gc_round()
        oracle.check_safety()
        remaining = {oid for oid in oracle.garbage_set() if oid.site != "c"}
        if not remaining:
            break
    assert not {oid for oid in oracle.garbage_set() if oid.site != "c"}


def test_cycle_through_crashed_site_waits_then_collects_after_recovery():
    sites = ["a", "b", "c"]
    sim = make_sim(sites=sites, gc=fast_timeout_gc())
    workload = build_ring_cycle(sim, sites)
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    sim.site("c").crash()
    oracle = Oracle(sim)
    for _ in range(15):
        sim.run_gc_round()
        oracle.check_safety()
    # Cycle members at the living sites survive (conservative Live verdicts);
    # no unsafe collection happened.
    alive_members = [m for m in workload.cycle if m.site != "c"]
    for member in alive_members:
        assert sim.site(member.site).heap.contains(member)
    # Recovery: collection completes.
    sim.site("c").recover()
    collect_until_clean(sim, oracle, max_rounds=80)


def test_partition_blocks_cross_cycle_only():
    sites = ["a", "b", "c", "d"]
    sim = make_sim(sites=sites, gc=fast_timeout_gc())
    crossing = build_ring_cycle(sim, ["a", "c"])   # spans the partition
    inside = build_ring_cycle(sim, ["a", "b"])     # within one side
    for _ in range(2):
        sim.run_gc_round()
    crossing.make_garbage(sim)
    inside.make_garbage(sim)
    sim.network.partition({"a", "b"}, {"c", "d"})
    oracle = Oracle(sim)
    for _ in range(40):
        sim.run_gc_round()
        oracle.check_safety()
        inside_left = [m for m in inside.cycle if sim.site(m.site).heap.contains(m)]
        if not inside_left:
            break
    assert not [m for m in inside.cycle if sim.site(m.site).heap.contains(m)]
    # The crossing cycle survives the partition (safely uncollected).
    assert any(sim.site(m.site).heap.contains(m) for m in crossing.cycle)
    sim.network.heal_partition()
    collect_until_clean(sim, oracle, max_rounds=80)


def test_lost_backtrace_messages_safe_with_drops():
    """Random message loss: timeouts decide Live; safety holds; collection
    eventually succeeds in a loss-free window."""
    sites = ["a", "b", "c"]
    loss_ends = 1500.0
    sim = make_sim(
        sites=sites,
        gc=fast_timeout_gc(),
        fault_plan=FaultPlan.loss(0.3, end=loss_ends),
    )
    workload = build_ring_cycle(sim, sites)
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    oracle = Oracle(sim)
    while sim.now < loss_ends:
        sim.run_gc_round()
        oracle.check_safety()
    dropped_in_window = sim.metrics.count(names.MSG_DROPPED_FAULT)
    assert dropped_in_window >= 1
    assert sim.metrics.count(names.BACKTRACE_COMPLETED_TIMEOUT_LIVE) >= 1
    # Still uncollected when the window closes, so the next phase has work.
    assert oracle.garbage_set()
    collect_until_clean(sim, oracle, max_rounds=120)
    assert sim.metrics.count(names.MSG_DROPPED_FAULT) == dropped_in_window
    assert not oracle.garbage_set()


def test_outcome_timeout_clears_visited_marks():
    """If the initiator's report never arrives, participants assume Live and
    clear their visited marks (section 4.6)."""
    from repro.net.latency import ConstantLatency

    sites = ["a", "b"]
    sim = make_sim(
        sites=sites,
        gc=fast_timeout_gc(),
        latency_model=ConstantLatency(2.0),
    )
    workload = build_ring_cycle(sim, sites)
    workload.make_garbage(sim)
    # Force suspicion directly and compute insets.
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, 9)
    for site_id in sites:
        sim.sites[site_id].run_local_trace()
    sim.settle()
    # Outref distances of 10 stay under T2 = 12: the local traces started
    # no back trace of their own, so the one below is the only trace.
    assert sim.metrics.count(names.BACKTRACE_STARTED) == 0
    target = next(
        entry.target for entry in sim.site("a").outrefs.suspected_entries()
    )
    trace_id = sim.site("a").engine.start_trace(target)
    assert trace_id is not None
    # Latency is exactly 2.0: b receives the call at t+2 and marks visited;
    # crash the initiator at t+3, before b's reply (t+4) or any outcome
    # report can land.
    sim.run_for(3.0)
    sim.site("a").crash()
    sim.run_for(500.0)
    # b's visited marks for that trace are gone (outcome timeout -> Live).
    for entry in sim.site("b").inrefs.entries():
        assert trace_id not in entry.visited
    for entry in sim.site("b").outrefs.entries():
        assert trace_id not in entry.visited
    assert sim.metrics.count("backtrace.outcome_timeouts") >= 1


def test_safety_under_crash_during_trace():
    """Crashing a participant mid-trace never yields an unsafe verdict."""
    for crash_at in (0.5, 2.0, 5.0):
        sites = ["a", "b", "c"]
        sim = make_sim(sites=sites, gc=fast_timeout_gc(), seed=int(crash_at * 10))
        workload = build_ring_cycle(sim, sites)
        for _ in range(2):
            sim.run_gc_round()
        workload.make_garbage(sim)
        oracle = Oracle(sim)
        for _ in range(60):
            sim.run_gc_round()
            if sim.metrics.count("backtrace.started"):
                break
        sim.run_for(crash_at)
        sim.site("b").crash()
        sim.run_for(1000.0)
        oracle.check_safety()
        sim.site("b").recover()
        collect_until_clean(sim, oracle, max_rounds=80)
