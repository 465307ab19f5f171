"""Incremental local traces must be observationally invisible.

The dirty-tracking planner may resolve a gc tick as a *skip* (nothing
changed) or run the trace as a *distance* tick (only inref distances moved);
either way the externally visible state -- heaps, ioref tables, update
traffic, and oracle-checked liveness -- has to be exactly what a full trace
would have produced.
These tests drive a bench_e13-style system (live cross-site chain plus a
2-site garbage cycle) through collection into steady state and compare
against forced full traces, both on the spot and as a twin run of the same
seed whose every round retraces from scratch (:func:`run_full_round`).
"""

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot
from repro.metrics import names
from repro.workloads import GraphBuilder, build_ring_cycle

SITES = ["s0", "s1", "s2", "s3"]


def build_system(gc: GcConfig, seed: int = 7):
    """Live chain s0->s1->s2->s3 rooted at s0, garbage ring on (s2, s3)."""
    sim = Simulation(SimulationConfig(seed=seed, gc=gc))
    sim.add_sites(SITES, auto_gc=False)
    builder = GraphBuilder(sim)
    root = builder.obj("s0", "root", root=True)
    prev = root
    for site_id in SITES[1:]:
        nxt = builder.obj(site_id, f"chain_{site_id}")
        builder.link(prev, nxt)
        prev = nxt
    cycle = build_ring_cycle(sim, ["s2", "s3"])
    return sim, builder, cycle


def run_full_round(sim):
    """``Simulation.run_gc_round`` with the incremental planner bypassed."""
    for site_id in sorted(sim.sites):
        sim.site(site_id).run_local_trace(force_full=True)
        sim.scheduler.run_for(50.0)
    sim.settle(50.0)


def collect_until_clean(sim, oracle, max_rounds=40, run_round=Simulation.run_gc_round):
    for round_number in range(1, max_rounds + 1):
        run_round(sim)
        oracle.check_safety()
        if not oracle.garbage_set():
            return round_number
    raise AssertionError("cycle was not collected within the round budget")


def tables_fingerprint(sim):
    """State fingerprint excluding simulated time (which always advances)."""
    return graph_snapshot(sim)["sites"]


def test_steady_state_ticks_skip_and_leave_no_trace():
    # A huge full_trace_every_n keeps the periodic safety net out of the
    # measurement window so every quiescent tick must resolve as a skip.
    gc = GcConfig(full_trace_every_n=1000)
    sim, _, cycle = build_system(gc)
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
    cycle.make_garbage(sim)
    collect_until_clean(sim, oracle)
    for _ in range(3):  # drain into a fully quiescent steady state
        sim.run_gc_round()

    before_metrics = sim.metrics.snapshot()
    before_state = tables_fingerprint(sim)
    rounds = 5
    for _ in range(rounds):
        sim.run_gc_round()
    delta = sim.metrics.snapshot().diff(before_metrics)

    # Every tick at every site resolved as a skip: no traces, no messages.
    assert delta.get("gc.traces_skipped", 0) == rounds * len(SITES)
    assert delta.get("gc.local_traces", 0) == 0
    assert delta.get("gc.objects_scanned", 0) == 0
    assert delta.get("messages.UpdatePayload", 0) == 0
    assert tables_fingerprint(sim) == before_state
    oracle.check_safety()
    assert not oracle.garbage_set()

    # A forced full trace at every site recomputes everything from scratch;
    # if the skips had left anything stale this would expose it.
    for site_id in SITES:
        sim.site(site_id).run_local_trace(force_full=True)
    sim.settle()
    assert tables_fingerprint(sim) == before_state
    oracle.check_safety()


def test_periodic_full_trace_safety_net_fires():
    gc = GcConfig(full_trace_every_n=3)
    sim, _, cycle = build_system(gc)
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
    cycle.make_garbage(sim)
    collect_until_clean(sim, oracle)
    for _ in range(3):
        sim.run_gc_round()

    before = sim.metrics.snapshot()
    for _ in range(6):
        sim.run_gc_round()
    delta = sim.metrics.snapshot().diff(before)
    # With the safety net at 3, quiescent ticks alternate skip/skip/skip/full
    # (per site) -- both counters must be moving.
    assert delta.get("gc.traces_full", 0) >= len(SITES)
    assert delta.get("gc.traces_skipped", 0) >= len(SITES)
    oracle.check_safety()
    assert not oracle.garbage_set()


def test_mutation_after_skips_is_picked_up():
    gc = GcConfig(full_trace_every_n=1000)
    sim, builder, cycle = build_system(gc)
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
    cycle.make_garbage(sim)
    collect_until_clean(sim, oracle)
    for _ in range(4):  # several all-skip rounds: the caches are warm
        sim.run_gc_round()

    # Cut the live chain at its head: everything downstream (one object per
    # site, across three sites) is now garbage that only retraces can find.
    sim.site("s0").mutator_remove_ref(builder["root"], builder["chain_s1"])
    oracle.check_safety()
    assert oracle.garbage_set(), "the cut must create acyclic garbage"

    before = sim.metrics.snapshot()
    for _ in range(8):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set(), "stale cache: mutation was never traced"
    delta = sim.metrics.snapshot().diff(before)
    # The heap epoch bump at s0 forced a real (full) retrace there, and the
    # cascade of source-removal updates forced retraces downstream.
    assert delta.get("gc.traces_full", 0) >= 4
    # Collected objects really left the heaps (the ring workload's own
    # root and anchor on s2 stay live, so check the chain objects exactly).
    for site_id in SITES[1:]:
        remaining = set(sim.site(site_id).heap.object_ids())
        assert builder[f"chain_{site_id}"] not in remaining


def test_a_distance_only_tick_runs_the_one_trace():
    # Every full trace ships a full refresh (period 1), so the refresh-free
    # distance tick is told apart from a full one on the wire as well.
    def tick(force_full):
        gc = GcConfig(full_trace_every_n=1000, full_update_period=1)
        sim, builder, _ = build_system(gc)
        for _ in range(3):
            sim.run_gc_round()
        site, collector = sim.site("s2"), sim.site("s2").collector
        entry = site.inrefs.require(builder["chain_s2"])
        entry.table.set_source(entry.target, "s1", gc.suspicion_threshold + 2)
        sim.run_gc_round()  # the now suspected inref is traced and shipped
        assert entry.is_suspected(gc.suspicion_threshold)
        assert site.run_local_trace() is None  # settled: the tick skips
        # The only change since the last trace: one inref's minimum.
        entry.table.set_source(entry.target, "s1", entry.sources["s1"] + 1)
        budget, fulls = collector._ticks_since_full, collector._full_traces_run
        before = sim.metrics.snapshot()
        result = site.run_local_trace(force_full=force_full)
        delta = sim.metrics.snapshot().diff(before)
        return sim, result, delta, collector._ticks_since_full - budget, (
            collector._full_traces_run - fulls
        )

    sim, result, delta, budget_used, fulls = tick(force_full=False)
    assert result.mode == "distance"
    assert delta.get(names.TRACES_FULL, 0) == 1
    assert delta.get(names.TRACES_SKIPPED, 0) == 0
    assert delta.get(names.UPDATE_FULL_REFRESHES, 0) == 0
    assert delta.get(names.UPDATE_DELTAS_SENT, 0) == 1
    # The tick spent one unit of the skip budget, as a skip would, rather
    # than resetting it as a full trace does; the refresh cadence is untouched.
    assert (budget_used, fulls) == (1, 0)

    twin, twin_result, twin_delta, _, _ = tick(force_full=True)
    assert twin_result.mode == "full"
    assert twin_delta.get(names.UPDATE_FULL_REFRESHES, 0) == 1
    assert tables_fingerprint(sim)["s2"] == tables_fingerprint(twin)["s2"]


@pytest.mark.parametrize("seed", [7, 11])
def test_incremental_and_full_modes_agree_end_to_end(seed):
    # Same workload, same seed, collection enabled: planned and always-full
    # rounds must collect the same garbage and end in byte-identical table
    # state.
    def run(run_round):
        sim, _, cycle = build_system(GcConfig(), seed=seed)
        oracle = Oracle(sim)
        for _ in range(2):
            run_round(sim)
        cycle.make_garbage(sim)
        rounds = collect_until_clean(sim, oracle, run_round=run_round)
        for _ in range(3):
            run_round(sim)
        oracle.check_safety()
        return sim, rounds

    inc_sim, inc_rounds = run(Simulation.run_gc_round)
    full_sim, full_rounds = run(run_full_round)
    assert inc_rounds == full_rounds
    assert tables_fingerprint(inc_sim) == tables_fingerprint(full_sim)
    # Incrementality actually engaged and actually saved scanning work.
    assert inc_sim.metrics.count("gc.traces_skipped") > 0
    assert full_sim.metrics.count("gc.traces_skipped") == 0
    assert inc_sim.metrics.count("gc.objects_scanned") < full_sim.metrics.count(
        "gc.objects_scanned"
    )
