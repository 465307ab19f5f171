"""The termination-detection backend: trials, rescue, dirtying, faults.

Behavioural unit tests for :mod:`repro.core.termination` -- the scenarios
the differential matrix cannot isolate: a live-but-suspected cycle that
must be *rescued*, a mutation landing mid-trial that must dirty and abort
it, lost credit that must time the trial out (and nothing else), and
duplicate deliveries that must not double-recover credit.  The backend is
also the paper's section 7 "subgraph tracing", so its locality loss is
pinned here too.
"""

import pytest

from repro.analysis import Oracle
from repro import (
    FaultPlan,
    GcConfig,
    NetworkConfig,
    Simulation,
    SimulationConfig,
)
from repro.workloads.generators import build_ring_cycle
from repro.workloads.topology import GraphBuilder

from ..conftest import make_sim

SITES = ["a", "b", "c"]

GC = dict(
    collector="termination",
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
    local_trace_period=50.0,
    local_trace_period_jitter=10.0,
)


def _sim(seed=3, plan=None, **gc_overrides):
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(**{**GC, **gc_overrides}),
    )
    sim = Simulation.create(config, fault_plan=plan)
    sim.add_sites(SITES, auto_gc=True)
    return sim


def _alive(sim, oid):
    return sim.site(oid.site).heap.maybe_get(oid) is not None


def _collector(sim, site_id):
    return sim.site(site_id).cycle_collector


# -- the happy paths ---------------------------------------------------------


def test_garbage_ring_is_collected():
    sim = _sim()
    ring = build_ring_cycle(sim, SITES)
    oracle = Oracle(sim)
    sim.run_for(300.0)
    ring.make_garbage(sim)
    for _ in range(10):
        sim.run_gc_round()
        oracle.check_safety()
        if not any(_alive(sim, member) for member in ring.cycle):
            break
    assert not any(_alive(sim, member) for member in ring.cycle)
    assert sim.metrics.count("termination.trials_started") >= 1
    assert sim.metrics.count("termination.trials_garbage") >= 1
    assert sim.metrics.count("termination.inrefs_flagged") >= len(SITES)


def test_rooted_ring_is_never_suspected():
    sim = _sim()
    ring = build_ring_cycle(sim, SITES)
    sim.run_for(2000.0)
    assert all(_alive(sim, member) for member in ring.cycle)
    # Rooted at distance 2, the ring's distances stabilize below the back
    # threshold: the trigger heuristic never starts a trial for it.
    assert sim.metrics.count("termination.trials_started") == 0


def test_live_chain_rooted_ring_is_rescued():
    # The cycle hangs off a root through a 6-hop cross-site chain: its
    # distances stabilize *above* the back threshold, so trials fire -- and
    # the rescue phase must conclude live every time.
    sim = _sim()
    builder = GraphBuilder(sim)
    members = [builder.obj(site_id) for site_id in SITES]
    builder.link_cycle(members)
    root = builder.obj("a", root=True)
    chain = [builder.obj(SITES[i % 3]) for i in range(6)]
    builder.link_chain([root] + chain + [members[0]])
    oracle = Oracle(sim)
    sim.run_for(1500.0)
    oracle.check_safety()
    assert all(_alive(sim, member) for member in members)
    assert sim.metrics.count("termination.trials_started") >= 1
    assert sim.metrics.count("termination.trials_live") >= 1
    assert sim.metrics.count("termination.trials_garbage") == 0


# -- concurrency safety ------------------------------------------------------


def test_mid_trial_relink_dirties_and_spares_the_ring():
    sim = _sim()
    ring = build_ring_cycle(sim, SITES)
    sim.run_for(300.0)
    ring.make_garbage(sim)

    # Creep forward until some site has an initiated trial in flight.
    in_flight = False
    for _ in range(3000):
        sim.run_for(2.0)
        if any(_collector(sim, s)._active is not None for s in SITES):
            in_flight = True
            break
    assert in_flight, "no trial ever started"

    # Resurrect the ring mid-trial: the epoch guards / arrival hooks must
    # dirty the trial, and the now-live ring must survive it.
    sim.site(ring.anchor.site).mutator_add_ref(ring.anchor, ring.cycle[0])
    oracle = Oracle(sim)
    sim.run_for(3000.0)
    oracle.check_safety()
    assert all(_alive(sim, member) for member in ring.cycle)
    metrics = sim.metrics
    assert (
        metrics.count("termination.trials_aborted")
        + metrics.count("termination.collects_suppressed")
        + metrics.count("termination.trials_live")
    ) >= 1


def test_lost_credit_times_out_then_retries_to_collection():
    plan = FaultPlan.loss(0.5, start=300.0, end=1500.0)
    sim = _sim(plan=plan, backtrace_timeout=200.0)
    ring = build_ring_cycle(sim, SITES)
    oracle = Oracle(sim)
    sim.run_for(250.0)
    ring.make_garbage(sim)
    sim.run_for(1500.0)  # fault window: trials starve and abort
    oracle.check_safety()
    assert sim.metrics.count("termination.trials_timeout") >= 1
    for _ in range(20):  # healed: the back-off retry must finish the job
        sim.run_gc_round()
        oracle.check_safety()
        if not any(_alive(sim, member) for member in ring.cycle):
            break
    assert not any(_alive(sim, member) for member in ring.cycle)


def test_duplicate_deliveries_do_not_double_recover_credit():
    plan = FaultPlan.duplication(0.4, copies=2, lag=8.0, start=0.0, end=4000.0)
    sim = _sim(plan=plan)
    ring = build_ring_cycle(sim, SITES)
    oracle = Oracle(sim)
    sim.run_for(300.0)
    ring.make_garbage(sim)
    for _ in range(12):
        sim.run_gc_round()
        oracle.check_safety()
        if not any(_alive(sim, member) for member in ring.cycle):
            break
    # Credit is not idempotent, so all six payloads ride the sequenced
    # dedup channel; a replayed ack double-recovering credit would conclude
    # trials early (collecting live members) or corrupt the pool.
    assert not any(_alive(sim, member) for member in ring.cycle)
    dup_suppressed = sum(
        count
        for name, count in sim.metrics.counts_with_prefix(
            "protocol.dup_suppressed."
        ).items()
        if "Trial" in name
    )
    assert dup_suppressed > 0


def test_crash_recovery_wipes_trial_state():
    sim = _sim()
    ring = build_ring_cycle(sim, SITES)
    sim.run_for(300.0)
    ring.make_garbage(sim)
    for _ in range(3000):
        sim.run_for(2.0)
        if any(_collector(sim, s)._active is not None for s in SITES):
            break
    victim = next(s for s in SITES if _collector(sim, s)._active is not None)
    sim.site(victim).crash()
    sim.run_for(50.0)
    sim.site(victim).recover()
    collector = _collector(sim, victim)
    assert collector._active is None
    assert not collector._initiated and not collector._member
    # The crash unrooted nothing live; whatever of the ring survives the
    # lost heap must still be collected safely.
    oracle = Oracle(sim)
    sim.run_for(4000.0)
    oracle.check_safety()


# -- section 7: subgraph tracing --------------------------------------------


def _collect_under_manual_rounds(sim, max_rounds=30):
    oracle = Oracle(sim)
    for _ in range(max_rounds):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()


def test_subgraph_includes_live_structure_no_locality():
    """The paper's criticism of trial deletion: the mark phase spreads into
    live objects reachable from the cycle, dragging their sites into the
    trial."""
    sim = make_sim(sites=("a", "b", "c", "d"), gc=GcConfig(collector="termination"))
    b = GraphBuilder(sim)
    b.obj("a", "root", root=True)
    p, q = b.obj("a", "p"), b.obj("b", "q")
    b.link_cycle([p, q])
    # The cycle points into a live chain over c and d.
    keeper_root = b.obj("c", root=True)
    live_c, live_d = b.obj("c"), b.obj("d")
    b.link(keeper_root, live_c)
    b.link(q, live_c)
    b.link(live_c, live_d)
    for _ in range(2):
        sim.run_gc_round()
    _collect_under_manual_rounds(sim)
    # The 2-site cycle's trials reached the live chain's sites too.
    involved = {
        name.rsplit(".", 1)[1]
        for name, count in sim.metrics.counts_with_prefix("involve.Trial").items()
        if count
    }
    assert {"c", "d"} <= involved
    # And the live chain survived the trials.
    assert sim.site("c").heap.contains(live_c)
    assert sim.site("d").heap.contains(live_d)


def test_garbage_tail_collected_with_cycle():
    sim = make_sim(sites=("a", "b", "c"), gc=GcConfig(collector="termination"))
    b = GraphBuilder(sim)
    b.obj("a", "root", root=True)
    p, q = b.obj("a", "p"), b.obj("b", "q")
    b.link_cycle([p, q])
    b.link(q, b.obj("c"))
    _collect_under_manual_rounds(sim)


# -- quiescence prediction ---------------------------------------------------


def test_predict_quiet_tracks_suspects_and_state():
    sim = _sim()
    assert all(_collector(sim, s).predict_quiet() for s in SITES)
    ring = build_ring_cycle(sim, SITES)
    sim.run_for(300.0)
    ring.make_garbage(sim)
    # Distances grow past the threshold: some site must stop predicting
    # quiet before its trial fires (else the parallel planner could jump
    # over the whole collection).
    for _ in range(3000):
        sim.run_for(2.0)
        if not all(_collector(sim, s).predict_quiet() for s in SITES):
            break
    assert not all(_collector(sim, s).predict_quiet() for s in SITES)
    sim.run_for(4000.0)
    assert not any(_alive(sim, member) for member in ring.cycle)
    assert all(_collector(sim, s).predict_quiet() for s in SITES)


def test_stats_export_shape():
    sim = _sim()
    stats = _collector(sim, "a").stats()
    assert stats == {
        "trials_started": 0,
        "trials_garbage": 0,
        "trials_live": 0,
        "trials_aborted": 0,
        "active_member_trials": 0,
    }


# -- overlapping trials ------------------------------------------------------


def test_member_swept_by_an_overlapping_trial_dirties_the_rescue(monkeypatch):
    """Perf-ledger finding: ``cycle_waves`` under this backend, seed 5.

    Two trials overlap on site s026; the first one's collect sweeps an
    object the second still lists as a member, and the second's rescue walk
    used to die on ``heap.get`` (``UnknownObjectError``).  It must instead
    mark its state dirty, skip the member, and let the run finish: every
    structure swept, the oracle never seeing a live object go.
    """
    from benchmarks.ledger import scenarios

    monkeypatch.setattr(
        scenarios,
        "SimulationConfig",
        lambda **kwargs: SimulationConfig(
            gc=GcConfig(collector="termination"), **kwargs
        ),
    )
    scenario = scenarios.CycleWaves(5, smoke=True)
    oracle = Oracle(scenario.sim)
    scenarios.advance(scenario, until=scenario.warm_until)
    scenario.at_boundary(scenario.warm_until)
    scenarios.advance(
        scenario,
        step=scenario.audit_interval,
        on_step=lambda now: oracle.check_safety(),
    )
    assert len(scenario.reclaim_ticks) == len(scenario.structures)
    assert not oracle.garbage_set()
