"""Twin-run byte-identity: the Collector strategy boundary is inert.

The strategy extraction moved the back tracer's wiring out of ``Site`` and
behind the ``GcConfig.collector`` switch; these twins prove the boundary
itself changes nothing.  One e13-shaped scenario (doomed ring + live ring +
churn + explicit GC rounds) runs per backend on the sequential engine, on
2- and 4-worker parallel shards, and under a chaos storm plan, and every
pair must produce byte-identical JSON snapshots and trace outcomes.  Every
leg is oracle-audited; the sharded ones through ``audit_state()``, which
reads the workers' live heaps.

The termination backend runs the same twins: it was born behind the
boundary, so its determinism under the parallel engine and fault plans is
the direct evidence that the boundary's contract (sequenced payloads,
quiet prediction, barrier hooks) is sufficient for a backend with
in-flight distributed state.
"""

import json

import pytest

from repro.analysis import Oracle, graph_snapshot
from repro import FaultPlan, GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

SITES = [f"s{i}" for i in range(8)]

GC = dict(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)
NETWORK = dict(min_latency=5.0, max_latency=20.0)

#: Pure network mayhem (loss + duplication + reorder): applied inside the
#: Network identically on both engines, unlike crash/partition edges which
#: a driver applies from outside.
STORM = (
    FaultPlan.loss(0.15, start=400.0, end=700.0)
    .merge(
        FaultPlan.duplication(0.10, copies=2, lag=15.0, start=400.0, end=700.0),
        FaultPlan.reorder_burst(0.25, delay=30.0, start=400.0, end=700.0),
    )
    .named("storm")
)


def _run(collector, workers, seed, plan=None):
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(collector=collector, **GC),
        network=NetworkConfig(**NETWORK),
        parallel_workers=workers,
    )
    sim = Simulation.create(config, fault_plan=plan)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:6])
    build_ring_cycle(sim, SITES[::2])  # live bait: must survive every twin
    churn = SiteChurn(sim, SITES, ChurnConfig(mean_interval=6.0))
    churn.start(until=200.0)
    oracle = Oracle(sim)

    sim.run_for(800.0)  # churn ends, storm window (if any) opens and heals
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(12):
        sim.run_gc_round()
        oracle.check_safety()
    sim.settle(quiet_time=30.0, max_rounds=3000)

    oracle.check_safety()
    if plan is None:
        # Faultless runs must actually collect, or the twins only
        # witness an idle collector.
        state = sim.audit_state()
        for member in doomed.cycle:
            assert member not in state.sites[member.site].objects
    result = (json.dumps(graph_snapshot(sim), sort_keys=True), sim.trace_outcomes)
    sim.close()
    return result


_SEQUENTIAL = {}


def _sequential(collector, seed, plan=None):
    key = (collector, seed, plan.name if plan is not None else None)
    if key not in _SEQUENTIAL:
        _SEQUENTIAL[key] = _run(collector, 1, seed, plan)
    return _SEQUENTIAL[key]


@pytest.mark.parametrize("workers", [2, 4])
def test_backtrace_parallel_twin_is_byte_identical(workers):
    assert _run("backtrace", workers, seed=17) == _sequential("backtrace", 17)


@pytest.mark.parametrize("workers", [2, 4])
def test_termination_parallel_twin_is_byte_identical(workers):
    assert _run("termination", workers, seed=17) == _sequential(
        "termination", 17
    )


@pytest.mark.parametrize("collector", ["backtrace", "termination"])
def test_chaos_storm_twin_is_byte_identical(collector):
    assert _run(collector, 4, seed=29, plan=STORM) == _sequential(
        collector, 29, STORM
    )



@pytest.mark.parametrize("collector", ["backtrace", "termination"])
def test_quiet_prediction_never_hides_a_trigger(collector):
    # predict_quiet and check_triggers share one trigger predicate per
    # backend: whenever the prediction says quiet, the scan starts nothing.
    config = SimulationConfig(
        seed=17,
        gc=GcConfig(collector=collector, **GC),
        network=NetworkConfig(**NETWORK),
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:6])
    build_ring_cycle(sim, SITES[::2])
    SiteChurn(sim, SITES, ChurnConfig(mean_interval=6.0)).start(until=200.0)
    checks = {"quiet": 0, "started": 0}
    for site in sim.sites.values():
        backend = site.cycle_collector

        def check(backend=backend):
            quiet = backend.predict_quiet()
            started = type(backend).check_triggers(backend)
            if quiet:
                assert started == []
                checks["quiet"] += 1
            checks["started"] += bool(started)
            return started

        backend.check_triggers = check
    sim.run_for(400.0)
    doomed.make_garbage(sim)
    for _ in range(12):
        sim.run_gc_round()
    # Neither side of the implication is vacuous.
    assert checks["quiet"] > 0 and checks["started"] > 0
