"""The data plane must not change outcomes, on either engine.

Sequenced delta updates and the flat-graph trace kernel are pure performance
mechanisms.  They were twinned against full-snapshot updates and the
set-based kernel while those could still be selected; the digests of that
comparison's default leg are held by ``test_golden_digests.py`` (section
``data_plane``), and this file keeps the oracle audit, the proof that deltas
engage, and the byte-identity of the sequential and sharded-parallel engines,
healthy or under a fault plan.
"""

import json

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot
from repro.metrics import names
from repro.net.faults import FaultPlan
from repro.workloads import build_ring_cycle

SITES = [f"s{i:02d}" for i in range(8)]
TUNING = dict(
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)


# -- sequential, manual rounds (the golden ``data_plane@N`` legs) -----------


def run_scenario(seed):
    sim = Simulation.create(SimulationConfig(seed=seed, gc=GcConfig(**TUNING)))
    sim.add_sites(SITES, auto_gc=False)
    live = build_ring_cycle(sim, SITES)
    doomed = build_ring_cycle(sim, SITES[:4])
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
        oracle.check_safety()
    doomed.make_garbage(sim)
    for _ in range(30):
        sim.run_gc_round()
        oracle.check_safety()
    assert not oracle.garbage_set()
    for member in live.cycle:
        assert sim.site(member.site).heap.contains(member)
    return sim


@pytest.mark.parametrize("seed", [5, 23])
def test_audited_run_ships_deltas_between_anchors(seed):
    sim = run_scenario(seed)
    assert sim.metrics.count(names.UPDATE_DELTAS_SENT) > 0
    assert sim.metrics.count(names.UPDATE_FULL_REFRESHES) > 0


# -- sequential vs parallel (auto GC, cycle-accurate) ------------------------

NETWORK = NetworkConfig(min_latency=5.0, max_latency=20.0)
AUTO_GC = GcConfig(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    **TUNING,
)

CHAOS_PLAN = FaultPlan.loss(0.15, start=50.0, end=250.0).merge(
    FaultPlan.duplication(0.2, copies=1, lag=10.0, start=50.0, end=250.0),
    FaultPlan.reorder_burst(0.3, delay=15.0, start=50.0, end=250.0),
).named("data-plane-storm")


def _twin_run(workers, seed, plan=None):
    config = SimulationConfig(
        seed=seed, gc=AUTO_GC, network=NETWORK, parallel_workers=workers
    )
    sim = Simulation.create(config, fault_plan=plan)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:4])
    sim.run_for(300.0)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(10):
        sim.run_gc_round()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    outcomes = sorted(
        (t, s, str(tid), str(v)) for t, s, tid, v in sim.trace_outcomes
    )
    snap = graph_snapshot(sim)
    sim.close()
    snap.pop("time", None)
    return json.dumps(snap, sort_keys=True), outcomes


def test_four_worker_twin_is_byte_identical():
    assert _twin_run(1, seed=29) == _twin_run(4, seed=29)


def test_four_worker_chaos_twin_is_byte_identical():
    assert _twin_run(1, seed=31, plan=CHAOS_PLAN) == _twin_run(
        4, seed=31, plan=CHAOS_PLAN
    )
