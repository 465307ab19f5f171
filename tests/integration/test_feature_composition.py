"""Feature-composition stress: every optional mechanism enabled at once.

Adaptive threshold tuning + message deferral/piggybacking + non-atomic local
traces + aggressive suspicion + random mutators + seeded cycles, with the
oracle auditing safety continuously and completeness checked after quiesce.
Optional features must compose, not merely work in isolation.
"""

import pytest

from repro import GcConfig, NetworkConfig
from repro.analysis import Oracle, TraceLog
from repro.mutator import RandomWorkload, WorkloadConfig
from repro.net.faults import FaultPlan
from repro.workloads import build_random_clustered_graph, build_ring_cycle

from ..conftest import make_sim

ALL_FEATURES_GC = GcConfig(
    suspicion_threshold=1,
    assumed_cycle_length=4,
    local_trace_period=60.0,
    local_trace_period_jitter=20.0,
    local_trace_duration=5.0,
    backtrace_timeout=200.0,
    enable_threshold_tuning=True,
    defer_messages=True,
    defer_delay=2.0,
)


def run_composed(seed, network=None, duration=2500.0, fault_plan=None):
    sites = [f"s{i}" for i in range(4)]
    sim = make_sim(seed=seed, sites=sites, auto_gc=True, gc=ALL_FEATURES_GC,
                   network=network, fault_plan=fault_plan)
    log = TraceLog(sim)
    graph = build_random_clustered_graph(sim, sites, objects_per_site=20, seed=seed)
    rings = [build_ring_cycle(sim, sites[k:] + sites[:k]) for k in range(2)]
    oracle = Oracle(sim)
    mutators = [
        RandomWorkload(sim, f"m{i}", graph.roots[i % len(graph.roots)],
                       config=WorkloadConfig(mean_interval=3.0))
        for i in range(2)
    ]
    for mutator in mutators:
        mutator.start()
    for step in range(10):
        sim.run_for(duration / 10)
        if step == 4:
            for ring in rings:
                ring.make_garbage(sim)
        oracle.check_safety()
    for mutator in mutators:
        mutator.stop()
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=5000)
    oracle.check_safety()
    for _ in range(120):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()
    return sim, log


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_features_compose_safely(seed):
    sim, log = run_composed(seed)
    # Evidence each feature actually ran.
    assert sim.metrics.count("deferral.queued") > 0        # deferral active
    assert sim.metrics.count("backtrace.completed_garbage") >= 2
    assert log.of_kind("local-trace")                      # non-atomic traces
    # Tuning may or may not have adjusted (depends on Live verdicts), but
    # the machinery is attached at every site.
    assert all(site.tuner is not None for site in sim.sites.values())


def test_all_features_with_nonfifo_network_still_safe():
    sim, _ = run_composed(seed=5, network=NetworkConfig(fifo_per_pair=False))
    assert sim.metrics.count("backtrace.completed_garbage") >= 1


def test_all_features_with_lossy_network_still_safe():
    sim, _ = run_composed(seed=6, fault_plan=FaultPlan.loss(0.05))
    assert sim.metrics.count("messages.dropped.fault") > 0
    # With loss, pins may leak and timeouts fire -- but safety held (the
    # oracle ran inside) and cycles still died once messages got through.
    assert sim.metrics.count("backtrace.completed_garbage") >= 1
