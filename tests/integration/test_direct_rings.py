"""Rings first, pipe as the spill: byte-identity and data-path accounting.

Cross-shard records travel through per-ordered-pair SPSC rings in shared
memory; one that does not fit its ring -- or every one, on a platform
without shared memory -- spills to the coordinator pipes.  Which carrier a
record takes must never change what executes: a sharded run must be
byte-identical to the sequential engine -- same snapshots, same trace
outcomes, same merged metrics -- at any worker count, under a fault-plan
storm, with all records on the rings, all on the pipes, or mixed.  The
accounting must also be airtight: every routed message is counted exactly
once (ring or spill), and a default run keeps the payload traffic off the
pipes entirely.  Absolute counts are pinned to what each scenario and seed
gave at 1ef2097.
"""

import json
import warnings

import pytest

import repro.sim.parallel as parallel_mod
from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import graph_snapshot
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

from ..conftest import (
    TWIN_GC,
    TWIN_NETWORK,
    TWIN_SITES,
    TWIN_STORM,
    pick,
    run_churn_twin,
)


def _run(workers, seed, fault_plan=None):
    return run_churn_twin(workers, seed, 1200.0, 6, fault_plan)


def _run_piped(monkeypatch, workers, seed, fault_plan=None):
    """The same scenario on a platform without shared memory."""

    def create_arena(*args, **kwargs):
        warnings.warn("no shared memory here", RuntimeWarning)
        return None

    monkeypatch.setattr(parallel_mod, "create_arena", create_arena)
    with pytest.warns(RuntimeWarning, match="no shared memory"):
        return _run(workers, seed, fault_plan)


PINNED = {
    2: dict(windows=147, pipelined_windows=45, cross_shard_messages=374,
            ring_messages=374, ring_bytes=19913),
    4: dict(windows=141, pipelined_windows=24, cross_shard_messages=577,
            ring_messages=577, ring_bytes=30744),
}
OFF_THE_PIPES = dict(ring_spills=0, payload_bytes=0, payloads_packed=0,
                     payloads_pickled=0)


@pytest.mark.parametrize("workers", [2, 4])
def test_ring_and_pipe_twins_are_byte_identical(workers, monkeypatch):
    seq_snap, seq_outcomes, seq_metrics, _ = _run(1, seed=19)
    ringed = _run(workers, seed=19)
    # The pipe twin: no shared memory, so every record declines its ring.
    piped = _run_piped(monkeypatch, workers, seed=19)

    for snap, outcomes, metrics, _ in (ringed, piped):
        assert snap == seq_snap
        assert outcomes == seq_outcomes
        assert metrics == seq_metrics

    ring_stats, pipe_stats = ringed[3], piped[3]
    # The rings carried all of the traffic: what remains on the pipe per
    # window is the command/reply framing, not record payloads.
    assert pick(ring_stats, PINNED[workers]) == PINNED[workers]
    assert pick(ring_stats, OFF_THE_PIPES) == OFF_THE_PIPES
    assert ring_stats["arena_bytes"] > 0
    # Exactly the same messages were routed over the pipes, each counted as
    # a spill.
    routed = ring_stats["cross_shard_messages"]
    all_spilled = dict(
        cross_shard_messages=routed, ring_spills=routed, payloads_packed=routed,
        payloads_pickled=0, ring_messages=0, ring_bytes=0, arena_bytes=0,
    )
    assert pick(pipe_stats, all_spilled) == all_spilled
    assert pipe_stats["payload_bytes"] > 0
    # The carrier never changes the window plan.
    plan = ("windows", "pipelined_windows", "eot_jumps", "quiescence_jumps")
    assert pick(pipe_stats, plan) == pick(ring_stats, plan)


def test_chaos_storm_twins_across_data_paths(monkeypatch):
    seq_snap, seq_outcomes, _, _ = _run(1, seed=23, fault_plan=TWIN_STORM)
    ringed = _run(4, seed=23, fault_plan=TWIN_STORM)
    piped = _run_piped(monkeypatch, 4, seed=23, fault_plan=TWIN_STORM)
    for snap, outcomes, _, stats in (ringed, piped):
        assert snap == seq_snap
        assert outcomes == seq_outcomes
        assert stats["cross_shard_messages"] == 639
    assert pick(ringed[3], ("windows", "ring_messages")) == dict(
        windows=137, ring_messages=639
    )
    assert piped[3]["ring_spills"] == 639


def _run_dense(workers, ring_bytes):
    """A deliberately chatty workload: frequent full updates over many
    interlocked cycles, dense churn -- enough traffic per window to overflow
    a minimum-size ring."""
    config = SimulationConfig(
        seed=37,
        gc=GcConfig(
            local_trace_period=20.0,
            local_trace_period_jitter=5.0,
            suspicion_threshold=2,
            assumed_cycle_length=2,
            back_threshold_increment=1,
            full_trace_every_n=2,
            full_update_period=1,
        ),
        network=NetworkConfig(**TWIN_NETWORK),
        parallel_workers=workers,
        ring_bytes_per_pair=ring_bytes,
    )
    sim = Simulation.create(config)
    sim.add_sites(TWIN_SITES, auto_gc=True)
    for offset in range(6):
        build_ring_cycle(sim, TWIN_SITES[offset:] + TWIN_SITES[:offset])
    churn = SiteChurn(sim, TWIN_SITES, ChurnConfig(mean_interval=0.5))
    churn.start(until=300.0)
    sim.run_for(400.0)
    if workers > 1:
        snapshot = json.dumps(sim.snapshot(), sort_keys=True)
        stats = sim.coordination_stats()
        sim.close()
    else:
        snapshot = json.dumps(graph_snapshot(sim), sort_keys=True)
        stats = None
    return snapshot, stats


def test_tiny_rings_spill_to_the_pipe_and_stay_identical():
    # A ring too small for a window's worth of records forces the overflow
    # path: records spill to the coordinator-routed pipe, and the run must
    # still be byte-identical -- the two carriers are interchangeable per
    # message.
    seq_snap, _ = _run_dense(1, 1024)
    snap, stats = _run_dense(2, 1024)
    assert snap == seq_snap
    pinned = dict(
        cross_shard_messages=3998, ring_messages=1310, ring_spills=2688,
        payloads_packed=2688, payloads_pickled=0,
    )
    assert pick(stats, pinned) == pinned


def test_snapshot_and_metrics_broadcasts_are_cached_between_advances():
    # Delta control plane: polling the same quiescent state again must not
    # touch the workers at all -- the second snapshot()/merged_metrics()
    # pair is served from the version-gated cache.  Advancing the clock
    # bumps the state version and forces exactly one fresh broadcast each.
    config = SimulationConfig(
        seed=7,
        gc=GcConfig(**TWIN_GC),
        network=NetworkConfig(**TWIN_NETWORK),
        parallel_workers=2,
    )
    sim = Simulation.create(config)
    sim.add_sites(TWIN_SITES, auto_gc=True)
    build_ring_cycle(sim, TWIN_SITES[:4])
    sim.run_for(100.0)
    assert sim.parallel_active
    try:
        first_snap = sim.snapshot()
        first_metrics = dict(sim.merged_metrics()._counters)
        before = sim.coordination_stats()["broadcasts"]
        again_snap = sim.snapshot()
        again_metrics = dict(sim.merged_metrics()._counters)
        unchanged = sim.coordination_stats()["broadcasts"]
        # Identical answers, zero new broadcasts.
        assert again_snap == first_snap
        assert again_metrics == first_metrics
        assert unchanged == before
        # An advance invalidates both caches: one broadcast per export kind.
        sim.run_for(50.0)
        baseline = sim.coordination_stats()["broadcasts"]
        sim.snapshot()
        sim.merged_metrics()
        after_refresh = sim.coordination_stats()["broadcasts"]
        assert after_refresh == baseline + 2
        sim.snapshot()
        sim.merged_metrics()
        assert sim.coordination_stats()["broadcasts"] == after_refresh
    finally:
        sim.close()
