"""Shared test fixtures and helpers."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot
from repro.net.faults import FaultPlan
from repro.workloads import (
    ChurnConfig,
    GraphBuilder,
    SiteChurn,
    build_ring_cycle,
)


# Tier-1 draws the same examples on every run, so a mutant it kills once it
# kills every time, and keeps no example database between runs.  The
# ``explore`` profile draws anew each run and ten times as many examples:
# ``python -m pytest tests/properties --hypothesis-profile=explore``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile("tier1")


def examples(count: int) -> int:
    """A test's example budget under the loaded profile: ``count`` in tier-1,
    ten times it under ``explore``."""
    return count * settings.default.max_examples // 100


def make_sim(
    seed: int = 0,
    sites=("P", "Q", "R"),
    auto_gc: bool = False,
    gc: GcConfig = None,
    network: NetworkConfig = None,
    latency_model=None,
    fault_plan: FaultPlan = None,
) -> Simulation:
    """A simulation with the given sites and controlled (manual) GC."""
    config = SimulationConfig(
        seed=seed,
        gc=gc or GcConfig(),
        network=network or NetworkConfig(),
    )
    sim = Simulation(config, latency_model=latency_model, fault_plan=fault_plan)
    sim.add_sites(list(sites), auto_gc=auto_gc)
    return sim


def collect_until_clean(
    sim: Simulation, oracle: Oracle, max_rounds: int = 60, check_safety: bool = True
) -> int:
    """Run GC rounds until no garbage remains; return rounds used.

    Raises AssertionError if garbage persists after ``max_rounds``.
    """
    for round_number in range(1, max_rounds + 1):
        sim.run_gc_round()
        if check_safety:
            oracle.check_safety()
        if not oracle.garbage_set():
            return round_number
    remaining = oracle.garbage_set()
    raise AssertionError(
        f"{len(remaining)} garbage objects remain after {max_rounds} rounds: "
        f"{sorted(remaining)[:8]}"
    )


@pytest.fixture
def sim():
    return make_sim()


@pytest.fixture
def builder(sim):
    return GraphBuilder(sim)


@pytest.fixture
def oracle(sim):
    return Oracle(sim)


# -- the sharded-engine twin scenario (window planning) ----------------------

TWIN_SITES = [f"s{i:02d}" for i in range(12)]
TWIN_GC = dict(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
    full_trace_every_n=6,
    full_update_period=3,
)
TWIN_NETWORK = dict(min_latency=5.0, max_latency=20.0)
TWIN_STORM = FaultPlan.loss(0.15, start=50.0, end=200.0).merge(
    FaultPlan.duplication(0.2, copies=1, lag=10.0, start=50.0, end=200.0),
    FaultPlan.reorder_burst(0.3, delay=15.0, start=50.0, end=200.0),
).named("twin-storm")


def run_churn_twin(workers, seed, run_time, gc_rounds, fault_plan=None):
    """An e13-shaped workload: churn burst + doomed ring, a quiet tail up to
    ``run_time``, then ``gc_rounds`` explicit GC rounds.

    Returns ``(snapshot_json, outcomes, metrics, stats)`` -- everything a
    sharded run must share with the sequential run of the seed, plus the
    sharded run's coordination stats (``None`` for ``workers == 1``).
    """
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(**TWIN_GC),
        network=NetworkConfig(**TWIN_NETWORK),
        parallel_workers=workers,
    )
    sim = Simulation.create(config, fault_plan=fault_plan)
    sim.add_sites(TWIN_SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, TWIN_SITES[:4])
    churn = SiteChurn(sim, TWIN_SITES, ChurnConfig(mean_interval=4.0))
    churn.start(until=250.0)

    sim.run_for(run_time)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(gc_rounds):
        sim.run_gc_round()
    sim.settle(quiet_time=30.0, max_rounds=3000)

    outcomes = sim.trace_outcomes
    snapshot = json.dumps(graph_snapshot(sim), sort_keys=True)
    metrics = {k: v for k, v in sim.merged_metrics()._counters.items() if v}
    stats = sim.coordination_stats() if workers > 1 else None
    sim.close()
    return snapshot, outcomes, metrics, stats


def pick(stats, keys):
    """The sub-dict of ``stats`` a pinned-count assertion compares."""
    return {key: stats[key] for key in keys}
