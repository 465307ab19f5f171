"""Simulation.create: one front door for both engines."""

import warnings

from repro import (
    FaultPlan,
    NetworkConfig,
    ParallelSimulation,
    Simulation,
    SimulationConfig,
)
from repro.metrics import names

PARALLEL_NETWORK = NetworkConfig(min_latency=5.0, max_latency=20.0)


def test_create_returns_sequential_engine_for_one_worker():
    sim = Simulation.create(SimulationConfig(seed=1))
    assert type(sim) is Simulation


def test_create_returns_parallel_engine_for_many_workers_without_warning():
    config = SimulationConfig(seed=1, network=PARALLEL_NETWORK, parallel_workers=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        sim = Simulation.create(config)
    assert isinstance(sim, ParallelSimulation)
    sim.close()


def test_create_with_default_config():
    sim = Simulation.create()
    assert type(sim) is Simulation
    sim.add_sites(["P"], auto_gc=False)
    sim.run_for(5.0)


def test_create_threads_fault_plan_to_the_network():
    plan = FaultPlan.loss(0.5, end=100.0)
    sim = Simulation.create(SimulationConfig(seed=1), fault_plan=plan)
    assert sim.network.fault_plan is plan


def test_create_on_subclass_respects_the_subclass():
    config = SimulationConfig(seed=1, network=PARALLEL_NETWORK, parallel_workers=2)
    sim = ParallelSimulation.create(config)
    assert isinstance(sim, ParallelSimulation)
    sim.close()


def test_counter_name_constants_match_the_wire_spellings():
    assert names.MSG_LOST == "messages.lost"
    assert names.MSG_DROPPED_CRASH == "messages.dropped.crash"
    assert names.msg_dropped_kind("UpdatePayload") == "messages.dropped.UpdatePayload"
    assert names.dup_suppressed("BackCall") == "protocol.dup_suppressed.BackCall"
