"""Chaos property tests: oracle-audited GC under seeded fault plans.

These are the acceptance checks behind the section 4.6 claims: any mix of
message loss, duplication, reordering bursts, crash/recover, and partitions
may *delay* collection but never breaks safety, and once the plan heals every
garbage cycle is reclaimed.  The last test runs a sequential/parallel twin
under the same link-fault plan and compares final snapshots byte for byte --
the fault RNG streams are per-ordered-pair, so sharding must not change a
single draw.
"""

import json
from dataclasses import replace

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import graph_snapshot
from repro.harness.cases import (
    BUILDERS,
    FAULT_START,
    chaos_case,
    chaos_cases,
    chaos_row,
    run_case,
    standard_plans,
)
from repro.metrics import names
from repro.net.faults import FaultPlan
from repro.sim.parallel import ParallelSimulation
from repro.workloads import build_ring_cycle


def _run(cases):
    return [(case, run_case(case)) for case in cases]


def _failures(results):
    return [
        f"{case.name}: {'; '.join(run.violations)}"
        for case, run in results
        if run.violations
    ]


BACKENDS = ["backtrace", "termination"]


@pytest.mark.parametrize("collector", BACKENDS)
def test_link_fault_matrix_is_safe_and_eventually_collects(collector):
    plans = [
        plan
        for plan in standard_plans([f"s{i}" for i in range(4)])
        if not plan.crashes and not plan.partitions
    ]
    results = _run(chaos_cases(
        range(1, 5), plans, n_sites=4, garbage_rings=2,
        gc=GcConfig(collector=collector),
    ))
    assert not _failures(results), _failures(results)
    # The matrix must actually exercise faults, not vacuously pass.
    rows = [chaos_row(run) for _, run in results]
    assert any(row["dropped"] > 0 for row in rows)
    assert any(row["dup"] > 0 for row in rows)
    assert any(row["retrans"] > 0 for row in rows)


@pytest.mark.parametrize("collector", BACKENDS)
def test_crash_and_partition_plans_recover(collector):
    plans = [
        plan
        for plan in standard_plans([f"s{i}" for i in range(6)])
        if plan.crashes or plan.partitions
    ]
    assert len(plans) == 2
    results = _run(chaos_cases([3, 4], plans, gc=GcConfig(collector=collector)))
    assert not _failures(results), _failures(results)


def test_chaos_case_counters_reconcile_per_kind():
    plan = standard_plans([f"s{i}" for i in range(4)])[4]  # the storm
    # Every round audits check_invariants(), whose books balance each kind
    # with the messages still in flight, so the storm's drops and copies
    # must reconcile mid-run, not only once the network settles.
    run = run_case(chaos_case(9, plan, n_sites=4, garbage_rings=2))
    assert run.safety_ok and run.collected, run.violations
    row = chaos_row(run)
    assert row["dropped"] > 0 and row["dup"] > 0


def test_unhealing_plan_is_flagged():
    plan = FaultPlan.loss(1.0, start=FAULT_START)  # end=None: never heals
    run = run_case(chaos_case(1, plan, n_sites=3, garbage_rings=1))
    assert any("never heals" in v for v in run.violations)


def test_a_violation_mid_run_is_caught_by_the_round_audit(monkeypatch):
    # A send counted with no message behind it breaks the books from t=1100
    # until t=2500, inside the fault phase; the final settle's audit would
    # find them balanced again, so only the per-round audit can see it.
    def forged_rings(sim, sites, **args):
        metrics = sim.site(sites[0]).metrics
        name = names.msg_sent("UpdatePayload")
        sim.scheduler.schedule_at(1100.0, lambda: metrics.incr(name))
        sim.scheduler.schedule_at(2500.0, lambda: metrics.incr(name, -1))
        return BUILDERS["rings"](sim, sites, **args)

    monkeypatch.setitem(BUILDERS, "forged", forged_rings)
    case = replace(chaos_case(2, FaultPlan(name="clean"), n_sites=3), builder="forged")
    run = run_case(case)
    assert not run.safety_ok
    assert "UpdatePayload" in run.violations[-1]


def test_a_case_reads_the_same_row_on_two_workers():
    case = chaos_case(3, standard_plans([f"s{i}" for i in range(4)])[4], n_sites=4, garbage_rings=2)
    sharded = replace(case, config=replace(case.config, parallel_workers=2))
    assert chaos_row(run_case(sharded)) == chaos_row(run_case(case))


# -- sequential/parallel twin under the same fault plan ----------------------

SITES = [f"s{i:02d}" for i in range(8)]
GC = GcConfig(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)
NETWORK = NetworkConfig(min_latency=5.0, max_latency=20.0, pair_rng_streams=True)
TWIN_PLAN = FaultPlan.loss(0.15, start=50.0, end=250.0).merge(
    FaultPlan.duplication(0.2, copies=1, lag=10.0, start=50.0, end=250.0),
    FaultPlan.reorder_burst(0.3, delay=15.0, start=50.0, end=250.0),
).named("twin-storm")


def _twin_run(workers, seed):
    config = SimulationConfig(
        seed=seed, gc=GC, network=NETWORK, parallel_workers=workers
    )
    sim = Simulation.create(config, fault_plan=TWIN_PLAN)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:4])
    sim.run_for(300.0)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(10):
        sim.run_gc_round()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    if isinstance(sim, ParallelSimulation):
        snap = sim.snapshot()
        sim.close()
    else:
        snap = graph_snapshot(sim)
    snap.pop("time", None)
    return json.dumps(snap, sort_keys=True)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_twin_is_byte_identical_under_fault_plan(workers):
    assert _twin_run(1, seed=17) == _twin_run(workers, seed=17)
