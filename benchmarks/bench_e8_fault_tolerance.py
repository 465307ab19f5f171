"""E8 -- Fault tolerance and locality under failure (sections 2, 4.6).

Claims:

- locality implies a crashed site "will delay the collection of only the
  garbage reachable from its objects": cycles away from the failure are
  collected on time;
- back-trace waits are guarded by timeouts that conservatively decide Live:
  failures never cause unsafe collection, only (bounded) delay;
- after recovery / healing, the delayed garbage is collected too.
"""

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.harness.report import Table
from repro.net.faults import FaultPlan
from repro.workloads import build_ring_cycle

FT_GC = GcConfig(backtrace_timeout=30.0)


def make_sim(sites, seed=8, fault_plan=None):
    sim = Simulation(SimulationConfig(seed=seed, gc=FT_GC), fault_plan=fault_plan)
    sim.add_sites(sites, auto_gc=False)
    return sim


def rounds_until(sim, oracle, predicate, max_rounds=80):
    for round_number in range(1, max_rounds + 1):
        sim.run_gc_round()
        oracle.check_safety()
        if predicate():
            return round_number
    return None


def scenario_crash_bystander():
    """Cycle on a,b; c crashed; the cycle must still be collected."""
    sim = make_sim(["a", "b", "c", "d"])
    cycle = build_ring_cycle(sim, ["a", "b"])
    for _ in range(2):
        sim.run_gc_round()
    sim.site("c").crash()
    cycle.make_garbage(sim)
    oracle = Oracle(sim)
    rounds = rounds_until(
        sim, oracle, lambda: not {o for o in oracle.garbage_set() if o.site != "c"}
    )
    return rounds


def scenario_crash_member():
    """Cycle on a,b,c; c crashed: collection is delayed, resumes on recovery."""
    sim = make_sim(["a", "b", "c"])
    cycle = build_ring_cycle(sim, ["a", "b", "c"])
    for _ in range(2):
        sim.run_gc_round()
    cycle.make_garbage(sim)
    sim.site("c").crash()
    oracle = Oracle(sim)
    stalled = rounds_until(sim, oracle, lambda: not oracle.garbage_set(), max_rounds=12)
    survivors_alive = all(
        sim.site(m.site).heap.contains(m) for m in cycle.cycle if m.site != "c"
    )
    sim.site("c").recover()
    recovered = rounds_until(sim, oracle, lambda: not oracle.garbage_set())
    return stalled, survivors_alive, recovered


def scenario_partition():
    """Partition separates one cycle, not another."""
    sim = make_sim(["a", "b", "c", "d"])
    crossing = build_ring_cycle(sim, ["a", "c"])
    inside = build_ring_cycle(sim, ["a", "b"])
    for _ in range(2):
        sim.run_gc_round()
    crossing.make_garbage(sim)
    inside.make_garbage(sim)
    sim.network.partition({"a", "b"}, {"c", "d"})
    oracle = Oracle(sim)
    inside_rounds = rounds_until(
        sim,
        oracle,
        lambda: not [m for m in inside.cycle if sim.site(m.site).heap.contains(m)],
    )
    crossing_blocked = any(
        sim.site(m.site).heap.contains(m) for m in crossing.cycle
    )
    sim.network.heal_partition()
    healed_rounds = rounds_until(sim, oracle, lambda: not oracle.garbage_set())
    return inside_rounds, crossing_blocked, healed_rounds


def scenario_lossy_network(loss):
    sim = make_sim(["a", "b", "c"], fault_plan=FaultPlan.loss(loss))
    cycle = build_ring_cycle(sim, ["a", "b", "c"])
    for _ in range(2):
        sim.run_gc_round()
    cycle.make_garbage(sim)
    oracle = Oracle(sim)
    rounds = rounds_until(sim, oracle, lambda: not oracle.garbage_set(), max_rounds=150)
    return rounds


def test_e8_fault_matrix(benchmark, record_table):
    def run():
        bystander = scenario_crash_bystander()
        stalled, survivors_alive, recovered = scenario_crash_member()
        inside_rounds, crossing_blocked, healed = scenario_partition()
        lossless = scenario_lossy_network(0.0)
        lossy = scenario_lossy_network(0.2)
        return {
            "bystander": bystander,
            "member": (stalled, survivors_alive, recovered),
            "partition": (inside_rounds, crossing_blocked, healed),
            "loss": (lossless, lossy),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E8: failures delay only the garbage they can reach; timeouts keep traces safe",
        ["scenario", "outcome"],
    )
    table.add_row(
        "crashed bystander", f"cycle collected in {results['bystander']} rounds"
    )
    stalled, survivors_alive, recovered = results["member"]
    table.add_row(
        "crashed cycle member",
        f"stalled (as required, survivors intact={survivors_alive}); "
        f"collected {recovered} rounds after recovery",
    )
    inside_rounds, crossing_blocked, healed = results["partition"]
    table.add_row(
        "partition",
        f"same-side cycle collected in {inside_rounds} rounds; crossing cycle "
        f"waited={crossing_blocked}; all clean {healed} rounds after healing",
    )
    lossless, lossy = results["loss"]
    table.add_row(
        "20% message loss",
        f"collected in {lossy} rounds (vs {lossless} lossless) -- "
        "timeouts retried safely",
    )
    record_table("e8_faults", table)

    assert results["bystander"] is not None
    assert stalled is None and survivors_alive and recovered is not None
    assert inside_rounds is not None and crossing_blocked and healed is not None
    assert lossless is not None and lossy is not None


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
def test_lossy_network_rounds(benchmark, loss):
    rounds = benchmark.pedantic(scenario_lossy_network, args=(loss,), rounds=1, iterations=1)
    assert rounds is not None
