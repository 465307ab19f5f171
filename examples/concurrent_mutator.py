#!/usr/bin/env python3
"""Everything at once: mutators, non-atomic local traces, back traces.

Four sites run automatic jittered local traces (each taking nonzero simulated
time, so messages land mid-trace); three random mutators traverse, copy,
delete, stash and ship references (firing transfer and insert barriers); the
detector chases the cycles the churn strands.  An omniscient oracle audits
safety continuously -- if the collector ever deleted a reachable object the
run would abort.

Run:  python examples/concurrent_mutator.py
"""

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.mutator import RandomWorkload, WorkloadConfig
from repro.workloads import build_random_clustered_graph, build_ring_cycle

SITES = ["s0", "s1", "s2", "s3"]


def main() -> None:
    gc = GcConfig(
        suspicion_threshold=1,          # suspect aggressively: max barrier traffic
        assumed_cycle_length=4,
        local_trace_period=60.0,
        local_trace_period_jitter=20.0,
        local_trace_duration=5.0,       # non-atomic traces (section 6.2)
        backtrace_timeout=200.0,
    )
    sim = Simulation.create(SimulationConfig(seed=1, gc=gc))
    sim.add_sites(SITES, auto_gc=True)
    graph = build_random_clustered_graph(sim, SITES, objects_per_site=25, seed=1)
    rings = [build_ring_cycle(sim, SITES[k:] + SITES[:k]) for k in range(3)]
    oracle = Oracle(sim)

    mutators = [
        RandomWorkload(
            sim, f"m{i}", graph.roots[i % len(graph.roots)],
            config=WorkloadConfig(mean_interval=3.0),
        )
        for i in range(3)
    ]
    for mutator in mutators:
        mutator.start()

    print(f"{'time':>6} {'objects':>8} {'swept':>6} {'traces g/l':>10} "
          f"{'barriers':>9} {'ops':>6}  safety")
    for slice_number in range(1, 21):
        sim.run_for(200.0)
        if slice_number == 5:
            rings[0].make_garbage(sim)
        if slice_number == 10:
            rings[1].make_garbage(sim)
            rings[2].make_garbage(sim)
        oracle.check_safety()
        print(
            f"{sim.now:>6.0f} {sim.total_objects():>8} "
            f"{sim.metrics.count('gc.objects_swept'):>6} "
            f"{sim.metrics.count('backtrace.completed_garbage'):>4}/"
            f"{sim.metrics.count('backtrace.completed_live'):<5} "
            f"{sim.metrics.count('barrier.transfer_applied'):>9} "
            f"{sum(m.ops_executed for m in mutators):>6}  OK"
        )

    print("\nstopping mutators; draining to zero garbage ...")
    for mutator in mutators:
        mutator.stop()
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    for round_number in range(1, 121):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            print(f"all garbage collected {round_number} rounds after quiesce.")
            break
    else:
        raise SystemExit("garbage persisted -- completeness violated!")
    print("safety violations observed: 0")


if __name__ == "__main__":
    main()
