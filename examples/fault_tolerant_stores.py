#!/usr/bin/env python3
"""Locality under failure: crashes delay only the garbage they can reach.

Six sites.  Two independent garbage cycles exist: one on (a, b), one on
(c, d).  Site e crashes early, site c crashes midway.  Watch:

- the (a, b) cycle is collected on schedule -- neither crash touches it;
- the (c, d) cycle waits (back traces to c time out and conservatively
  answer Live -- never an unsafe collection) and is collected promptly after
  c recovers;
- the bystander crash of e never matters at all.

Contrast with global tracing or Hughes' algorithm, where *either* crash
would freeze collection everywhere (see benchmarks/bench_e6_*).

Run:  python examples/fault_tolerant_stores.py
"""

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.workloads import build_ring_cycle

SITES = ["a", "b", "c", "d", "e", "f"]


def cycle_status(sim, workload) -> str:
    alive = [m for m in workload.cycle if sim.site(m.site).heap.contains(m)]
    return "collected" if not alive else f"{len(alive)} objects remain"


def main() -> None:
    gc = GcConfig(backtrace_timeout=30.0)
    sim = Simulation.create(SimulationConfig(seed=11, gc=gc))
    sim.add_sites(SITES, auto_gc=False)

    cycle_ab = build_ring_cycle(sim, ["a", "b"])
    cycle_cd = build_ring_cycle(sim, ["c", "d"])
    oracle = Oracle(sim)

    for _ in range(2):
        sim.run_gc_round()

    print("cutting both cycles loose; crashing bystander e")
    cycle_ab.make_garbage(sim)
    cycle_cd.make_garbage(sim)
    sim.site("e").crash()

    for round_number in range(1, 16):
        if round_number == 3:
            print(">> site c crashes (a member of the c-d cycle)")
            sim.site("c").crash()
        sim.run_gc_round()
        oracle.check_safety()
        print(
            f"round {round_number}: cycle(a,b) {cycle_status(sim, cycle_ab):>12} | "
            f"cycle(c,d) {cycle_status(sim, cycle_cd)}"
        )
        if round_number == 10:
            # With c down, d's distance estimates freeze below the trigger
            # threshold, so the detector politely waits.  Force a back trace
            # into the void to show what *would* happen: the call to c gets
            # no reply, times out, and conservatively decides Live.
            suspects = sim.site("d").outrefs.suspected_entries()
            if suspects:
                print(">> forcing a back trace from d toward crashed c ...")
                sim.site("d").engine.start_trace(suspects[0].target)
                sim.run_for(5 * gc.backtrace_timeout)
                oracle.check_safety()

    print(">> site c recovers")
    sim.site("c").recover()
    for round_number in range(16, 40):
        sim.run_gc_round()
        oracle.check_safety()
        print(
            f"round {round_number}: cycle(a,b) {cycle_status(sim, cycle_ab):>12} | "
            f"cycle(c,d) {cycle_status(sim, cycle_cd)}"
        )
        remaining = {o for o in oracle.garbage_set() if o.site != "e"}
        if not remaining:
            break

    timeouts = sim.metrics.count("backtrace.frame_timeouts")
    live_verdicts = sim.metrics.count("backtrace.completed_live")
    print(f"\nconservative timeouts taken: {timeouts} "
          f"(each safely decided 'Live'; abortive traces: {live_verdicts})")
    print("site e is still crashed and nobody ever needed it.")


if __name__ == "__main__":
    main()
