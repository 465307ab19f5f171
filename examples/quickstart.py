#!/usr/bin/env python3
"""Quickstart: watch a distributed garbage cycle die.

Builds two sites whose heaps hold a mutually-referencing pair of objects
(an inter-site cycle), anchors it to a persistent root, then cuts the anchor
and runs GC rounds.  Plain local tracing can never collect the pair; the
distance heuristic suspects it, a back trace confirms it, and the next local
traces delete it -- involving only the two sites that contain it.

Run:  python examples/quickstart.py
"""

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.workloads import GraphBuilder


def main() -> None:
    sim = Simulation.create(SimulationConfig(seed=42, gc=GcConfig()))
    sim.add_sites(["P", "Q"], auto_gc=False)

    build = GraphBuilder(sim)
    root = build.obj("P", "root", root=True)
    p = build.obj("P", "p")
    q = build.obj("Q", "q")
    build.link(root, p)   # root -> p keeps the cycle alive ... for now
    build.link(p, q)      # p -> q crosses P -> Q
    build.link(q, p)      # q -> p crosses Q -> P: an inter-site cycle

    oracle = Oracle(sim)
    print("objects:", sim.total_objects(), "| garbage:", len(oracle.garbage_set()))

    print("\n-- warm-up: distances converge while everything is live --")
    for _ in range(3):
        sim.run_gc_round()
    for site_id in ("P", "Q"):
        for entry in sim.sites[site_id].inrefs.entries():
            print(f"  {site_id}: inref {entry.target} distance={entry.distance}")

    print("\n-- cut the anchor: the cycle p <-> q is now garbage --")
    sim.site("P").mutator_remove_ref(root, p)
    print("garbage objects:", sorted(str(o) for o in oracle.garbage_set()))

    threshold = sim.config.gc.suspicion_threshold
    trigger = sim.config.gc.initial_back_threshold
    print(f"(suspicion threshold T={threshold}, first back trace at distance {trigger})")

    for round_number in range(1, 40):
        sim.run_gc_round()
        oracle.check_safety()  # the omniscient oracle: no live object lost
        distances = [
            entry.distance
            for site in sim.sites.values()
            for entry in site.inrefs.entries()
        ]
        started = sim.metrics.count("backtrace.started")
        confirmed = sim.metrics.count("backtrace.completed_garbage")
        print(
            f"round {round_number:2d}: cycle distance estimates {distances or '-'} "
            f"| back traces started={started} confirmed-garbage={confirmed}"
        )
        if not oracle.garbage_set():
            print(f"\ncycle collected after {round_number} rounds.")
            break

    calls = sim.metrics.count("messages.BackCall")
    replies = sim.metrics.count("messages.BackReply")
    reports = sim.metrics.count("messages.BackOutcome")
    print(
        f"back-trace cost: {calls} calls + {replies} replies + {reports} report "
        f"= {calls + replies + reports} messages (paper: 2E+N with E=2, N=2)"
    )
    assert sim.site("P").heap.contains(root), "the live root must survive"
    print("root object survived; no live object was ever collected.")


if __name__ == "__main__":
    main()
