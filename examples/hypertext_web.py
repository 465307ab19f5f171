#!/usr/bin/env python3
"""The paper's motivating workload: hypertext documents.

"Hypertext documents often form large, complex cycles.  Collection of such
cycles is particularly important in long-lived systems because even small
amounts of uncollected garbage can accumulate over time to cause a
significant storage loss." (section 1)

This example builds a web of cross-linked documents over four sites, then
slowly drops documents from the catalog -- the long-lived-system scenario.
Two systems run side by side on identical webs:

- plain local tracing (inter-site reference listing only,
  ``collector="null"``), which leaks every citation cycle;
- the paper's system with back tracing (``collector="backtrace"``), which
  collects them.

The printed series is the accumulated storage loss over time.

Run:  python examples/hypertext_web.py
"""

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.workloads import build_hypertext_web

SITES = ["lib0", "lib1", "lib2", "lib3"]


def build(collector: str):
    gc = GcConfig(collector=collector)
    sim = Simulation.create(SimulationConfig(seed=7, gc=gc))
    sim.add_sites(SITES, auto_gc=False)
    web = build_hypertext_web(
        sim,
        SITES,
        documents_per_site=3,
        sections_per_document=3,
        citations_per_document=2,
        back_link_probability=0.8,
        catalog_fraction=1.0,
        seed=7,
    )
    return sim, web


def main() -> None:
    sim_leaky, web_leaky = build("null")
    sim_fixed, web_fixed = build("backtrace")
    oracle_leaky = Oracle(sim_leaky)
    oracle_fixed = Oracle(sim_fixed)

    total_docs = len(web_leaky.documents)
    print(f"{total_docs} documents across {len(SITES)} sites, "
          f"{len(web_leaky.links)} citation links\n")
    print(f"{'epoch':>5} {'dropped':>8} | {'local-only: objects':>20} {'leaked':>7} "
          f"| {'back-tracing: objects':>22} {'leaked':>7}")

    epochs = list(web_leaky.catalog_entries)
    for epoch, index in enumerate(epochs, start=1):
        web_leaky.unlink_from_catalog(sim_leaky, index)
        web_fixed.unlink_from_catalog(sim_fixed, index)
        for _ in range(6):
            sim_leaky.run_gc_round()
            sim_fixed.run_gc_round()
            oracle_fixed.check_safety()
            oracle_leaky.check_safety()
        leak_leaky = len(oracle_leaky.garbage_set())
        leak_fixed = len(oracle_fixed.garbage_set())
        print(
            f"{epoch:>5} {epoch:>8} | {sim_leaky.total_objects():>20} {leak_leaky:>7} "
            f"| {sim_fixed.total_objects():>22} {leak_fixed:>7}"
        )

    # The citation web is dense, so most documents stay transitively
    # reachable until the last catalog entries go; now let both systems keep
    # running (the "long-lived system" part of the story).
    print("\ndraining: both systems keep running their GC rounds ...")
    drained_after = None
    for round_number in range(1, 41):
        sim_leaky.run_gc_round()
        sim_fixed.run_gc_round()
        oracle_fixed.check_safety()
        oracle_leaky.check_safety()
        if drained_after is None and not oracle_fixed.garbage_set():
            drained_after = round_number
            break

    print("\nfinal storage:")
    print(f"  local tracing only : {sim_leaky.total_objects()} objects "
          f"({len(oracle_leaky.garbage_set())} of them uncollectable cyclic garbage)")
    print(f"  with back tracing  : {sim_fixed.total_objects()} objects "
          f"({len(oracle_fixed.garbage_set())} garbage; "
          f"clean {drained_after} rounds after the last unlink)")
    traces = sim_fixed.metrics.count("backtrace.started")
    confirmed = sim_fixed.metrics.count("backtrace.completed_garbage")
    print(f"  back traces: {traces} started, {confirmed} confirmed garbage")
    assert not oracle_fixed.garbage_set()
    assert oracle_leaky.garbage_set()


if __name__ == "__main__":
    main()
